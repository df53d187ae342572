import pytest

from rarcheck.assertions import (AndA, BoolA, CondCross,
                                 DefMeth, DefVar,
                                 LocalPred, MethodInstance, NotA, PcIn,
                                 PossMeth, PossVar, eval_assertion,
                                 eval_conditional, eval_cond_cross,
                                 eval_covered, eval_definite,
                                 eval_definite_meth, eval_hidden,
                                 eval_possible, eval_possible_meth)
from rarcheck.explore import explore, successors
from rarcheck.litmus import build_system, load_corpus
from rarcheck.memory import mem_write
from rarcheck.objects import lock_acquire, lock_release, lock_spec
from rarcheck.program import Bin, Lit, Var
from rarcheck.state import (LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE,
                            StateError, make_init_states, write)


def lock_system():
    return make_init_states([("d1", 0), ("d2", 0)], {"d1", "d2"},
                            ("lock", "l"), {1, 2})


def minst(kind, index):
    return MethodInstance("l", kind, index=index)


class TestPossible:
    def test_init_value(self):
        _, g, _ = lock_system()
        assert eval_possible(g, 1, "d1", 0)

    def test_absent_value(self):
        _, g, _ = lock_system()
        assert not eval_possible(g, 1, "d1", 5)

    def test_unknown_variable_is_a_state_error(self):
        # no view of it exists; `build_system` rejects every atom that
        # would read one, so reaching this is a fault, not false
        _, g, _ = lock_system()
        with pytest.raises(StateError):
            eval_possible(g, 1, "zz", 0)

    def test_release_possible_for_waiting_thread(self):
        _, g, b = lock_system()
        (b, g, _), = lock_acquire(b, g, 1, "l")
        (b, g, _), = lock_release(b, g, 1, "l")
        assert eval_possible_meth(b, 2, minst(LOCK_RELEASE, 2))
        assert not eval_possible_meth(b, 2, minst(LOCK_RELEASE, 4))


class TestDefinite:
    def test_init_definite(self):
        _, g, _ = lock_system()
        assert eval_definite(g, 1, "d1", 0)
        assert not eval_definite(g, 1, "d1", 5)

    def test_write_splits_views(self):
        _, g, b = lock_system()
        (g, b, _), = mem_write(g, b, 1, write("d1", 5))
        assert eval_definite(g, 1, "d1", 5)
        assert not eval_definite(g, 2, "d1", 5)
        assert not eval_definite(g, 2, "d1", 0)  # stale view, newer write

    def test_init_lock_definite(self):
        _, _, b = lock_system()
        assert eval_definite_meth(b, 1, minst(LOCK_INIT, 0))
        assert eval_definite_meth(b, 1, MethodInstance("l", "init"))

    def test_no_write_false(self):
        _, g, _ = lock_system()
        assert not eval_definite(g, 1, "zz", 0)


class TestConditional:
    def test_vacuous_when_value_unobservable(self):
        _, g, _ = lock_system()
        assert eval_conditional(g, 1, "d1", 7, "d2", 5)

    def test_release_write_pins_payload(self):
        # message-passing prefix: d1 := 5 then a releasing flag write
        rho, g, b = make_init_states([("d", 0), ("f", 0)], {"d", "f"},
                                     None, {1, 2})
        (g, b, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _), = mem_write(g, b, 1, write("f", 1, releasing=True))
        assert eval_conditional(g, 2, "f", 1, "d", 5)
        assert not eval_conditional(g, 2, "f", 1, "d", 0)

    def test_relaxed_write_fails_conditional(self):
        rho, g, b = make_init_states([("d", 0), ("f", 0)], {"d", "f"},
                                     None, {1, 2})
        (g, b, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _), = mem_write(g, b, 1, write("f", 1))
        assert not eval_conditional(g, 2, "f", 1, "d", 5)

    def test_cross_component_release_pins_client_writes(self):
        _, g, b = lock_system()
        spec = lock_spec("l")
        (b, g, _), = lock_acquire(b, g, 1, "l")
        (g, b, _), = mem_write(g, b, 1, write("d1", 5))
        (b, g, _), = lock_release(b, g, 1, "l")
        assert eval_cond_cross(b, g, 2, minst(LOCK_RELEASE, 2), "d1", 5, spec)
        assert not eval_cond_cross(b, g, 2, minst(LOCK_RELEASE, 2), "d1", 0,
                                   spec)
        # init operations are not synchronising
        assert not eval_cond_cross(b, g, 2, MethodInstance("l", "init", 0),
                                   "d1", 5, spec)


class TestCoveredHidden:
    def test_init_is_lone_uncovered_max(self):
        _, _, b = lock_system()
        assert eval_covered(b, minst(LOCK_INIT, 0))

    def test_acquire_covers_init(self):
        _, g, b = lock_system()
        (b, g, _), = lock_acquire(b, g, 1, "l")
        assert eval_covered(b, minst(LOCK_ACQUIRE, 1))
        assert eval_hidden(b, minst(LOCK_INIT, 0))

    def test_two_uncovered_ops_not_covered(self):
        _, g, b = lock_system()
        (b, g, _), = lock_acquire(b, g, 1, "l")
        (b, g, _), = lock_release(b, g, 1, "l")
        assert not eval_covered(b, minst(LOCK_RELEASE, 2))

    def test_hidden_needs_existence(self):
        _, _, b = lock_system()
        assert not eval_hidden(b, minst(LOCK_INIT, 0))  # exists, uncovered
        assert not eval_hidden(b, minst(LOCK_RELEASE, 4))  # absent


class TestEvalAssertion:
    def setup_method(self):
        self.system = build_system(load_corpus("lockmp"))
        self.ectx = self.system.ctx.eval_ctx()
        self.cfg0 = self.system.cfg0

    def test_true(self):
        assert eval_assertion(BoolA(True), self.cfg0, self.ectx)

    def test_fig_invariant_at_init(self):
        inv = self.system.outline.invariant
        assert eval_assertion(inv, self.cfg0, self.ectx)

    def test_conjunction_with_false_conjunct(self):
        a = AndA((BoolA(True), DefVar(1, "d1", Lit(5))))
        assert not eval_assertion(a, self.cfg0, self.ectx)

    def test_pc_and_locals(self):
        assert eval_assertion(PcIn(1, frozenset({1})), self.cfg0, self.ectx)
        assert not eval_assertion(PcIn(1, frozenset({2})), self.cfg0,
                                  self.ectx)
        assert eval_assertion(LocalPred(Bin("=", Var("rl"), Lit(1))),
                              self.cfg0, self.ectx)

    def test_stability_under_silent_steps(self):
        # observability atoms are untouched by silent steps of any thread
        probe = AndA((DefVar(1, "d1", Lit(0)), PossVar(2, "d2", Lit(0)),
                      DefMeth(2, MethodInstance("l", "init", 0)),
                      NotA(PossMeth(1, minst(LOCK_RELEASE, 2)))))
        res = explore(self.cfg0, self.system.ctx, 64)
        checked = 0
        for cfg in res.configs.values():
            before = eval_assertion(probe, cfg, self.ectx)
            for t, lab, nxt in successors(cfg, self.system.ctx):
                if lab.action is None:
                    assert eval_assertion(probe, nxt, self.ectx) == before
                    checked += 1
        assert checked > 0

    def test_definite_implies_possible_everywhere(self):
        res = explore(self.cfg0, self.system.ctx, 64)
        for cfg in res.configs.values():
            for t in self.system.ctx.threads:
                for x in ("d1", "d2"):
                    for v in (0, 5):
                        if eval_definite(cfg.gamma, t, x, v):
                            assert eval_possible(cfg.gamma, t, x, v)

    def test_definite_uniqueness(self):
        res = explore(self.cfg0, self.system.ctx, 64)
        for cfg in res.configs.values():
            for t in self.system.ctx.threads:
                held = [v for v in (0, 5)
                        if eval_definite(cfg.gamma, t, "d1", v)]
                assert len(held) <= 1

    def test_handover_conditional_after_first_thread_finishes(self):
        # whenever thread 1 terminated and thread 2 has not started, the
        # release pins both data values for thread 2's future acquire
        from rarcheck.program import pc_of
        res = explore(self.cfg0, self.system.ctx, 64)
        cond = AndA((CondCross(2, minst(LOCK_RELEASE, 2), "d1", Lit(5)),
                     CondCross(2, minst(LOCK_RELEASE, 2), "d2", Lit(5))))
        hits = 0
        for cfg in res.configs.values():
            if pc_of(cfg.prog[1], 4) == 5 and pc_of(cfg.prog[2], 4) == 1:
                assert eval_assertion(cond, cfg, self.ectx)
                hits += 1
        assert hits > 0
