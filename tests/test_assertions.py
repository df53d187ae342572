import pytest

from rarcheck.assertions import (AndA, BoolA, Cond, Def, LocalPred,
                                 MethodInstance, NotA, PcIn, Poss, VarEq,
                                 cond, dobs, eval_assertion, eval_covered,
                                 eval_hidden, pobs, wrote)
from rarcheck.explore import (Configuration, SystemContext, explore,
                              successors)
from rarcheck.litmus import build_system, load_corpus
from rarcheck.memory import mem_write
from rarcheck.objects import lock_acquire, lock_release, spec_of
from rarcheck.program import Bin, Lit, Var
from rarcheck.state import (LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE,
                            StateError, is_releasing_write, make_init_states,
                            write)


def lock_system():
    return make_init_states([("d1", 0), ("d2", 0)],
                            spec_of("lock", "l").init_actions(), {1, 2})


def minst(kind, index):
    return MethodInstance("l", kind, index=index)


def holds(atom, g, b, spec=None):
    """atom at the configuration of components g and b and no thread."""
    return eval_assertion(atom, Configuration(((), g, b)),
                          SystemContext((), spec))


class TestPossible:
    def test_init_value(self):
        _, g, _ = lock_system()
        assert pobs(g, 1, "d1", wrote(0))

    def test_absent_value(self):
        _, g, _ = lock_system()
        assert not pobs(g, 1, "d1", wrote(5))

    def test_unknown_variable_is_a_state_error(self):
        # no view of it exists; `build_system` rejects every atom that
        # would read one, so reaching this is a fault, not false
        _, g, _ = lock_system()
        with pytest.raises(StateError):
            pobs(g, 1, "zz", wrote(0))

    def test_release_possible_for_waiting_thread(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        (b, g, _, _), = lock_release(b, g, 1, "l")
        assert pobs(b, 2, "l", minst(LOCK_RELEASE, 2).matches)
        assert not pobs(b, 2, "l", minst(LOCK_RELEASE, 4).matches)


class TestDefinite:
    def test_init_definite(self):
        _, g, _ = lock_system()
        assert dobs(g, 1, "d1", wrote(0))
        assert not dobs(g, 1, "d1", wrote(5))

    def test_write_splits_views(self):
        _, g, b = lock_system()
        (g, b, _, _), = mem_write(g, b, 1, write("d1", 5))
        assert dobs(g, 1, "d1", wrote(5))
        assert not dobs(g, 2, "d1", wrote(5))
        assert not dobs(g, 2, "d1", wrote(0))  # stale view, newer write

    def test_init_lock_definite(self):
        _, _, b = lock_system()
        assert dobs(b, 1, "l", minst(LOCK_INIT, 0).matches)
        assert dobs(b, 1, "l", MethodInstance("l", "init").matches)

    def test_unknown_variable_is_a_state_error(self):
        # as for pobs: x has no column, so it has no top operation
        _, g, _ = lock_system()
        with pytest.raises(StateError):
            dobs(g, 1, "zz", wrote(0))


class TestConditional:
    def test_vacuous_when_value_unobservable(self):
        _, g, _ = lock_system()
        assert cond(g, 1, "d1", wrote(7), is_releasing_write, g, "d2", 5)

    def test_release_write_pins_payload(self):
        # message-passing prefix: d1 := 5 then a releasing flag write
        rho, g, b = make_init_states([("d", 0), ("f", 0)], (), {1, 2})
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _, _), = mem_write(g, b, 1, write("f", 1, releasing=True))
        assert cond(g, 2, "f", wrote(1), is_releasing_write, g, "d", 5)
        assert not cond(g, 2, "f", wrote(1), is_releasing_write, g, "d", 0)

    def test_relaxed_write_fails_conditional(self):
        rho, g, b = make_init_states([("d", 0), ("f", 0)], (), {1, 2})
        (g, b, _, _), = mem_write(g, b, 1, write("d", 5))
        (g, b, _, _), = mem_write(g, b, 1, write("f", 1))
        assert not cond(g, 2, "f", wrote(1), is_releasing_write, g, "d", 5)

    def test_cross_component_release_pins_client_writes(self):
        _, g, b = lock_system()
        spec = spec_of("lock", "l")
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        (g, b, _, _), = mem_write(g, b, 1, write("d1", 5))
        (b, g, _, _), = lock_release(b, g, 1, "l")
        assert holds(Cond(2, minst(LOCK_RELEASE, 2), "d1", Lit(5)), g, b,
                     spec)
        assert not holds(Cond(2, minst(LOCK_RELEASE, 2), "d1", Lit(0)), g, b,
                         spec)
        # init operations are not synchronising
        assert not holds(Cond(2, MethodInstance("l", "init", 0), "d1", Lit(5)),
                         g, b, spec)


class TestCoveredHidden:
    def test_init_is_lone_uncovered_max(self):
        _, _, b = lock_system()
        assert eval_covered(b, minst(LOCK_INIT, 0))

    def test_acquire_covers_init(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        assert eval_covered(b, minst(LOCK_ACQUIRE, 1))
        assert eval_hidden(b, minst(LOCK_INIT, 0))

    def test_two_uncovered_ops_not_covered(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        (b, g, _, _), = lock_release(b, g, 1, "l")
        assert not eval_covered(b, minst(LOCK_RELEASE, 2))

    def test_hidden_needs_existence(self):
        _, _, b = lock_system()
        assert not eval_hidden(b, minst(LOCK_INIT, 0))  # exists, uncovered
        assert not eval_hidden(b, minst(LOCK_RELEASE, 4))  # absent


class TestEvalAssertion:
    def setup_method(self):
        self.system = build_system(load_corpus("lockmp"))
        self.ectx = self.system.ctx
        self.cfg0 = self.system.cfg0

    def test_true(self):
        assert eval_assertion(BoolA(True), self.cfg0, self.ectx)

    def test_fig_invariant_at_init(self):
        inv = self.system.outline.invariant
        assert eval_assertion(inv, self.cfg0, self.ectx)

    def test_conjunction_with_false_conjunct(self):
        a = AndA((BoolA(True), Def(1, VarEq("d1", Lit(5)))))
        assert not eval_assertion(a, self.cfg0, self.ectx)

    def test_pc_and_locals(self):
        assert eval_assertion(PcIn(1, frozenset({1})), self.cfg0, self.ectx)
        assert not eval_assertion(PcIn(1, frozenset({2})), self.cfg0,
                                  self.ectx)
        assert eval_assertion(LocalPred(Bin("=", Var("rl"), Lit(1))),
                              self.cfg0, self.ectx)

    def test_stability_under_silent_steps(self):
        # observability atoms are untouched by silent steps of any thread
        probe = AndA((Def(1, VarEq("d1", Lit(0))),
                      Poss(2, VarEq("d2", Lit(0))),
                      Def(2, MethodInstance("l", "init", 0)),
                      NotA(Poss(1, minst(LOCK_RELEASE, 2)))))
        res = explore(self.cfg0, self.system.ctx, 64)
        checked = 0
        for cfg in res.states:
            before = eval_assertion(probe, cfg, self.ectx)
            for t, lab, nxt in successors(cfg, self.system.ctx):
                if lab.action is None:
                    assert eval_assertion(probe, nxt, self.ectx) == before
                    checked += 1
        assert checked > 0

    def test_definite_implies_possible_everywhere(self):
        res = explore(self.cfg0, self.system.ctx, 64)
        for cfg in res.states:
            for t in self.system.ctx.threads:
                for x in ("d1", "d2"):
                    for v in (0, 5):
                        if dobs(cfg.gamma, t, x, wrote(v)):
                            assert pobs(cfg.gamma, t, x, wrote(v))

    def test_definite_uniqueness(self):
        res = explore(self.cfg0, self.system.ctx, 64)
        for cfg in res.states:
            for t in self.system.ctx.threads:
                held = [v for v in (0, 5)
                        if dobs(cfg.gamma, t, "d1", wrote(v))]
                assert len(held) <= 1

    def test_handover_conditional_after_first_thread_finishes(self):
        # whenever thread 1 terminated and thread 2 has not started, the
        # release pins both data values for thread 2's future acquire
        from rarcheck.program import pc_of
        res = explore(self.cfg0, self.system.ctx, 64)
        pinned = AndA((Cond(2, minst(LOCK_RELEASE, 2), "d1", Lit(5)),
                       Cond(2, minst(LOCK_RELEASE, 2), "d2", Lit(5))))
        hits = 0
        for cfg in res.states:
            if pc_of(cfg.prog[1], 4) == 5 and pc_of(cfg.prog[2], 4) == 1:
                assert eval_assertion(pinned, cfg, self.ectx)
                hits += 1
        assert hits > 0
