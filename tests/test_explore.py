import gc
import weakref

import pytest

from rarcheck.assertions import (AndA, BoolA, Def, LocalPred, ProofOutline,
                                 VarEq)
from rarcheck.explore import (SystemContext, canonical_key, check_hoare,
                              check_outline, explore, successors)
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.program import Bin, Bot, Labeled, Lit, ProgramError, Var, nodes
from rarcheck.state import make_init_states
from reference_key import describe, ref_key, reference_key, remap


def mp_system(name="mp-relacq"):
    return build_system(load_corpus(name))


class TestSuccessors:
    def test_terminal_has_none(self):
        rho, g, b = make_init_states([("d", 0)], (), {1})
        ctx = SystemContext([1])
        cfg = ctx.configuration({1: Bot()}, rho, g, b)
        assert successors(cfg, ctx) == []

    def test_lock_client_init_has_two(self):
        system = build_system(load_corpus("lockmp"))
        succ = successors(system.cfg0, system.ctx)
        assert len(succ) == 2
        assert {t for t, _, _ in succ} == {1, 2}
        assert all("acquire" in lab.text for _, lab, _ in succ)

    def test_unreadable_value_filtered(self):
        system = mp_system("mp-relaxed")
        succ = successors(system.cfg0, system.ctx)
        # thread 2's first read can only return the initial flag value
        reads = [(t, lab) for t, lab, _ in succ if t == 2]
        assert len(reads) == 1
        assert "rdA(f,0)" in reads[0][1].text

    def test_deterministic_order(self):
        system = mp_system()
        a = [(t, lab.text) for t, lab, _ in
             successors(system.cfg0, system.ctx)]
        b = [(t, lab.text) for t, lab, _ in
             successors(system.cfg0, system.ctx)]
        assert a == b


class TestExplore:
    def test_relaxed_mp_outcomes(self):
        system = mp_system("mp-relaxed")
        res = explore(system.cfg0, system.ctx, 64)
        assert {tuple(sorted(o.items())) for o in res.outcomes} == {
            (("r2", 0),), (("r2", 5),)}
        assert not res.truncated

    def test_relacq_mp_single_outcome(self):
        system = mp_system("mp-relacq")
        res = explore(system.cfg0, system.ctx, 64)
        assert res.outcomes == [{"r1": 1, "r2": 5}]
        assert not res.truncated

    def test_lock_client_outcomes(self):
        system = build_system(load_corpus("lockmp"))
        res = explore(system.cfg0, system.ctx, 64)
        assert res.outcomes == [{"r1": 0, "r2": 0}, {"r1": 5, "r2": 5}]

    def test_monotone_in_bound(self):
        system = build_system(load_corpus("queue-mp"))
        small = explore(system.cfg0, system.ctx, 24)
        large = explore(system.cfg0, system.ctx, 40)
        def keyset(res):
            return {tuple(sorted(o.items())) for o in res.outcomes}
        assert keyset(small) <= keyset(large)

    def test_invalid_bound(self):
        system = mp_system()
        with pytest.raises(ValueError):
            explore(system.cfg0, system.ctx, 0)

    def test_witness_replay_determinacy(self):
        system = build_system(load_corpus("lockmp"))
        res = explore(system.cfg0, system.ctx, 64)
        n = res.terminals[0]
        path = res.witness_path(n)
        cfg = system.cfg0
        for step in path:
            matches = [nxt for t, lab, nxt in successors(cfg, system.ctx)
                       if t == step["thread"]
                       and lab.text == step["label"]]
            assert len(matches) == 1
            cfg = matches[0]
        assert cfg == res.states[n]


def outcomes_of(text):
    system = build_system(parse_litmus(text))
    res = explore(system.cfg0, system.ctx, 64)
    assert not res.truncated
    return [{r: repr(v) for r, v in oc.items()} for oc in res.outcomes]


class TestReadsFromMemory:
    """A read takes its value from a write it observes, also a value
    computed at run time that the program text never mentions."""

    def test_computed_value_is_read(self):
        got = outcomes_of("name t\ninit x := 0; y := 0\n"
                          "thread 1 { r0 <- y; x := r0 + 7; }\n"
                          "thread 2 { y := 3; }\n"
                          "thread 3 { r1 <- x; }\n")
        assert {"r0": "3", "r1": "10"} in got
        assert len(got) == 4

    def test_fai_result_is_read_by_a_failing_cas(self):
        got = outcomes_of("name t\ninit u := 2\n"
                          "thread 1 { r1 <- FAI(u); r2 <- CAS(u, 0, 1); }\n")
        assert got == [{"r1": "2", "r2": "false"}]


class TestObjectResults:
    def test_dequeued_bot_is_bound(self):
        # the call's result comes from its method: a deq that returns an
        # enqueued bot binds it
        got = outcomes_of("name t\nobject queue q\n"
                          "thread 1 { q.enq(bot); r1 := 5; r1 := q.deq(); }\n")
        assert got == [{"r1": "bot"}]

    def test_release_result_is_bot(self):
        # a method without a result returns bot, and its caller binds it
        assert outcomes_of("name t\nobject lock l\n"
                           "thread 1 { l.acquire(); r := l.release(); }\n"
                           ) == [{"r": "bot"}]
        assert outcomes_of("name t\nobject queue q\n"
                           "thread 1 { r := 5; r := q.enq(1); }\n"
                           ) == [{"r": "bot"}]


ONE_AND_TRUE = """name bools
init x := 0
thread 1 { x := 1; }
thread 2 { x := true; }
thread 3 { r1 <- x; r2 <- x; }
"""


class TestExactValues:
    """A boolean never equals an integer, so configurations that differ
    only by 1 against true are two states."""

    def test_one_and_true_are_both_read(self):
        got = outcomes_of(ONE_AND_TRUE)
        pairs = {(oc["r1"], oc["r2"]) for oc in got}
        assert {("1", "true"), ("true", "1"), ("true", "true")} <= pairs
        assert len(got) == 7

    def test_false_is_not_zero(self):
        # a CAS expecting 0 does not take false, and a test compares exactly
        got = outcomes_of("name t\ninit x := false\n"
                          "thread 1 { r1 <- CAS(x, 0, 1); r2 := r1 = true; }\n")
        assert got == [{"r1": "false", "r2": "false"}]

    @pytest.mark.parametrize("expr", ["true + 1", "false < 1", "-(true)",
                                      "(1 = 1) * 2"])
    def test_arithmetic_on_a_boolean_is_an_input_error(self, expr):
        with pytest.raises(ProgramError, match="cannot evaluate"):
            outcomes_of(f"name t\nthread 1 {{ r := {expr}; }}\n")

    def test_no_python_bool_in_the_state_corpus(self, state_corpus):
        # registers, actions and command literals hold TRUE/FALSE, which
        # equal no integer; a Python bool would equal 1 or 0 again
        for _, cfg in state_corpus:
            for ls in cfg.rho.values():
                assert not any(type(v) is bool for v in ls.values()), ls
            for col in (*cfg.gamma.acts, *cfg.beta.acts):
                for a in col:
                    assert type(a.val) is not bool, a
                    assert type(a.aux) is not bool, a
            for p in cfg.prog.values():
                for n in nodes(p):
                    assert type(getattr(n, "val", None)) is not bool, n
                    assert type(getattr(n, "retval", None)) is not bool, n


class TestCanonicalKey:
    def test_reflexive(self):
        system = mp_system()
        assert canonical_key(system.cfg0) == canonical_key(system.cfg0)

    def test_timestamp_scaling_is_isomorphic(self):
        # the reference key reads timestamps as opaque ordered values
        system = build_system(load_corpus("lockmp"))
        res = explore(system.cfg0, system.ctx, 64)
        cfg = res.states[res.terminals[0]]
        scaled = remap(describe(cfg), lambda q: 3 * q + 7)
        assert reference_key(scaled) == ref_key(cfg)

    def test_order_swap_changes_key(self):
        system = build_system(load_corpus("lockmp"))
        res = explore(system.cfg0, system.ctx, 64)
        # the last two positions on one client variable trade places
        cfg, x = next((c, x) for c in res.states
                      for x in c.gamma.lay.own if len(c.gamma.ops_on(x)) >= 2)
        n = len(cfg.gamma.ops_on(x))
        swap = {n - 2: n - 1, n - 1: n - 2}
        swapped = remap(describe(cfg), lambda q: swap.get(q, q), {x})
        assert reference_key(swapped) != ref_key(cfg)


class TestCheckHoare:
    def test_trivial(self):
        rho, g, b = make_init_states([], (), {1})
        ctx = SystemContext([1])
        cfg = ctx.configuration({1: Labeled(1, Bot())}, rho, g, b)
        rep = check_hoare(cfg, ctx, BoolA(True), BoolA(True), 8)
        assert rep.verdict == "valid"

    def test_lock_client_valid(self):
        system = build_system(load_corpus("lockmp"))
        rep = check_hoare(system.cfg0, system.ctx, None,
                          system.outline.final, 64)
        assert rep.verdict == "valid"

    def test_wrong_post_has_witness(self):
        system = build_system(load_corpus("lockmp"))
        bad = AndA((LocalPred(Bin("=", Var("r1"), Lit(5))),
                    LocalPred(Bin("=", Var("r2"), Lit(0)))))
        rep = check_hoare(system.cfg0, system.ctx, None, bad, 64)
        assert rep.verdict == "invalid"
        assert rep.witness

    def test_unsatisfied_pre_is_vacuous(self):
        system = build_system(load_corpus("lockmp"))
        rep = check_hoare(system.cfg0, system.ctx, BoolA(False),
                          BoolA(False), 64)
        assert rep.verdict == "valid"


class TestCheckOutline:
    def test_fig_outline_valid(self):
        system = build_system(load_corpus("lockmp"))
        rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
        assert rep.valid
        assert set(rep.verdicts) == {
            "Inv", "final",
            "T1@1", "T1@2", "T1@3", "T1@4",
            "T2@1", "T2@2", "T2@3", "T2@4"}

    def test_weakened_annotation_still_valid(self):
        # dropping a conjunct weakens the annotation: reachability-checking
        # cannot fail, documenting the under-approximation
        system = build_system(load_corpus("lockmp"))
        anns = {t: dict(d) for t, d in system.outline.annotations.items()}
        q2 = anns[2][2]
        anns[2][2] = q2.items[0]  # keep only the first-acquirer implication
        weakened = ProofOutline(anns, system.outline.invariant,
                                system.outline.final)
        rep = check_outline(system.cfg0, system.ctx, weakened, 64)
        assert rep.valid

    def test_false_at_init_invalid(self):
        system = build_system(load_corpus("lockmp"))
        anns = {t: dict(d) for t, d in system.outline.annotations.items()}
        anns[2][1] = Def(2, VarEq("d1", Lit(5)))
        broken = ProofOutline(anns, system.outline.invariant,
                              system.outline.final)
        rep = check_outline(system.cfg0, system.ctx, broken, 64)
        assert rep.verdicts["T2@1"].verdict == "invalid"
        assert rep.verdicts["T2@1"].witness == []  # fails at the start

    def test_mutant_file_yields_witness(self):
        system = build_system(load_corpus("lockmp-mutant"))
        rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
        assert not rep.valid
        bad = rep.verdicts["T2@2"]
        assert bad.verdict == "invalid"
        assert bad.witness  # concrete path to the violation

    def test_quantified_invariant(self):
        from rarcheck.litmus import Parser
        system = build_system(load_corpus("lockmp"))
        inv = Parser("forall v in {0,5}: "
                     "(dobs(1, d1=v) => pobs(1, d1=v))").parse_assertion()
        outline = ProofOutline({}, invariant=inv)
        rep = check_outline(system.cfg0, system.ctx, outline, 64)
        assert rep.verdicts["Inv"].verdict == "valid"
        bogus = Parser("exists v in {7,8}: pobs(1, d1=v)").parse_assertion()
        rep2 = check_outline(system.cfg0, system.ctx,
                             ProofOutline({}, invariant=bogus), 64)
        assert rep2.verdicts["Inv"].verdict == "invalid"


CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
          "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")


@pytest.fixture()
def no_cyclic_collector():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestFreedByReferenceCounting:
    # a checked system holds no reference cycle, so it is freed as soon as
    # it is dropped, with the cyclic collector off, and leaves it nothing
    @pytest.mark.parametrize("check", ["outline", "hoare"])
    @pytest.mark.parametrize("name", CORPUS)
    def test_checked_system_is_freed(self, no_cyclic_collector, name,
                                     check):
        system = build_system(load_corpus(name))
        ctx = weakref.ref(system.ctx)
        if check == "outline":
            check_outline(system.cfg0, system.ctx, system.outline, 64)
        else:
            check_hoare(system.cfg0, system.ctx, system.outline.pre,
                        system.outline.final, 64)
        del system
        assert ctx() is None
        assert gc.collect() == 0
