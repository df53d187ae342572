"""Acceptance suite: one check per criterion, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines
immediately).
"""

import time

import pytest

from lock_rules import check_lock_rules
from rarcheck.assertions import dobs, eval_assertion, pobs, wrote
from rarcheck.explore import check_outline, explore, successors
from rarcheck.litmus import build_system, load_corpus
from rarcheck.oracle import fifo_check, matched_order_ok
from rarcheck.refine import (builtin_impls, check_simulation,
                             check_trace_refinement)
from rarcheck.state import (LOCK_ACQUIRE, LOCK_RELEASE, UPDATE, WRITE,
                            merge_views, wrval)
from reference_key import (describe, inserted_op, ref_key, reference_key,
                           remap)

PASSED = []


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    PASSED.append(line)
    assert ok, line


def outcomes_of(name, max_steps=64):
    system = build_system(load_corpus(name))
    t0 = time.monotonic()
    res = explore(system.cfg0, system.ctx, max_steps)
    return system, res, time.monotonic() - t0


class TestCriterion1:
    def test_relaxed_mp_both_outcomes(self):
        system, res, dt = outcomes_of("mp-relaxed")
        r2s = {oc["r2"] for oc in res.outcomes}
        ok = r2s == {0, 5} and dt < 1.0 and res.states_explored < 10 ** 4
        report(1, ok, f"relaxed MP r2 in {sorted(r2s)}, "
                      f"{res.states_explored} states, {dt:.2f}s")


class TestCriterion2:
    def test_release_acquire_mp_unique_outcome(self):
        system, res, dt = outcomes_of("mp-relacq")
        ok = res.outcomes == [{"r1": 1, "r2": 5}] and dt < 1.0
        report(2, ok, f"release-acquire MP outcomes {res.outcomes}, {dt:.2f}s")


class TestCriterion3:
    def test_queue_mp_synchronises(self):
        system, res, dt = outcomes_of("queue-mp")
        ok = res.outcomes == [{"r1": 1, "r2": 5}] and dt < 5.0
        report(3, ok, f"queue MP outcomes {res.outcomes}, "
                      f"{res.states_explored} states, {dt:.2f}s")


class TestCriterion4:
    def test_lock_client_outcomes_and_invariant(self):
        system, res, dt = outcomes_of("lockmp")
        pairs = {(oc["r1"], oc["r2"]) for oc in res.outcomes}
        ectx = system.ctx.eval_ctx()
        inv_ok = all(eval_assertion(system.outline.invariant, cfg, ectx)
                     for cfg in res.configs.values())
        ok = pairs == {(0, 0), (5, 5)} and inv_ok and dt < 10.0
        report(4, ok, f"lock client outcomes {sorted(pairs)}, "
                      f"mutual exclusion holds at all {res.states_explored} "
                      f"states, {dt:.2f}s")


class TestCriterion5:
    def test_outline_valid_and_mutant_witnessed(self):
        system = build_system(load_corpus("lockmp"))
        rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
        names = {"Inv", "final"} | {f"T{t}@{i}" for t in (1, 2)
                                    for i in (1, 2, 3, 4)}
        all_valid = set(rep.verdicts) == names and rep.valid

        mutant = build_system(load_corpus("lockmp-mutant"))
        mrep = check_outline(mutant.cfg0, mutant.ctx, mutant.outline, 64)
        broken = mrep.verdicts.get("T2@2")
        mutant_caught = (not mrep.valid and broken is not None
                         and broken.verdict == "invalid"
                         and broken.witness is not None)
        report(5, all_valid and mutant_caught,
               f"outline valid ({len(names)} assertions), mutant violation "
               f"witness of {len(broken.witness)} steps")


def _lock_steps(name):
    system = build_system(load_corpus(name))
    res = explore(system.cfg0, system.ctx, 64)
    steps = []
    for cfg in res.configs.values():
        for t, lab, nxt in successors(cfg, system.ctx):
            if lab.action is not None and lab.action.kind in (
                    LOCK_ACQUIRE, LOCK_RELEASE):
                steps.append((cfg, t, lab.action, nxt))
    return system, steps


class TestCriterion6:
    def test_lock_rules_hold_and_mutants_falsified(self):
        from test_lock_rules import mutated_rules, occurring_ints, rules_for
        ok_parts = []
        for name in ("lockmp", "lock-two-rounds"):
            system, steps = _lock_steps(name)
            ok_parts.append(check_lock_rules(steps, rules_for(system)) == [])
        system, steps = _lock_steps("lock-two-rounds")
        mutants = mutated_rules(system, range(0, 9),
                                sorted(system.cfg0.gamma.variables()),
                                occurring_ints(system),
                                system.ctx.threads)
        falsified = {rid for rid, *_ in check_lock_rules(steps, mutants)}
        ok = all(ok_parts) and falsified == {1, 2, 3, 4, 5, 6}
        report(6, ok, f"rules (1)-(6) hold on both lock clients; "
                      f"mutated rules falsified: {sorted(falsified)}")


class TestCriterion7:
    @pytest.mark.parametrize("impl,client", [
        ("seqlock", "seqlock-refine"),
        ("ticketlock", "ticketlock-refine"),
    ])
    def test_simulation_and_trace_inclusion(self, impl, client):
        lf = load_corpus(client)
        t0 = time.monotonic()
        sim = check_simulation(builtin_impls()[impl], lf, 64)
        tr = check_trace_refinement(builtin_impls()[impl], lf, 64)
        dt = time.monotonic() - t0
        ok = sim.ok and tr.ok and dt < 60.0
        report(7, ok, f"{impl}: {sim.verdict} (relation {sim.relation_size} "
                      f"pairs), trace cross-check {tr.verdict}, {dt:.1f}s")


class TestCriterion8:
    @pytest.mark.parametrize("impl,client", [
        ("seqlock-relaxed", "seqlock-refine"),
        ("ticketlock-relaxed", "ticketlock-refine"),
    ])
    def test_relaxed_release_mutants_fail(self, impl, client):
        lf = load_corpus(client)
        t0 = time.monotonic()
        sim = check_simulation(builtin_impls()[impl], lf, 64)
        dt = time.monotonic() - t0
        ok = (sim.verdict == "no-simulation" and bool(sim.counterexample)
              and dt < 60.0)
        report(8, ok, f"{impl}: {sim.verdict}, counterexample of "
                      f"{len(sim.counterexample or [])} steps, {dt:.1f}s")


class TestCriterion9:
    def test_property_suites_at_scale(self, state_corpus, step_corpus):
        n_states = len(state_corpus)
        n_steps = len(step_corpus)

        # freshness of every inserted write/update timestamp: it lands
        # right after its predecessor, and every later position on its
        # variable moves up by one
        fresh_checked = 0
        for system, cfg, t, lab, nxt in step_corpus:
            for before, after in ((cfg.gamma, nxt.gamma),
                                  (cfg.beta, nxt.beta)):
                op = inserted_op(before, after)
                if op is None or op.action.kind not in (WRITE, UPDATE):
                    continue
                same = after.ops_on(op.action.var)
                pred = same[same.index(op) - 1]
                assert pred.ts == op.ts - 1
                assert pred in before.ops
                fresh_checked += 1

        # update atomicity everywhere
        for _, cfg in state_corpus:
            for comp in (cfg.gamma, cfg.beta):
                for op in comp.ops:
                    if op.action.kind != UPDATE:
                        continue
                    same = sorted(comp.ops_on(op.action.var),
                                  key=lambda o: o.ts)
                    pred = same[same.index(op) - 1]
                    assert pred in comp.cvd
                    assert wrval(pred.action) == op.action.aux

        # view monotonicity along every sampled step
        for system, cfg, t, lab, nxt in step_corpus:
            for before, after in ((cfg.gamma, nxt.gamma),
                                  (cfg.beta, nxt.beta)):
                assert all(after.tview[t][x].ts >= op.ts
                           for x, op in before.tview[t].items())

        # definite implies possible
        for system, cfg in state_corpus:
            for t in system.ctx.threads:
                for x in cfg.gamma.variables():
                    for v in (0, 1, 2, 5):
                        if dobs(cfg.gamma, t, x, wrote(v)):
                            assert pobs(cfg.gamma, t, x, wrote(v))

        # pointwise-max view merge on real views: each thread's view with
        # each recorded view of its component
        merges = 0
        for (_, cfg) in state_corpus[:500]:
            for comp in (cfg.gamma, cfg.beta):
                for t in comp.tview:
                    tv = comp.view(t)
                    for op in comp.ops:
                        mv = comp.mview_of(op)
                        got = merge_views(tv, mv)
                        assert got == tuple(max(a, b) for a, b
                                            in zip(tv, mv[:len(tv)]))
                        merges += 1

        # canonical-key invariance under monotone remaps
        import random
        from fractions import Fraction
        rng = random.Random(11)
        for system, cfg in rng.sample(state_corpus, 300):
            a = Fraction(rng.randint(1, 6))
            b = Fraction(rng.randint(0, 9), rng.randint(1, 5))
            assert reference_key(remap(describe(cfg), lambda q: a * q + b)) \
                == ref_key(cfg)

        # queue matched-pairs order preservation + brute-force FIFO oracle
        for _, cfg in state_corpus:
            assert matched_order_ok(cfg.beta)
        fifo = fifo_check(3)
        assert fifo["verdict"] == "pass"

        report(9, n_states >= 1000 and n_steps >= 1000 and fresh_checked > 100,
               f"{n_states} states, {n_steps} steps, {fresh_checked} fresh "
               f"insertions, {merges} merges, FIFO oracle "
               f"{fifo['verdict']} ({fifo['states_explored']} queue states)")
