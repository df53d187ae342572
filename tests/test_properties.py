"""Invariant suites over large random samples of explored states."""

import random
from fractions import Fraction

from rarcheck.assertions import dobs, pobs, wrote
from rarcheck.oracle import matched_order_ok
from rarcheck.state import wrval, UPDATE
from reference_key import (describe, inserted_op, moved, ref_key,
                           reference_key, remap)

RNG = random.Random(20240817)


def _components(cfg):
    return (cfg.gamma, cfg.beta)


class TestTimestampDiscipline:
    def test_distinct_timestamps_per_component(self, state_corpus):
        # timestamps are positions on each variable: distinct there, and
        # 0..n-1 for its n operations
        for _, cfg in state_corpus:
            for comp in _components(cfg):
                seen = {}
                for op in comp.ops:
                    assert op.ts not in seen.setdefault(op.action.var, set())
                    seen[op.action.var].add(op.ts)
                assert seen.keys() == comp.variables()
                for times in seen.values():
                    assert times == set(range(len(times)))

    def test_views_point_into_ops(self, state_corpus):
        for _, cfg in state_corpus:
            for comp in _components(cfg):
                for t, view in comp.tview.items():
                    for x, op in view.items():
                        assert op in comp.ops
                        assert op.action.var == x

    def test_mview_defined_for_every_op(self, state_corpus):
        for _, cfg in state_corpus:
            for comp in _components(cfg):
                for op in comp.ops:
                    assert op in comp.mview


class TestUpdateAtomicity:
    def test_update_sits_right_after_covered_source(self, state_corpus):
        hits = 0
        for _, cfg in state_corpus:
            for comp in _components(cfg):
                for op in comp.ops:
                    if op.action.kind != UPDATE:
                        continue
                    hits += 1
                    same_var = sorted(comp.ops_on(op.action.var),
                                      key=lambda o: o.ts)
                    i = same_var.index(op)
                    pred = same_var[i - 1]
                    assert pred in comp.cvd
                    assert wrval(pred.action) == op.action.aux
        assert hits > 100  # the suite actually exercises updates


class TestViewMonotonicity:
    def test_step_never_moves_views_backwards(self, step_corpus):
        # positions at or above an inserted operation on its variable move
        # up by one, so views are compared by the operations they name
        for system, cfg, t, lab, nxt in step_corpus:
            for before, after in ((cfg.gamma, nxt.gamma),
                                  (cfg.beta, nxt.beta)):
                new = inserted_op(before, after)
                for x, op in before.tview[t].items():
                    assert after.tview[t][x].ts >= moved(op, new).ts
                for t2 in before.tview:
                    if t2 != t:
                        assert after.tview[t2] == {
                            x: moved(op, new)
                            for x, op in before.tview[t2].items()}


class TestObservationLogic:
    def test_definite_implies_possible(self, state_corpus):
        # over the values (booleans included) that occur in each system's
        # explored states: in operations of either component and registers
        occurring = {}
        for system, cfg in state_corpus:
            # typed, so that True and 1 are both kept
            vals = occurring.setdefault(id(system), set())
            for comp in (cfg.gamma, cfg.beta):
                vals |= {(type(op.action.val), op.action.val)
                         for op in comp.ops}
            for ls in cfg.rho.values():
                vals |= {(type(v), v) for v in ls.values()}
        checked = 0
        for system, cfg in state_corpus:
            ints = [v for _, v in occurring[id(system)] if isinstance(v, int)]
            for t in system.ctx.threads:
                for x in cfg.gamma.variables():
                    for v in ints:
                        if dobs(cfg.gamma, t, x, wrote(v)):
                            assert pobs(cfg.gamma, t, x, wrote(v))
                            checked += 1
        assert checked > 1000


class TestCanonicalKeyInvariance:
    def test_random_monotone_remaps_preserve_keys(self, state_corpus):
        sample = RNG.sample(state_corpus, 400)
        for system, cfg in sample:
            a = Fraction(RNG.randint(1, 9))
            b = Fraction(RNG.randint(0, 20), RNG.randint(1, 7))
            remapped = remap(describe(cfg), lambda q: a * q + b)
            assert reference_key(remapped) == ref_key(cfg)

    def test_order_change_changes_key(self, state_corpus):
        found = 0
        # the last two positions on one client variable trade places
        for system, cfg in state_corpus:
            x = next((x for x in cfg.gamma.lay.own
                      if len(cfg.gamma.ops_on(x)) >= 2), None)
            if x is None:
                continue
            n = len(cfg.gamma.ops_on(x))
            swap = {n - 2: n - 1, n - 1: n - 2}
            swapped = remap(describe(cfg), lambda q: swap.get(q, q), {x})
            assert reference_key(swapped) != ref_key(cfg)
            found += 1
            if found >= 50:
                break
        assert found >= 50


class TestQueueInvariants:
    def test_matched_pairs_order_preserving_everywhere(self, state_corpus):
        with_pairs = 0
        for _, cfg in state_corpus:
            assert matched_order_ok(cfg.beta)
            if cfg.beta.matched:
                with_pairs += 1
        assert with_pairs > 100

    def test_dequeues_inside_pairs_belong_to_earlier_pairs(self, state_corpus):
        # a dequeue may predate a pair that later forms around it, but then
        # it must be the matched dequeue of an earlier enqueue; in particular
        # empty dequeues never sit inside a pair
        from rarcheck.state import DEQUEUE, EMPTY
        for _, cfg in state_corpus:
            by_deq = {d: e for e, d in cfg.beta.matched}
            for e, d in cfg.beta.matched:
                for op in cfg.beta.ops:
                    if op.action.kind == DEQUEUE and e < op.ts < d:
                        assert op.action.val is not EMPTY
                        assert op.ts in by_deq
                        assert by_deq[op.ts] < e

    def test_every_nonempty_dequeue_is_matched(self, state_corpus):
        from rarcheck.state import DEQUEUE, EMPTY
        for _, cfg in state_corpus:
            deqs = {op.ts for op in cfg.beta.ops
                    if op.action.kind == DEQUEUE and op.action.val is not EMPTY}
            assert deqs == {d for _, d in cfg.beta.matched}


class TestLockTimeline:
    def test_alternation_and_ownership(self, state_corpus):
        # timeline reads init, acquire_1, release_2, acquire_3, ... with each
        # release owned by the preceding acquirer
        from rarcheck.state import LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE
        checked = 0
        for system, cfg in state_corpus:
            spec = system.ctx.object_spec
            if spec is None or spec.kind != "lock":
                continue
            ops = sorted(cfg.beta.ops_on(spec.name), key=lambda o: o.ts)
            if not ops:
                continue
            checked += 1
            assert ops[0].action.kind == LOCK_INIT
            for i, op in enumerate(ops):
                assert op.action.index == i
                expect = LOCK_ACQUIRE if i % 2 == 1 else LOCK_RELEASE
                if i > 0:
                    assert op.action.kind == expect
                if op.action.kind == LOCK_RELEASE and i > 0:
                    assert ops[i - 1].action.owner is not None
        assert checked > 50

    def test_mutual_exclusion_of_holders(self, state_corpus):
        # at most one thread has an unreleased acquire as the newest lock op
        from rarcheck.state import LOCK_ACQUIRE
        for system, cfg in state_corpus:
            spec = system.ctx.object_spec
            if spec is None or spec.kind != "lock":
                continue
            ops = cfg.beta.ops_on(spec.name)
            holders = [op.action.owner for op in ops
                       if op.action.kind == LOCK_ACQUIRE
                       and op.ts == max(o.ts for o in ops)]
            assert len(holders) <= 1


class TestRelaxedReads:
    def test_relaxed_reads_leave_context_untouched(self, step_corpus):
        from rarcheck.state import READ, RLX
        hits = 0
        for system, cfg, t, lab, nxt in step_corpus:
            a = lab.action
            if a is None or a.kind != READ or a.sync != RLX:
                continue
            if lab.component == "client":
                assert nxt.beta is cfg.beta
            else:
                assert nxt.gamma is cfg.gamma
            hits += 1
        assert hits > 100


class TestSilentSteps:
    def test_silent_steps_never_touch_components(self, step_corpus):
        hits = 0
        for system, cfg, t, lab, nxt in step_corpus:
            if lab.action is None:
                assert nxt.gamma is cfg.gamma
                assert nxt.beta is cfg.beta
                hits += 1
        assert hits > 500


class TestRefinementOrder:
    def test_state_refines_reflexive_and_transitive(self, state_corpus):
        from rarcheck.refine import state_refines
        from rarcheck.memory import mem_write
        from rarcheck.state import write
        system, cfg = next((s, c) for s, c in state_corpus
                           if "d1" in s.cfg0.gamma.variables())
        ls = {t: {} for t in system.ctx.threads}
        g0 = cfg.gamma
        assert state_refines((ls, g0), (ls, g0), system.ctx.threads)
        # chain: advance one thread's viewfront twice
        (g1, _, w1), = mem_write(g0, cfg.beta, 1, write("d1", 5))
        view = list(g1.view(2))
        view[g1.lay.vix["d1"]] = w1.ts
        g2 = g1.with_view(2, tuple(view))
        threads = system.ctx.threads
        assert state_refines((ls, g1), (ls, g2), threads)
        assert state_refines((ls, g2), (ls, g2), threads)
        # transitivity along the chain
        if state_refines((ls, g1), (ls, g2), threads) and \
                state_refines((ls, g0), (ls, g1), threads):
            assert state_refines((ls, g0), (ls, g2), threads)


class TestSynchronisationPayload:
    def test_sync_steps_dominate_recorded_views(self, step_corpus):
        # after a synchronising object step by t, the client view of t is
        # pointwise at least the recorded view of the matched operation
        from rarcheck.state import DEQUEUE, EMPTY, LOCK_ACQUIRE
        hits = 0
        for system, cfg, t, lab, nxt in step_corpus:
            a = lab.action
            if a is None or a.kind not in (DEQUEUE, LOCK_ACQUIRE):
                continue
            if a.kind == DEQUEUE and a.val is EMPTY:
                continue
            for x, op in cfg.gamma.tview[t].items():
                assert nxt.gamma.tview[t][x].ts >= op.ts
            hits += 1
        assert hits > 50
