import pytest
from hypothesis import given, settings

from component_views import cvd, mview, ops, tview
from rarcheck import memory, objects
from rarcheck.explore import explore
from rarcheck.litmus import (LitmusError, build_system, load_corpus,
                             parse_litmus)
from rarcheck.objects import (KINDS, lock_acquire, lock_release, queue_deq,
                              queue_enq, spec_of)
from rarcheck.oracle import fifo_litmus
from rarcheck.refine import builtin_impls
from rarcheck.state import (DEQUEUE, ENQUEUE, EMPTY, LOCK_INIT, QUEUE_INIT,
                            make_init_states, wrval, write)
from rarcheck.memory import mem_write
from test_cli_fuzz import lock_clients


def lock_system():
    return make_init_states([("d1", 0), ("d2", 0)],
                            spec_of("lock", "l").init_actions(), {1, 2})


def queue_system():
    return make_init_states([("d", 0)],
                            spec_of("queue", "q").init_actions(), {1, 2})


def enq_rank(b, u):
    """Position in b of the enqueue of u (positions move up as operations
    are inserted on the queue)."""
    (rank,) = [op.ts for op in b.ops_on("q")
               if op.action.kind == ENQUEUE and op.action.val == u]
    return rank


class TestLockAcquire:
    def test_first_acquire_covers_init(self):
        _, g, b = lock_system()
        (init_op,) = ops(b)
        out = lock_acquire(b, g, 1, "l")
        assert len(out) == 1
        b2, g2, new, _ = out[0]
        assert new.action.index == 1 and new.action.owner == 1
        assert init_op in cvd(b2)
        assert b2.max_op("l") == new

    def test_held_lock_blocks(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        assert lock_acquire(b, g, 2, "l") == []

    def test_acquire_after_release_syncs_client_views(self):
        # t1 acquires, writes d1 d2, releases; t2's acquire sees both writes
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        (g, b, _, _), = mem_write(g, b, 1, write("d1", 5))
        (g, b, _, _), = mem_write(g, b, 1, write("d2", 5))
        (b, g, _, _), = lock_release(b, g, 1, "l")
        (b, g, new, _), = lock_acquire(b, g, 2, "l")
        assert new.action.index == 3
        for x in ("d1", "d2"):
            viewed = tview(g)[2][x]
            assert wrval(viewed.action) == 5
            assert viewed == g.max_op(x)


LOCK_CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "seqlock-refine",
               "ticketlock-refine")


def assert_lock_tops_uncovered(system):
    """No reachable library state covers its lock's top operation: the
    invariant that lets `lock_acquire` leave out the paper's test."""
    lock = system.ctx.object_spec.name
    res = explore(system.cfg0, system.ctx, 200)
    assert not res.truncated
    for beta in {cfg.beta for cfg in res.states}:
        assert not beta.covers(beta.max_op(lock)), beta


class TestLockTop:
    @pytest.mark.parametrize("name", LOCK_CORPUS)
    def test_corpus(self, name):
        assert_lock_tops_uncovered(build_system(load_corpus(name)))

    @settings(max_examples=40, deadline=None)
    @given(lock_clients())
    def test_lock_clients(self, text):
        assert_lock_tops_uncovered(build_system(parse_litmus(text)))


class TestLockRelease:
    def test_holder_releases(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        out = lock_release(b, g, 1, "l")
        assert len(out) == 1
        b2, g2, new, _ = out[0]
        assert new.action.index == 2
        assert b2.max_op("l") == new
        assert g2 is g  # release leaves the client state untouched

    def test_non_holder_blocked(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        assert lock_release(b, g, 2, "l") == []

    def test_release_mview_carries_client_view(self):
        _, g, b = lock_system()
        (b, g, _, _), = lock_acquire(b, g, 1, "l")
        (g, b, w1, _), = mem_write(g, b, 1, write("d1", 5))
        (b2, _, rel, _), = lock_release(b, g, 1, "l")
        assert mview(b2)[rel]["d1"] == w1.ts


class TestQueueEnq:
    def test_empty_queue_single_gap(self):
        _, g, b = queue_system()
        out = queue_enq(b, g, 1, "q", 1)
        assert len(out) == 1
        b2, _, new, _ = out[0]
        assert new.action.val == 1 and new.ts > 0

    def test_stale_view_allows_earlier_timestamp(self):
        _, g, b = queue_system()
        (b, g, e2, _), = queue_enq(b, g, 2, "q", 2)
        out = queue_enq(b, g, 1, "q", 1)
        # two gaps: before and after t2's enqueue
        assert len(out) == 2
        assert sorted(new.ts < enq_rank(b2, 2)
                      for b2, _, new, _ in out) == [False, True]

    def test_no_gap_behind_matched_enqueue(self):
        _, g, b = queue_system()
        (b, g, e1, _), = queue_enq(b, g, 2, "q", 2)
        deqs = [s for s in queue_deq(b, g, 2, "q") if s[3] == 2]
        b, g, d1, _ = deqs[0]
        out = queue_enq(b, g, 1, "q", 1)
        assert all(new.ts > e1.ts for _, _, new, _ in out)


class TestQueueDeq:
    def test_fifo_head_despite_later_view(self):
        # timeline: init, enq(1) by t1 (stale), enq(2) by t2; t2 dequeues 1
        _, g, b = queue_system()
        (b, g, e2, _), = queue_enq(b, g, 2, "q", 2)
        early = [s for s in queue_enq(b, g, 1, "q", 1)
                 if s[2].ts < enq_rank(s[0], 2)]
        b, g, e1, _ = early[0]
        values = {s[3] for s in queue_deq(b, g, 2, "q")}
        assert values == {1}

    def test_empty_queue_returns_empty(self):
        _, g, b = queue_system()
        out = queue_deq(b, g, 1, "q")
        assert len(out) == 1
        assert out[0][3] is EMPTY

    def test_deq_synchronises_with_enqueuer(self):
        _, g, b = queue_system()
        (g, b, wd, _), = mem_write(g, b, 1, write("d", 5))
        (b, g, _, _), = queue_enq(b, g, 1, "q", 1)
        hits = [s for s in queue_deq(b, g, 2, "q") if s[3] == 1]
        assert hits
        for b2, g2, _, _ in hits:
            assert tview(g2)[2]["d"] == wd

    def test_sequential_deqs_are_fifo(self):
        # brute force: all ways to run two deqs after enq(1), enq(2)
        _, g0, b0 = queue_system()
        (b1, g1, _, _), = queue_enq(b0, g0, 1, "q", 1)
        results = set()
        for b2, g2, _, _ in queue_enq(b1, g1, 1, "q", 2):
            for s1 in queue_deq(b2, g2, 2, "q"):
                if s1[3] is EMPTY:
                    continue
                for s2 in queue_deq(s1[0], s1[1], 2, "q"):
                    if s2[3] is EMPTY:
                        continue
                    results.add((s1[3], s2[3]))
        assert results == {(1, 2)}

    def test_matched_pairs_order_preserving(self):
        _, g, b = queue_system()
        (b, g, _, _), = queue_enq(b, g, 1, "q", 1)
        # t1's view sits at its own enqueue, so a single end gap remains
        (b, g, _, _), = queue_enq(b, g, 1, "q", 2)
        for s1 in queue_deq(b, g, 2, "q"):
            if s1[3] is EMPTY:
                continue
            for s2 in queue_deq(s1[0], s1[1], 2, "q"):
                if s2[3] is EMPTY:
                    continue
                m = sorted(s2[0].matched)
                assert all(a1 < a2 and b1 < b2
                           for (a1, b1), (a2, b2) in zip(m, m[1:]))

    def test_deq_empty_blocked_by_unmatched_enqueue_behind(self):
        _, g, b = queue_system()
        (b, g, enq, _), = queue_enq(b, g, 1, "q", 1)
        # t1 saw its own enqueue: only the non-empty branch remains for it
        out = queue_deq(b, g, 1, "q")
        assert {s[3] for s in out} == {1}
        # t2 with a stale view may still miss it (empty slot before enq)
        out2 = queue_deq(b, g, 2, "q")
        empties = [s for s in out2 if s[3] is EMPTY]
        assert empties and all(s[2].ts < enq_rank(s[0], 1) for s in empties)


class TestSpecs:
    def test_sync_sets(self):
        ls = spec_of("lock", "l")
        assert set(ls.sync) == {"lock_acquire", "lock_release"}
        qs = spec_of("queue", "q")
        from rarcheck.state import Action, DEQUEUE
        assert qs.is_sync(Action(DEQUEUE, "q", val=1))
        assert not qs.is_sync(Action(DEQUEUE, "q", val=EMPTY))

    def test_method_tables(self):
        ls, qs = spec_of("lock", "l"), spec_of("queue", "q")
        assert [(m.name, m.arity) for m in ls.methods] == [("acquire", 0),
                                                           ("release", 0)]
        assert [(m.name, m.arity) for m in qs.methods] == [("enq", 1),
                                                           ("deq", 0)]
        assert ls.arity("acquire") == 0 and qs.arity("enq") == 1
        assert ls.method("enq") is None and ls.arity("enq") is None
        assert ls.kind == "lock" and set(KINDS) == {"lock", "queue"}
        (init,) = ls.init_actions()
        assert (init.kind, init.var, init.index) == (LOCK_INIT, "l", 0)
        (init,) = qs.init_actions()
        assert (init.kind, init.var, init.index) == (QUEUE_INIT, "q", 0)

    def test_fixed_results_are_the_rules_results(self):
        # a method whose table entry fixes its result returns it from every
        # step of its rule, and a concrete body returns that value too
        _, g, b = lock_system()
        ls = spec_of("lock", "l")
        steps = ls.steps(1, "acquire", (), b, g)
        assert [s[3] for s in steps] == [ls.method("acquire").result]
        b, g = steps[0][:2]
        assert [s[3] for s in ls.steps(1, "release", (), b, g)] == \
            [ls.method("release").result]
        _, g, b = queue_system()
        qs = spec_of("queue", "q")
        results = {s[3] for s in qs.steps(1, "enq", (7,), b, g)}
        assert results == {qs.method("enq").result}
        assert qs.method("deq").result is None  # the value dequeued

    def test_rules_are_looked_up_when_called(self, monkeypatch):
        # a wrapper put in a rule's place in this module sees every call
        calls = []
        rule = objects.lock_acquire

        def wrapped(*args):
            calls.append(args[2])
            return rule(*args)

        monkeypatch.setattr(objects, "lock_acquire", wrapped)
        system = build_system(load_corpus("seqlock-refine"))
        explore(system.cfg0, system.ctx, 64)
        assert sorted(set(calls)) == [1, 2]

    def test_every_rule_result_is_the_value_its_step_binds(self,
                                                          monkeypatch):
        # every memory and object rule gives (own', other', op, result) per
        # step: op is the operation the step's label names, and result the
        # value the step binds: the value read, the value an update read,
        # none for a write, a method's fixed result or the value dequeued
        methods = {m.rule: m for _, _, ms in KINDS.values() for m in ms}
        seen = []
        for module, names in ((memory, ("mem_read", "mem_write",
                                        "mem_update")),
                              (objects, tuple(methods))):
            for name in names:
                def wrapped(*args, rule=getattr(module, name), name=name):
                    out = rule(*args)
                    seen.extend((name, step) for step in out)
                    return out

                monkeypatch.setattr(module, name, wrapped)
        impls = builtin_impls()
        systems = [build_system(load_corpus(name)) for name in
                   ("mp-relacq", "lockmp", "queue-mp")]
        systems += [build_system(load_corpus(f"{name}-refine"), impls[name])
                    for name in ("seqlock", "ticketlock")]
        systems.append(build_system(parse_litmus(fifo_litmus(2))))
        for system in systems:
            explore(system.cfg0, system.ctx, 64)
        for name, (own, _, op, result) in seen:
            on_var = own.ops_on(op.action.var)
            if name == "mem_read":  # op.ts is the position of the write read
                assert result == op.action.val == wrval(on_var[op.ts].action)
                continue
            assert on_var[op.ts] == op  # the inserted operation
            if name == "mem_write":
                assert result is None
            elif name == "mem_update":
                assert result == op.action.aux == \
                    wrval(on_var[op.ts - 1].action)
            elif methods[name].result is None:
                assert result == op.action.val  # the value dequeued
            else:
                assert result is methods[name].result
        assert {name for name, _ in seen} == \
            {"mem_read", "mem_write", "mem_update", *methods}

    def test_an_implementation_needs_an_object_of_its_kind(self):
        seqlock = builtin_impls()["seqlock"]
        for name in ("queue-mp", "mp-relaxed"):
            with pytest.raises(LitmusError, match="^an implementation needs "
                               "a lock object$"):
                build_system(load_corpus(name), seqlock)
        with pytest.raises(LitmusError, match="unknown object kind 'stack'"):
            parse_litmus("name s\nobject stack s\nthread 1 { }\n")


# The queue guards as first written: each gap re-runs its condition over the
# whole timeline.  queue_enq and queue_deq find the same gaps in one scan.

def _is_deq_empty(op):
    return op.action.kind == DEQUEUE and op.action.val is EMPTY


def reference_enq_gaps(beta, t, q):
    matched_enqs = {e for e, _ in beta.matched}
    ops = beta.ops_on(q)
    return [pred for pred in range(beta.front(t, q), len(ops))
            if not any(op.ts > pred and (op.ts in matched_enqs
                                         or _is_deq_empty(op))
                       for op in ops)]


def reference_empty_deq_gaps(beta, t, q):
    matched_enqs = {e for e, _ in beta.matched}
    matched_deqs = {d for _, d in beta.matched}
    ops = beta.ops_on(q)
    return [pred for pred in range(beta.front(t, q), len(ops))
            if all(op.ts in matched_enqs or op.ts in matched_deqs
                   or _is_deq_empty(op)
                   for op in ops
                   if op.ts <= pred and op.action.kind != QUEUE_INIT)]


QUEUE_SYSTEMS = {
    "fifo-4": (fifo_litmus(4), 96),
    "queue-mp": (None, 50),
}


@pytest.mark.parametrize("name", sorted(QUEUE_SYSTEMS))
def test_guards_admit_the_reference_gaps(name):
    # every library component reached, with each thread's view of it: the
    # new operation sits right above the gap it fills
    text, bound = QUEUE_SYSTEMS[name]
    system = build_system(parse_litmus(text) if text else load_corpus(name))
    res = explore(system.cfg0, system.ctx, bound)
    pairs = {(cfg.beta, cfg.gamma)
             for cfg in res.states[:res.states_explored]}
    seen = set()
    for beta, gamma in pairs:
        for t in system.ctx.threads:
            enq = [new.ts - 1
                   for _, _, new, _ in queue_enq(beta, gamma, t, "q", 1)]
            assert enq == reference_enq_gaps(beta, t, "q")
            empty = [new.ts - 1 for _, _, new, rv in queue_deq(beta, gamma,
                                                                t, "q")
                     if rv is EMPTY]
            assert empty == reference_empty_deq_gaps(beta, t, "q")
            seen.add((len(enq), len(empty)))
    # an enqueue always has the end gap, and sometimes more; an empty
    # dequeue sometimes has none and sometimes several
    assert min(n for n, _ in seen) == 1 and max(n for n, _ in seen) > 1
    assert min(n for _, n in seen) == 0 and max(n for _, n in seen) > 1
