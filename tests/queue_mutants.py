"""Single-line mutants of the queue rules' guards that forgetting a queue's
dead prefix rests on (`objects.queue_dead_prefix`), and the programs whose
hoare verdicts tell each mutant from the real rules.

Each mutant is (file under the package, line as written, its mutation);
`test_queue_mutants` applies it to a copy of the package and checks there
that some program of `PROGRAMS` is no longer valid.  Every program ends,
and its final clause holds on the real rules.
"""

MUTANTS = {
    # an enqueue may go below the last matched enqueue or empty dequeue
    "enq-below-matched": (
        "objects.py",
        "                 if r in matched_enqs or _is_deq_empty(acts[r]))"
        ", view)",
        "                 if False), view)"),
    # a non-empty dequeue may go below an earlier matched dequeue
    "deq-below-matched-deq": (
        "objects.py",
        "        for pred in range(max(head, lo, *matched_deqs), len(acts)):",
        "        for pred in range(max(head, lo), len(acts)):"),
    # an empty dequeue may go above an unmatched enqueue
    "empty-deq-anywhere": (
        "objects.py",
        "    a = Action(DEQUEUE, q, val=EMPTY, sync=OBJ)",
        "    end = len(acts); a = Action(DEQUEUE, q, val=EMPTY, sync=OBJ)"),
    # a non-empty dequeue matches the head but does not sync from it (the
    # one insertion that matches; `state.insert_fresh_timestamp`)
    "deq-without-sync": (
        "state.py",
        "    if sync_from is not None:",
        "    if sync_from is not None and not match:"),
}

PROGRAMS = {
    # an empty dequeue lies below any enqueue it could have taken, so its
    # thread can still observe the enqueue
    "empty-sees-later-enq": """
name empty-sees-later-enq
object queue q
thread 1 { q.enq(1); }
thread 2 { r1 := q.deq(); }
final { r1 = empty => pobs(2, q.enq_1) }
""",
    # a dequeue goes above every matched dequeue, so the last one is the
    # top of the queue's timeline
    "last-deq-on-top": """
name last-deq-on-top
object queue q
thread 1 { q.enq(1); q.enq(2); }
thread 2 { r1 := q.deq(); }
thread 3 { r2 := q.deq(); }
final { r2 = 2 => dobs(3, q.deq_2) }
""",
    # message passing: a non-empty dequeue syncs with its enqueue
    "queue-mp-once": """
name queue-mp-once
init d := 0
object queue q
thread 1 { d := 5; q.enq(1); }
thread 2 { r1 := q.deq(); r2 <- d; }
final { r1 = 1 => r2 = 5 }
""",
}


def verdicts(max_steps=64) -> dict:
    """Each program's hoare verdict, by the package on the import path."""
    from rarcheck.explore import check_hoare
    from rarcheck.litmus import build_system, parse_litmus

    out = {}
    for name, text in PROGRAMS.items():
        system = build_system(parse_litmus(text))
        out[name] = check_hoare(system.cfg0, system.ctx, system.outline.pre,
                                system.outline.final, max_steps).verdict
    return out
