"""A reference for forgetting a queue's dead prefix, independent of the
engine's (`objects.queue_dead_prefix`, `state.forget_prefix`).

It works on the plain data of `reference_key.describe`: it finds the
queue among the library's variables by its operations and takes the bound
L = min(the view of the queue of every thread that may dequeue, the
enqueue floor of every enqueue-only thread, the timestamp of the queue's
first unmatched enqueue).  A thread's enqueue floor is the timestamp of
the last matched enqueue or empty dequeue above its view, or its view when
there is none; the enqueue-only threads are given, as the system's
`SystemContext.enqueue_only` (`test_forgetting.py` checks that set).  It
drops the queue's operations below L and renames the queue's timestamps t
to t - L, every reference below L in a view or a recorded view to 0, the
first kept operation, and an enqueue below L in a matched pair to -1.  A
pair whose dequeue is dropped goes.  `forgotten_key` is the key of a full
run's configuration as a reduced run stores it.
"""

from reference_key import describe, reference_key, remap
from rarcheck.state import DEQUEUE, EMPTY, ENQUEUE, QUEUE_INIT


def _queue(lib: dict):
    """The library's queue variable, or None."""
    return next((x for (x, _), a in lib["ops"].items()
                 if a.kind == QUEUE_INIT), None)


def enqueue_floor(lib: dict, q, t) -> int:
    """The lowest timestamp of q after which thread t may enqueue."""
    view = lib["tview"][t][q]
    enqueued = {e for e, _ in lib["matched"]}
    marks = [ts for (x, ts), a in lib["ops"].items() if x == q and ts > view
             and ((x, ts) in enqueued
                  or (a.kind == DEQUEUE and a.val is EMPTY))]
    return max(marks, default=view)


def dead_prefix(lib: dict, q, enqueue_only) -> int:
    """The bound L, by timestamps of q."""
    low = min(enqueue_floor(lib, q, t) if t in enqueue_only else v[q]
              for t, v in lib["tview"].items())
    enqueued = {e for e, _ in lib["matched"]}
    heads = [ts for (x, ts), a in lib["ops"].items()
             if x == q and a.kind == ENQUEUE and (x, ts) not in enqueued]
    return min([low, *heads])


def forget(desc: dict, enqueue_only) -> dict:
    """desc with its queue's dead prefix forgotten."""
    lib = desc["L"]
    q = _queue(lib)
    if q is None:
        return desc
    n = dead_prefix(lib, q, enqueue_only)

    def kept(op):
        return op[0] != q or op[1] >= n

    matched = {((q, e - n if e >= n else -1), (q, d - n))
               for (_, e), (_, d) in lib["matched"] if d >= n}
    lib = dict(lib,
               ops={op: a for op, a in lib["ops"].items() if kept(op)},
               mview={op: v for op, v in lib["mview"].items() if kept(op)},
               cvd={op for op in lib["cvd"] if kept(op)}, matched=set())
    out = remap(dict(desc, L=lib), lambda t: max(t - n, 0), {q})
    out["L"]["matched"] = matched
    return out


def forgotten_key(cfg, enqueue_only):
    """The reference key of cfg with its queue's dead prefix forgotten,
    the threads of `enqueue_only` bounding it by their enqueue floors."""
    return reference_key(forget(describe(cfg), enqueue_only))
