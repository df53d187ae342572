"""A reference for forgetting a queue's dead prefix, independent of the
engine's (`objects.queue_dead_prefix`, `state.forget_prefix`).

It works on the plain data of `reference_key.describe`: it finds the
queue among the library's variables by its operations, takes the bound
L = min(every thread's view of the queue, the timestamp of its first
unmatched enqueue), drops the queue's operations below L, and renames the
queue's timestamps t to t - L, and every reference below L, in a view,
a recorded view or a matched pair, to -1.  A pair whose dequeue is dropped
goes.  `forgotten_key` is the key of a full run's configuration as a
reduced run stores it.
"""

from reference_key import describe, reference_key, remap
from rarcheck.state import ENQUEUE, QUEUE_INIT


def _queue(lib: dict):
    """The library's queue variable, or None."""
    return next((x for (x, _), a in lib["ops"].items()
                 if a.kind == QUEUE_INIT), None)


def dead_prefix(lib: dict, q) -> int:
    """The bound L, by timestamps of q."""
    low = min(v[q] for v in lib["tview"].values())
    enqueued = {e for e, _ in lib["matched"]}
    heads = [ts for (x, ts), a in lib["ops"].items()
             if x == q and a.kind == ENQUEUE and (x, ts) not in enqueued]
    return min([low, *heads])


def forget(desc: dict) -> dict:
    """desc with its queue's dead prefix forgotten."""
    lib = desc["L"]
    q = _queue(lib)
    if q is None:
        return desc
    n = dead_prefix(lib, q)

    def kept(op):
        return op[0] != q or op[1] >= n

    lib = dict(lib,
               ops={op: a for op, a in lib["ops"].items() if kept(op)},
               mview={op: v for op, v in lib["mview"].items() if kept(op)},
               cvd={op for op in lib["cvd"] if kept(op)},
               matched={(e, d) for e, d in lib["matched"] if kept(d)})
    return remap(dict(desc, L=lib), lambda t: t - n if t >= n else -1, {q})


def forgotten_key(cfg):
    """The reference key of cfg with its queue's dead prefix forgotten."""
    return reference_key(forget(describe(cfg)))
