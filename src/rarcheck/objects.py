"""Abstract object transitions: lock acquire/release and queue enq/deq.

The object always lives in the library component; every rule takes the
library state first and the client (context) state second.  Lock operations
are appended at the end of the object's timeline; queue operations may be
inserted mid-timeline, subject to FIFO guards over the matched pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .state import (Action, ComponentState, EMPTY, OBJ, TOp,
                    insert_fresh_timestamp, DEQUEUE, ENQUEUE, LOCK_ACQUIRE,
                    LOCK_INIT, LOCK_RELEASE, QUEUE_INIT)


@dataclass(frozen=True)
class ObjectSpec:
    name: str
    kind: str  # 'lock' | 'queue'
    sync: tuple  # synchronising abstract action kinds
    arities: tuple  # ((method, number of arguments), ...)

    def arity(self, meth: str):
        """How many arguments `meth` takes; None if there is no such
        method."""
        return dict(self.arities).get(meth)

    def is_sync(self, action) -> bool:
        """Whether an action, or a method instance naming one, synchronises:
        an empty dequeue does not."""
        if action.kind == DEQUEUE and action.val is EMPTY:
            return False
        return action.kind in self.sync


def lock_spec(name: str) -> ObjectSpec:
    return ObjectSpec(name, "lock", (LOCK_ACQUIRE, LOCK_RELEASE),
                      (("acquire", 0), ("release", 0)))


def queue_spec(name: str) -> ObjectSpec:
    return ObjectSpec(name, "queue", (ENQUEUE, DEQUEUE),
                      (("enq", 1), ("deq", 0)))


def lock_acquire(beta: ComponentState, gamma: ComponentState, t, lock: str):
    """Acquire steps; empty when the lock is held (models blocking)."""
    w = beta.max_op(lock)
    if w.action.kind not in (LOCK_INIT, LOCK_RELEASE) or beta.covers(w):
        return []
    b = Action(LOCK_ACQUIRE, lock, sync=OBJ, owner=t, index=w.action.index + 1)
    return [insert_fresh_timestamp(beta, gamma, t, w.ts, b, sync_from=w.ts,
                                   cover=True)]


def lock_release(beta: ComponentState, gamma: ComponentState, t, lock: str):
    """Release steps; enabled only for the thread holding the lock."""
    w = beta.max_op(lock)
    if w.action.kind != LOCK_ACQUIRE or w.action.owner != t:
        return []
    a = Action(LOCK_RELEASE, lock, sync=OBJ, index=w.action.index + 1)
    return [insert_fresh_timestamp(beta, gamma, t, w.ts, a)]


# Inserting right after the operation at position p of the queue's timeline
# fills the gap above it, so range(lo, len(ops)) lists the gaps whose upper
# end lies strictly above lo, the end gap included.

def queue_enq(beta: ComponentState, gamma: ComponentState, t, q: str, u):
    """Enqueue steps, one per admissible insertion gap: none below the
    thread's view, the last matched enqueue or the last empty dequeue."""
    matched_enqs = {e for e, _ in beta.matched}
    ops = beta.ops_on(q)
    lo = max([beta.front(t, q)] + [
        op.ts for op in ops if op.ts in matched_enqs or _is_deq_empty(op)])
    a = Action(ENQUEUE, q, val=u, sync=OBJ)
    return [insert_fresh_timestamp(beta, gamma, t, pred, a)
            for pred in range(lo, len(ops))]


def queue_deq(beta: ComponentState, gamma: ComponentState, t, q: str):
    """Dequeue steps: non-empty (synchronising, FIFO) and empty branches.

    Returns (beta', gamma', new-op, rval) tuples.
    """
    matched_enqs = {e for e, _ in beta.matched}
    matched_deqs = {d for _, d in beta.matched}
    lo = beta.front(t, q)
    ops = beta.ops_on(q)
    out = []

    # Non-empty branch: take the earliest unmatched enqueue.
    head = next((op for op in ops if op.action.kind == ENQUEUE
                 and op.ts not in matched_enqs), None)
    if head is not None:
        floor = max([head.ts, lo] + list(matched_deqs))
        a = Action(DEQUEUE, q, val=head.action.val, sync=OBJ)
        for pred in range(floor, len(ops)):
            b2, g2, new = insert_fresh_timestamp(
                beta, gamma, t, pred, a, sync_from=head.ts, match=True)
            out.append((b2, g2, new, head.action.val))

    # Empty branch: everything earlier is matched (either side) or empty,
    # so the gaps lie below the first operation that is neither.
    end = next((op.ts for op in ops
                if op.action.kind != QUEUE_INIT and op.ts not in matched_enqs
                and op.ts not in matched_deqs and not _is_deq_empty(op)),
               len(ops))
    a = Action(DEQUEUE, q, val=EMPTY, sync=OBJ)
    for pred in range(lo, end):
        b2, g2, new = insert_fresh_timestamp(beta, gamma, t, pred, a)
        out.append((b2, g2, new, EMPTY))
    return out


def _is_deq_empty(op: TOp) -> bool:
    return op.action.kind == DEQUEUE and op.action.val is EMPTY
