"""Abstract object transitions: lock acquire/release and queue enq/deq.

The object always lives in the library component; every rule takes the
library state first and the client (context) state second.  Lock operations
are appended at the end of the object's timeline; queue operations may be
inserted mid-timeline, subject to FIFO guards over the matched pairs.
"""

from __future__ import annotations

from .state import (Action, ComponentState, EMPTY, OBJ, Record,
                    insert_fresh_timestamp, record, DEQUEUE, ENQUEUE,
                    LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE, QUEUE_INIT)


@record
class ObjectSpec(Record):
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


# The queue rules read the queue's column of actions, where an action's
# index is its position.  Inserting right after the operation at position p
# fills the gap above it, so range(lo, len(acts)) lists the gaps whose upper
# end lies strictly above lo, the end gap included.

def _column(beta: ComponentState, q: str) -> tuple:
    """The actions on q in position order: position r is index r."""
    first, end = beta._span(beta.lay.vix[q])
    return beta.acts[first:end]


def queue_enq(beta: ComponentState, gamma: ComponentState, t, q: str, u):
    """Enqueue steps, one per admissible insertion gap: none below the
    thread's view, the last matched enqueue or the last empty dequeue.
    Returns (beta', gamma', new operation) tuples."""
    matched_enqs = {e for e, _ in beta.matched}
    acts = _column(beta, q)
    lo = beta.front(t, q)
    lo = next((r for r in range(len(acts) - 1, lo, -1)
               if r in matched_enqs or _is_deq_empty(acts[r])), lo)
    a = Action(ENQUEUE, q, val=u, sync=OBJ)
    return [insert_fresh_timestamp(beta, gamma, t, pred, a)
            for pred in range(lo, len(acts))]


def queue_deq(beta: ComponentState, gamma: ComponentState, t, q: str):
    """Dequeue steps: non-empty (synchronising, FIFO) and empty branches.

    Returns (beta', gamma', new operation, rval) tuples.
    """
    matched_enqs = {e for e, _ in beta.matched}
    matched_deqs = {d for _, d in beta.matched}
    lo = beta.front(t, q)
    acts = _column(beta, q)
    out = []

    # Non-empty branch: take the earliest unmatched enqueue.
    head = next((r for r, b in enumerate(acts)
                 if b.kind == ENQUEUE and r not in matched_enqs), None)
    if head is not None:
        val = acts[head].val
        a = Action(DEQUEUE, q, val=val, sync=OBJ)
        for pred in range(max(head, lo, *matched_deqs), len(acts)):
            b2, g2, new = insert_fresh_timestamp(
                beta, gamma, t, pred, a, sync_from=head, match=True)
            out.append((b2, g2, new, val))

    # Empty branch: everything earlier is matched (either side) or empty,
    # so the gaps lie below the first operation that is neither.
    end = next((r for r, b in enumerate(acts)
                if b.kind != QUEUE_INIT and r not in matched_enqs
                and r not in matched_deqs and not _is_deq_empty(b)),
               len(acts))
    a = Action(DEQUEUE, q, val=EMPTY, sync=OBJ)
    for pred in range(lo, end):
        b2, g2, new = insert_fresh_timestamp(beta, gamma, t, pred, a)
        out.append((b2, g2, new, EMPTY))
    return out


def _is_deq_empty(a: Action) -> bool:
    return a.kind == DEQUEUE and a.val is EMPTY
