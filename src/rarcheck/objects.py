"""Abstract objects: what each kind of object is, and its transitions.

`KINDS` gives per kind its initial operation, its synchronising action
kinds and its methods: each method's arity, the rule that steps a call and
the result a call returns when every step returns the same one; parsing,
building and stepping read kinds from it.  The object lives in the library
component; every rule takes the library state first and the client
(context) state second, and returns (beta', gamma', new operation, result)
per step.  Lock operations are appended at the end of the object's
timeline; queue operations may be inserted mid-timeline, subject to FIFO
guards over the matched pairs.  Those guards bound what a queue rule can
ever touch again, so a reduced run may forget the queue's dead prefix
(`queue_dead_prefix`).
"""

from __future__ import annotations

from collections import namedtuple

from .state import (Action, ComponentState, BOT, EMPTY, OBJ, TRUE, Record,
                    insert_fresh_timestamp, record, DEQUEUE, ENQUEUE,
                    LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE, QUEUE_INIT)

# rule: the rule's name in this module; result: None when steps differ
Method = namedtuple("Method", "name arity rule result")

# kind -> (initial operation's kind, synchronising action kinds, methods)
KINDS = {
    "lock": (LOCK_INIT, (LOCK_ACQUIRE, LOCK_RELEASE),
             (Method("acquire", 0, "lock_acquire", TRUE),
              Method("release", 0, "lock_release", BOT))),
    "queue": (QUEUE_INIT, (ENQUEUE, DEQUEUE),
              (Method("enq", 1, "queue_enq", BOT),
               Method("deq", 0, "queue_deq", None))),
}


@record
class ObjectSpec(Record):
    name: str
    kind: str  # a key of KINDS
    init: str  # the initial operation's action kind
    sync: tuple  # synchronising abstract action kinds
    methods: tuple  # Method tuples

    def method(self, meth: str):
        """The Method named `meth`; None if there is no such method."""
        return next((m for m in self.methods if m.name == meth), None)

    def arity(self, meth: str):
        """How many arguments `meth` takes; None if there is no such
        method."""
        m = self.method(meth)
        return None if m is None else m.arity

    def is_sync(self, action) -> bool:
        """Whether an action, or a method instance naming one, synchronises:
        an empty dequeue does not."""
        return action.kind in self.sync and not _is_deq_empty(action)

    def init_actions(self) -> tuple:
        return (Action(self.init, self.name, sync=OBJ, index=0),)

    def steps(self, t, meth: str, args, beta, gamma):
        """The rule's steps of thread t's call of `meth` with evaluated
        `args`.  The rule is read from this module when called, so a
        wrapper in its place sees the call."""
        rule = globals()[self.method(meth).rule]
        return rule(beta, gamma, t, self.name, *args)


def spec_of(kind: str, name: str) -> ObjectSpec:
    return ObjectSpec(name, kind, *KINDS[kind])


def lock_acquire(beta: ComponentState, gamma: ComponentState, t, lock: str):
    """Acquire steps; empty when the lock is held (models blocking).  The
    paper's rule also asks that the top operation w be uncovered, which it
    always is: an operation is covered only by an update or an acquire
    inserted right after it on its variable, and nothing lies after the
    top (`ComponentState.covers`)."""
    w = beta.max_op(lock)
    if w.action.kind not in (LOCK_INIT, LOCK_RELEASE):
        return []
    b = Action(LOCK_ACQUIRE, lock, sync=OBJ, owner=t, index=w.action.index + 1)
    return [(*insert_fresh_timestamp(beta, gamma, t, w.ts, b, sync_from=w.ts),
             TRUE)]


def lock_release(beta: ComponentState, gamma: ComponentState, t, lock: str):
    """Release steps; enabled only for the thread holding the lock."""
    w = beta.max_op(lock)
    if w.action.kind != LOCK_ACQUIRE or w.action.owner != t:
        return []
    a = Action(LOCK_RELEASE, lock, sync=OBJ, index=w.action.index + 1)
    return [(*insert_fresh_timestamp(beta, gamma, t, w.ts, a), BOT)]


# The queue rules read the queue's column of actions, where an action's
# index is its position.  Inserting right after the operation at position p
# fills the gap above it, so range(lo, len(acts)) lists the gaps whose upper
# end lies strictly above lo, the end gap included.

def queue_enq(beta: ComponentState, gamma: ComponentState, t, q: str, u):
    """Enqueue steps, one per admissible insertion gap: none below the
    thread's view, the last matched enqueue or the last empty dequeue."""
    matched_enqs = {e for e, _ in beta.matched}
    acts = beta.column(q)
    lo = beta.front(t, q)
    lo = next((r for r in range(len(acts) - 1, lo, -1)
               if r in matched_enqs or _is_deq_empty(acts[r])), lo)
    a = Action(ENQUEUE, q, val=u, sync=OBJ)
    return [(*insert_fresh_timestamp(beta, gamma, t, pred, a), BOT)
            for pred in range(lo, len(acts))]


def queue_deq(beta: ComponentState, gamma: ComponentState, t, q: str):
    """Dequeue steps: non-empty (synchronising, FIFO) and empty branches.
    A step's result is the value dequeued, or empty."""
    matched_enqs = {e for e, _ in beta.matched}
    matched_deqs = {d for _, d in beta.matched}
    lo = beta.front(t, q)
    acts = beta.column(q)
    out = []

    # Non-empty branch: take the earliest unmatched enqueue.
    head = next((r for r, b in enumerate(acts)
                 if b.kind == ENQUEUE and r not in matched_enqs), None)
    if head is not None:
        val = acts[head].val
        a = Action(DEQUEUE, q, val=val, sync=OBJ)
        for pred in range(max(head, lo, *matched_deqs), len(acts)):
            out.append((*insert_fresh_timestamp(
                beta, gamma, t, pred, a, sync_from=head, match=True), val))

    # Empty branch: everything earlier is matched (either side) or empty,
    # so the gaps lie below the first operation that is neither.
    end = next((r for r, b in enumerate(acts)
                if b.kind != QUEUE_INIT and r not in matched_enqs
                and r not in matched_deqs and not _is_deq_empty(b)),
               len(acts))
    a = Action(DEQUEUE, q, val=EMPTY, sync=OBJ)
    for pred in range(lo, end):
        out.append((*insert_fresh_timestamp(beta, gamma, t, pred, a), EMPTY))
    return out


def queue_dead_prefix(beta: ComponentState, q: str) -> int:
    """How many of q's first operations no queue rule can read, insert
    after or sync from again: those below L = min(every thread's view of q,
    the position of the head, the first unmatched enqueue).

    `queue_enq` and both `queue_deq` branches insert only at or above the
    stepping thread's view, and views only grow.  The non-empty branch
    reads only the head and syncs only from the head's recorded view.  The
    empty branch's `end` scan skips what can lie below L: the initial
    operation, matched operations (every enqueue below the head is
    matched, and every non-empty dequeue is) and empty dequeues.  The
    enqueue rule's scan for its lower bound starts at the thread's view.
    Insertions land above L, so the operations below it stay as they are;
    and `pobs`, `dobs` and `cond` read at or above a view or the top."""
    qi = beta.lay.vix[q]
    acts = beta.acts[qi]
    lo = min((v[qi] for v in beta.views), default=0)
    matched_enqs = {e for e, _ in beta.matched}
    return next((r for r in range(lo) if acts[r].kind == ENQUEUE
                 and r not in matched_enqs), lo)


def _is_deq_empty(a) -> bool:
    """Whether an action, or a method instance naming one, is an empty
    dequeue."""
    return a.kind == DEQUEUE and a.val is EMPTY
