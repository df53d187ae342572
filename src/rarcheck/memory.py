"""Read/Write/Update transitions over (executing-component, context) pairs.

Each transition takes the state of the component being executed first and the
context second; a library step calls these with the arguments swapped.  An
empty successor list means the action is impossible in the current state.

Every rule, here and in `objects`, returns one (own', other', op, result)
per step: `op` is the operation the step's label names, and `result` the
value the step binds.  A thread proposes a read or a fetch-and-increment
with the value read open (`state.open_read`, `state.fai`); these rules bind
it, one successor per observable write read from.  A read's `op` is the
closed read at the position of the write it reads, and its result the value
read; an update's `op` is the inserted update, and its result the value it
read (its `aux`); a write's `op` is the inserted write, and its result None.
"""

from __future__ import annotations

from .state import (Action, ComponentState, acquire_views,
                    insert_fresh_timestamp, is_acquiring_read,
                    is_releasing_write, update, wrval, TOp, READ, UPDATE,
                    WRITE)


def mem_read(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of a relaxed or acquiring open read: one per observable
    write it reads from, skipping writes of `a.aux` if set (a failed CAS)."""
    assert a.kind == READ
    out = []
    for w in gamma.obs(t, a.var):
        v = wrval(w.action)
        if a.aux is not None and v == a.aux:
            continue
        if is_releasing_write(w.action) and is_acquiring_read(a):
            tv, ctv = acquire_views(gamma.view(t), beta.view(t),
                                    gamma.mview_of(w))
            g2, b2 = gamma.with_view(t, tv), beta.with_view(t, ctv)
        else:
            tv = list(gamma.view(t))
            tv[gamma.lay.vix[a.var]] = w.ts
            g2 = gamma.with_view(t, tuple(tv))
            b2 = beta
        out.append((g2, b2, TOp(Action(READ, a.var, v, sync=a.sync), w.ts),
                    v))
    return out


def mem_write(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of a write: one per observable, non-covered predecessor."""
    assert a.kind == WRITE
    return [(*insert_fresh_timestamp(gamma, beta, t, w.ts, a), None)
            for w in gamma.obs(t, a.var) if not gamma.covers(w)]


def mem_update(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of an atomic update: read-modify-write with covering.  A
    CAS reads exactly its expected value `a.aux`; a fetch-and-increment
    (`a.aux` open) reads any integer v and writes v + 1."""
    assert a.kind == UPDATE
    out = []
    for w in gamma.obs(t, a.var):
        if gamma.covers(w):
            continue
        v = wrval(w.action)
        if a.aux is None:
            if type(v) is not int:
                continue
            u = update(a.var, v, v + 1)
        elif v == a.aux:
            u = a
        else:
            continue
        out.append((*insert_fresh_timestamp(
            gamma, beta, t, w.ts, u,
            sync_from=w.ts if is_releasing_write(w.action) else None), v))
    return out
