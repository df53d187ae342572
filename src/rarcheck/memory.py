"""Read/Write/Update transitions over (executing-component, context) pairs.

Each transition takes the state of the component being executed first and the
context second; a library step calls these with the arguments swapped.  An
empty successor list means the action is impossible in the current state.

A thread proposes a read or a fetch-and-increment with the value read open
(`state.open_read`, `state.fai`); these rules bind it, one successor per
observable write read from, and return that write (for a read) or the
inserted update (whose `aux` is the value read).
"""

from __future__ import annotations

from .state import (ComponentState, insert_fresh_timestamp, is_acquiring_read,
                    is_releasing_write, merge_views, update, wrval, READ,
                    UPDATE, WRITE)


def mem_read(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of a relaxed or acquiring open read: one per observable
    write it reads from, skipping writes of `a.aux` if set (a failed CAS).
    The value read is wrval of the returned write's action."""
    assert a.kind == READ
    out = []
    for w in gamma.obs(t, a.var):
        if a.aux is not None and wrval(w.action) == a.aux:
            continue
        if is_releasing_write(w.action) and is_acquiring_read(a):
            src = gamma.mview_of(w)
            g2 = gamma.with_view(t, merge_views(gamma.view(t), src))
            b2 = beta.with_view(t, merge_views(beta.view(t),
                                               src[len(gamma.lay.own):]))
        else:
            tv = list(gamma.view(t))
            tv[gamma.lay.vix[a.var]] = w.ts
            g2 = gamma.with_view(t, tuple(tv))
            b2 = beta
        out.append((g2, b2, w))
    return out


def mem_write(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of a write: one per observable, non-covered predecessor."""
    assert a.kind == WRITE
    return [insert_fresh_timestamp(gamma, beta, t, w.ts, a)
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
        out.append(insert_fresh_timestamp(
            gamma, beta, t, w.ts, u, cover=True,
            sync_from=w.ts if is_releasing_write(w.action) else None))
    return out
