"""Read/Write/Update transitions over (executing-component, context) pairs.

Each transition takes the state of the component being executed first and the
context second; a library step calls these with the arguments swapped.  An
empty successor list means the candidate action is impossible in the current
state, which is how program-level read candidates get filtered.
"""

from __future__ import annotations

from .state import (ComponentState, insert_fresh_timestamp, is_acquiring_read,
                    is_releasing_write, merge_views, wrval, READ, UPDATE,
                    WRITE)


def mem_read(gamma: ComponentState, beta: ComponentState, t, a):
    """Successors of a relaxed or acquiring read candidate."""
    assert a.kind == READ
    out = []
    for w in gamma.obs(t, a.var):
        if wrval(w.action) != a.val:
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
    """Successors of an atomic update: read-modify-write with covering."""
    assert a.kind == UPDATE
    return [insert_fresh_timestamp(
                gamma, beta, t, w.ts, a, cover=True,
                sync_from=w.ts if is_releasing_write(w.action) else None)
            for w in gamma.obs(t, a.var)
            if not gamma.covers(w) and wrval(w.action) == a.aux]
