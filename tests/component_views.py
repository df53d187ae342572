"""Whole-state forms of a component state, for inspection in tests: its
covered operations, each thread's view and each operation's recorded view,
each named by operations (`state.TOp`) rather than positions."""


def cvd(comp) -> frozenset:
    """The covered operations."""
    return frozenset(op for op in comp.ops if comp.covers(op))


def tview(comp) -> dict:
    """thread -> variable -> the operation the thread views."""
    return {t: {x: comp.ops_on(x)[r] for x, r in zip(comp.lay.own, view)}
            for t, view in zip(comp.lay.threads, comp.views)}


def mview(comp) -> dict:
    """operation -> its recorded view (`ComponentState.recorded`)."""
    return {op: comp.recorded(op) for op in comp.ops}
