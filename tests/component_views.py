"""Whole-state forms of a component state, for inspection in tests: its
variables, its operations, its covered operations, each thread's view and
each operation's recorded view, each named by operations (`state.TOp`)
rather than positions."""


def variables(comp) -> set:
    """The component's own variables."""
    return set(comp.lay.own)


def ops(comp) -> frozenset:
    """Every operation on every variable."""
    return frozenset(op for x in comp.lay.own for op in comp.ops_on(x))


def cvd(comp) -> frozenset:
    """The covered operations."""
    return frozenset(op for op in ops(comp) if comp.covers(op))


def tview(comp) -> dict:
    """thread -> variable -> the operation the thread views."""
    return {t: {x: comp.ops_on(x)[r] for x, r in zip(comp.lay.own, view)}
            for t, view in zip(comp.lay.threads, comp.views)}


def mview(comp) -> dict:
    """operation -> its recorded view (`ComponentState.recorded`)."""
    return {op: comp.recorded(op) for op in ops(comp)}
