"""States in normal form: dense positions on every variable after every
transition, state equality against an independent reference key, and pinned
exploration results."""

import pytest

from component_views import mview, ops, tview, variables
from rarcheck.explore import canonical_key, explore, successors
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.state import EMPTY
from reference_key import ref_key

# states_explored, truncated, outcome set and transitions (successors of
# every explored state, as stored in the edges) of every corpus file (bound
# 64) and of the FIFO oracle systems (bound 96).  FIFO outcomes list r1..rk,
# with e for empty.
PINNED = [
    ('lock-two-rounds', 48, False, ['r1=0', 'r1=1', 'r1=2'], 52),
    ('lockmp', 29, False, ['r1=0 r2=0', 'r1=5 r2=5'], 28),
    ('lockmp-mutant', 29, False, ['r1=0 r2=0', 'r1=5 r2=5'], 28),
    ('mp-relacq', 21, False, ['r1=1 r2=5'], 34),
    ('mp-relaxed', 23, False, ['r2=0', 'r2=5'], 33),
    ('queue-mp', 344, True, ['r1=1 r2=5'], 538),
    ('seqlock-refine', 29, False, ['r1=0 r2=0', 'r1=5 r2=5'], 28),
    ('ticketlock-refine', 29, False, ['r1=0 r2=0', 'r1=5 r2=5'], 28),
    ("fifo-3", 236, False, [
        '123', '12e', '1e2', '1ee', 'e12', 'e1e', 'ee1', 'eee'], 416),
    ("fifo-4", 916, False, [
        '1234', '123e', '12e3', '12ee', '1e23', '1e2e', '1ee2', '1eee',
        'e123', 'e12e', 'e1e2', 'e1ee', 'ee12', 'ee1e', 'eee1', 'eeee'], 1676),
    ("fifo-5", 3443, False, [
        '12345', '1234e', '123e4', '123ee', '12e34', '12e3e', '12ee3',
        '12eee', '1e234', '1e23e', '1e2e3', '1e2ee', '1ee23', '1ee2e',
        '1eee2', '1eeee', 'e1234', 'e123e', 'e12e3', 'e12ee', 'e1e23',
        'e1e2e', 'e1ee2', 'e1eee', 'ee123', 'ee12e', 'ee1e2', 'ee1ee',
        'eee12', 'eee1e', 'eeee1', 'eeeee'], 6422),
]
# the transitions column is looked up by name, so that each case keeps the
# test id it had before the column was added
TRANSITIONS = {name: row[-1] for name, *row in PINNED}


# Threads writing different variables: the order in time of their writes is
# not part of any state.
CROSS = {
    "two-writes": "name two-writes\ninit x := 0; y := 0\n"
                  "thread 1 { x := 1; }\nthread 2 { y := 1; }\n",
    "sb": "name sb\ninit x := 0; y := 0\n"
          "thread 1 { x := 1; r1 <- y; }\nthread 2 { y := 1; r2 <- x; }\n",
}
NAMES = [name for name, *_ in PINNED] + list(CROSS)


def _explored(name):
    if name in CROSS:
        system = build_system(parse_litmus(CROSS[name]))
        return system, explore(system.cfg0, system.ctx, 64)
    if name.startswith("fifo-"):
        system = build_system(parse_litmus(fifo_litmus(int(name[5:]))))
        return system, explore(system.cfg0, system.ctx, 96)
    system = build_system(load_corpus(name))
    return system, explore(system.cfg0, system.ctx, 64)


def _outcome(name, oc):
    if name.startswith("fifo-"):
        return "".join("e" if oc[f"r{i}"] is EMPTY else str(oc[f"r{i}"])
                       for i in range(1, len(oc) + 1))
    return " ".join(f"{r}={v}" for r, v in sorted(oc.items()))


@pytest.fixture(scope="module")
def explored():
    return {name: _explored(name) for name in NAMES}


@pytest.mark.parametrize("name,states,truncated,outcomes",
                         [row[:4] for row in PINNED])
def test_pinned_counts_and_outcomes(explored, name, states, truncated,
                                    outcomes):
    _, res = explored[name]
    assert res.states_explored == states
    assert sum(map(len, res.edges)) == TRANSITIONS[name]
    assert res.truncated is truncated
    assert sorted(_outcome(name, oc) for oc in res.outcomes) == outcomes


def _dense(comp, other) -> bool:
    """The n operations on each variable sit at positions 0..n-1, one each,
    and every view and recorded view names an existing operation."""
    names = {(op.action.var, op.ts) for op in ops(comp)}
    other_names = {(op.action.var, op.ts) for op in ops(other)}
    return (len(names) == len(ops(comp))
            and names == {(x, r) for x in variables(comp)
                          for r in range(len(comp.ops_on(x)))}
            and all((x, op.ts) in names and op.action.var == x
                    for view in tview(comp).values()
                    for x, op in view.items())
            and all((x, r) in names or (x, r) in other_names
                    for mv in mview(comp).values() for x, r in mv.items()))


@pytest.mark.parametrize("name", NAMES)
def test_ranks_dense_after_every_transition(explored, name):
    system, res = explored[name]
    for cfg in res.states[:res.states_explored]:
        for _, _, nxt in successors(cfg, system.ctx):
            assert _dense(nxt.gamma, nxt.beta)
            assert _dense(nxt.beta, nxt.gamma)


@pytest.mark.parametrize("name", NAMES)
def test_equality_coincides_with_reference_key(explored, name):
    # distinct explored states have distinct reference keys, and every
    # successor that deduplicates onto a stored state has its key
    system, res = explored[name]
    configs = {cfg: cfg for cfg in res.states[:res.states_explored]}
    keys = {ref_key(cfg) for cfg in configs}
    assert len(keys) == res.states_explored
    for cfg in configs:
        for _, _, nxt in successors(cfg, system.ctx):
            stored = configs.get(canonical_key(nxt))
            if stored is not None:
                assert ref_key(nxt) == ref_key(stored)
                assert hash(nxt) == hash(stored)
            else:
                assert res.truncated and ref_key(nxt) not in keys


def _write_step(cfg, ctx, t):
    """The configuration after thread t's (only) write step from cfg."""
    (nxt,) = [n for t2, lab, n in successors(cfg, ctx)
              if t2 == t and lab.text.startswith("wr")]
    return nxt


@pytest.mark.parametrize("name", list(CROSS))
def test_cross_variable_order_is_one_state(explored, name):
    # thread 1 writes x and thread 2 writes y, in either order: one state
    system, res = explored[name]
    ctx, cfg0 = system.ctx, system.cfg0
    one_two = _write_step(_write_step(cfg0, ctx, 1), ctx, 2)
    two_one = _write_step(_write_step(cfg0, ctx, 2), ctx, 1)
    assert one_two == two_one
    configs = {cfg: cfg for cfg in res.states}
    assert configs[one_two] is configs[two_one]
    assert ref_key(one_two) == ref_key(two_one)
