"""The state graph that `explore` returns, and the checkers that read it.

Every consumer (outline, Hoare, simulation and trace checks, witnesses)
reads `ExploreResult.edges` instead of stepping states again, so the graph
must be exactly the successor relation over the explored states, and a
witness must be a path in it: the one a replay of exploration's order finds
(`reference_witness`)."""

import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings

import rarcheck.explore as ex
from rarcheck.explore import check_outline, explore, successors
from rarcheck.litmus import (LitmusError, build_system, load_corpus,
                             parse_litmus)
from rarcheck.oracle import fifo_litmus
from rarcheck.program import ProgramError
from rarcheck.refine import builtin_impls
from rarcheck.state import StateError
from reference_witness import reference_paths
from test_cli_fuzz import litmus_files
from test_folded_game import LOCK_FILES

CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
          "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")


@pytest.fixture(scope="module")
def explorations():
    out = {}
    for name in CORPUS:
        system = build_system(load_corpus(name))
        out[name] = (system, explore(system.cfg0, system.ctx, 64))
    assert out["queue-mp"][1].truncated
    return out


def _levels(res):
    """Shortest distance from the initial state, by a BFS of our own."""
    level = {0: 0}
    queue = deque([0])
    while queue:
        k = queue.popleft()
        for _, _, nxt in res.edges[k]:
            if nxt < res.states_explored and nxt not in level:
                level[nxt] = level[k] + 1
                queue.append(nxt)
    return level


def _assert_graph_shape(res):
    """What holds of a graph at any bound: a full run stores an edge list
    for exactly its explored states, every edge names a stored state, and
    every state past the explored ones is a successor of an explored one
    at the bound; a reduced run numbers no state past the explored ones."""
    if res.edges is None:
        assert res.states_explored == len(res.states)
        return
    assert len(res.edges) == res.states_explored
    targets = {m for stored in res.edges for _, _, m in stored}
    assert all(0 <= m < len(res.states) for m in targets)
    beyond = set(range(res.states_explored, len(res.states)))
    assert beyond <= targets
    assert res.truncated or not beyond


@pytest.mark.parametrize("name", CORPUS)
def test_edges_are_the_successor_relation(explorations, name):
    system, res = explorations[name]
    _assert_graph_shape(res)
    assert len(set(res.states)) == len(res.states)
    for key, cfg in enumerate(res.states[:res.states_explored]):
        stored = res.edges[key]
        assert [(t, lab, res.states[nxt]) for t, lab, nxt in stored] == \
            successors(cfg, system.ctx)
        assert (stored == ()) == (key in res.terminals)
    labels = {}
    for stored in res.edges:
        for _, lab, _ in stored:
            assert labels.setdefault(lab, lab) is lab


# every corpus file, and refinement's concrete systems, whose full runs fold
# implementation-silent runs
@pytest.mark.parametrize("name, impl", [(name, None) for name in CORPUS] + [
    (name, impl) for name in LOCK_FILES for impl in sorted(builtin_impls())])
def test_graph_shape_at_every_bound(name, impl):
    impls = () if impl is None else (builtin_impls()[impl],)
    system = build_system(load_corpus(name), *impls)
    for bound in list(range(1, 41)) + [64]:
        for reduce in (False, True):
            _assert_graph_shape(explore(system.cfg0, system.ctx, bound,
                                        reduce=reduce))


@pytest.mark.parametrize("name", CORPUS)
def test_witness_replays_along_edges(explorations, name):
    _, res = explorations[name]
    level = _levels(res)
    assert set(level) == set(range(res.states_explored))
    keys = list(range(res.states_explored))
    sample = random.Random(name).sample(keys, min(40, len(keys)))
    for key in sample + res.terminals:
        path = res.witness_path(key)
        assert len(path) == level[key]
        cur = 0
        for step in path:
            matches = [nxt for t, lab, nxt in res.edges[cur]
                       if t == step["thread"] and lab.text == step["label"]]
            assert len(matches) == 1, step
            cur = matches[0]
        assert cur == key


def _pairs(path):
    return [(step["thread"], step["label"]) for step in path]


def test_outline_mutant_witness_is_pinned():
    system = build_system(load_corpus("lockmp-mutant"))
    rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
    assert _pairs(rep.verdicts["T2@2"].witness) == [(2, "l.acquire_1(2)@1")]


def test_terminal_witness_is_pinned(explorations):
    _, res = explorations["lockmp"]
    assert _pairs(res.witness_path(res.terminals[-1])) == [
        (2, "l.acquire_1(2)@1"), (2, "eps"), (2, "rd(d1,0)@0"), (2, "eps"),
        (2, "rd(d2,0)@0"), (2, "eps"), (2, "l.release_2@2"),
        (1, "l.acquire_3(1)@3"), (1, "eps"), (1, "wr(d1,5)@1"), (1, "eps"),
        (1, "wr(d2,5)@1"), (1, "eps"), (1, "l.release_4@4")]


@pytest.mark.parametrize("name", ("lockmp", "lockmp-mutant", "queue-mp"))
def test_outline_steps_each_state_once(monkeypatch, name):
    system = build_system(load_corpus(name))
    calls = []
    original = ex.successors

    def counting(cfg, ctx, reduce=False, budget=None):
        assert not reduce  # an outline reads every state
        calls.append(cfg)
        return original(cfg, ctx)

    monkeypatch.setattr(ex, "successors", counting)
    rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
    assert len(calls) == len(set(calls)) == rep.states_explored


def _assert_witnesses_match_reference(system, max_steps, reduce):
    """Every stored state's witness is the one the reference replay finds;
    returns the number of states compared."""
    res = explore(system.cfg0, system.ctx, max_steps, reduce=reduce)
    paths = reference_paths(res, system.ctx, max_steps, reduce)
    assert set(paths) == set(range(len(res.states)))
    for n, path in paths.items():
        assert res.witness_path(n) == path, n
    return len(paths)


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("bound", [7, 12, 25, 64])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_witnesses_match_the_reference(name, bound, reduce):
    system = build_system(load_corpus(name))
    assert _assert_witnesses_match_reference(system, bound, reduce)


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fifo_witnesses_match_the_reference(n, reduce):
    system = build_system(parse_litmus(fifo_litmus(n)))
    assert _assert_witnesses_match_reference(system, 96, reduce)


@pytest.mark.parametrize("reduce", [False, True])
@pytest.mark.parametrize("impl", sorted(builtin_impls()))
@pytest.mark.parametrize("client", ["seqlock-refine", "ticketlock-refine",
                                    "lock-two-rounds"])
def test_refine_witnesses_match_the_reference(client, impl, reduce):
    system = build_system(load_corpus(client), builtin_impls()[impl])
    assert _assert_witnesses_match_reference(system, 64, reduce)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(litmus_files())
def test_generated_witnesses_match_the_reference(text):
    try:
        system = build_system(parse_litmus(text))
        for bound in (6, 12, 40):
            for reduce in (False, True):
                _assert_witnesses_match_reference(system, bound, reduce)
    except (LitmusError, ProgramError, StateError):
        return  # an input error, at build time or at a step
