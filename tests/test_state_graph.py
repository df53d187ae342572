"""The state graph that `explore` returns, and the checkers that read it.

Every consumer (outline, Hoare, simulation and trace checks, witnesses)
reads `ExploreResult.edges` instead of stepping states again, so the graph
must be exactly the successor relation over the explored states, and a
witness must be a path in it."""

import random
from collections import deque

import pytest

import rarcheck.explore as ex
from rarcheck.explore import check_outline, explore, successors
from rarcheck.litmus import build_system, load_corpus

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
    level = {res.initial_key: 0}
    queue = deque([res.initial_key])
    while queue:
        k = queue.popleft()
        for _, _, nxt in res.edges[k]:
            if nxt in res.configs and nxt not in level:
                level[nxt] = level[k] + 1
                queue.append(nxt)
    return level


@pytest.mark.parametrize("name", CORPUS)
def test_edges_are_the_successor_relation(explorations, name):
    system, res = explorations[name]
    assert set(res.edges) == set(res.configs)
    for key, cfg in res.configs.items():
        stored = res.edges[key]
        assert list(stored) == successors(cfg, system.ctx)
        assert (stored == ()) == (key in res.terminal_keys)
        for _, _, nxt in stored:
            if nxt in res.configs:
                assert nxt is res.configs[nxt]
            else:
                assert res.truncated
    labels = {}
    for stored in res.edges.values():
        for _, lab, _ in stored:
            assert labels.setdefault(lab, lab) is lab


@pytest.mark.parametrize("name", CORPUS)
def test_witness_replays_along_edges(explorations, name):
    _, res = explorations[name]
    level = _levels(res)
    assert set(level) == set(res.configs)
    keys = list(res.configs)
    sample = random.Random(name).sample(keys, min(40, len(keys)))
    for key in sample + res.terminal_keys:
        path = res.witness_path(key)
        assert len(path) == level[key]
        cur = res.initial_key
        for step in path:
            matches = [nxt for t, lab, nxt in res.edges[cur]
                       if t == step["thread"] and lab.render() == step["label"]]
            assert len(matches) == 1, step
            cur = matches[0]
        assert cur is key


def _pairs(path):
    return [(step["thread"], step["label"]) for step in path]


def test_outline_mutant_witness_is_pinned():
    system = build_system(load_corpus("lockmp-mutant"))
    rep = check_outline(system.cfg0, system.ctx, system.outline, 64)
    assert _pairs(rep.verdicts["T2@2"].witness) == [(2, "l.acquire_1(2)@1")]


def test_terminal_witness_is_pinned(explorations):
    _, res = explorations["lockmp"]
    assert _pairs(res.witness_path(res.terminal_keys[-1])) == [
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
