"""Refinement refutes first: the trace search against the path it replaced.

`check_simulation` checks trace inclusion by one breadth-first search over
(concrete state, abstract answer set), which reads the concrete system's
exploration one level at a time, and plays the game only over a graph in
which the search found no violation.  The path it replaced explored both
systems in full, answered unknown when either run was truncated, and
otherwise played the game over the two explorations.  Here, on every
lock-declaring corpus client (`unbound_client` for `lockmp*`) under each
built-in lock at bounds 1-40 and 64, and on fuzzed lock clients:

- when the search finds no violation, its graph is `explore`'s on the same
  system, field by field;
- every verdict is the old path's, except where a truncated concrete run
  answered unknown and the search now refutes within the bound
  (`REFUTES_WITHIN_BOUND`, each listed);
- on the corpus, a refutation has stepped exactly the configurations that
  lie fewer scheduler steps from the start than its witness is long.
"""

import pytest
from hypothesis import given, settings, strategies as st

import rarcheck.explore as ex
import rarcheck.refine as rf
from rarcheck.explore import ExploreResult, explore, successors
from rarcheck.litmus import build_system, parse_litmus
from refine_helpers import unbound_client
from test_cli_fuzz import lock_clients

IMPLS = sorted(rf.builtin_impls())
CLIENTS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "seqlock-refine",
           "ticketlock-refine")
BOUNDS = list(range(1, 41)) + [64]
REFUTED = ("no-simulation", "concrete client trace has no abstract match")

# (client, impl) -> the bounds at which the old path answered unknown, its
# concrete run truncated, and the search refutes within the bound
REFUTES_WITHIN_BOUND = {
    ("lock-two-rounds", "seqlock-relaxed"): range(20, 39),
    ("lock-two-rounds", "ticketlock-relaxed"): range(16, 28),
    **{(client, "seqlock-relaxed"): range(22, 26)
       for client in CLIENTS[1:]},
    **{(client, "ticketlock-relaxed"): range(18, 22)
       for client in CLIENTS[1:]},
}


def _old_answer(abs_sys, conc_sys, bound):
    """The replaced path's verdict and the side whose truncation made it
    unknown (None when neither was), and its concrete exploration."""
    ab = explore(abs_sys.cfg0, abs_sys.ctx, bound)
    conc = explore(conc_sys.cfg0, conc_sys.ctx, bound)
    for side, res in (("concrete", conc), ("abstract", ab)):
        if res.truncated:
            return ("unknown-beyond-bound", side), conc
    project = rf._projector(abs_sys.client_locals, abs_sys.ctx.threads)
    losing = rf._attractor(rf._game(ab, conc, project))
    return ("no-simulation" if 0 in losing else "simulation-found",
            None), conc


def _check_against_old(impl, lf, bound):
    """One check both ways, on the same two built systems; returns the new
    answer and the old one."""
    built = []
    rf.build_system = lambda *a: built.append(build_system(*a)) or built[-1]
    try:
        sim = rf.check_simulation(rf.builtin_impls()[impl], lf, bound)
    finally:
        rf.build_system = build_system
    (verdict, side), conc = _old_answer(*built, bound)
    if sim.explored is not None:
        for field in ExploreResult._fields:
            assert getattr(sim.explored, field) == getattr(conc, field), \
                (field, bound)
    if verdict == "unknown-beyond-bound" and sim.verdict == verdict:
        # the abstract run is checked first now
        assert sim.detail in (f"{side} exploration truncated",
                              "abstract exploration truncated"), bound
    return sim, verdict, side


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("impl", IMPLS)
def test_corpus_graphs_and_verdicts_match_the_old_path(impl, client):
    lf = parse_litmus(unbound_client(client))
    refuted = []
    for bound in BOUNDS:
        sim, verdict, side = _check_against_old(impl, lf, bound)
        if sim.verdict != verdict:
            assert (verdict, side) == ("unknown-beyond-bound", "concrete")
            assert (sim.verdict, sim.detail) == REFUTED
            refuted.append(bound)
        if sim.verdict == "no-simulation":
            # every refutation of a lock client is the search's
            assert sim.detail == REFUTED[1] and sim.explored is None
    assert refuted == list(REFUTES_WITHIN_BOUND.get((client, impl), []))


@settings(max_examples=20, deadline=None)
@given(lock_clients(), st.sampled_from([5, 10, 15, 20, 25, 30, 200]))
def test_fuzzed_graphs_and_verdicts_match_the_old_path(text, bound):
    lf = parse_litmus(text)
    for impl in IMPLS:
        sim, verdict, side = _check_against_old(impl, lf, bound)
        if sim.verdict != verdict:
            assert (verdict, side) == ("unknown-beyond-bound", "concrete")
            assert (sim.verdict, sim.detail) == REFUTED, (impl, text)


@pytest.mark.parametrize("client", CLIENTS)
@pytest.mark.parametrize("impl", [i for i in IMPLS if i.endswith("-relaxed")])
def test_refutations_step_only_below_their_witness(monkeypatch, impl,
                                                   client):
    # on a refutation (only the relaxed mutants are refuted in this sweep),
    # `explore` has stepped each level of the concrete system below the
    # witness's length, in full, and no deeper: the configurations stepped
    # are exactly those of its full graph reached in fewer scheduler steps
    # than the witness takes, each once, so an input error among them is
    # always raised
    built, stepped = [], []

    def building(*args):
        built.append(build_system(*args))
        return built[-1]

    def stepping(cfg, ctx, *rest):
        stepped.append((ctx, cfg))
        return successors(cfg, ctx, *rest)

    monkeypatch.setattr(rf, "build_system", building)
    monkeypatch.setattr(ex, "successors", stepping)
    lf = parse_litmus(unbound_client(client))
    refuted = 0
    for bound in BOUNDS:
        del built[:], stepped[:]
        sim = rf.check_simulation(rf.builtin_impls()[impl], lf, bound)
        if sim.verdict != "no-simulation":
            continue
        refuted += 1
        _, conc_sys = built
        mine = [cfg for ctx, cfg in stepped if ctx is conc_sys.ctx]
        res = explore(conc_sys.cfg0, conc_sys.ctx, bound)
        depth = len(sim.counterexample)
        assert len(set(mine)) == len(mine), bound
        assert set(mine) == {
            res.states[n] for n in range(res.states_explored)
            if len(res.witness_path(n)) < depth}, bound
    assert refuted
