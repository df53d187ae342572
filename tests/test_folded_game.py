"""Refinement over concrete graphs whose implementation-silent runs are
folded, against the unfolded reference.

A full exploration folds each implementation-silent run (`explore.
_impl_silent`: a silent step inside a filled hole's body, not a hole's
return, not a loop's test, leaving `$rval` as it is) into the step that
reaches it.  `reference_unfolded.explore_unfolded` stays the reference: the
plain search of single steps, which stores every configuration inside such
runs too.  The trace search and the simulation game run over it must give
the verdicts, the counterexamples, the details and the exit codes of the
same checks run over the folded graph, on every lock-declaring corpus
file at three bounds, on the lock clients of `test_refine` and
`test_cli_fuzz`, on the former under each lock padded so that a call folds
three steps or more, and, for the verdict and truncation, at every bound
from 1 to 40.  Only the pair and relation counts may differ.  The game
answers a folded edge as its first step; the two facts of the abstract
lock that make this exact are checked on the abstract explorations of the
same clients and of clients that call the lock inside blocks.
"""

import contextlib
import io
import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings

import rarcheck.explore as ex
import rarcheck.refine as rf
from rarcheck import program as P
from rarcheck.cli import run_cli
from rarcheck.explore import _impl_silent, _moves, explore
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.state import RVAL
from reference_unfolded import explore_unfolded, single_steps
from test_cli_fuzz import lock_clients
from test_refine import LOCK_CLIENTS, PINNED, replay

IMPLS = sorted(rf.builtin_impls())
LOCK_FILES = sorted(
    path.name.removesuffix(".lit")
    for path in resources.files("rarcheck").joinpath("corpus").iterdir()
    if path.name.endswith(".lit") and "object lock" in path.read_text())
COUNTS = re.compile(r'"(pairs_explored|relation_size)": \d+,?')


@contextlib.contextmanager
def unfolded():
    """Refinement checks explore both systems by single steps: the abstract
    one by `explore_unfolded`, the concrete one by `explore.levels`, which
    the trace search reads, stepping by `single_steps`."""
    folded = rf.explore, ex.successors
    rf.explore, ex.successors = explore_unfolded, single_steps
    try:
        yield
    finally:
        rf.explore, ex.successors = folded


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, COUNTS.sub("", out.getvalue()), err.getvalue()


def _refine_cli(path, impl, bound):
    argv = ["refine", "--json", "--impl", impl, "--client", str(path),
            "--max-steps", str(bound)]
    folded = _cli(argv)
    with unfolded():
        return folded, _cli(argv)


def test_lock_files():
    assert LOCK_FILES == ["lock-two-rounds", "lockmp", "lockmp-mutant",
                         "seqlock-refine", "ticketlock-refine"]


@pytest.mark.parametrize("bound", [15, 25, 64])
@pytest.mark.parametrize("name", LOCK_FILES)
@pytest.mark.parametrize("impl", IMPLS)
def test_corpus_refine_outputs_match_unfolded(tmp_path, impl, name, bound):
    path = tmp_path / f"{name}.lit"
    path.write_text((resources.files("rarcheck") / "corpus" /
                     f"{name}.lit").read_text())
    folded, reference = _refine_cli(path, impl, bound)
    assert folded == reference


@pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
@pytest.mark.parametrize("impl", IMPLS)
def test_games_match_unfolded(impl, client):
    lf = parse_litmus(LOCK_CLIENTS[client])
    impl = rf.builtin_impls()[impl]
    sims, traces = [], []
    for context in (contextlib.nullcontext, unfolded):
        with context():
            sim = rf.check_simulation(impl, lf, 64)
        sims.append(sim)
        traces.append(rf.check_trace_refinement(sim))
    (sim, ref), (trace, ref_trace) = sims, traces
    assert (sim.verdict, sim.counterexample, sim.detail) == (
        ref.verdict, ref.counterexample, ref.detail)
    assert sim.pairs_explored <= ref.pairs_explored
    assert trace.verdict == ref_trace.verdict
    # and a violation's path is a run of single steps
    replay(build_system(lf, impl), sim.counterexample or [])


def _commuted(system, path):
    """`path` with each implementation-silent step moved back to just after
    its thread's step before it, past the other threads' steps between:
    such a step commutes with every other thread's step, so the result is
    a run to the same configuration."""
    cfg, out = system.cfg0, []
    for step in path:
        t = step["thread"]
        (label, nxt), = [(lab, c) for u, lab, c in
                         single_steps(cfg, system.ctx)
                         if u == t and lab.text == step["label"]]
        where = len(out)
        if _impl_silent(cfg.thread(t), system.ctx):
            where = max((i + 1 for i, s in enumerate(out)
                         if s["thread"] == t), default=0)
        out.insert(where, step)
        cfg = nxt
    return out


@settings(max_examples=20, deadline=None)
@given(lock_clients())
def test_fuzzed_lock_clients_match_unfolded(tmp_path_factory, text):
    # every output but the witness is the same; the unfolded game's witness
    # may take another thread's step inside a silent run, where the folded
    # one takes the whole run first, and is the folded one once its silent
    # steps are moved back to the step that began their run
    path = tmp_path_factory.mktemp("client") / "c.lit"
    path.write_text(text)
    lf = parse_litmus(text)
    for impl in IMPLS:
        reports = []
        for context in (contextlib.nullcontext, unfolded):
            with context():
                code, out, err = _cli(["refine", "--json", "--impl", impl,
                                       "--client", str(path), "--max-steps",
                                       "200"])
            assert code in (0, 1) and not err, (impl, text, err)
            reports.append((code, json.loads(out)))
        (code, report), (ref_code, ref) = reports
        witness, ref_witness = report.pop("witness"), ref.pop("witness")
        assert (code, report) == (ref_code, ref), (impl, text)
        concrete = build_system(lf, rf.builtin_impls()[impl])
        assert witness == _commuted(concrete, witness) == \
            _commuted(concrete, ref_witness), (impl, text)


def _padded(impl):
    """`impl` with two `$`-register assignments before each method's body,
    so that a call's folded edge takes at least three steps."""
    return rf.Impl(impl.name, impl.kind, impl.init, tuple(
        (meth, P.Seq(P.Assign("$p", P.Lit(0)),
                     P.Seq(P.Assign("$q", P.Lit(0)), body)))
        for meth, body in impl.methods))


@pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
@pytest.mark.parametrize("impl", IMPLS)
def test_padded_locks_match_unfolded(impl, client):
    # the trace search carries folded edges of three and more steps over
    # levels before they land; it answers as over single steps, and as
    # the lock without padding, with the same witness once silent steps
    # are moved back to their runs (a thread may begin inside a call's
    # silent run here, so that move can change a folded witness too)
    lf = parse_litmus(LOCK_CLIENTS[client])
    padded = _padded(rf.builtin_impls()[impl])
    concrete = build_system(lf, padded)
    res = explore(concrete.cfg0, concrete.ctx, 200)
    assert max(len(label) for steps in res.edges for _, label, _ in steps
               if type(label) is tuple) >= 3
    sims = []
    for context in (contextlib.nullcontext, unfolded):
        with context():
            sims.append(rf.check_simulation(padded, lf, 200))
    sim, ref = sims
    assert (sim.verdict, sim.detail) == (ref.verdict, ref.detail)
    plain = rf.check_simulation(rf.builtin_impls()[impl], lf, 200)
    assert sim.verdict == plain.verdict != "unknown-beyond-bound"
    assert _commuted(concrete, sim.counterexample or []) == \
        _commuted(concrete, ref.counterexample or [])


# (client, impl, bound) where the folded concrete exploration stops at the
# bound and the unfolded one ends: a folded edge cut by the bound lands on a
# configuration inside a silent run, which the unfolded run reached at a
# lower level by another path
CUT_EDGE_TRUNCATES = {("lock-two-rounds", "seqlock", 35),
                      ("lock-two-rounds", "seqlock-relaxed", 38)}
SWEEP_CLIENTS = ("lock-two-rounds", "seqlock-refine", "ticketlock-refine")


def _answers(client, impl, bound):
    """What refine reads of one check at one bound: the verdict, its detail
    and counterexample, and whether the concrete graph that the trace
    search built stopped at the bound (None when the search refuted or the
    abstract run was truncated); folded, then unfolded."""
    out = []
    for context in (contextlib.nullcontext, unfolded):
        with context():
            sim = rf.check_simulation(rf.builtin_impls()[impl],
                                      load_corpus(client), bound)
        out.append((sim.verdict, sim.detail, sim.counterexample,
                    sim.explored and sim.explored.truncated))
    return out


@pytest.mark.parametrize("client", SWEEP_CLIENTS)
@pytest.mark.parametrize("impl", IMPLS)
def test_bound_sweep_matches_unfolded(impl, client):
    for bound in range(1, 41):
        if (client, impl, bound) in CUT_EDGE_TRUNCATES:
            continue
        folded, reference = _answers(client, impl, bound)
        assert folded == reference, bound


@pytest.mark.xfail(strict=True, reason="a folded edge cut by the bound "
                   "reports truncation where the unfolded run ends")
@pytest.mark.parametrize("client,impl,bound", sorted(CUT_EDGE_TRUNCATES))
def test_cut_folded_edge_truncates_alike(client, impl, bound):
    # on the explorations themselves: the relaxed mutant's trace search now
    # refutes at bound 38 before the cut edge shows in its answer
    system = build_system(load_corpus(client), rf.builtin_impls()[impl])
    folded = explore(system.cfg0, system.ctx, bound)
    reference = explore_unfolded(system.cfg0, system.ctx, bound)
    assert folded.truncated == reference.truncated


@pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
@pytest.mark.parametrize("impl", IMPLS)
def test_folded_graph_is_the_unfolded_one_without_silent_runs(impl, client):
    # untruncated, the folded exploration stores exactly the unfolded
    # one's configurations in which no thread is implementation-silent, and
    # each folded edge is a run of single steps, one per label, to its
    # target
    system = build_system(parse_litmus(LOCK_CLIENTS[client]),
                          rf.builtin_impls()[impl])
    res = explore(system.cfg0, system.ctx, 64)
    ref = explore_unfolded(system.cfg0, system.ctx, 64)
    assert not res.truncated and not ref.truncated
    ctx = system.ctx
    assert set(res.states) == {
        cfg for cfg in ref.states
        if not any(_impl_silent(ts, ctx) for ts in cfg.locs)}
    folded = 0
    for n, edges in enumerate(res.edges):
        for t, label, m in edges:
            cfg = res.states[n]
            for lab in label if type(label) is tuple else (label,):
                (cfg,) = [c for u, step, c in single_steps(cfg, ctx)
                          if u == t and step is lab]
            assert cfg == res.states[m]
            folded += type(label) is tuple
    assert folded


@pytest.mark.parametrize("name", ["mp-relaxed", "mp-relacq", "lockmp",
                                  "queue-mp", "lock-two-rounds",
                                  "seqlock-refine"])
def test_systems_without_an_implementation_are_not_folded(name):
    # only a filled hole's body has implementation-silent steps: a full
    # exploration of a system without one is the single-step search
    system = build_system(load_corpus(name))
    for bound in (7, 64):
        res = explore(system.cfg0, system.ctx, bound)
        ref = explore_unfolded(system.cfg0, system.ctx, bound)
        assert (res.states, res.edges, res.via, res.terminals,
                res.truncated, res.states_explored, res.outcomes) == (
            ref.states, ref.edges, ref.via, ref.terminals, ref.truncated,
            ref.states_explored, ref.outcomes)
    assert not any(system.ctx.runs[_impl_silent].values())


def test_refine_json_counts_are_the_folded_games():
    # the golden `refine --json` outputs hold the folded game's counts;
    # the unfolded game gives the counts recorded before the folding
    report = json.loads(PINNED["seqlock lock-two-rounds 64"]["stdout"])
    assert (report["pairs_explored"], report["relation_size"]) == (610, 521)
    with unfolded():
        sim = rf.check_simulation(rf.builtin_impls()["seqlock"],
                                  load_corpus("lock-two-rounds"), 64)
    assert (sim.pairs_explored, sim.relation_size) == (1205, 1068)


# clients that call the lock inside each kind of block, and bind both
# calls' results
CONTROL_FLOW_CLIENTS = {
    "if": """name if-calls
init x := 0
object lock l
thread 1 { a1 := 0; if a1 = 0 then { l.acquire(); x := 1; l.release(); }
           else x := 2; }
thread 2 { a2 <- x; if a2 = 1 then { l.acquire(); x := 3; l.release(); }
           else { l.acquire(); l.release(); } }
""",
    "while": """name while-calls
init x := 0
object lock l
thread 1 { a1 := 0;
           while a1 < 2 do { l.acquire(); x := a1; l.release();
                             a1 := a1 + 1; } }
thread 2 { l.acquire(); a2 <- x; l.release(); }
""",
    "do-until": """name do-until-calls
init x := 0
object lock l
thread 1 { do { a := l.acquire(); b1 <- x; x := 1; b := l.release(); }
           until b1 = 1; }
thread 2 { l.acquire(); x := 1; l.release(); }
""",
}

FIRST_STEP_FACT = (
    "the game answers a folded edge as its first step only because every "
    "abstract call changes its thread's $rval and no at-hole step follows "
    "another; an object that breaks this needs the multi-step reply back, "
    "with a proof (ROADMAP item 9)")


def _assert_first_step_facts(lf, bound):
    """On the abstract exploration of client `lf`: every edge whose label
    is a library call changes its thread's `$rval`, and no at-hole step
    leads to a thread state that has an at-hole move.  Then no abstract
    call relates to the target of a folded concrete edge, whose `$rval`s
    are its source's, and a second at-hole reply never follows a first:
    so a folded edge's replies are its first step's."""
    system = build_system(lf)
    res = explore(system.cfg0, system.ctx, bound)
    calls = returns = 0
    for n, steps in enumerate(res.edges):
        for t, label, m in steps:
            before, after = res.states[n].thread(t), res.states[m].thread(t)
            if label.component == "library":
                calls += 1
                assert before.ls.get(RVAL) != after.ls.get(RVAL), \
                    FIRST_STEP_FACT
            if label.at_hole:
                returns += 1
                assert not any(move.step.at_hole
                               for move in _moves(after, system.ctx)), \
                    FIRST_STEP_FACT
    assert calls and returns  # every client here calls, then goes on


@pytest.mark.parametrize("name", LOCK_FILES)
def test_first_step_facts_on_the_corpus(name):
    _assert_first_step_facts(load_corpus(name), 64)


@pytest.mark.parametrize("name", sorted(CONTROL_FLOW_CLIENTS))
def test_first_step_facts_under_control_flow(name):
    lf = parse_litmus(CONTROL_FLOW_CLIENTS[name])
    _assert_first_step_facts(lf, 64)
    # and the game over the folded graph answers as over the unfolded one,
    # with the same witness once silent steps are moved back to their runs
    # (as in test_fuzzed_lock_clients_match_unfolded)
    for impl in IMPLS:
        sims = []
        for context in (contextlib.nullcontext, unfolded):
            with context():
                sims.append(rf.check_simulation(rf.builtin_impls()[impl],
                                                lf, 64))
        sim, ref = sims
        assert (sim.verdict, sim.detail) == (ref.verdict, ref.detail), impl
        concrete = build_system(lf, rf.builtin_impls()[impl])
        witness = sim.counterexample or []
        assert witness == _commuted(concrete, witness) == \
            _commuted(concrete, ref.counterexample or []), impl


@settings(max_examples=20, deadline=None)
@given(lock_clients())
def test_first_step_facts_on_fuzzed_lock_clients(text):
    _assert_first_step_facts(parse_litmus(text), 200)
