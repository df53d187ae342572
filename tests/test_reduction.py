"""Ample-set reduction of silent steps, with each silent run folded into
the step that reaches it, against full exploration.

`explore(..., reduce=True)` takes, at a configuration where some thread's
only move is silent, only that thread's silent run, and after every other
step the silent run of the thread that stepped, as one edge weighing its
scheduler steps.  The cycle proviso is static: a loop's test, the one step
that brings a thread back to a command it has run, is never ample.  Full
exploration stays the reference: on the corpus at many bounds, on the
benchmark's generated racy and lock clients, on the FIFO oracle's programs
and on Hypothesis programs, a reduced run must give the same outcomes,
truncation flag and hoare verdict, and, when it is not truncated, reach the
same (gamma, beta) component pairs and store exactly the full run's
configurations in which no thread is silent-only, and the initial
configuration's chain of runs.  Every witness of a reduced run replays step
by step through full-semantics successors to its state, and is as long as
a full run's.

A reduced run on a queue also forgets the queue's dead prefix after every
step that changes the library (`explore._forget`), so it stores each such
configuration forgotten.  Its states are compared with the full run's
through an independent forgetting (`reference_forget`).  Forgetting merges
configurations that differ only in dead queue history, and such
configurations have the same future, so the merged one lies at the lowest
of their levels, where the full run reaches one of them too: the outcomes
stay the same at every bound.  Only the truncation flag may differ: a full
run may be cut off in a configuration whose image the reduced run reached
earlier, and then the hoare verdict may be `valid` where the full run's is
`unknown-beyond-bound`.  Without a queue, the flag differs on one known
program too, which `test_do_until_false_truncates_alike` records as an
expected failure.
"""

import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings

import rarcheck.explore as ex
from rarcheck.assertions import NotA, eval_assertion
from rarcheck.explore import check_hoare, check_outline, explore, successors
from rarcheck.litmus import LitmusError, build_system, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.program import ProgramError, Seq
from rarcheck.state import QUEUE_INIT, StateError
from reference_forget import forgotten_key
from reference_key import ref_key
from test_cli_fuzz import litmus_files

ROOT = Path(__file__).resolve().parent.parent

CORPUS = {path.name.removesuffix(".lit"): path.read_text()
          for path in resources.files("rarcheck").joinpath("corpus").iterdir()
          if path.name.endswith(".lit")}


def _generated_clients():
    """The 96 racy and 8 lock clients of the benchmark's litmus workload at
    seed 1, as (id, litmus text)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    checks = workloads.litmus(ROOT, 1, Path("inputs")).checks
    return [(c.id, c.text) for c in checks if c.text is not None]


GENERATED = _generated_clients()


def _component_pairs(res, image=None):
    """The explored (gamma, beta) pairs; with `image`, by the pair's part of
    image(cfg), a reference key."""
    explored = res.states[:res.states_explored]
    if image is None:
        return {(cfg.gamma._parts(), cfg.beta._parts()) for cfg in explored}
    return {image(cfg)[2:] for cfg in explored}


def _answers(text, max_steps, reduce):
    """What a run reads: the exploration, its hoare verdict (None without
    a final clause), or the input error that stopped it."""
    try:
        system = build_system(parse_litmus(text))
        res = explore(system.cfg0, system.ctx, max_steps, reduce=reduce)
        outline, verdict = system.outline, None
        if outline.final is not None:
            # check_hoare reduces its own exploration; the full run is
            # handed to it as the reference
            verdict = check_hoare(system.cfg0, system.ctx, outline.pre,
                                  outline.final, max_steps,
                                  None if reduce else res).verdict
    except (LitmusError, ProgramError, StateError) as e:
        return None, (type(e), str(e))
    return res, verdict


def assert_same_answers(text, max_steps):
    """Full and reduced exploration of text agree on everything a reduced
    run is for; returns both results (None after an input error).

    An input error raised by a thread's step is met once a configuration
    holding that thread state is stepped.  The reduced run reaches it later
    when other threads' silent steps go first, so within a bound it may
    stop on the bound instead; a reduced run meets no error that the full
    run does not."""
    full, full_verdict = _answers(text, max_steps, False)
    reduced, reduced_verdict = _answers(text, max_steps, True)
    if reduced is None:
        assert full is None, (text, reduced_verdict)
        return full, reduced
    if full is None:
        assert reduced.truncated, (text, full_verdict)
        return full, reduced
    assert reduced.states_explored <= full.states_explored
    assert reduced.outcomes == full.outcomes
    if full.truncated and not reduced.truncated and _forgets(full):
        # the full run is cut off only in configurations that differ from
        # ones it reached earlier in dead queue history alone
        assert (full_verdict, reduced_verdict) in (
            (None, None), ("invalid", "invalid"),
            ("unknown-beyond-bound", "valid"))
        return full, reduced
    assert reduced_verdict == full_verdict
    assert reduced.truncated == full.truncated
    if not full.truncated:
        if _forgets(full):
            assert _component_pairs(reduced, ref_key) == \
                _component_pairs(full, forgotten_key)
        else:
            assert _component_pairs(reduced) == _component_pairs(full)
    return full, reduced


def _forgets(res):
    """Whether a reduced run of res's system forgets: it has a queue."""
    return any(col[0].kind == QUEUE_INIT for col in res.states[0].beta.acts)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_at_every_bound(name):
    for max_steps in [*range(1, 41), 64]:
        assert_same_answers(CORPUS[name], max_steps)


@pytest.mark.parametrize("cid,text", GENERATED, ids=[c for c, _ in GENERATED])
def test_generated_clients(cid, text):
    assert len(GENERATED) == 104
    for max_steps in (2, 5, 9, 64):
        assert_same_answers(text, max_steps)


@pytest.mark.parametrize("n", range(6))
def test_fifo_programs(n):
    for max_steps in (96, 2 * n + 1):
        assert_same_answers(fifo_litmus(n), max_steps)


@pytest.mark.parametrize("n,full,reduced", [(2, 54, 19), (6, 12886, 1440)])
def test_fifo_state_counts(n, full, reduced):
    # the reduction's one pinned state count per size, against the full
    # exploration's, which `oracle fifo` reported before it reduced: at 6
    # enqueues, 3,431 states with silent runs folded, 1,440 with the
    # queue's dead prefix forgotten too
    counts = []
    for reduce in (False, True):
        system = build_system(parse_litmus(fifo_litmus(n)))
        counts.append(explore(system.cfg0, system.ctx, 96,
                              reduce=reduce).states_explored)
    assert counts == [full, reduced]


SPIN = """
name spin
init x := 0
thread 1 { r1 := 0; while r1 = 0 do r1 := 0; }
thread 2 { x := 1; r2 <- x; }
"""


def test_silent_loop_is_never_ample():
    # thread 1 comes first and its only move is always silent, but it never
    # leaves its loop.  Were its steps an ample set, thread 2 would never
    # write, or, under a proviso that fully expands where the loop closes,
    # write one iteration later each time, so at deeper levels than in the
    # full run, which a small bound would cut off
    for max_steps in [*range(1, 25), 64]:
        full, reduced = assert_same_answers(SPIN, max_steps)
    assert not full.truncated and full.outcomes == []
    assert len({pair[0] for pair in _component_pairs(reduced)}) == 2


COUNTING = """
name counting
init x := 0
thread 1 { r1 := 0; while r1 = r1 do r1 := r1 + 1; }
thread 2 { x := 1; r2 <- x; }
"""


def test_counting_loop_beside_a_writer():
    # thread 1 never repeats a thread state and never ends; deciding that
    # it is not ample looks at its command alone, so a reduced run interns
    # no thread state that the full run does not
    for max_steps in [*range(1, 25), 64, 200]:
        full, reduced = assert_same_answers(COUNTING, max_steps)
        assert full.truncated and full.outcomes == []
        systems = [build_system(parse_litmus(COUNTING)) for _ in "fr"]
        for system, reduce in zip(systems, (False, True)):
            explore(system.cfg0, system.ctx, max_steps, reduce=reduce)
        assert set(systems[1].ctx.thread_states) <= \
            set(systems[0].ctx.thread_states)


LOOP_HEAD = """
name loop-head
init x := 0; y := 0
thread 1 { a1 := 0; b1 := 0; a1 <- x; }
thread 2 { a2 := 0; b2 := 0; while 1 do a2 <- x; }
"""


def test_loop_head_is_never_ample():
    # thread 2 comes back to its loop's head after every read, and there
    # its only move is silent.  Were that move ample, thread 1 could read
    # only while thread 2 stands at its read, so the configuration in which
    # thread 1 has read and thread 2 is at the head would be reached one
    # iteration later than in a full run: the reduced run stayed truncated
    # at bound 12, where the full one ends with 42 states
    for max_steps in [*range(1, 25), 64]:
        full, reduced = assert_same_answers(LOOP_HEAD, max_steps)
        assert full.truncated == (max_steps < 12), max_steps
    assert full.states_explored == 42
    assert reduced.states_explored < full.states_explored


STRAIGHT = """
name straight
init x := 0
thread 1 { %s }
thread 2 { x := 1; r2 <- x; }
""" % " ".join(f"s{i} := {i};" for i in range(1, 31))


def test_silent_run_longer_than_the_bound():
    # thread 1's thirty silent steps go first in a reduced run, at every
    # bound; the bound cuts both runs off until all of them fit
    for max_steps in [*range(1, 41), 61, 62, 64]:
        full, reduced = assert_same_answers(STRAIGHT, max_steps)
        assert full.truncated == (max_steps < 62), max_steps
        assert reduced.states_explored < full.states_explored


UNTIL_FALSE = """
name until-false
thread 1 { a1 := 0; do a1 := 0 until 0; }
"""


@pytest.mark.xfail(strict=True, reason="a reduced run stops at the bound "
                   "with 3 states where the full run ends with 5")
@pytest.mark.parametrize("max_steps", [5, 6])
def test_do_until_false_truncates_alike(max_steps):
    # the do-until runs as `a1 := 0; while (not 0) do { a1 := 0; }`, so each
    # iteration comes back to the thread state `a1 := 0; while ...` that the
    # initial silent run passed through.  The full run stores it at level
    # 2; the reduced run does not, as it lies inside the folded initial
    # run, so when the bound cuts the loop test's folded edge right there,
    # the cut edge lands on a configuration the reduced run takes for new
    truncated = []
    for reduce in (False, True):
        system = build_system(parse_litmus(UNTIL_FALSE))
        truncated.append(explore(system.cfg0, system.ctx, max_steps,
                                 reduce=reduce).truncated)
    assert truncated[0] == truncated[1]


BEFORE_AND_INSIDE = """
name before-and-inside
init x := 0
thread 1 { a := 0; while a < 2 do { b := a; a := a + 1; } x := a; }
"""


def test_only_a_loops_test_is_not_ample():
    # a thread state before a loop or inside its body comes back only
    # through the loop's test, so its silent step is ample, and so is the
    # step past a finished statement (a sequence's redex); the test is
    # not, and neither is a step on memory
    system = build_system(parse_litmus(BEFORE_AND_INSIDE))
    ctx = system.ctx
    res = explore(system.cfg0, ctx, 64)
    ample = {}
    for cfg, edges in zip(res.states, res.edges):
        (ts,) = cfg.locs
        if edges:
            redex = ctx.redexes[ts.cmd].redex
            name = "seq" if isinstance(redex, Seq) else \
                repr(redex).split(" do ")[0]
            ample.setdefault(name, set()).add(
                ex._ample(cfg.locs, ctx) is not None)
    assert ample == {"a := 0": {True}, "b := a": {True},
                     "a := (a + 1)": {True}, "seq": {True},
                     "while (a < 2)": {False}, "x := a": {False}}


@pytest.mark.parametrize("name,full,reduced,truncated", [
    ("mp-relacq", 21, 12, False), ("queue-mp", 344, 72, True)])
def test_states_before_a_loop_are_reduced(name, full, reduced, truncated):
    # in both, a thread's silent steps before its loop are ample; queue-mp's
    # reduced run also forgets the empty dequeues below thread 2's view once
    # thread 1 has enqueued (143 states without forgetting)
    counts = []
    for reduce in (False, True):
        system = build_system(parse_litmus(CORPUS[name]))
        res = explore(system.cfg0, system.ctx, 64, reduce=reduce)
        assert res.truncated == truncated
        counts.append(res.states_explored)
    assert counts == [full, reduced]


def _loop_statement(rnd, t, depth):
    r, x = rnd.choice((f"a{t}", f"b{t}")), rnd.choice("xy")
    c = rnd.randint(0, 2)
    kinds = [f"{r} := {c}", f"{r} := {r} + 1", f"{r} <- {x}", f"{x} := {c}",
             f"{r} := {rnd.choice('ab')}{t}", "skip"]
    if depth:
        def block():
            return "{ " + " ".join(_loop_statement(rnd, t, depth - 1) + ";"
                                   for _ in range(rnd.randint(1, 3))) + " }"
        kinds += [f"while {r} = {c} do {block()}",
                  f"while {r} < {c} do {block()}",
                  f"if {r} = {c} then {block()} else {block()}",
                  f"do {block()} until {r} != {c}"]
    return rnd.choice(kinds)


def _loop_program(seed):
    """Two or three threads of silent steps, reads, writes and counters
    under loops and branches nested two deep."""
    rnd = random.Random(seed)
    lines = ["name loops", "init x := 0; y := 0"]
    for t in range(1, rnd.randint(2, 3) + 1):
        body = [f"a{t} := 0;", f"b{t} := 0;"] + [
            _loop_statement(rnd, t, 2) + ";"
            for _ in range(rnd.randint(1, 4))]
        lines.append(f"thread {t} {{ " + " ".join(body) + " }")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(7000, 7100))
def test_generated_loop_programs(seed):
    # a fixed set, drawn the same on every run; without the cycle proviso
    # seeds 7000 and 7070 change an answer
    for max_steps in [*range(1, 17), 24]:
        assert_same_answers(_loop_program(seed), max_steps)


ERROR_AHEAD = """
name error-ahead
init x := 0
thread 1 { a1 := 0; b1 := 0; c1 := - (true); }
thread 2 { x := 1; }
"""


def test_an_error_ahead_is_met_only_when_reached():
    # thread 1's silent steps go first and end at the faulty assignment,
    # which is not silent-only; the fault is raised only by a run that
    # reaches it
    for max_steps in range(1, 6):
        full, reduced = assert_same_answers(ERROR_AHEAD, max_steps)
        assert (full is None) == (max_steps > 3), max_steps
    assert reduced is None


@pytest.mark.parametrize("name", ["lock-two-rounds", "mp-relaxed"])
def test_outline_checks_every_state(name):
    # an outline reads every reachable state, so it never reduces; these
    # two files are where the reduction would show
    system = build_system(parse_litmus(CORPUS[name]))
    full = explore(system.cfg0, system.ctx, 64)
    reduced = explore(system.cfg0, system.ctx, 64, reduce=True)
    assert reduced.states_explored < full.states_explored
    report = check_outline(system.cfg0, system.ctx, system.outline, 64)
    assert report.states_explored == full.states_explored


@settings(max_examples=60, deadline=None)
@given(litmus_files())
def test_hypothesis_programs(text):
    # loops, CAS, FAI and calls included; a file that does not build, or
    # whose full run stops on an input error, must stop the same way
    # reduced
    for max_steps in (4, 12):
        assert_same_answers(text, max_steps)


def _initial_chain(system):
    """The initial configuration and, while some thread is silent-only,
    the configuration after the first such thread's silent run, taken by
    full-semantics steps."""
    cfg, ctx = system.cfg0, system.ctx
    chain = [cfg]
    while True:
        silent = [ts.t for ts in cfg.locs if ex._silent_only(ts, ctx)]
        if not silent:
            return chain
        while ex._silent_only(cfg.thread(silent[0]), ctx):
            (cfg,) = [nxt for t, _, nxt in successors(cfg, ctx)
                      if t == silent[0]]
        chain.append(cfg)


def assert_folded_states(text, max_steps=64):
    """An untruncated reduced run stores exactly the forgotten images
    (`reference_forget`) of the full run's configurations in which no
    thread is silent-only, and of the initial configuration's ample chain:
    no configuration inside a silent run."""
    try:
        system = build_system(parse_litmus(text))
        full = explore(system.cfg0, system.ctx, max_steps)
    except (LitmusError, ProgramError, StateError):
        return False
    if full.truncated:
        return False
    visible = {forgotten_key(cfg) for cfg in full.states
               if not any(ex._silent_only(ts, system.ctx) for ts in cfg.locs)}
    chain = {forgotten_key(cfg) for cfg in _initial_chain(system)}
    reduced = explore(system.cfg0, system.ctx, max_steps, reduce=True)
    stored = {ref_key(cfg) for cfg in reduced.states}
    assert len(stored) == reduced.states_explored
    assert stored == visible | chain
    return True


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"queue-mp"}))
def test_folded_run_stores_no_silent_configuration(name):
    assert assert_folded_states(CORPUS[name])


def test_folded_runs_of_generated_programs():
    # the benchmark's clients, the FIFO programs and the programs above all
    # end within the bound; of the loop programs, 13 do
    texts = [text for _, text in GENERATED]
    texts += [fifo_litmus(n) for n in range(5)]
    texts += [STRAIGHT, BEFORE_AND_INSIDE, SPIN]
    texts += [_loop_program(seed) for seed in range(7000, 7100)]
    compared = sum(assert_folded_states(text) for text in texts)
    assert compared == len(GENERATED) + 8 + 13


def _replay(system, witness):
    """The configuration a witness reaches from the initial one by
    full-semantics steps, each the one successor of its thread whose label
    it names."""
    cfg = system.cfg0
    for step in witness:
        (cfg,) = [nxt for t, label, nxt in successors(cfg, system.ctx)
                  if t == step["thread"] and label.text == step["label"]]
    return cfg


def assert_witnesses_replay(text, max_steps=64, negate=False):
    """Every terminal state's witness in a reduced run replays through
    full-semantics steps to a state whose forgotten image
    (`reference_forget`) it is, as long as the full run's witness of that
    state; and the hoare check of the final clause (negated with `negate`)
    fails with a witness that replays to the first terminal state the
    clause fails at."""
    system = build_system(parse_litmus(text))
    final = system.outline.final
    if negate:
        final = NotA(final)
    cfg0, ctx = system.cfg0, system.ctx
    full = explore(cfg0, ctx, max_steps)
    res = explore(cfg0, ctx, max_steps, reduce=True)
    full_number = {cfg: n for n, cfg in enumerate(full.states)}
    for n in res.terminals:
        path = res.witness_path(n)
        cfg = _replay(system, path)
        assert forgotten_key(cfg) == ref_key(res.states[n])
        assert len(path) == len(full.witness_path(full_number[cfg]))
    report = check_hoare(cfg0, ctx, system.outline.pre, final, max_steps, res)
    assert report.verdict == "invalid"
    failing = next(res.states[n] for n in res.terminals
                   if not eval_assertion(final, res.states[n], ctx))
    assert forgotten_key(_replay(system, report.witness)) == ref_key(failing)
    return report.witness


FINALS = sorted(name for name, text in CORPUS.items() if "\nfinal " in text)


@pytest.mark.parametrize("name", FINALS)
def test_negated_final_witness_replays(name):
    assert len(FINALS) == 8
    assert_witnesses_replay(CORPUS[name], negate=True)


def test_stale_read_witness_replays():
    # mp-relaxed's reader may see the flag unset and the stale data: the
    # witness lists each step, the silent steps past each thread's first
    # statement included
    text = CORPUS["mp-relaxed"].replace("final { r2 = 0 or r2 = 5 }",
                                        "final { r2 = 5 }")
    assert [(s["thread"], s["label"])
            for s in assert_witnesses_replay(text)] == [
        (1, "wr(d,5)@1"), (1, "eps"), (1, "wr(f,1)@1"), (2, "rdA(f,0)@0"),
        (2, "eps"), (2, "rd(d,0)@0")]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(litmus_files())
def test_violating_witnesses_replay(text):
    # a file without a final clause gets `final { true }`, and one whose
    # final clause holds at every terminal state is checked with the clause
    # negated, so that every file with a terminal state within the bound
    # violates
    if "\nfinal " not in text:
        text += "final { true }\n"
    try:
        system = build_system(parse_litmus(text))
        outline, ctx = system.outline, system.ctx
        assume(outline.pre is None
               or eval_assertion(outline.pre, system.cfg0, ctx))
        res = explore(system.cfg0, ctx, 12)
        assume(res.terminals)
        holds = all(eval_assertion(outline.final, res.states[n], ctx)
                    for n in res.terminals)
    except (LitmusError, ProgramError, StateError):
        assume(False)
    assert_witnesses_replay(text, 12, negate=holds)
