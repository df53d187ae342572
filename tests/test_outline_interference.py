"""`check_outline` checks interference only along steps that leave the
explored states, and its reports are those of the loop that checked every
step (`_reference_outline`, the check as it was written before).

After a step of thread t2, every other thread t has the command, the pc
and so the annotation it had before.  When the successor was explored,
the check that an active annotation holds at every reachable state has
already evaluated t's annotation there, and recorded any failure under the
same name, so only successors beyond the step bound can add a failure.
Every verdict, witness and detail must agree, on the corpus outlines, on
the benchmark's generated lock outlines and on generated annotated
outlines, at the default bound and at bounds that truncate."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rarcheck import program
from rarcheck.assertions import eval_assertion
from rarcheck.explore import (CheckReport, OutlineReport, check_outline,
                              explore)
from rarcheck.litmus import (LitmusError, build_system, corpus_text,
                             parse_litmus)
from rarcheck.program import ProgramError
from rarcheck.state import StateError
from test_cli_fuzz import litmus_files

PROGRAMS = Path(__file__).resolve().parent.parent / "perfbench" / "programs.py"


def _reference_outline(cfg0, ctx, outline, max_steps):
    """check_outline with its interference loop over every step."""
    ectx = ctx
    res = explore(cfg0, ctx, max_steps)
    verdicts = {}

    def name_of(t, label):
        return f"T{t}@{label}"

    def fail(name, key, detail):
        if name not in verdicts or verdicts[name].verdict == "valid":
            verdicts[name] = CheckReport("invalid", res.witness_path(key),
                                         res.states_explored, res.truncated,
                                         detail)

    if outline.invariant is not None:
        verdicts["Inv"] = CheckReport("valid")
    for t, anns in outline.annotations.items():
        for label in anns:
            verdicts[name_of(t, label)] = CheckReport("valid")
    if outline.final is not None:
        verdicts["final"] = CheckReport("valid")

    explored = res.states[:res.states_explored]
    for key, cfg in enumerate(explored):
        if outline.invariant is not None and not eval_assertion(
                outline.invariant, cfg, ectx):
            fail("Inv", key, "invariant fails at a reachable state")
        for t, anns in outline.annotations.items():
            pc = program.pc_of(cfg.thread(t).cmd, ctx.n_labels[t])
            ann = anns.get(pc)
            if ann is not None and not eval_assertion(ann, cfg, ectx):
                fail(name_of(t, pc), key, "annotation fails while active")
    if outline.final is not None:
        for key in res.terminals:
            if not eval_assertion(outline.final, res.states[key], ectx):
                fail("final", key, "final assertion fails at a terminal state")

    for key, cfg in enumerate(explored):
        pcs = {ts.t: program.pc_of(ts.cmd, ctx.n_labels[ts.t])
               for ts in cfg.locs}
        active = {}
        for t in ctx.threads:
            ann = outline.annotations.get(t, {}).get(pcs[t])
            if ann is not None and eval_assertion(ann, cfg, ectx):
                active[t] = ann
        if not active:
            continue
        for t2, label, nxt in res.edges[key]:
            for t, ann in active.items():
                if t == t2:
                    continue
                if not eval_assertion(ann, res.states[nxt], ectx):
                    wkey = nxt if nxt < res.states_explored else key
                    fail(name_of(t, pcs[t]), wkey,
                         f"interference by thread {t2} step {label.text}")

    return OutlineReport(verdicts, res.states_explored, res.truncated)


def _report(check, text, bound):
    """The check's report on the file, or the input error it raises."""
    system = build_system(parse_litmus(text))
    try:
        return check(system.cfg0, system.ctx, system.outline, bound)
    except (ProgramError, StateError) as e:
        return type(e), str(e)


def _assert_same_reports(text, bound):
    got = _report(check_outline, text, bound)
    assert got == _report(_reference_outline, text, bound), (text, bound)
    return got


def _lock_outlines():
    """The benchmark's lock clients with their mutual-exclusion invariants
    and SC final clauses, one per lock shape."""
    spec = importlib.util.spec_from_file_location("bench_programs", PROGRAMS)
    P = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = P  # its dataclasses look their module up
    try:
        spec.loader.exec_module(P)
        rng = random.Random(7)
        out = []
        for i, (n, rounds) in enumerate(((2, 1), (3, 1), (2, 2), (2, 3))):
            prog = P.lock_program(rng, f"lock{i}", n, rounds)
            out.append(P.render(prog, "outline", P.mutex_invariant(prog),
                                P.outcomes_assertion(P.sc_outcomes(prog))))
    finally:
        del sys.modules[spec.name]
    return out


LOCK_OUTLINES = _lock_outlines()


@pytest.mark.parametrize("bound", [64, 3, 6, 9, 12])
@pytest.mark.parametrize("name", ["lockmp", "lockmp-mutant"])
def test_corpus_outlines(name, bound):
    # both explore in full within 14 steps
    rep = _assert_same_reports(corpus_text(name), bound)
    assert rep.truncated == (bound < 64)


@pytest.mark.parametrize("bound", [64, 5, 10, 20])
@pytest.mark.parametrize("index", range(len(LOCK_OUTLINES)))
def test_generated_lock_outlines(index, bound):
    _assert_same_reports(LOCK_OUTLINES[index], bound)


def test_a_failure_beyond_the_bound_is_reported():
    # thread 2's annotation holds at every explored state, and only a step
    # of thread 1 past the bound breaks it
    text = ("name beyond\ninit x := 0\n"
            "thread 1 { x := 1; x := 2; x := 3; }\n"
            "thread 2 { r1 := 0; { not pobs(2, x=3) } r1 := 1; }\n")
    rep = _assert_same_reports(text, 5)
    assert rep.truncated
    assert rep.verdicts["T2@2"].verdict == "invalid"
    assert rep.verdicts["T2@2"].detail == \
        "interference by thread 1 step wr(x,3)@3"
    # explored further, the broken annotation is a reachable state's
    for bound in (6, 64):
        assert _assert_same_reports(text, bound).verdicts["T2@2"].detail == \
            "annotation fails while active"


@settings(max_examples=100, deadline=None)
@given(litmus_files(), st.sampled_from([2, 5, 12]))
def test_generated_annotated_outlines(text, bound):
    try:
        _assert_same_reports(text, bound)
    except LitmusError:
        pass
