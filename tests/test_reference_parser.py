"""The litmus front end against its reference (`reference_parser.py`: the
earlier tokenizer, cascade parser and builder).  On every input both give
the same `LitmusFile` and the same built system, with and without each lock
implementation, or fail with the same message at the same line and
column.  The inputs are the corpus, the benchmark's program
generators and the fuzz strategies of `test_cli_fuzz.py`, edited and
mutated files included; none nests near the front end's depth limit, which
the reference does not have."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import reference_parser as R
from rarcheck import litmus as L
from rarcheck.refine import builtin_impls
from test_cli_fuzz import (edited_generated_files, litmus_files,
                           mutated_generated_bodies)
from test_litmus import CORPUS

PROGRAMS = Path(__file__).resolve().parent.parent / "perfbench" / "programs.py"
IMPLS = [None] + [impl for _, impl in sorted(builtin_impls().items())]


def _facts(system):
    """What a built system is made of, comparable across two builds, whose
    thread states and components are interned per system."""
    cfg, ctx = system.cfg0, system.ctx
    comps = [(c._parts(), c.lay.own, c.lay.other, c.lay.threads)
             for c in (cfg.gamma, cfg.beta)]
    return (system.lf, cfg.prog, cfg.rho, comps, ctx.threads,
            ctx.object_spec, ctx.n_labels, ctx.observed, ctx.enqueue_only,
            system.outline, system.client_locals)


def _failure(e):
    return type(e).__name__, str(e), getattr(e, "line", None), \
        getattr(e, "col", None)


def _front_end(parse, build, text):
    """The file of text and the system built with each implementation, or
    the first failure."""
    try:
        lf = parse(text)
    except Exception as e:
        return [_failure(e)]
    out = [lf]
    for impl in IMPLS:
        try:
            out.append(_facts(build(lf, impl)))
        except Exception as e:
            out.append(_failure(e))
    return out


def assert_same(text):
    new = _front_end(L.parse_litmus, L.build_system, text)
    old = _front_end(R.parse_litmus, R.build_system, text)
    assert new == old, text


def _generated():
    """The benchmark's generated programs: racy ones plain, with their SC
    outcomes as a final clause and as an outline, and lock clients as
    outlines with their mutual-exclusion invariants."""
    spec = importlib.util.spec_from_file_location("bench_programs", PROGRAMS)
    P = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = P  # its dataclasses look their module up
    try:
        spec.loader.exec_module(P)
        rng, out = random.Random(20), []
        for i in range(12):
            prog = P.racy_program(rng, f"racy-{i}")
            final = P.outcomes_assertion(P.sc_outcomes(prog))
            out += [P.render(prog), P.render(prog, None, None, final),
                    P.render(prog, "outline", "true", final)]
        for i, (n, rounds) in enumerate(((2, 1), (3, 1), (2, 2), (2, 3))):
            prog = P.lock_program(rng, f"lock-{i}", n, rounds)
            out.append(P.render(prog, "outline", P.mutex_invariant(prog),
                                P.outcomes_assertion(P.sc_outcomes(prog))))
    finally:
        del sys.modules[spec.name]
    return out


GENERATED = _generated()


@pytest.mark.parametrize("name", CORPUS)
def test_corpus(name):
    assert_same(L.corpus_text(name))


@pytest.mark.parametrize("index", range(len(GENERATED)))
def test_benchmark_programs(index):
    assert_same(GENERATED[index])


@pytest.mark.parametrize("text", [
    "name t\nthread 1 { d ? 1 }\n", "name t-1 -2\nthread 1 { r := 1; }\n",
    "name\n", "", "  \n", "name t\n# only a comment", "name t # c\n\t ",
    "name t\nthread 1 { r := 1; } \n  ", "name t\nthread 1 { r := 1; }?",
    "name t\nthread 1 { é := 1 }", "name t\nthread 1 { r := ٣; }",
    "name t\nthread 1 { r :=R1; r :=Rx; r <-Ax; }",
    "name t\nthread 1 { r := 1 ! 2; }", "name t\nthread 1 { r := 1 !!= 2; }",
    "name t\ninit d := 0; d := 1\nthread 1 { r <- d }\n",
    "name t\nthread 1 { r := ((1 + 2) * -3 % 4 - -(5)); }\n"
    "final { (r in {1, 2}) = true and not (r < 0) => r != 7 }\n",
    "name t\nthread 1 { r := 1 = 2 = 3; }\n",
    "name t\nthread 1 { r := 1 and 2 = 3 = 4; }\n",
    "name t\nobject lock l impl seqlock\nthread 1 { l.acquire(); }\n",
    "name t\ninit d := 0\nfinal { true }\n", "name t\ninit d := 0\n"])
def test_edge_cases(text):
    assert_same(text)


@settings(max_examples=100, deadline=None)
@given(litmus_files())
def test_generated_files(text):
    assert_same(text)


@settings(max_examples=300, deadline=None)
@given(mutated_generated_bodies())
def test_mutated_generated_bodies(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(edited_generated_files())
def test_edited_generated_files(text):
    assert_same(text)
