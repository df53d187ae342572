"""Thread-local stepping through the split and plug tables gives exactly the
steps of the recursive rules (`reference_steps`): the same steps, in the
same order, field for field, down to the type of every register value, and
the same error where the rules refuse a command.

`program.local_step` splits each distinct command once into its evaluation
context and its redex, and plugs each residual into that context once; the
tables belong to the system's context.  Every thread state that
exploration interns is compared, with the system's own warm tables, so an
entry that one command left behind and another reads shows up: in the
corpus explorations, in the concrete systems of every built-in
implementation under lock clients (bodies running in holes, and results
assigned from holes) and in generated programs."""

import pytest
from hypothesis import given, settings, strategies as st

from rarcheck.explore import explore
from rarcheck.litmus import (LitmusError, build_system, load_corpus,
                             parse_litmus)
from rarcheck.program import Body, ProgramError, local_step, nodes
from rarcheck.refine import builtin_impls
from rarcheck.state import StateError
from reference_steps import steps as reference_steps
from test_cli_fuzz import litmus_files

CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
          "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")
IMPLS = tuple(sorted(builtin_impls()))
# the refine clients, and one whose calls assign their results
ASSIGNED = ("name assigned\ninit d := 0\nobject lock l\n"
            "thread 1 { a1 := l.acquire(); d := 1; b1 := l.release(); }\n"
            "thread 2 { a2 := l.acquire(); r1 <- d; b2 := l.release(); }\n")
CLIENTS = {"seqlock-refine": load_corpus("seqlock-refine"),
           "ticketlock-refine": load_corpus("ticketlock-refine"),
           "lock-two-rounds": load_corpus("lock-two-rounds"),
           "assigned": parse_litmus(ASSIGNED)}


def _typed(ls):
    return {r: (type(v), v) for r, v in ls.items()}


def _view(run):
    """The steps `run` returns, field by field, or the error it raises."""
    try:
        found = run()
    except (ProgramError, KeyError) as e:
        return type(e), str(e)
    return [(s.kind, s.action, repr(s.action), s.cmd, repr(s.cmd),
             _typed(s.ls), s.lib, s.at_hole, s.reg) for s in found]


def _check_every_thread_state(ctx):
    """Each thread state the context interned steps as the recursive rules
    step it; returns how many were compared."""
    states = list(ctx.thread_states.values())
    for ts in states:
        got = _view(lambda: local_step(ts.cmd, ts.ls, ctx.redexes,
                                       ctx.plugs))
        assert got == _view(lambda: reference_steps(ts.cmd, ts.ls)), ts
    return len(states)


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_steps_match_the_recursive_rules(name):
    system = build_system(load_corpus(name))
    explore(system.cfg0, system.ctx, 64)
    assert _check_every_thread_state(system.ctx) > 1


@pytest.mark.parametrize("client", sorted(CLIENTS))
@pytest.mark.parametrize("impl", IMPLS)
def test_concrete_steps_match_the_recursive_rules(impl, client):
    system = build_system(CLIENTS[client], builtin_impls()[impl])
    explore(system.cfg0, system.ctx, 64)
    assert any(isinstance(n, Body) for ts in system.ctx.thread_states.values()
               for n in nodes(ts.cmd))
    assert _check_every_thread_state(system.ctx) > 1


@settings(max_examples=100, deadline=None)
@given(litmus_files(), st.sampled_from((None,) + IMPLS))
def test_generated_steps_match_the_recursive_rules(text, impl):
    # a lock client runs under the abstract lock or an implementation
    lf = parse_litmus(text)
    if lf.object_decl is None or lf.object_decl[0] != "lock":
        impl = None
    try:
        system = build_system(lf, impl and builtin_impls()[impl])
    except LitmusError:
        return
    try:
        explore(system.cfg0, system.ctx, 12)
    except (ProgramError, StateError, KeyError):
        pass  # the thread states interned so far are compared
    _check_every_thread_state(system.ctx)


def test_shared_commands_are_split_once():
    # seqlock under lock-two-rounds: 133 thread states run 36 commands,
    # and each command is split once
    system = build_system(load_corpus("lock-two-rounds"),
                          builtin_impls()["seqlock"])
    explore(system.cfg0, system.ctx, 64)
    ctx = system.ctx
    assert len(ctx.thread_steps) == 133
    assert len(ctx.redexes) == 36
    assert len({ts.cmd for ts in ctx.thread_steps}) == 36
    # each entry of the plug table is one residual of one split command
    assert {split for split, _ in ctx.plugs} <= set(ctx.redexes.values())
