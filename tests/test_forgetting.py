"""Forgetting a queue's dead prefix in reduced runs, against the full runs
that keep every operation.

A reduced run on a queue drops, after every step that changes the library
component, the queue operations below every thread's view and below the
head (`objects.queue_dead_prefix`, `state.forget_prefix`).  Generated
queue programs, with client relaxed, releasing and acquiring accesses and
spin loops, must give the same answers as full runs, at bounds that
truncate and bounds that do not (`test_reduction.assert_same_answers`),
and their final clauses are view atoms on the queue.  On every reachable
state of a full run, the engine's forgotten image is the independent
reference's (`reference_forget`), and every atom on the queue has the same
value on both.
"""

import random

import pytest

from rarcheck.assertions import (CoveredA, Cond, Def, HiddenA,
                                 MethodInstance, Poss, eval_assertion)
from rarcheck.explore import Configuration, explore
from rarcheck.litmus import build_system, parse_litmus
from rarcheck.objects import queue_dead_prefix
from rarcheck.oracle import fifo_litmus
from rarcheck.state import DEQUEUE, EMPTY, ENQUEUE, forget_prefix
from reference_forget import forgotten_key
from reference_key import ref_key
from test_reduction import (CORPUS, assert_same_answers,
                            assert_witnesses_replay)

# the final clauses' atoms on q: {t} a thread, {v} a value enqueued (or
# empty), {c} a value of x
ATOMS = ("pobs({t}, q.enq_{v})", "pobs({t}, q.deq_empty)",
         "dobs({t}, q.enq_{v})", "dobs({t}, q.deq_{v})",
         "cond({t}, q.enq_{v}, x={c})", "cond({t}, q.deq, x={c})",
         "cvd(q.init)", "cvd(q.enq_{v})", "cvv(q.init)", "cvv(q.deq_{v})")


def _queue_call(rnd, t):
    return rnd.choice([f"q.enq({rnd.randint(1, 2)})", f"a{t} := q.deq()",
                       f"b{t} := q.deq()"])


def _queue_statement(rnd, t):
    a, b, c = f"a{t}", f"b{t}", rnd.randint(0, 2)
    return rnd.choice([
        _queue_call(rnd, t), _queue_call(rnd, t), f"x := {c}", f"x :=R {c}",
        f"y :=R {c}", f"{a} <- x", f"{b} <-A x", f"{b} <-A y"])


def queue_program(seed):
    """Two or three threads, each of a queue call and up to two more queue
    calls or client accesses (a thread that never calls would pin the
    queue's dead prefix to the initial operation), in one program of four
    the last thread ending in a spin on an empty dequeue, and a final
    clause of one atom on q, alone or under a register test."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 3)
    spin = rnd.random() < 0.25
    lines = ["name queue-gen", "init x := 0; y := 0", "object queue q"]
    for t in range(1, n + 1):
        stmts = [_queue_call(rnd, t)] + [
            _queue_statement(rnd, t) for _ in range(rnd.randint(0, 2))]
        rnd.shuffle(stmts)
        body = [f"a{t} := 0;", f"b{t} := 0;"] + [s + ";" for s in stmts]
        if spin and t == n:
            body.append(f"do a{t} := q.deq() until a{t} != empty;")
        lines.append(f"thread {t} {{ " + " ".join(body) + " }")
    atom = rnd.choice(ATOMS).format(t=rnd.randint(1, n),
                                    v=rnd.choice(["1", "2", "empty"]),
                                    c=rnd.randint(0, 2))
    if rnd.random() < 0.5:
        atom = f"a{rnd.randint(1, n)} = {rnd.randint(0, 2)} => {atom}"
    lines.append(f"final {{ {atom} }}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(9000, 9060))
def test_generated_queue_programs(seed):
    for max_steps in (6, 12, 30):
        assert_same_answers(queue_program(seed), max_steps)


def test_generated_queue_witnesses_replay():
    # the final clause, or its negation where it holds at every terminal
    # state, fails somewhere; every witness names full-run positions.  A
    # program whose spin never ends has no terminal state, and no witness
    checked = 0
    for seed in range(9000, 9030):
        text = queue_program(seed)
        system = build_system(parse_litmus(text))
        res = explore(system.cfg0, system.ctx, 30, reduce=True)
        if res.terminals:
            holds = all(eval_assertion(system.outline.final, res.states[n],
                                       system.ctx) for n in res.terminals)
            assert_witnesses_replay(text, 30, negate=holds)
            checked += 1
    assert checked == 29


def _atoms(threads, ys):
    """Every atom on q over these threads, values 1, 2 and empty, and the
    client variables ys's values 0..2."""
    subjects = [MethodInstance("q", "init"), MethodInstance("q", DEQUEUE)]
    subjects += [MethodInstance("q", kind, val=v)
                 for kind in (ENQUEUE, DEQUEUE) for v in (1, 2, EMPTY)]
    out = [CoveredA(m) for m in subjects] + [HiddenA(m) for m in subjects]
    for t in threads:
        for m in subjects:
            out += [Poss(t, m), Def(t, m)]
            out += [Cond(t, m, y, c) for y in ys for c in range(3)]
    return out


def _image(cfg):
    """cfg with its queue's dead prefix forgotten by the engine."""
    locs, gamma, beta = cfg
    n = queue_dead_prefix(beta, "q")
    beta2, gamma2 = forget_prefix(beta, gamma, "q", n)
    return Configuration((locs, gamma2, beta2))


def assert_images_agree(text, max_steps=40):
    """On every state of a full run, the engine's forgotten image is the
    reference's, forgets nothing more, and gives every atom on q the value
    the state gives it; returns how many states forget something."""
    system = build_system(parse_litmus(text))
    ctx = system.ctx
    atoms = _atoms(ctx.threads, system.cfg0.gamma.lay.own)
    full = explore(system.cfg0, ctx, max_steps)
    forgetting = 0
    for cfg in full.states[:full.states_explored]:
        image = _image(cfg)
        forgetting += image.beta.acts != cfg.beta.acts
        assert ref_key(image) == forgotten_key(cfg)
        assert queue_dead_prefix(image.beta, "q") == 0
        for atom in atoms:
            assert eval_assertion(atom, image, ctx) == \
                eval_assertion(atom, cfg, ctx), atom
    return forgetting


@pytest.mark.parametrize("seed", range(9000, 9030))
def test_images_of_generated_queue_programs(seed):
    assert_images_agree(queue_program(seed), 12)


def test_images_of_fifo_and_queue_mp():
    assert assert_images_agree(fifo_litmus(3), 96)
    assert assert_images_agree(CORPUS["queue-mp"], 30)


def test_cvd_reads_the_forgotten_initial_operation():
    # after one enqueue and its dequeue, both threads view the dequeue and
    # no enqueue is unmatched, so a reduced run keeps the dequeue alone; the
    # initial operation it forgot is uncovered, so cvd holds of nothing
    system = build_system(parse_litmus(
        "name cvd\nobject queue q\nthread 1 { q.enq(1); r1 := q.deq(); }\n"
        "final { cvd(q.deq_1) }\n"))
    res = explore(system.cfg0, system.ctx, 64, reduce=True)
    (end,) = [res.states[n] for n in res.terminals]
    assert [repr(a) for a in end.beta.column("q")] == ["q.deq(1)"]
    assert end.beta.matched == ((-1, 0),)
    assert not eval_assertion(system.outline.final, end, system.ctx)
