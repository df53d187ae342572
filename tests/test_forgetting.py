"""Forgetting a queue's dead prefix in reduced runs, against the full runs
that keep every operation.

A reduced run on a queue drops, after every step that changes the library
component, the queue operations below the view of every thread that may
dequeue, below the enqueue floor of every thread that never does and that
no view atom on the queue names, and below the head
(`objects.queue_dead_prefix`, `state.forget_prefix`).  Generated queue
programs, with client relaxed, releasing and acquiring accesses and spin
loops, some with a thread that only enqueues beside spinning dequeuers,
must give the same answers as full runs, at bounds that truncate and
bounds that do not (`test_reduction.assert_same_answers`), and their
final clauses are view atoms on the queue.  On every reachable state of a
full run, the engine's forgotten image is the independent reference's
(`reference_forget`), and every atom on the queue that a clause of the
system may hold has the same value on both.
"""

import random

import pytest

from rarcheck.assertions import (CoveredA, Cond, Def, HiddenA,
                                 MethodInstance, Poss, eval_assertion)
from rarcheck.explore import Configuration, check_hoare, explore
from rarcheck.litmus import build_system, parse_litmus
from rarcheck.objects import queue_dead_prefix
from rarcheck.oracle import fifo_litmus
from rarcheck.program import Lit
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
    calls or client accesses, in one program of four the last thread
    ending in a spin on an empty dequeue, and a final clause of one atom on
    q, alone or under a register test."""
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


def enqueuer_program(seed):
    """Thread 1 enqueues once or twice among client accesses and never
    dequeues; beside it one or two threads each spin on a dequeue until it
    is not empty, among up to two more queue calls or client accesses.
    The final clause is one atom on q, alone or under a register test; in
    one program of three it names thread 1, whose view of q then bounds the
    dead prefix as every dequeuer's does."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 3)
    lines = ["name enqueuer-gen", "init x := 0; y := 0", "object queue q"]
    stmts = [f"q.enq({v})" for v in range(1, rnd.randint(1, 2) + 1)]
    stmts += [rnd.choice(["x := 1", "x :=R 2", "y :=R 1", "a1 <- x",
                          "b1 <-A y"]) for _ in range(rnd.randint(0, 2))]
    rnd.shuffle(stmts)
    lines.append("thread 1 { a1 := 0; b1 := 0; "
                 + " ".join(s + ";" for s in stmts) + " }")
    for t in range(2, n + 1):
        stmts = [_queue_statement(rnd, t) for _ in range(rnd.randint(0, 2))]
        stmts.insert(rnd.randint(0, len(stmts)),
                     f"do a{t} := q.deq() until a{t} != empty")
        lines.append(f"thread {t} {{ b{t} := 0; "
                     + " ".join(s + ";" for s in stmts) + " }")
    named = 1 if rnd.random() < 1 / 3 else rnd.randint(2, n)
    atom = rnd.choice(ATOMS).format(t=named, v=rnd.choice(["1", "2", "empty"]),
                                    c=rnd.randint(0, 2))
    if rnd.random() < 0.5:
        atom = f"a{rnd.randint(2, n)} = {rnd.randint(1, 2)} => {atom}"
    lines.append(f"final {{ {atom} }}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(9000, 9060))
def test_generated_queue_programs(seed):
    for max_steps in (6, 12, 30):
        assert_same_answers(queue_program(seed), max_steps)


@pytest.mark.parametrize("seed", range(9100, 9130))
def test_generated_enqueuer_programs(seed):
    for max_steps in (6, 12, 30):
        assert_same_answers(enqueuer_program(seed), max_steps)


@pytest.mark.parametrize("generate,seeds,ending", [
    (queue_program, range(9000, 9030), 29),
    (enqueuer_program, range(9100, 9130), 27)])
def test_generated_queue_witnesses_replay(generate, seeds, ending):
    # the final clause, or its negation where it holds at every terminal
    # state, fails somewhere; every witness names full-run positions.  A
    # program whose spin never ends has no terminal state, and no witness
    checked = 0
    for seed in seeds:
        text = generate(seed)
        system = build_system(parse_litmus(text))
        res = explore(system.cfg0, system.ctx, 30, reduce=True)
        if res.terminals:
            holds = all(eval_assertion(system.outline.final, res.states[n],
                                       system.ctx) for n in res.terminals)
            assert_witnesses_replay(text, 30, negate=holds)
            checked += 1
    assert checked == ending


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
            out += [Cond(t, m, y, Lit(c)) for y in ys for c in range(3)]
    return out


def _image(cfg, ctx):
    """cfg with its queue's dead prefix forgotten by the engine."""
    locs, gamma, beta = cfg
    n = queue_dead_prefix(beta, "q", ctx.enqueue_only)
    beta2, gamma2 = forget_prefix(beta, gamma, "q", n)
    return Configuration((locs, gamma2, beta2))


def assert_images_agree(text, max_steps=40):
    """On every state of a full run, the engine's forgotten image is the
    reference's, forgets nothing more, and gives every atom on q the value
    the state gives it, but for the atoms that name an enqueue-only thread,
    which no clause of such a system holds; returns how many states forget
    something."""
    system = build_system(parse_litmus(text))
    ctx = system.ctx
    atoms = _atoms(sorted(set(ctx.threads) - ctx.enqueue_only),
                   system.cfg0.gamma.lay.own)
    full = explore(system.cfg0, ctx, max_steps)
    forgetting = 0
    for cfg in full.states[:full.states_explored]:
        image = _image(cfg, ctx)
        forgetting += image.beta.acts != cfg.beta.acts
        assert ref_key(image) == forgotten_key(cfg, ctx.enqueue_only)
        assert queue_dead_prefix(image.beta, "q", ctx.enqueue_only) == 0
        for atom in atoms:
            assert eval_assertion(atom, image, ctx) == \
                eval_assertion(atom, cfg, ctx), atom
    return forgetting


@pytest.mark.parametrize("seed", range(9000, 9030))
def test_images_of_generated_queue_programs(seed):
    assert_images_agree(queue_program(seed), 12)


@pytest.mark.parametrize("seed", range(9100, 9130))
def test_images_of_generated_enqueuer_programs(seed):
    assert_images_agree(enqueuer_program(seed), 12)


def test_images_of_fifo_and_queue_mp():
    assert assert_images_agree(fifo_litmus(3), 96)
    assert assert_images_agree(CORPUS["queue-mp"], 30)


ENQUEUE_ONLY = {
    # thread 1 never dequeues; thread 2 spins until it dequeues
    "queue-mp": (CORPUS["queue-mp"], {1}),
    "fifo-3": (fifo_litmus(3), {1}),
    # a dequeue anywhere in a thread's program counts, taken or not; a
    # thread that never calls the queue never dequeues
    "branch": ("name b\ninit x := 0\nobject queue q\n"
               "thread 1 { if 0 then a1 := q.deq() else q.enq(1); }\n"
               "thread 2 { do a2 := q.deq() until 0; }\n"
               "thread 3 { x := 1; }\n", {3}),
    # a thread that a view atom on q names, in the final clause or in any
    # other, is not enqueue-only; an atom on a client variable or on no
    # thread names none
    "final": (CORPUS["queue-mp"].replace(
        "final { r1 = 1 and r2 = 5 }", "final { pobs(1, q.enq_1) }"), set()),
    "invariant": ("name i\ninit x := 0\nobject queue q\n"
                  "thread 1 { q.enq(1); }\nthread 2 { q.enq(2); }\n"
                  "thread 3 { a3 := q.deq(); }\n"
                  "invariant { cvd(q.init) or pobs(1, x=0) "
                  "or not cond(2, q.enq, x=0) }\n", {1}),
    # a lock is no queue
    "lock": (CORPUS["lockmp"], set()),
}


@pytest.mark.parametrize("name", sorted(ENQUEUE_ONLY))
def test_enqueue_only_threads(name):
    text, only = ENQUEUE_ONLY[name]
    assert build_system(parse_litmus(text)).ctx.enqueue_only == only


OBSERVED_ENQUEUER = """
name observed-enqueuer
object queue q
thread 1 { q.enq(1); }
thread 2 { %s b2 := q.deq(); }
final { pobs(1, q.enq_1) }
"""


@pytest.mark.parametrize("first,verdict", [
    ("a2 := q.deq();", "valid"),
    ("do a2 := q.deq() until a2 != empty;", "unknown-beyond-bound")])
def test_a_view_atom_keeps_its_thread_bounding_the_prefix(first, verdict):
    # thread 1 never dequeues, but the final clause reads its view of q.
    # Once thread 2 has taken the 1 and dequeued empty above it, thread 1's
    # enqueue floor is that empty dequeue, above its enqueue, which the
    # clause observes.  So thread 1 bounds the dead prefix by its view, and
    # the reduced run answers as the full one.  Bounded by its floor, it
    # would forget the enqueue and find the clause false
    text = OBSERVED_ENQUEUER % first
    assert_same_answers(text, 64)
    verdicts = []
    for only in (None, frozenset({1})):
        system = build_system(parse_litmus(text))
        assert system.ctx.enqueue_only == frozenset()
        if only is not None:  # the atom's gate dropped
            system.ctx.enqueue_only = only
        verdicts.append(check_hoare(system.cfg0, system.ctx, None,
                                    system.outline.final).verdict)
    assert verdicts == [verdict, "invalid"]


# (text, bound, reduced states and truncation) with every view bounding
# the dead prefix
VIEWS_ALONE = {"fifo-6": (fifo_litmus(6), 96, 1440, False),
               "queue-mp": (CORPUS["queue-mp"], 64, 72, True)}


@pytest.mark.parametrize("name", sorted(VIEWS_ALONE))
def test_views_alone_bound_less(name):
    # with no thread enqueue-only, FIFO-6 stores 1,440 states (1,398 with
    # thread 1's floor), and queue-mp stays truncated: thread 1's view of
    # the initial operation pins the prefix while thread 2 spins on empty
    # dequeues
    text, bound, states, truncated = VIEWS_ALONE[name]
    system = build_system(parse_litmus(text))
    assert system.ctx.enqueue_only == {1}
    system.ctx.enqueue_only = frozenset()
    res = explore(system.cfg0, system.ctx, bound, reduce=True)
    assert (res.states_explored, res.truncated) == (states, truncated)


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
