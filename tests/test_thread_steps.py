"""The per-system tables of interned parts and memoized transitions are
transparent.

`successors` takes each thread's local steps from `SystemContext.thread_steps`,
keyed by the interned thread state, and each memory or object rule's
successors from `SystemContext.component_steps`, keyed by thread, action (or
method and arguments) and components.  For every explored configuration, the
successors computed with warm tables must equal those of a fresh context
whose tables are empty, down to the type of every value: `true` is no
integer, and prints differently."""

import copy

import pytest

from rarcheck.explore import StepLabel, ThreadState, explore, successors
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.refine import builtin_impls
from rarcheck.state import TRUE, ComponentState

CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
          "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")
IMPLS = ("seqlock", "ticketlock", "seqlock-relaxed", "ticketlock-relaxed")

# Values that are equal across types (1 == True) reach the queue from two
# threads, from one thread, and from two branches of one thread that leave
# equal registers behind.  In the first and the last, two thread states have
# equal keys, and only the type of a literal in the command tells their
# steps apart.
MIXED = {
    "two-threads": "name mixed-two-threads\nobject queue q\n"
                   "thread 1 { q.enq(1); }\n"
                   "thread 2 { q.enq(true); }\n"
                   "thread 3 { r1 := q.deq(); r2 := q.deq(); }\n",
    "one-thread": "name mixed-one-thread\nobject queue q\n"
                  "thread 1 { q.enq(1); q.enq(true); }\n"
                  "thread 2 { r1 := q.deq(); r2 := q.deq(); }\n",
    "branches": "name mixed-branches\ninit x := 0\nobject queue q\n"
                "thread 1 { x := 1; }\n"
                "thread 2 { r1 <- x; if r1 = 1 then { r1 := 5; q.enq(1); } "
                "else { r1 := 5; q.enq(true); } }\n"
                "thread 3 { r2 := q.deq(); }\n",
}


SYSTEMS = CORPUS + ("fifo-3",) + tuple(f"seqlock-refine+{impl}"
                                         for impl in IMPLS) + tuple(MIXED)


def _build(name):
    if name in CORPUS:
        return build_system(load_corpus(name))
    if name == "fifo-3":
        return build_system(parse_litmus(fifo_litmus(3)))
    if name in MIXED:
        return build_system(parse_litmus(MIXED[name]))
    client, impl = name.split("+")
    return build_system(load_corpus(client), builtin_impls()[impl])


def _typed(v):
    return (type(v), v)


def _labels(label):
    """The step labels of an edge: a folded edge's label is their tuple."""
    return label if type(label) is tuple else (label,)


def _view(succs):
    """What a successor list shows, with the type of every value."""
    return [(t, [lab.text for lab in _labels(label)], nxt.prog[t],
             repr(nxt.prog[t]),
             {u: {r: _typed(v) for r, v in ls.items()}
              for u, ls in nxt.rho.items()})
            for t, label, nxt in succs]


def _fresh(ctx):
    out = copy.copy(ctx)
    out.thread_states, out.components, out.labels = {}, {}, {}
    out.thread_steps, out.component_steps = {}, {}
    out.redexes, out.plugs = {}, {}
    out.runs = {silent: {} for silent in ctx.runs}
    return out


@pytest.mark.parametrize("name", SYSTEMS)
def test_memo_is_transparent(name):
    system = _build(name)
    ctx = _fresh(system.ctx)
    res = explore(system.cfg0, ctx, 64)
    assert ctx.thread_steps
    for cfg in res.states:
        assert _view(successors(cfg, ctx)) == \
            _view(successors(cfg, _fresh(ctx)))


def test_each_thread_state_is_stepped_once(monkeypatch):
    import rarcheck.program as program
    calls = []
    original = program.local_step

    def counting(cmd, ls, redexes, plugs):
        calls.append(cmd)
        return original(cmd, ls, redexes, plugs)

    monkeypatch.setattr(program, "local_step", counting)
    system = build_system(load_corpus("lockmp"))
    res = explore(system.cfg0, system.ctx, 64)
    assert len(calls) == len(system.ctx.thread_steps)
    assert len(calls) < len(res.states) * len(system.ctx.threads)


def _content(part):
    """What a part is made from: a thread state's thread, command and
    registers, a component's `_parts()`, a label's fields.  Parts hash and
    compare by identity, so only content can tell whether equal parts were
    made twice."""
    if isinstance(part, ThreadState):
        return part.t, part.cmd, frozenset(part.ls.items())
    if isinstance(part, StepLabel):
        return part.component, part.action, part.rank, part.at_hole
    return part._parts()


def _parts(res):
    for cfg, edges in zip(res.states, res.edges):
        yield from cfg.locs
        yield cfg.gamma
        yield cfg.beta
        for _, label, _ in edges:
            yield from _labels(label)


@pytest.mark.parametrize("name", SYSTEMS)
def test_equal_parts_are_one_object(name):
    # within one exploration, thread states, components and step labels
    # with equal content are the same object, also in successors computed
    # again afterwards
    system = _build(name)
    res = explore(system.cfg0, system.ctx, 64)
    seen = {}
    for part in _parts(res):
        assert seen.setdefault((type(part), _content(part)), part) is part
    assert {type(part) for part in seen.values()} == \
        {ThreadState, ComponentState, StepLabel}
    for cfg in res.states:
        for _, label, nxt in successors(cfg, system.ctx):
            for part in nxt.locs + (nxt.gamma, nxt.beta) + _labels(label):
                key = (type(part), _content(part))
                assert seen.get(key, part) is part


def test_systems_share_no_table():
    # two systems built from the same text intern and memoize apart
    a, b = (_build("lockmp") for _ in "ab")
    tables = ("thread_states", "components", "labels", "thread_steps",
              "component_steps", "redexes", "plugs", "runs")
    for system in (a, b):
        explore(system.cfg0, system.ctx, 64)
        explore(system.cfg0, system.ctx, 64, reduce=True)
    for name in tables:
        ta, tb = getattr(a.ctx, name), getattr(b.ctx, name)
        assert ta and tb and ta is not tb
    for name in ("thread_states", "components", "labels", "redexes",
                 "plugs"):
        ids = [{id(x) for x in getattr(s.ctx, name).values()}
               for s in (a, b)]
        assert ids[0].isdisjoint(ids[1])
    # the fold's tables are keyed by one system's thread states
    ids = [{id(ts) for runs in s.ctx.runs.values() for ts in runs}
           for s in (a, b)]
    assert ids[0].isdisjoint(ids[1])


def test_enq_of_one_and_of_true_are_two_steps():
    # thread 2 reaches `q.enq(1)` or `q.enq(1 = 1)` with the library state
    # unchanged; the object rule's memo must not take one call for the other
    system = build_system(parse_litmus(
        "name enq-one-or-true\ninit x := 0\nobject queue q\n"
        "thread 1 { x := 1; }\n"
        "thread 2 { r1 <- x; if r1 = 0 then { q.enq(1); } "
        "else { q.enq(1 = 1); } }\n"))
    res = explore(system.cfg0, system.ctx, 64)
    enqueued = {}  # library state -> {value enqueued: library state after}
    for cfg, edges in zip(res.states, res.edges):
        for _, label, m in edges:
            if label.action is not None and label.action.kind == "enqueue":
                enqueued.setdefault(cfg.beta, {})[label.action.val] = \
                    res.states[m].beta
    (after,) = enqueued.values()
    assert set(after) == {1, TRUE}
    assert after[1] != after[TRUE]
