"""The per-system memo of thread-local steps is transparent.

`successors` takes each thread's local steps from `SystemContext.thread_steps`,
keyed by command and type-tagged registers.  For every explored
configuration, the successors computed with the warm memo must equal those of
a fresh context whose memo is empty, down to the type of every value: 1 and
True are equal in Python, but print differently."""

import copy

import pytest

from rarcheck.explore import explore, successors
from rarcheck.litmus import build_system, load_corpus, parse_litmus
from rarcheck.oracle import fifo_litmus
from rarcheck.refine import builtin_impls

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


def _view(succs):
    """What a successor list shows, with the type of every value."""
    return [(t, label.render(), nxt.prog[t], repr(nxt.prog[t]),
             {u: {r: _typed(v) for r, v in ls.items()}
              for u, ls in nxt.rho.items()})
            for t, label, nxt in succs]


def _fresh(ctx):
    out = copy.copy(ctx)
    out.thread_steps = {}
    return out


@pytest.mark.parametrize("name", SYSTEMS)
def test_memo_is_transparent(name):
    system = _build(name)
    ctx = _fresh(system.ctx)
    res = explore(system.cfg0, ctx, 64)
    assert ctx.thread_steps
    for cfg in res.configs.values():
        assert _view(successors(cfg, ctx)) == \
            _view(successors(cfg, _fresh(ctx)))


def test_each_thread_state_is_stepped_once(monkeypatch):
    import rarcheck.program as program
    calls = []
    original = program.local_step

    def counting(prog, rho, t):
        calls.append(t)
        return original(prog, rho, t)

    monkeypatch.setattr(program, "local_step", counting)
    system = build_system(load_corpus("lockmp"))
    res = explore(system.cfg0, system.ctx, 64)
    assert len(calls) == len(system.ctx.thread_steps)
    assert len(calls) < len(res.configs) * len(system.ctx.threads)
