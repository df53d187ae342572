"""Seeded litmus programs and their sequentially consistent outcomes.

Programs are built in a small representation of this module's own, rendered
to litmus text for rarcheck, and enumerated here by brute force under
sequential consistency (SC).  Nothing in this module imports rarcheck, so the
known answers derived from it are independent of the checker under test.

Thread operations are tuples:

    ("write", var, value, releasing)   x := v   /  x :=R v
    ("read", reg, var, acquiring)      r <- x   /  r <-A x
    ("cas", reg, var, expect, new)     r <- CAS(x, u, v)   (r is a boolean)
    ("fai", reg, var)                  r <- FAI(x)         (r is the old value)
    ("acquire",) / ("release",)        l.acquire() / l.release() on lock l
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Program:
    name: str
    init: tuple  # ((var, value), ...)
    threads: tuple  # (ops of thread 1, ops of thread 2, ...)
    lock: bool = False  # declares the abstract lock ``l``

    def registers(self):
        return sorted(op[1] for ops in self.threads for op in ops
                      if op[0] in ("read", "cas", "fai"))


def norm_value(v):
    """A value tagged by type, so True and 1 stay apart in sets."""
    if isinstance(v, bool):
        return ("b", v)
    if isinstance(v, int):
        return ("i", v)
    return ("s", str(v))


def norm_outcome(pairs):
    """An outcome as a sorted tuple of (register, tagged value)."""
    return tuple(sorted((r, norm_value(v)) for r, v in pairs))


# --- brute-force SC enumeration -----------------------------------------------

def sc_outcomes(prog: Program) -> frozenset:
    """Final register valuations over every SC interleaving, where a thread
    blocks on acquire while another thread holds the lock."""
    threads = prog.threads
    variables = tuple(sorted(v for v, _ in prog.init))

    @lru_cache(maxsize=None)
    def go(pcs, mem, regs, holder):
        moved = False
        out = set()
        for t, ops in enumerate(threads):
            if pcs[t] == len(ops):
                continue
            op = ops[pcs[t]]
            m = dict(zip(variables, mem))
            r = dict(regs)
            h = holder
            kind = op[0]
            if kind == "write":
                m[op[1]] = op[2]
            elif kind == "read":
                r[op[1]] = m[op[2]]
            elif kind == "cas":
                ok = m[op[2]] == op[3]
                if ok:
                    m[op[2]] = op[4]
                r[op[1]] = ok
            elif kind == "fai":
                r[op[1]] = m[op[2]]
                m[op[2]] = m[op[2]] + 1
            elif kind == "acquire":
                if holder is not None:
                    continue
                h = t
            elif kind == "release":
                h = None
            else:
                raise ValueError(f"unknown operation {op!r}")
            moved = True
            pcs2 = pcs[:t] + (pcs[t] + 1,) + pcs[t + 1:]
            out |= go(pcs2, tuple(m[v] for v in variables),
                      tuple(sorted(r.items())), h)
        if not moved:
            if any(pcs[t] < len(ops) for t, ops in enumerate(threads)):
                raise ValueError(f"{prog.name}: SC deadlock")
            return frozenset({norm_outcome(regs)})
        return frozenset(out)

    return go((0,) * len(threads), tuple(v for _, v in prog.init), (), None)


def plausible_values(prog: Program) -> dict:
    """Per register, every value it could hold under any memory model in
    which a read returns some value written to its variable: an upper bound
    on the outcomes, used as a sanity check beside the SC lower bound."""
    vals = {x: {v} for x, v in prog.init}
    ops = [op for ops in prog.threads for op in ops]
    for op in ops:
        if op[0] == "write":
            vals[op[1]].add(op[2])
        elif op[0] == "cas":
            vals[op[2]].add(op[4])
    for x in vals:
        fais = sum(1 for op in ops if op[0] == "fai" and op[2] == x)
        for _ in range(fais):
            vals[x] |= {v + 1 for v in vals[x]}
    out = {}
    for op in ops:
        if op[0] in ("read", "fai"):
            out[op[1]] = {norm_value(v) for v in vals[op[2]]}
        elif op[0] == "cas":
            out[op[1]] = {norm_value(True), norm_value(False)}
    return out


# --- rendering -------------------------------------------------------------------

def _stmt(op) -> str:
    kind = op[0]
    if kind == "write":
        return f"{op[1]} :={'R' if op[3] else ''} {op[2]};"
    if kind == "read":
        return f"{op[1]} <-{'A' if op[3] else ''} {op[2]};"
    if kind == "cas":
        return f"{op[1]} <- CAS({op[2]}, {op[3]}, {op[4]});"
    if kind == "fai":
        return f"{op[1]} <- FAI({op[2]});"
    if kind == "acquire":
        return "l.acquire();"
    if kind == "release":
        return "l.release();"
    raise ValueError(f"unknown operation {op!r}")


def critical_labels(ops) -> list:
    """Statement labels (1-based) a thread holds the lock before: from the
    one after each acquire up to and including its release."""
    labels, inside = [], False
    for i, op in enumerate(ops, start=1):
        if op[0] == "acquire":
            inside = True
        elif inside:
            labels.append(i)
            if op[0] == "release":
                inside = False
    return labels


def render(prog: Program, mode: str = None, invariant: str = None,
           final: str = None) -> str:
    lines = [f"name {prog.name}",
             "init " + "; ".join(f"{x} := {v}" for x, v in prog.init)]
    if prog.lock:
        lines.append("object lock l")
    if mode:
        lines.append(f"mode {mode}")
    for t, ops in enumerate(prog.threads, start=1):
        lines.append(f"thread {t} {{")
        lines.extend(f"  {_stmt(op)}" for op in ops)
        lines.append("}")
    if invariant:
        lines.append(f"invariant {{ {invariant} }}")
    if final:
        lines.append(f"final {{ {final} }}")
    return "\n".join(lines) + "\n"


def mutex_invariant(prog: Program) -> str:
    """No two threads are inside their critical sections at once."""
    sets = [critical_labels(ops) for ops in prog.threads]
    parts = []
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            li = ",".join(map(str, sets[i]))
            lj = ",".join(map(str, sets[j]))
            parts.append(f"not (pc({i + 1}) in {{{li}}} and "
                         f"pc({j + 1}) in {{{lj}}})")
    return " and ".join(parts)


def _lit(tagged) -> str:
    kind, v = tagged
    if kind == "b":
        return "true" if v else "false"
    return str(v)


def outcomes_assertion(outcomes) -> str:
    """A final clause true exactly at the given register valuations."""
    return " or ".join(
        "(" + " and ".join(f"{r} = {_lit(v)}" for r, v in oc) + ")"
        for oc in sorted(outcomes))


# --- seeded families -----------------------------------------------------------

RACY_VARS = ("x", "y")


def racy_program(rng: random.Random, name: str) -> Program:
    """Two client threads with 2-4 accesses each over x and y, mixing
    relaxed, releasing and acquiring accesses with CAS and FAI."""
    threads = []
    for t in (1, 2):
        ops = []
        for k in range(1, rng.randint(2, 4) + 1):
            reg = f"r{t}{k}"
            x = rng.choice(RACY_VARS)
            kind = rng.choice(("write", "write", "read", "read", "cas", "fai"))
            if kind == "write":
                ops.append(("write", x, rng.randint(1, 2), rng.random() < 0.5))
            elif kind == "read":
                ops.append(("read", reg, x, rng.random() < 0.5))
            elif kind == "cas":
                u = rng.randint(0, 1)
                ops.append(("cas", reg, x, u, u + 1))
            else:
                ops.append(("fai", reg, x))
        threads.append(tuple(ops))
    if not any(op[0] != "write" for ops in threads for op in ops):
        threads[1] = threads[1] + (("read", "r29", rng.choice(RACY_VARS),
                                    True),)
    return Program(name, tuple((x, 0) for x in RACY_VARS), tuple(threads))


LOCK_VARS = ("d1", "d2")


def lock_program(rng: random.Random, name: str, n_threads: int,
                 rounds: int) -> Program:
    """Threads that touch d1/d2 only inside lock-protected critical
    sections, so the client is data-race free; each thread reads at least
    once."""
    value = iter(range(1, 100))
    threads = []
    for t in range(1, n_threads + 1):
        ops, k = [], 0
        for rnd in range(rounds):
            ops.append(("acquire",))
            body = []
            for _ in range(rng.randint(1, 2)):
                x = rng.choice(LOCK_VARS)
                if rng.random() < 0.5:
                    body.append(("write", x, next(value), False))
                else:
                    k += 1
                    body.append(("read", f"r{t}{k}", x, False))
            if rnd == rounds - 1 and k == 0:
                k += 1
                body.append(("read", f"r{t}{k}", rng.choice(LOCK_VARS), False))
            ops.extend(body)
            ops.append(("release",))
        threads.append(tuple(ops))
    return Program(name, tuple((x, 0) for x in LOCK_VARS), tuple(threads),
                   lock=True)


# --- seeded instances of fixed shapes --------------------------------------------

_NAME_LETTERS = "abcdeghkmnpqsuvwxyz"  # no l (the lock) and no r (registers)


def instance(prog: Program, rng: random.Random, name: str) -> Program:
    """A seeded copy of prog, isomorphic to it: variables and registers get
    fresh names, threads are permuted, and in lock clients the written
    values are relabelled (there they are only compared for equality).
    Isomorphic copies have the same state space, so every seed asks the
    checker for the same amount of work."""
    old_vars = [x for x, _ in prog.init]
    new_vars = rng.sample([f"{c}{n}" for c in _NAME_LETTERS
                           for n in range(10)], len(old_vars))
    var = dict(zip(old_vars, new_vars))
    regs = prog.registers()
    reg = dict(zip(regs, (f"r{n}" for n in rng.sample(range(100), len(regs)))))
    written = sorted({op[2] for ops in prog.threads for op in ops
                      if op[0] == "write"})
    val = {v: v for v in written}
    if prog.lock:
        val = dict(zip(written, rng.sample(range(1, 40), len(written))))

    def op2(op):
        kind = op[0]
        if kind == "write":
            return ("write", var[op[1]], val[op[2]], op[3])
        if kind == "read":
            return ("read", reg[op[1]], var[op[2]], op[3])
        if kind == "cas":
            return ("cas", reg[op[1]], var[op[2]], op[3], op[4])
        if kind == "fai":
            return ("fai", reg[op[1]], var[op[2]])
        return op

    threads = [tuple(op2(op) for op in ops) for ops in prog.threads]
    rng.shuffle(threads)
    return Program(name, tuple((var[x], v) for x, v in prog.init),
                   tuple(threads), prog.lock)
