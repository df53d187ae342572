"""The benchmark's three workloads: fixed input sets with known answers.

Every check is one rarcheck command line, run through the CLI's entry point,
plus the answer it must give.  No known answer is taken from rarcheck:

* corpus verdicts and outcome sets come from the files' comments and
  ``final`` clauses (``CORPUS`` below says which sentence each rests on);
* refinement verdicts follow from the paper's theorem: the sequence lock and
  the ticket lock refine the abstract lock for every synchronisation-free
  client, and their relaxed-release mutants do not;
* generated racy programs must show every sequentially consistent (SC)
  outcome, enumerated by brute force in ``programs.py``, and nothing a read
  could not return;
* generated lock clients touch shared data only inside critical sections, so
  they are data-race free and must give exactly their SC outcomes (DRF-SC);
  their mutual-exclusion invariants and SC final clauses hold by
  construction;
* the FIFO oracle's outcome set must equal the dequeue results of a plain
  sequential queue, enumerated here.

Why each workload was chosen:

* ``litmus``: many distinct small checks, the user traffic of small
  programs; per-check overhead, parse/build, thread-local stepping, memory
  transitions and assertion evaluation dominate.
* ``fifo``: one huge exploration (the FIFO oracle at 6 enqueues) through the
  abstract queue rules and the canonical keys of large states; it bypasses
  memory transitions, assertions and refinement.
* ``refine``: the CLI's refine path for every built-in lock implementation
  against every sync-free lock client; the only workload that runs the
  simulation game, its fixpoint and the trace check, and it stresses memory
  transitions through CAS/FAI and acquire-read spins.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import programs as P

# Shapes of the generated families are drawn once from this fixed seed; the
# run's --seed only draws the isomorphic instance of each shape (see
# programs.instance).  A seed-dependent mix of shapes moved the litmus pass
# time by 42% (quartile spread over median, 8 seeds) on a 2-core machine.
SHAPE_SEED = 2012_14133
N_RACY = 96
LOCK_SHAPES = ((2, 1), (2, 1), (3, 1), (3, 1), (2, 2), (2, 2), (2, 3), (2, 3))
FIFO_ENQS = 6
IMPLS = ("seqlock", "ticketlock", "seqlock-relaxed", "ticketlock-relaxed")
REFINE_CLIENTS = ("seqlock-refine", "ticketlock-refine", "lock-two-rounds")


def _oc(**regs):
    return P.norm_outcome(regs.items())


DRF_SC = ("final clause; the client only touches data inside critical "
          "sections, so its outcomes are the SC ones (DRF-SC)")

# name -> (CLI command, exit code, verdict, exact outcome set or None, source)
CORPUS = {
    "lock-two-rounds": ("explore", 0, "pass",
                        {_oc(r1=0), _oc(r1=1), _oc(r1=2)},
                        DRF_SC + ": thread 2 runs before, between or after "
                        "thread 1's two critical sections"),
    "lockmp": ("outline", 0, "valid", None,
               "comment: the outline proves mutual exclusion plus write "
               "visibility"),
    "lockmp-mutant": ("outline", 1, "invalid", None,
                      "comment: whenever thread 2 acquires first this fails"),
    "mp-relacq": ("explore", 0, "pass", {_oc(r1=1, r2=5)},
                  "comment: once the acquiring read sees the flag, the data "
                  "write is the only observable one"),
    "mp-relaxed": ("explore", 0, "pass", {_oc(r2=0), _oc(r2=5)},
                   "comment: the stale data value remains observable; final "
                   "clause"),
    "queue-mp": ("explore", 0, "pass", {_oc(r1=1, r2=5)},
                 "comment: a non-empty dequeue synchronises, so the payload "
                 "is visible; the loop exits only on r1 = 1"),
    "seqlock-refine": ("explore", 0, "pass",
                       {_oc(r1=0, r2=0), _oc(r1=5, r2=5)}, DRF_SC),
    "ticketlock-refine": ("explore", 0, "pass",
                          {_oc(r1=0, r2=0), _oc(r1=5, r2=5)}, DRF_SC),
}


@dataclass
class Check:
    """One CLI invocation and the answer it must give."""

    id: str
    argv: list
    code: int  # expected exit code
    verdicts: frozenset  # accepted verdicts
    exact: frozenset = None  # the outcome set, when known exactly
    must: frozenset = None  # outcomes that must appear
    allowed: dict = None  # register -> values it may hold
    fifo: frozenset = None  # expected FIFO oracle outcome tuples
    source: str = ""
    text: str = field(default=None, repr=False)  # generated input, if any


@dataclass
class Workload:
    name: str
    checks: list
    nominal_pass_s: float  # pass time on a 2-core x86 machine, sets passes


def corpus_dir(root: Path) -> Path:
    return root / "src" / "rarcheck" / "corpus"


def litmus(root: Path, seed: int, inputs: Path) -> Workload:
    checks = []
    for name, (cmd, code, verdict, exact, source) in CORPUS.items():
        path = corpus_dir(root) / f"{name}.lit"
        checks.append(Check(f"corpus/{name}", [cmd, str(path), "--json"],
                            code, frozenset({verdict}),
                            exact=frozenset(exact) if exact else None,
                            source=source))
    shapes = random.Random(SHAPE_SEED)
    rng = random.Random(seed)
    for i in range(N_RACY):
        prog = P.instance(P.racy_program(shapes, f"racy{i}"), rng,
                          f"racy-{seed}-{i}")
        checks.append(Check(
            f"racy/{i}", ["explore", str(inputs / f"racy-{i}.lit"), "--json"],
            0, frozenset({"pass"}), must=P.sc_outcomes(prog),
            allowed=P.plausible_values(prog),
            source="every SC outcome appears; reads return written values",
            text=P.render(prog)))
    for i, (n, rounds) in enumerate(LOCK_SHAPES):
        prog = P.instance(P.lock_program(shapes, f"lock{i}", n, rounds), rng,
                          f"lock-{seed}-{i}")
        sc = P.sc_outcomes(prog)
        text = P.render(prog, "outline", P.mutex_invariant(prog),
                        P.outcomes_assertion(sc))
        path = str(inputs / f"lock-{i}.lit")
        checks.append(Check(f"lock/{i}/explore", ["explore", path, "--json"],
                            0, frozenset({"pass"}), exact=sc, source=DRF_SC,
                            text=text))
        checks.append(Check(f"lock/{i}/outline", ["outline", path, "--json"],
                            0, frozenset({"valid"}),
                            source="mutual exclusion and SC final clause "
                            "hold by construction"))
    return Workload("litmus", checks, 7.5)


def sequential_fifo(n: int) -> frozenset:
    """Dequeue results of n dequeues racing n enqueues of 1..n on a plain
    sequential queue, over every interleaving; None is an empty dequeue."""
    out = set()

    def go(enq, deq, queue, acc):
        if deq == n:
            out.add(tuple(acc))
            return
        if enq < n:
            go(enq + 1, deq, queue + (enq + 1,), acc)
        go(enq, deq + 1, queue[1:], acc + [queue[0] if queue else None])

    go(0, 0, (), [])
    return frozenset(out)


def fifo(root: Path, seed: int, inputs: Path) -> Workload:
    check = Check("fifo/oracle", ["oracle", "fifo", "--enqs", str(FIFO_ENQS),
                                  "--json"], 0, frozenset({"pass"}),
                  fifo=sequential_fifo(FIFO_ENQS),
                  source="outcomes of a plain sequential FIFO queue")
    return Workload("fifo", [check], 13.4)


def refine(root: Path, seed: int, inputs: Path) -> Workload:
    checks = []
    for impl in IMPLS:
        for client in REFINE_CLIENTS:
            path = corpus_dir(root) / f"{client}.lit"
            ok = not impl.endswith("-relaxed")
            checks.append(Check(
                f"refine/{impl}/{client}",
                ["refine", "--impl", impl, "--client", str(path), "--json"],
                0 if ok else 1,
                frozenset({"simulation-found"} if ok else
                          {"no-simulation", "trace-check-failed"}),
                source="the paper's theorem: both locks refine the abstract "
                "lock for sync-free clients, the relaxed mutants do not"))
    return Workload("refine", checks, 12.5)


WORKLOADS = {"litmus": litmus, "fifo": fifo, "refine": refine}


# --- judging one CLI result ---------------------------------------------------------

def _parse_fifo_tuple(s: str):
    body = s.strip().strip("()").strip().rstrip(",")
    return tuple(None if x.strip() == "empty" else int(x)
                 for x in body.split(",") if x.strip())


def judge(check: Check, code: int, out: str):
    """(record, errors): the deterministic facts of one result and every
    way it differs from the known answer."""
    errors = []
    try:
        report = json.loads(out)
    except ValueError:
        return ([code, None], [f"exit {code} with no JSON report"])
    verdict = report.get("verdict")
    if code != check.code:
        errors.append(f"exit code {code}, expected {check.code}")
    if verdict not in check.verdicts:
        errors.append(f"verdict {verdict!r}, expected "
                      f"{' or '.join(sorted(check.verdicts))}")
    got = None
    if "outcomes" in report:
        got = {P.norm_outcome(o.items()) for o in report["outcomes"]}
    if check.exact is not None and got != check.exact:
        errors.append(f"outcomes differ: missing "
                      f"{len(check.exact - (got or set()))}, extra "
                      f"{len((got or set()) - check.exact)}")
    if check.must is not None:
        missing = check.must - (got or set())
        if missing:
            errors.append(f"{len(missing)} SC outcomes missing")
    if check.allowed is not None:
        bad = sorted({(r, v) for oc in got or () for r, v in oc
                      if v not in check.allowed.get(r, ())})
        if bad:
            errors.append(f"impossible register values {bad[:3]}")
    if check.fifo is not None:
        model = {_parse_fifo_tuple(s)
                 for s in report.get("model_outcomes", ())}
        if model != check.fifo or report.get("truncated"):
            errors.append("FIFO outcomes differ from the sequential queue")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True)
                            .encode()).hexdigest()[:16]
    record = [code, verdict, report.get("states_explored"),
              report.get("pairs_explored"), report.get("relation_size"),
              digest]
    return record, errors
