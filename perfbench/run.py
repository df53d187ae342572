"""rarcheck benchmark: three fixed, seeded workloads through the CLI's entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload litmus|fifo|refine|all --seed N \\
        --seconds S --trace 0|1

One process, no threads.  Inputs are generated from --seed before timing,
then the workload's input set is run through ``rarcheck.cli.run_cli`` a
fixed number of times (passes), set by --seconds and the workload's nominal
pass time so that every run of the same arguments attempts the same checks.
Every result is judged against a known answer that does not come from
rarcheck (see workloads.py); a wrong verdict counts as failed.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics (tracing off).  Their times are corrected by speed.py for how fast
the shared host runs at the moment; the real times are printed too.

* ``wall_s``: time for the workload's input set, setup excluded: the sum over
  its checks of each check's median time across the passes;
* ``verdict_p50_ms``, ``verdict_p90_ms``: percentiles over the checks of
  those per-check medians, from litmus text to verdict.  The sample count is
  the number of checks (120 litmus, 12 refine).  On fifo, a single check,
  both are that check's time and add nothing to ``wall_s``; only litmus has
  ten checks beyond its 90th percentile;
* ``peak_rss_mb``: this process's own peak resident memory, less the size
  of speed.py's reference table;
* ``setup_s``: the median over fresh interpreters, started one after another
  with bytecode already compiled, of interpreter start, ``import rarcheck``
  and input generation;
* ``correct_frac``: verdicts equal to the known answer over checks attempted.

With --trace 1 it runs one plain and one traced pass and reports the
per-layer metrics (see layers.py) instead.  The run fails itself (exit 1,
"correct": false) when its deterministic counts differ between passes or
from an earlier run of the same code and seed, recorded under .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_PROBES = 11

END_TO_END_UNITS = {"wall_s": "s", "verdict_p50_ms": "ms",
                    "verdict_p90_ms": "ms", "peak_rss_mb": "MB",
                    "setup_s": "s", "correct_frac": "ratio"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS) + ["all"],
                   help="'all' runs each workload in turn, each in a fresh "
                   "interpreter, and prints every metric")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="generate the inputs and exit (times set-up)")
    return p.parse_args(argv)


def prepare(name: str, seed: int):
    """Generate the workload's inputs and check that rarcheck parses and
    builds every generated program, so no input error reaches the timing."""
    from rarcheck.litmus import build_system, parse_litmus
    inputs = WORK / "inputs" / f"{name}-{seed}"
    wl = workloads.WORKLOADS[name](ROOT, seed, inputs)
    for check in wl.checks:
        if check.text is not None:
            build_system(parse_litmus(check.text))
    return wl, inputs


def write_inputs(wl, inputs: Path):
    inputs.mkdir(parents=True, exist_ok=True)
    for check in wl.checks:
        if check.text is not None:
            path = Path(check.argv[1])
            if not path.exists() or path.read_text() != check.text:
                path.write_text(check.text)


def setup_seconds(args, ref) -> list:
    """Speed-corrected wall times of fresh interpreters that import rarcheck
    and generate the inputs, started one after another with bytecode already
    compiled.  Each is corrected by the host's speed just before and just
    after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        before = ref.rate()
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - t0
        times.append(wall * (before + ref.rate()) / 2)
    return times


def run_pass(cli, checks, clock=perf_counter):
    """One pass over the input set: per-check seconds and raw results, and
    the pass's wall time, all on ``clock``.  Results are judged after the
    clock stops."""
    gc.collect()
    results, times = [], []
    start = clock()
    for check in checks:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_cli(check.argv)
            except Exception as e:  # the CLI would exit 1 with a traceback
                code = 1
                err.write(f"{type(e).__name__}: {e}")
        times.append(clock() - t0)
        results.append((code, out.getvalue()))
    return clock() - start, times, results


def judge_pass(checks, results):
    records, failures = {}, {}
    for check, (code, out) in zip(checks, results):
        record, errors = workloads.judge(check, code, out)
        records[check.id] = record
        if errors:
            failures[check.id] = errors
    return records, failures


def code_digest() -> str:
    """Digest of the program and the benchmark, keying recorded counts."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "src").rglob("*.lit")) + \
        sorted(Path(__file__).resolve().parent.glob("*.py"))
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def compare_record(args, section: str, facts: dict) -> list:
    """Record this run's deterministic facts, or compare them with the
    ones an earlier run of the same code, workload and seed recorded."""
    path = WORK / "records" / \
        f"{args.workload}-seed{args.seed}-{code_digest()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    saved = json.loads(path.read_text()) if path.exists() else {}
    if section in saved:
        old = saved[section]
        return [f"{k}: {old.get(k)} in an earlier run, {facts.get(k)} now"
                for k in sorted(set(old) | set(facts))
                if old.get(k) != facts.get(k)]
    saved[section] = facts
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(saved, indent=1, sort_keys=True))
    tmp.replace(path)
    return []


def pass_problems(all_records) -> list:
    first = all_records[0]
    return [f"pass {i + 1} differs from pass 1 on {k}"
            for i, recs in enumerate(all_records[1:], start=1)
            for k in sorted(first) if recs.get(k) != first[k]]


def summary_counts(records: dict) -> dict:
    def total(i):
        return sum(r[i] or 0 for r in records.values() if len(r) > i)
    digest = hashlib.sha256(json.dumps(sorted(records.items()))
                            .encode()).hexdigest()[:16]
    return {"checks": len(records), "states": total(2), "pairs": total(3),
            "relation": total(4), "results_digest": digest}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(samples, q: int):
    """The q-th percentile (1..99) of samples, Python's exclusive method."""
    return statistics.quantiles(samples, n=100)[q - 1]


def run_all(args) -> int:
    """Each workload in its own interpreter, one after another, so that one
    workload's memory does not count towards another's peak."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
            text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode:
            print("\n".join(lines))
            return proc.returncode
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v
                                  in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from rarcheck import cli
    except ImportError as e:
        print(f"cannot import rarcheck from {src}: {e}", file=sys.stderr)
        return 2
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rarcheck was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if not (args.trace or args.setup_probe):
        # Built first, so that the peak it adds is its own size.
        rss0 = peak_rss_mb()
        ref = speed.Reference()
        ref_mb = peak_rss_mb() - rss0
    wl, inputs = prepare(args.workload, args.seed)
    if args.setup_probe:
        return 0
    write_inputs(wl, inputs)
    checks = wl.checks
    problems = []

    if args.trace:
        from layers import Tracer, accounting_error, layer_metrics
        plain_wall, _, plain_results = run_pass(cli, checks)
        with Tracer() as tracer:
            traced_wall, times, traced_results = run_pass(cli, checks)
        problems += [f"wrapper left in place: {n}"
                     for n in tracer.leftovers()]
        problems += [f"name to trace not found: {n}"
                     for n in tracer.missing]
        bench_s = traced_wall - sum(times)
        unaccounted = accounting_error(tracer, traced_wall, bench_s)
        if unaccounted > 0.01:
            problems.append(f"layer self times miss {unaccounted:.1%} of the "
                            "traced wall time")
        raw = [plain_results, traced_results]
        metrics = layer_metrics(tracer, traced_wall, plain_wall, bench_s)
        layer_counts = {k: v for k, (v, unit) in metrics.items()
                        if unit == "count"}
    else:
        setup = setup_seconds(args, ref)
        passes = max(1, round(args.seconds / wl.nominal_pass_s))
        per_check, raw = [[] for _ in checks], []
        start = perf_counter()
        with speed.SpeedClock(ref) as clock:
            for _ in range(passes):
                _, times, results = run_pass(cli, checks, clock.now)
                for samples, t in zip(per_check, times):
                    samples.append(t)
                raw.append(results)
            corrected = clock.now()
        real = perf_counter() - start
        check_ms = [statistics.median(s) * 1e3 for s in per_check]

    judged = [judge_pass(checks, results) for results in raw]
    all_records = [r for r, _ in judged]
    failures = judged[0][1]
    attempted = len(checks) * len(raw)
    failed = sum(len(f) for _, f in judged)
    problems += pass_problems(all_records)
    facts = {"attempted_per_pass": len(checks),
             "failed_per_pass": len(failures),
             **summary_counts(all_records[0]),
             "per_check": all_records[0]}
    problems += compare_record(args, "plain", facts)
    if args.trace:
        problems += compare_record(args, "traced", layer_counts)
    else:
        metrics = {
            "wall_s": sum(check_ms) / 1e3,
            "verdict_p50_ms": statistics.median(check_ms),
            "verdict_p90_ms": (percentile(check_ms, 90) if len(check_ms) > 1
                               else check_ms[0]),
            "peak_rss_mb": peak_rss_mb() - ref_mb,
            "setup_s": statistics.median(setup),
            "correct_frac": (attempted - failed) / attempted,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    print(f"workload {args.workload}, seed {args.seed}: {len(raw)} "
          f"pass(es) of {len(checks)} checks"
          + (", the second one traced" if args.trace else
             f"; each check's time is its median over the passes and wall_s "
             f"sums them; setup_s is the median of {SETUP_PROBES} fresh "
             f"interpreters"))
    if not args.trace:
        print(f"times are speed-corrected (speed.py): the passes took "
              f"{real:.3f} s of real time and {corrected:.3f} s corrected; "
              f"the reference table's {ref_mb:.1f} MB are left out of "
              f"peak_rss_mb")
    if not args.trace:
        beyond = sum(m > metrics["verdict_p90_ms"][0] for m in check_ms)
        print(f"verdict percentiles are over {len(checks)} per-check "
              f"medians, {beyond} of them beyond the 90th percentile"
              + ("; with one check both equal wall_s" if len(checks) == 1
                 else ""))
    print("counts per pass: " + json.dumps(
        {k: v for k, v in facts.items() if k != "per_check"}))
    sources = {check.id: check.source for check in checks}
    for cid, errors in sorted(failures.items()):
        print(f"wrong answer: {cid}: {'; '.join(errors)} (known answer: "
              f"{sources[cid]})")
    for p in problems:
        print(f"PROBLEM: {p}")
    for k, (v, unit) in metrics.items():
        print(f"  {k:30s} {v:14.6f} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
