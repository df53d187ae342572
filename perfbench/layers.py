"""Per-layer tracing from outside the program.

The tracer wraps rarcheck's public functions where their callers look them
up (``rarcheck.explore.canonical_key``, ``rarcheck.refine.successors``, ...),
so the program itself is not edited.  Each wrapped call is a span; a span's
self time is its duration minus the durations of the spans it encloses.
Spans are aggregated in memory as they close (calls, self time, counts) and
reported when the traced pass ends.

Which end-to-end metric each layer metric should move, and on which workload
(a layer metric that moves while its end-to-end metric does not, or moves on
a workload that bypasses the layer, is a finding):

* ``litmus.*`` (parse_litmus, build_system): setup_s, litmus verdict_p50_ms.
* ``program.*`` (local_step): litmus and refine wall_s.
* ``memory.*`` (mem_read/write/update; empty_frac is the share of calls with
  no successor): litmus verdict_p90_ms, refine wall_s; nothing on fifo.
* ``objects.*`` (lock and queue rules): fifo wall_s.
* ``state.*`` (canonical_key, insert_fresh_timestamp): fifo wall_s and
  peak_rss_mb, refine wall_s.
* ``explore.*``: fifo wall_s and, through re-derived successors, refine
  wall_s.  succ_calls_per_state is 1 on fifo and above 1 wherever
  ``successors`` is called again after exploring.
* ``assertions.*`` (eval_assertion): litmus wall_s; nothing on fifo or refine.
* ``refine.*`` (simulation game and trace check): refine wall_s and
  verdict_p50_ms.
* ``oracle.self_s``: fifo.  ``cli.self_s``: litmus verdict_p50_ms.
* ``trace.overhead``: traced over untraced wall time of the same input set.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MARK = "_perfbench_original"

# (module, attribute, span).  A span's layer is the part before the first dot.
PATCHES = (
    ("rarcheck.cli", "run_cli", "cli"),
    ("rarcheck.cli", "parse_litmus", "litmus"),
    ("rarcheck.cli", "build_system", "litmus"),
    ("rarcheck.refine", "build_system", "litmus"),
    ("rarcheck.oracle", "parse_litmus", "litmus"),
    ("rarcheck.oracle", "build_system", "litmus"),
    ("rarcheck.cli", "explore", "explore.run"),
    ("rarcheck.explore", "explore", "explore.run"),
    ("rarcheck.refine", "explore", "explore.run"),
    ("rarcheck.oracle", "explore", "explore.run"),
    ("rarcheck.cli", "check_hoare", "explore.hoare"),
    ("rarcheck.cli", "check_outline", "explore.outline"),
    ("rarcheck.explore", "successors", "explore.succ"),
    ("rarcheck.refine", "successors", "explore.succ"),
    ("rarcheck.program", "local_step", "program"),
    ("rarcheck.memory", "mem_read", "memory"),
    ("rarcheck.memory", "mem_write", "memory"),
    ("rarcheck.memory", "mem_update", "memory"),
    ("rarcheck.objects", "lock_acquire", "objects"),
    ("rarcheck.objects", "lock_release", "objects"),
    ("rarcheck.objects", "queue_enq", "objects"),
    ("rarcheck.objects", "queue_deq", "objects"),
    ("rarcheck.explore", "canonical_key", "state.key"),
    ("rarcheck.memory", "insert_fresh_timestamp", "state.fresh"),
    ("rarcheck.objects", "insert_fresh_timestamp", "state.fresh"),
    ("rarcheck.explore", "eval_assertion", "assertions"),
    ("rarcheck.cli", "check_simulation", "refine.sim"),
    ("rarcheck.cli", "check_trace_refinement", "refine.trace"),
    ("rarcheck.cli", "fifo_check", "oracle"),
)


class Tracer:
    """Wraps the names in PATCHES while active; aggregates spans by name."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.missing = []
        self._stack = []  # [child seconds, span] per open span
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, span):
        stack, calls, self_s, counts = (self._stack, self.calls, self.self_s,
                                        self.counts)

        def traced(*args, **kwargs):
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[span] += dt - frame[0]
                calls[span] += 1
                if stack:
                    stack[-1][0] += dt
            _count(counts, span, result, stack[-1][1] if stack else None)
            return result

        setattr(traced, MARK, fn)
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def __enter__(self):
        for modname, attr, span in PATCHES:
            module = importlib.import_module(modname)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        return False

    def leftovers(self):
        """Names that are not back to their originals after the tracer
        exits, plus any wrapper still reachable from a rarcheck module."""
        bad = [f"{m.__name__}.{a}" for m, a, orig in self._patched
               if getattr(m, a) is not orig]
        for name, module in list(sys.modules.items()):
            if name == "rarcheck" or name.startswith("rarcheck."):
                bad += [f"{name}.{a}" for a, v in vars(module).items()
                        if hasattr(v, MARK)]
        return sorted(set(bad))


def _count(counts, span, result, parent):
    """Counts read off a span's return value."""
    if span == "explore.run":
        counts["explore.runs"] += 1
        counts["explore.states"] += result.states_explored
    elif span == "explore.succ":
        if parent == "explore.run":
            counts["explore.transitions"] += len(result)
    elif span == "memory":
        counts["memory.empty"] += not result
    elif span == "objects":
        counts["objects.succ"] += len(result)
    elif span == "refine.sim":
        counts["refine.pairs"] += result.pairs_explored
        counts["refine.relation"] += result.relation_size
    elif span == "refine.trace":
        counts["refine.trace_steps"] += result.traces_checked


def layer_metrics(tr: Tracer, wall_traced: float, wall_plain: float,
                  bench_s: float) -> dict:
    """The per-layer metrics of one traced pass, by name: (value, unit)."""
    layer_self = defaultdict(float)
    for span, s in tr.self_s.items():
        layer_self[span.split(".")[0]] += s
    c = tr.counts
    states = c["explore.states"]
    new = states - c["explore.runs"]
    trans = c["explore.transitions"]

    def per(a, b):
        return a / b if b else 0.0

    return {
        "litmus.calls": (tr.calls["litmus"], "count"),
        "litmus.self_s": (layer_self["litmus"], "s"),
        "program.calls": (tr.calls["program"], "count"),
        "program.self_s": (layer_self["program"], "s"),
        "memory.calls": (tr.calls["memory"], "count"),
        "memory.self_s": (layer_self["memory"], "s"),
        "memory.empty_frac": (per(c["memory.empty"], tr.calls["memory"]),
                              "ratio"),
        "objects.calls": (tr.calls["objects"], "count"),
        "objects.self_s": (layer_self["objects"], "s"),
        "objects.succ_per_call": (per(c["objects.succ"], tr.calls["objects"]),
                                  "ratio"),
        "state.key_calls": (tr.calls["state.key"], "count"),
        "state.key_self_s": (tr.self_s["state.key"], "s"),
        "state.key_calls_per_state": (per(tr.calls["state.key"], states),
                                      "ratio"),
        "state.fresh_calls": (tr.calls["state.fresh"], "count"),
        "state.fresh_self_s": (tr.self_s["state.fresh"], "s"),
        "explore.self_s": (layer_self["explore"], "s"),
        "explore.states": (states, "count"),
        "explore.transitions": (trans, "count"),
        "explore.dedup_hits": (trans - new, "count"),
        "explore.new_frac": (per(new, trans), "ratio"),
        "explore.states_per_s": (per(states, wall_plain), "1/s"),
        "explore.succ_calls": (tr.calls["explore.succ"], "count"),
        "explore.succ_calls_per_state": (per(tr.calls["explore.succ"], states),
                                         "ratio"),
        "assertions.calls": (tr.calls["assertions"], "count"),
        "assertions.self_s": (layer_self["assertions"], "s"),
        "assertions.evals_per_state": (per(tr.calls["assertions"], states),
                                       "ratio"),
        "refine.self_s": (layer_self["refine"], "s"),
        "refine.pairs": (c["refine.pairs"], "count"),
        "refine.relation": (c["refine.relation"], "count"),
        "refine.trace_steps": (c["refine.trace_steps"], "count"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "bench.self_s": (bench_s, "s"),
        "trace.overhead": (per(wall_traced, wall_plain), "ratio"),
    }


def accounting_error(tr: Tracer, wall_traced: float, bench_s: float) -> float:
    """Share of the traced pass's wall time that the layers' self times and
    the benchmark's own time do not account for (0 when exact)."""
    return abs(wall_traced - sum(tr.self_s.values()) - bench_s) / wall_traced
