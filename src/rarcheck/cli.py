"""Command-line driver.

Subcommands: explore, outline, hoare, refine, oracle.  Exit codes: 0 all
checks pass, 1 violation found, 2 step bound exhausted, 3 input error,
4 internal error.  Text output spells a value as the input language does
(`true`, `false`, `bot`, `empty`), so an outcome line can be pasted into a
`final` clause; --json gives booleans as JSON's and bot and empty by name.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .explore import check_hoare, check_outline, explore
from .litmus import LitmusError, build_system, parse_litmus
from .oracle import fifo_check
from .program import ProgramError
from .refine import builtin_impls, check_simulation, check_trace_refinement
from .state import FALSE, TRUE, StateError, Sym

OK, VIOLATION, BOUND, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4


class _Argparser(argparse.ArgumentParser):
    def error(self, message):
        raise LitmusError(message)


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}")
        return n
    return parse


# `explore` and `hoare` explore reduced (`explore.explore`)
_REDUCED_BOUND_HELP = (
    "scheduler-step bound (default 64).  The run is reduced: one thread's "
    "silent steps go first, so an input error in another thread's step may "
    "lie beyond a bound that `outline` meets it within (exit 2 where "
    "`outline` exits 3)")


def _build_parser():
    p = _Argparser(prog="rarcheck", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("explore", help="enumerate terminal outcomes")
    ex.add_argument("file")
    ex.add_argument("--max-steps", type=_int_at_least(1), default=64,
                    help=_REDUCED_BOUND_HELP)
    ex.add_argument("--json", action="store_true")

    ol = sub.add_parser("outline", help="check a proof outline")
    ol.add_argument("file")
    ol.add_argument("--max-steps", type=_int_at_least(1), default=64)
    ol.add_argument("--json", action="store_true")

    ho = sub.add_parser("hoare", help="check {pre} program {final}")
    ho.add_argument("file")
    ho.add_argument("--max-steps", type=_int_at_least(1), default=64,
                    help=_REDUCED_BOUND_HELP)
    ho.add_argument("--json", action="store_true")

    rf = sub.add_parser("refine", help="check forward simulation")
    rf.add_argument("--impl", required=True, choices=sorted(_IMPLS))
    rf.add_argument("--client", required=True)
    rf.add_argument("--max-steps", type=_int_at_least(1), default=64)
    rf.add_argument("--json", action="store_true")

    orc = sub.add_parser("oracle", help="brute-force cross checks")
    orc.add_argument("what", choices=["fifo"])
    orc.add_argument("--enqs", type=_int_at_least(0), default=3)
    orc.add_argument("--json", action="store_true")
    return p


# Built once per process, at import: a parse only reads the parser and fills
# a new Namespace, so one `run_cli` call costs no more than its check.
_IMPLS = builtin_impls()
_PARSER = _build_parser()


def _jval(v):
    """A symbolic value for JSON: a boolean as JSON's true/false, bot and
    empty by name."""
    if isinstance(v, Sym):
        return {TRUE: True, FALSE: False}.get(v, v.name)
    return v


def _emit(report: dict, as_json: bool):
    """Print the report and flush it.  A reader that has left (a closed
    pipe) is no fault of the check, whose exit code still stands: the rest
    of the output is dropped, and when stdout is a real file its descriptor
    is pointed at devnull, so that the interpreter's own flush at exit does
    not fail again (the Python docs' "Note on SIGPIPE")."""
    try:
        _print_report(report, as_json)
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # not a real file
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _print_report(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report, indent=2, default=_jval))
        return
    print(f"verdict: {report['verdict']}")
    for key in ("states_explored", "truncated"):
        if key in report:
            print(f"{key}: {report[key]}")
    for oc in report.get("outcomes", []):
        # a value as the input language spells it, so an outcome line can
        # be pasted into a `final` clause
        print("outcome:", " ".join(f"{k}={v!r}" for k, v in oc.items()))
    for name, verdict in report.get("assertions", {}).items():
        print(f"{name}: {verdict}")
    if report.get("witness"):
        print("witness:")
        for step in report["witness"]:
            print(f"  thread {step['thread']}: {step['label']}")
    if report.get("detail"):
        print(report["detail"])


def _read(path: str):
    """The parsed litmus file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise LitmusError(str(e))
    return parse_litmus(text)


def _cmd_explore(args) -> int:
    system = build_system(_read(args.file))
    res = explore(system.cfg0, system.ctx, args.max_steps, reduce=True)
    verdict, code, witness = "pass", OK, None
    if system.outline.final is not None:
        rep = check_hoare(system.cfg0, system.ctx, system.outline.pre,
                          system.outline.final, args.max_steps, res)
        if rep.verdict == "invalid":
            verdict, code, witness = "violation", VIOLATION, rep.witness
        elif rep.verdict == "unknown-beyond-bound":
            verdict, code = "unknown-beyond-bound", BOUND
    elif res.truncated:
        verdict, code = "unknown-beyond-bound", BOUND
    _emit({"verdict": verdict, "states_explored": res.states_explored,
           "outcomes": res.outcomes, "witness": witness or [],
           "truncated": res.truncated}, args.json)
    return code


def _cmd_outline(args) -> int:
    system = build_system(_read(args.file))
    rep = check_outline(system.cfg0, system.ctx, system.outline,
                        args.max_steps)
    assertions = {name: r.verdict for name, r in sorted(rep.verdicts.items())}
    witness = next((r.witness for r in rep.verdicts.values()
                    if r.verdict == "invalid"), None)
    verdict = "valid" if rep.valid else "invalid"
    code = OK if rep.valid else VIOLATION
    if rep.valid and rep.truncated:
        verdict, code = "unknown-beyond-bound", BOUND
    _emit({"verdict": verdict, "states_explored": rep.states_explored,
           "assertions": assertions, "witness": witness or [],
           "truncated": rep.truncated}, args.json)
    return code


def _cmd_hoare(args) -> int:
    system = build_system(_read(args.file))
    rep = check_hoare(system.cfg0, system.ctx, system.outline.pre,
                      system.outline.final, args.max_steps)
    code = {"valid": OK, "invalid": VIOLATION,
            "unknown-beyond-bound": BOUND}[rep.verdict]
    _emit({"verdict": rep.verdict, "states_explored": rep.states_explored,
           "witness": rep.witness or [], "truncated": rep.truncated,
           "detail": rep.detail}, args.json)
    return code


def _cmd_refine(args) -> int:
    sim = check_simulation(_IMPLS[args.impl], _read(args.client),
                           args.max_steps)
    report = {"verdict": sim.verdict, "relation_size": sim.relation_size,
              "pairs_explored": sim.pairs_explored,
              "witness": sim.counterexample or [], "detail": sim.detail}
    if sim.ok:
        tr = check_trace_refinement(sim)
        report["trace_check"] = tr.verdict
        if not tr.ok:
            report["verdict"] = "trace-check-failed"
            report["witness"] = tr.counterexample or []
    _emit(report, args.json)
    if report["verdict"] == "simulation-found":
        return OK
    if report["verdict"] == "unknown-beyond-bound":
        return BOUND
    return VIOLATION


def _cmd_oracle(args) -> int:
    res = fifo_check(args.enqs)
    _emit(res, args.json)
    return OK if res["verdict"] == "pass" else VIOLATION


def run_cli(argv) -> int:
    """Run one command line and return its exit code.

    The cyclic collector is paused while the command runs and restored to
    its previous state on every exit.  A checked system holds no reference
    cycle, so reference counting frees it, and the collector would only
    rescan the growing heap of explored states."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except LitmusError as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    try:
        if args.command == "explore":
            return _cmd_explore(args)
        if args.command == "outline":
            return _cmd_outline(args)
        if args.command == "hoare":
            return _cmd_hoare(args)
        if args.command == "refine":
            return _cmd_refine(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (LitmusError, ProgramError, StateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as e:  # a fault of rarcheck, never a verdict
        print(f"error: internal: {type(e).__name__}: "
              f"{' '.join(str(e).split())}", file=sys.stderr)
        return INTERNAL_ERROR
    return INPUT_ERROR


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
