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
from .state import FALSE, TRUE, Sym

INPUT_ERROR, INTERNAL_ERROR = 3, 4
# every verdict a command reports, and its exit code
_EXIT = {"pass": 0, "valid": 0, "simulation-found": 0, "violation": 1,
         "invalid": 1, "fail": 1, "no-simulation": 1,
         "unknown-beyond-bound": 2}


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
    "scheduler-step bound (default 64), which counts every step, silent "
    "ones included.  The run is reduced: one thread's silent steps go "
    "first, so an input error in another thread's step may lie beyond a "
    "bound that `outline` meets it within (exit 2 where `outline` exits 3)")


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
    empty by name.  Any other value that JSON cannot encode is a fault of
    the report, which `json.dumps` is told by a TypeError naming its
    type."""
    if isinstance(v, Sym):
        return {TRUE: True, FALSE: False}.get(v, v.name)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


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
    """The parsed litmus file at `path`; a file that cannot be read or is
    not UTF-8 text is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise LitmusError(str(e))
    except UnicodeDecodeError as e:
        raise LitmusError(f"{path}: not UTF-8 text: {e}")
    return parse_litmus(text)


def _cmd_explore(args) -> dict:
    system = build_system(_read(args.file))
    res = explore(system.cfg0, system.ctx, args.max_steps, reduce=True)
    verdict, witness = "pass", None
    if system.outline.final is not None:
        rep = check_hoare(system.cfg0, system.ctx, system.outline.pre,
                          system.outline.final, args.max_steps, res)
        if rep.verdict == "invalid":
            verdict, witness = "violation", rep.witness
        elif rep.verdict == "unknown-beyond-bound":
            verdict = "unknown-beyond-bound"
    elif res.truncated:
        verdict = "unknown-beyond-bound"
    return {"verdict": verdict, "states_explored": res.states_explored,
            "outcomes": res.outcomes, "witness": witness or [],
            "truncated": res.truncated}


def _cmd_outline(args) -> dict:
    system = build_system(_read(args.file))
    rep = check_outline(system.cfg0, system.ctx, system.outline,
                        args.max_steps)
    assertions = {name: r.verdict for name, r in sorted(rep.verdicts.items())}
    witness = next((r.witness for r in rep.verdicts.values()
                    if r.verdict == "invalid"), None)
    verdict = "valid" if rep.valid else "invalid"
    if rep.valid and rep.truncated:
        verdict = "unknown-beyond-bound"
    return {"verdict": verdict, "states_explored": rep.states_explored,
            "assertions": assertions, "witness": witness or [],
            "truncated": rep.truncated}


def _cmd_hoare(args) -> dict:
    system = build_system(_read(args.file))
    rep = check_hoare(system.cfg0, system.ctx, system.outline.pre,
                      system.outline.final, args.max_steps)
    return {"verdict": rep.verdict, "states_explored": rep.states_explored,
            "witness": rep.witness or [], "truncated": rep.truncated,
            "detail": rep.detail}


def _cmd_refine(args) -> dict:
    sim = check_simulation(_IMPLS[args.impl], _read(args.client),
                           args.max_steps)
    report = {"verdict": sim.verdict, "relation_size": sim.relation_size,
              "pairs_explored": sim.pairs_explored,
              "witness": sim.counterexample or [], "detail": sim.detail}
    if sim.ok:
        report["trace_check"] = check_trace_refinement(sim).verdict
    return report


def _cmd_oracle(args) -> dict:
    return fifo_check(args.enqs)


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
        # the command's function is read when called, so a wrapper in its
        # place sees the call
        report = globals()[f"_cmd_{args.command}"](args)
        code = _EXIT[report["verdict"]]
        _emit(report, args.json)
        return code
    except (LitmusError, ProgramError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as e:  # a fault of rarcheck, never a verdict
        print(f"error: internal: {type(e).__name__}: "
              f"{' '.join(str(e).split())}", file=sys.stderr)
        return INTERNAL_ERROR


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
