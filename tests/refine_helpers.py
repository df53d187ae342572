"""Refinement checks in forms only the tests use: state refinement of
(locals, client component) pairs, a projected and destuttered execution,
and the trace check run on its own, without a simulation game before it;
and corpus clients as refine checks them."""

from rarcheck.litmus import LitmusFile, corpus_text, parse_litmus, pretty
import rarcheck.refine as rf


def unbound_client(name: str) -> str:
    """Corpus client `name` as refine checks it: without its acquires'
    version binder `rl`, which no implementation sets, and without its
    clauses, which read `rl` as a register (refine reads no clause)."""
    lf = parse_litmus(corpus_text(name).replace("l.acquire(rl)",
                                                "l.acquire()"))
    threads = tuple((t, tuple((None, cmd) for _, cmd in stmts))
                    for t, stmts in lf.threads)
    return pretty(LitmusFile(lf.name, lf.init, lf.object_decl, lf.mode,
                             threads))


def state_refines(abs_pair, conc_pair, threads) -> bool:
    """State refinement of (locals, client component) pairs."""
    (als, agamma), (cls, cgamma) = abs_pair, conc_pair
    return rf._refines((als,) + rf._client_sig(agamma, threads),
                       (cls,) + rf._client_sig(cgamma, threads))


def project_and_destutter(execution, client_regs, threads):
    """Pointwise projection with consecutive duplicates collapsed."""
    project = rf._projector(client_regs, threads)
    trace = []
    for cfg in execution:
        p = project(cfg)
        if not trace or trace[-1] != p:
            trace.append(p)
    return trace


def trace_check_alone(impl, client_lf, max_steps=64):
    """`check_trace_refinement` with what it reuses made anew: both systems
    built and explored again, and a projector of its own, as if no game had
    been played."""
    abs_sys = rf.build_system(client_lf)
    conc = rf._explore_concrete(rf.build_system(client_lf, impl), abs_sys,
                                max_steps)
    project = rf._projector(abs_sys.client_locals, abs_sys.ctx.threads)
    unplayed = rf.SimulationResult(
        "unplayed", explored=conc, projector=project,
        abstract=rf.explore(abs_sys.cfg0, abs_sys.ctx, max_steps))
    return rf.check_trace_refinement(unplayed)
