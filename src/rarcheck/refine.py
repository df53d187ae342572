"""Contextual refinement: client traces, forward simulation, trace inclusion.

The simulation game pairs configurations of the client running the concrete
implementation with configurations of the same client over the abstract
object.  A related pair must agree on client registers and return values,
have equal client covered sets, and give every thread at most the abstract
observations.  Concrete implementation steps are matched by stuttering or by
one abstract step of the same thread; client steps are matched one-to-one by
the identical client step.

Trace inclusion is checked independently by determinizing the abstract trace
graph: every stutter-free concrete client trace must be matched pointwise by
some abstract trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import program as P
from .explore import ExploreResult, explore, successors
from .litmus import LitmusError, build_system
from .state import BOT


@dataclass(frozen=True)
class LockImpl:
    """A concrete lock over plain shared variables."""

    name: str
    init: tuple  # ((variable, value), ...)
    acquire_listing: object  # verbatim body, do-until form
    release_listing: object

    def method(self, meth: str):
        if meth == "acquire":
            return P.desugar(self.acquire_listing), True
        if meth == "release":
            return P.desugar(self.release_listing), BOT
        raise LitmusError(f"lock has no method {meth!r}")


def _seqlock(releasing=True):
    r, loc = P.Var("r"), P.Var("loc")
    acquire = P.DoUntil(
        P.Seq(P.DoUntil(P.GRead("r", "glb", acquiring=True),
                        P.Bin("=", P.Bin("%", r, P.Lit(2)), P.Lit(0))),
              P.Cas("loc", "glb", r, P.Bin("+", r, P.Lit(1)))),
        loc)
    release = P.GWrite("glb", P.Bin("+", r, P.Lit(2)), releasing)
    name = "seqlock" if releasing else "seqlock-relaxed"
    return LockImpl(name, (("glb", 0),), acquire, release)


def _ticketlock(releasing=True):
    m_t, s_n = P.Var("m_t"), P.Var("s_n")
    acquire = P.Seq(P.Fai("m_t", "nt"),
                    P.DoUntil(P.GRead("s_n", "sn", acquiring=True),
                              P.Bin("=", m_t, s_n)))
    release = P.GWrite("sn", P.Bin("+", s_n, P.Lit(1)), releasing)
    name = "ticketlock" if releasing else "ticketlock-relaxed"
    return LockImpl(name, (("nt", 0), ("sn", 0)), acquire, release)


def builtin_impls() -> dict:
    """The two built-in lock implementations plus their relaxed-release
    mutants (negative tests: these must fail refinement)."""
    impls = [_seqlock(), _ticketlock(), _seqlock(False), _ticketlock(False)]
    return {i.name: i for i in impls}


# --- client-state projection and refinement ----------------------------------

def _client_regs(system):
    return {t: frozenset(r for r in regs if r != "rval")
            for t, regs in system.client_locals.items()}


def _locals_part(cfg, client_regs):
    return tuple((t, tuple((r, cfg.rho[t].get(r))
                           for r in sorted(client_regs[t])))
                 for t in sorted(cfg.rho))


def _client_sig(gamma, threads):
    """What the client can observe of its component: its operations, the
    covered ones and, per (thread, variable), the observable ones.  An
    operation is named as in the state: by its action (and so its variable)
    and its position on that variable."""
    ops, cvd, obs = [], [], []
    for x in gamma.lay.own:
        ops_x = gamma.ops_on(x)
        ops += ops_x
        cvd += filter(gamma.covers, ops_x)
        for t in threads:
            obs.append(((t, x), frozenset(ops_x[gamma.front(t, x):])))
    return frozenset(ops), frozenset(cvd), tuple(sorted(obs))


def project(cfg, client_regs, threads):
    """The client-visible part of a configuration: client locals, then the
    client signature."""
    return (_locals_part(cfg, client_regs),) + _client_sig(cfg.gamma, threads)


def project_and_destutter(execution, client_regs, threads):
    """Pointwise projection with consecutive duplicates collapsed."""
    trace = []
    for cfg in execution:
        p = project(cfg, client_regs, threads)
        if not trace or trace[-1] != p:
            trace.append(p)
    return trace


def _refines(aproj, cproj) -> bool:
    """State refinement on projections: equal client locals and covered
    sets, and every concrete observation set inside the abstract one."""
    als, _, acvd, aobs = aproj
    cls, _, ccvd, cobs = cproj
    if als != cls or acvd != ccvd:
        return False
    aobs = dict(aobs)
    return all(cset <= aobs.get(key, frozenset()) for key, cset in cobs)


def state_refines(abs_pair, conc_pair, threads) -> bool:
    """State refinement of (locals, client component) pairs."""
    (als, agamma), (cls, cgamma) = abs_pair, conc_pair
    return _refines((als,) + _client_sig(agamma, threads),
                    (cls,) + _client_sig(cgamma, threads))


def _rvals(cfg):
    return tuple((t, ls.get("rval")) for t, ls in sorted(cfg.rho.items()))


# --- the simulation game ------------------------------------------------------

def _is_impl_step(label) -> bool:
    return label.component == "library" or label.at_hole


def _client_core(label):
    return (repr(label.action), label.rank) if label.action is not None \
        else ("eps",)


def check_sync_free(system):
    """Synchronisation-free clients: no release/acquire annotations and no
    read-modify-writes outside the library."""
    for t, prog in system.cfg0.prog.items():
        _walk_client(prog, t)


def _walk_client(cmd, t):
    while isinstance(cmd, P.Seq):  # the right spine by a loop
        _walk_client(cmd.a, t)
        cmd = cmd.b
    if isinstance(cmd, P.Labeled):
        _walk_client(cmd.cmd, t)
    elif isinstance(cmd, P.If):
        _walk_client(cmd.then, t)
        _walk_client(cmd.other, t)
    elif isinstance(cmd, (P.While, P.DoUntil)):
        _walk_client(cmd.body, t)
    elif isinstance(cmd, P.GWrite) and cmd.releasing:
        raise LitmusError(f"client thread {t} uses a releasing write")
    elif isinstance(cmd, P.GRead) and cmd.acquiring:
        raise LitmusError(f"client thread {t} uses an acquiring read")
    elif isinstance(cmd, (P.Cas, P.Fai)):
        raise LitmusError(f"client thread {t} uses an update")
    # holes are the library's business


@dataclass
class SimulationResult:
    verdict: str  # 'simulation-found' | 'no-simulation' | 'unknown-beyond-bound'
    relation_size: int = 0
    pairs_explored: int = 0
    counterexample: list = None
    detail: str = ""
    # the concrete exploration the game was played over, for
    # check_trace_refinement(..., explored=...)
    explored: ExploreResult = field(default=None, repr=False, compare=False)

    @property
    def ok(self):
        return self.verdict == "simulation-found"


def check_simulation(impl: LockImpl, client_lf, max_steps: int = 64,
                     require_sync_free: bool = True) -> SimulationResult:
    """Play the forward-simulation game over the explored concrete state
    graph, expanding abstract states on demand."""
    abs_sys = build_system(client_lf)
    conc_sys = build_system(client_lf, impl)
    if require_sync_free:
        check_sync_free(abs_sys)

    threads = abs_sys.ctx.threads
    client_regs = _client_regs(abs_sys)

    conc = explore(conc_sys.cfg0, conc_sys.ctx, max_steps)
    if conc.truncated:
        return SimulationResult("unknown-beyond-bound",
                                detail="concrete exploration truncated",
                                explored=conc)

    aconfigs = {abs_sys.cfg0.key(): abs_sys.cfg0}
    asuccs = {}

    def abs_successors(ak):
        if ak not in asuccs:
            lst = successors(aconfigs[ak], abs_sys.ctx)
            out = []
            for t, lab, nxt in lst:
                nk = nxt.key()
                aconfigs.setdefault(nk, nxt)
                out.append((t, lab, nk))
            asuccs[ak] = out
        return asuccs[ak]

    projections = {}
    shared = {}  # one object per distinct projection: many are equal

    def proj(cfg):
        p = projections.get(cfg)
        if p is None:
            p = (_rvals(cfg), project(cfg, client_regs, threads))
            p = projections[cfg] = shared.setdefault(p, p)
        return p

    def cond1(ak, ck):
        (arv, ap), (crv, cp) = proj(aconfigs[ak]), proj(conc.configs[ck])
        return arv == crv and _refines(ap, cp)

    init_pair = (abs_sys.cfg0.key(), conc.initial_key)
    if not cond1(*init_pair):
        return SimulationResult("no-simulation", counterexample=[],
                                detail="initial states unrelated",
                                explored=conc)

    # forward reachability over candidate pairs, numbered in discovery order
    order = [init_pair]
    seen = {init_pair: 0}
    # per pair number, per concrete step: (step-info, [candidate numbers])
    moves = []
    for ak, ck in order:  # grows while it is walked
        step_moves = []
        for t, lab, ck2 in conc.edges[ck]:
            cands = []
            if _is_impl_step(lab):
                if cond1(ak, ck2):
                    cands.append((ak, ck2))
                for t2, alab, ak2 in abs_successors(ak):
                    if t2 == t and _is_impl_step(alab) and cond1(ak2, ck2):
                        cands.append((ak2, ck2))
            else:
                core = _client_core(lab)
                for t2, alab, ak2 in abs_successors(ak):
                    if (t2 == t and not _is_impl_step(alab)
                            and _client_core(alab) == core
                            and cond1(ak2, ck2)):
                        cands.append((ak2, ck2))
            nums = []
            for p in cands:
                n = seen.get(p)
                if n is None:
                    n = seen[p] = len(order)
                    order.append(p)
                nums.append(n)
            step_moves.append(((t, lab), nums))
        moves.append(step_moves)

    # greatest fixpoint: prune pairs with an unanswerable concrete step;
    # the round a pair is pruned in measures how long it can resist
    losing = {}  # pair number -> round
    round_no = 0
    while True:
        fresh = [n for n, step_moves in enumerate(moves)
                 if n not in losing
                 and any(all(p in losing for p in cands)
                         for _, cands in step_moves)]
        if not fresh:
            break
        for n in fresh:
            losing[n] = round_no
        round_no += 1

    if 0 in losing:  # the initial pair
        path = _extract_counterexample(0, moves, losing)
        return SimulationResult("no-simulation", 0, len(order), path,
                                "a concrete step cannot be matched", conc)

    return SimulationResult("simulation-found", len(order) - len(losing),
                            len(order), explored=conc)


def _extract_counterexample(pair, moves, losing):
    """Concrete steps that defeat every abstract reply, following the
    longest-resisting replies so the path ends at a genuine mismatch.
    Pairs are numbers, indexing `moves`."""
    path = []
    while pair in losing:
        best = None
        for (t, label), cands in moves[pair]:
            if not all(p in losing for p in cands):
                continue
            rank = max((losing[p] for p in cands), default=-1)
            if rank >= losing[pair]:
                continue  # not the move that pruned this pair
            if best is None or rank > best[2]:
                best = ((t, label), cands, rank)
        if best is None:
            break
        (t, label), cands, rank = best
        path.append({"thread": t, "label": label.render()})
        if not cands:
            break
        pair = max(cands, key=lambda p: losing[p])
    return path


# --- independent trace-inclusion cross-check ----------------------------------

@dataclass
class TraceCheckResult:
    verdict: str  # 'trace-refinement' | 'violation' | 'unknown-beyond-bound'
    counterexample: list = None
    traces_checked: int = 0
    detail: str = ""

    @property
    def ok(self):
        return self.verdict == "trace-refinement"


def check_trace_refinement(impl: LockImpl, client_lf, max_steps: int = 64,
                           explored: ExploreResult = None) -> TraceCheckResult:
    """Determinized matching of every stutter-free concrete client trace
    against the abstract trace graph under pointwise refinement.
    `explored`, if given, is the exploration of the concrete system under
    the same bound (as kept in `SimulationResult.explored`), reused."""
    abs_sys = build_system(client_lf)
    threads = abs_sys.ctx.threads
    client_regs = _client_regs(abs_sys)

    conc = explored
    if conc is None:
        conc_sys = build_system(client_lf, impl)
        conc = explore(conc_sys.cfg0, conc_sys.ctx, max_steps)
    ab = explore(abs_sys.cfg0, abs_sys.ctx, max_steps)
    if conc.truncated or ab.truncated:
        return TraceCheckResult("unknown-beyond-bound",
                                detail="exploration truncated")

    shared = {}  # one object per distinct projection: many are equal

    def proj(cfg):
        p = project(cfg, client_regs, threads)
        return shared.setdefault(p, p)

    aproj = {k: proj(c) for k, c in ab.configs.items()}
    cproj = {k: proj(c) for k, c in conc.configs.items()}

    def closure(akeys):
        out = set(akeys)
        work = list(akeys)
        while work:
            k = work.pop()
            for _, _, k2 in ab.edges[k]:
                if k2 not in out and aproj[k2] == aproj[k]:
                    out.add(k2)
                    work.append(k2)
        return frozenset(out)

    ck0, ak0 = conc.initial_key, ab.initial_key
    if not _refines(aproj[ak0], cproj[ck0]):
        return TraceCheckResult("violation", [],
                                detail="initial client states unrelated")
    start = (ck0, closure({ak0}))
    seen = {start}
    parents = {start: None}
    work = [start]
    visible = 0
    while work:
        node = work.pop()
        ck, aset = node
        for t, label, ck2 in conc.edges[ck]:
            if cproj[ck2] == cproj[ck]:
                aset2 = aset
            else:
                visible += 1
                step = {k2 for k in aset for _, _, k2 in ab.edges[k]
                        if aproj[k2] != aproj[k]
                        and _refines(aproj[k2], cproj[ck2])}
                if not step:
                    path = _trace_path(parents, node)
                    path.append({"thread": t, "label": label.render()})
                    return TraceCheckResult(
                        "violation", path, visible,
                        "concrete client trace has no abstract match")
                aset2 = closure(step)
            node2 = (ck2, aset2)
            if node2 not in seen:
                seen.add(node2)
                parents[node2] = (node, t, label)
                work.append(node2)
    return TraceCheckResult("trace-refinement", None, visible)


def _trace_path(parents, node):
    path = []
    while parents.get(node) is not None:
        node, t, label = parents[node]
        path.append({"thread": t, "label": label.render()})
    path.reverse()
    return path
