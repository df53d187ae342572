"""Contextual refinement: client traces, forward simulation, trace inclusion.

The simulation game pairs configurations of the client running the concrete
implementation with configurations of the same client over the abstract
object.  A related pair must agree on client registers and return values,
have equal client covered sets, and give every thread at most the abstract
observations.  Concrete implementation steps are matched by stuttering or by
one abstract step of the same thread; client steps are matched one-to-one by
the identical client step.  A client whose abstract acquire binds the lock's
operation counter (`l.acquire(rl)`) is rejected as input: no implementation
sets that local.

Both systems are explored once, under one step bound, and both checks read
those two explorations: the game plays over the two state graphs, and trace
inclusion determinizes the abstract one against every stutter-free concrete
client trace, matched pointwise under refinement.
"""

from __future__ import annotations

from . import program as P
from .explore import ExploreResult, explore
# unused here, but perfbench/layers.py traces rarcheck.refine.successors
from .explore import successors  # noqa: F401
from .litmus import LitmusError, build_system
from .objects import spec_of
from .state import RVAL, Record, record, write


@record
class Impl(Record):
    """A concrete implementation of an object kind over plain shared
    variables.  Its methods share their locals within a thread, named with
    a '$', as no client register can be."""

    name: str
    kind: str  # a key of objects.KINDS
    init: tuple  # ((variable, value), ...)
    methods: tuple  # ((method, verbatim body in do-until form), ...)

    def method(self, meth: str):
        """The body of `meth`, desugared, and the kind's result for it."""
        body = dict(self.methods).get(meth)
        if body is None:
            raise LitmusError(f"{self.kind} has no method {meth!r}")
        return P.desugar(body), spec_of(self.kind, self.name).method(
            meth).result

    def init_actions(self) -> tuple:
        return tuple(write(x, v) for x, v in self.init)


def _seqlock(releasing=True):
    r, loc = P.Var("$r"), P.Var("$loc")
    acquire = P.DoUntil(
        P.Seq(P.DoUntil(P.GRead("$r", "glb", acquiring=True),
                        P.Bin("=", P.Bin("%", r, P.Lit(2)), P.Lit(0))),
              P.Cas("$loc", "glb", r, P.Bin("+", r, P.Lit(1)))),
        loc)
    release = P.GWrite("glb", P.Bin("+", r, P.Lit(2)), releasing)
    name = "seqlock" if releasing else "seqlock-relaxed"
    return Impl(name, "lock", (("glb", 0),),
                (("acquire", acquire), ("release", release)))


def _ticketlock(releasing=True):
    m_t, s_n = P.Var("$m_t"), P.Var("$s_n")
    acquire = P.Seq(P.Fai("$m_t", "nt"),
                    P.DoUntil(P.GRead("$s_n", "sn", acquiring=True),
                              P.Bin("=", m_t, s_n)))
    release = P.GWrite("sn", P.Bin("+", s_n, P.Lit(1)), releasing)
    name = "ticketlock" if releasing else "ticketlock-relaxed"
    return Impl(name, "lock", (("nt", 0), ("sn", 0)),
                (("acquire", acquire), ("release", release)))


def builtin_impls() -> dict:
    """The two built-in lock implementations plus their relaxed-release
    mutants (negative tests: these must fail refinement)."""
    impls = [_seqlock(), _ticketlock(), _seqlock(False), _ticketlock(False)]
    return {i.name: i for i in impls}


# --- client-state projection and refinement ----------------------------------

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


def _projector(client_regs, threads):
    """The client-visible part of a configuration, as a function: client
    locals (`client_regs`, a system's `client_locals`: no client register
    has a '$' name, so `$rval` is not among them), then the client
    signature.  Equal projections are one object, and each configuration
    is projected once: its register part is computed once per thread
    state, and its signature once per client component content.  Both
    depend only on the client's registers and variables, so one projector
    serves the abstract and the concrete system of one client, and a
    component of one equal to a component of the other is signed once
    (each system hash-conses its own components)."""
    regs = {t: sorted(rs) for t, rs in client_regs.items()}
    parts, sigs, shared, done = {}, {}, {}, {}

    def project(cfg):
        p = done.get(cfg)
        if p is None:
            key = cfg.gamma._parts()
            sig = sigs.get(key)
            if sig is None:
                sig = sigs[key] = _client_sig(cfg.gamma, threads)
            own = []
            for ts in cfg.locs:
                part = parts.get(ts)
                if part is None:
                    part = parts[ts] = (ts.t, tuple([(r, ts.ls.get(r))
                                                     for r in regs[ts.t]]))
                own.append(part)
            p = (tuple(own),) + sig
            p = done[cfg] = shared.setdefault(p, p)
        return p
    return project


def _refines(aproj, cproj) -> bool:
    """State refinement on projections: equal client locals and covered
    sets, and every concrete observation set inside the abstract one."""
    als, _, acvd, aobs = aproj
    cls, _, ccvd, cobs = cproj
    if als != cls or acvd != ccvd:
        return False
    aobs = dict(aobs)
    return all(cset <= aobs.get(key, frozenset()) for key, cset in cobs)


def _refines_memo():
    """`_refines` remembered by identity of its arguments: a projector
    interns equal projections, and far fewer pairs of them occur than
    pairs of states."""
    memo = {}

    def refines(aproj, cproj):
        r = memo.get((id(aproj), id(cproj)))
        if r is None:
            r = memo[id(aproj), id(cproj)] = _refines(aproj, cproj)
        return r
    return refines


def _rvals(cfg):
    return tuple((ts.t, ts.ls.get(RVAL)) for ts in cfg.locs)


# --- the simulation game ------------------------------------------------------

def _reply_core(label):
    """What an abstract reply to a step must repeat: None for an
    implementation step (any implementation step of its thread answers
    it), else the client step itself."""
    if label.component == "library" or label.at_hole:
        return None
    return ((label.action, label.rank) if label.action is not None
            else ("eps",))


def _check_client(system):
    """One walk over the abstract client's threads.  An acquire may not bind
    the lock's operation counter (`l.acquire(rl)`): no implementation sets
    that local.  And the client must be synchronisation-free (a hole holds
    only its call here); a binder anywhere is reported first."""
    unsync = None
    for t, prog in system.cfg0.prog.items():
        for cmd in P.nodes(prog):
            if isinstance(cmd, P.MethodCall) and cmd.binder:
                raise LitmusError(
                    f"client thread {t} binds {cmd.binder} to the lock's "
                    f"operation counter in {cmd!r}; no lock implementation "
                    "sets it")
            if unsync is not None:
                continue
            if isinstance(cmd, P.GWrite) and cmd.releasing:
                unsync = f"client thread {t} uses a releasing write"
            elif isinstance(cmd, P.GRead) and cmd.acquiring:
                unsync = f"client thread {t} uses an acquiring read"
            elif isinstance(cmd, (P.Cas, P.Fai)):
                unsync = f"client thread {t} uses an update"
    if unsync is not None:
        raise LitmusError(unsync)


def _explore_concrete(conc_sys, abs_sys, max_steps):
    """The concrete system's exploration.  A client release by a thread not
    holding the lock (an abstract release that blocks) reads an unset
    implementation register; that failure is reported as the client's,
    found in the abstract exploration: a thread whose move is a release
    call and that has no step out of its configuration."""
    try:
        return explore(conc_sys.cfg0, conc_sys.ctx, max_steps)
    except P.ProgramError:
        ab = explore(abs_sys.cfg0, abs_sys.ctx, max_steps)
        for n, steps in enumerate(ab.edges):
            stepping = {t for t, _, _ in steps}
            for ts in ab.states[n].locs:
                for move in abs_sys.ctx.thread_steps[ts]:
                    call = move.step.action
                    if move.step.kind == "call" and call.meth == "release" \
                            and ts.t not in stepping:
                        raise LitmusError(
                            f"thread {ts.t}: {call!r} can run while thread "
                            f"{ts.t} does not hold the lock {call.obj!r}")
        raise


@record
class SimulationResult(Record):
    verdict: str  # 'simulation-found' | 'no-simulation' | 'unknown-beyond-bound'
    relation_size: int = 0
    pairs_explored: int = 0
    counterexample: list = None
    detail: str = ""
    # the concrete and the abstract exploration the game was played over
    # (no abstract one when the concrete one is truncated) and the projector
    # it used, which check_trace_refinement reuses
    explored: ExploreResult = None
    projector: object = None
    abstract: ExploreResult = None

    @property
    def ok(self):
        return self.verdict == "simulation-found"


def check_simulation(impl: Impl, client_lf,
                     max_steps: int = 64) -> SimulationResult:
    """Play the forward-simulation game over the explored concrete and
    abstract state graphs, exploring the abstract one second."""
    abs_sys = build_system(client_lf)
    conc_sys = build_system(client_lf, impl)
    _check_client(abs_sys)

    conc = _explore_concrete(conc_sys, abs_sys, max_steps)
    project = _projector(abs_sys.client_locals, abs_sys.ctx.threads)
    kept = {"explored": conc, "projector": project}
    if conc.truncated:
        return SimulationResult("unknown-beyond-bound",
                                detail="concrete exploration truncated",
                                **kept)
    ab = kept["abstract"] = explore(abs_sys.cfg0, abs_sys.ctx, max_steps)
    if ab.truncated:
        return SimulationResult("unknown-beyond-bound",
                                detail="abstract exploration truncated",
                                **kept)
    moves = _game(ab, conc, project)
    losing = _attractor(moves)
    if 0 in losing:  # the initial pair
        path = _extract_counterexample(0, moves, losing)
        return SimulationResult("no-simulation", 0, len(moves), path,
                                "a concrete step cannot be matched", **kept)

    return SimulationResult("simulation-found", len(moves) - len(losing),
                            len(moves), **kept)


def _game(ab, conc, project):
    """The pairs (abstract state, concrete state) reachable from the initial
    pair, numbered in discovery order, as `moves`: per pair number, per
    concrete step, ((thread, label), [candidate pair numbers]).  States are
    the explorations' own numbers; neither exploration is truncated, so
    each stores only explored states.  The initial pair is related: both
    systems are built from one client (`litmus.build_system`), so their
    initial states have the same client registers and client component,
    and `$rval` is bot in every thread."""
    cviews = [(_rvals(cfg), project(cfg)) for cfg in conc.states]
    aviews = [(_rvals(cfg), project(cfg)) for cfg in ab.states]
    # per abstract state: (thread, reply core) -> successors
    areplies = []
    for steps in ab.edges:
        out = {}
        for t, lab, a2 in steps:
            out.setdefault((t, _reply_core(lab)), []).append(a2)
        areplies.append(out)
    refines = _refines_memo()

    def related(a, c):
        (arv, ap), (crv, cp) = aviews[a], cviews[c]
        return arv == crv and refines(ap, cp)

    # forward reachability over candidate pairs, from the initial pair: each
    # exploration numbers its initial state 0
    order = [(0, 0)]
    seen = {(0, 0): 0}
    moves = []
    for a, c in order:  # grows while it is walked
        step_moves = []
        for t, lab, c2 in conc.edges[c]:
            core = _reply_core(lab)
            # an implementation step may also be answered by stuttering
            cands = [a] if core is None and related(a, c2) else []
            cands += [a2 for a2 in areplies[a].get((t, core), ())
                      if related(a2, c2)]
            nums = []
            for a2 in cands:
                p = (a2, c2)
                n = seen.get(p)
                if n is None:
                    n = seen[p] = len(order)
                    order.append(p)
                nums.append(n)
            step_moves.append(((t, lab), nums))
        moves.append(step_moves)
    return moves


def _attractor(moves):
    """The pairs from which the concrete side wins the safety game, each
    with its layer: a pair with a concrete step that has no candidate reply
    is in layer 0, and a pair in no earlier layer is in layer i + 1 when
    one of its steps has only candidates in layers up to i.  A pair's layer
    measures how long it can resist.  `moves[n]` lists pair n's concrete
    steps as (step, candidate pair numbers); a candidate may repeat.

    Linear in the size of the game: each (pair, step) slot counts its
    candidates not yet losing, and each losing pair decrements the slots it
    occurs in, once per occurrence (Henzinger, Henzinger and Kopke,
    "Computing simulations on finite and infinite graphs", FOCS 1995)."""
    waiting = []  # per slot: candidate occurrences not yet losing
    owner = []  # per slot: its pair
    occurs = [[] for _ in moves]  # per pair: the slots it is a candidate in
    losing = {}
    layer = []
    for n, step_moves in enumerate(moves):
        for _, cands in step_moves:
            for p in cands:
                occurs[p].append(len(waiting))
            waiting.append(len(cands))
            owner.append(n)
            if not cands and n not in losing:
                losing[n] = 0
                layer.append(n)
    depth = 0
    while layer:
        depth += 1
        nxt = []
        for p in layer:
            for slot in occurs[p]:
                waiting[slot] -= 1
                if not waiting[slot]:
                    n = owner[slot]
                    if n not in losing:
                        losing[n] = depth
                        nxt.append(n)
        layer = nxt
    return losing


def _extract_counterexample(pair, moves, losing):
    """Concrete steps that defeat every abstract reply, following the
    longest-resisting replies so the path ends at a genuine mismatch.
    Pairs are numbers, indexing `moves`.  A pair in attractor layer L has a
    step whose candidates all lie below L (`_attractor`; in layer 0, a step
    with none), so every pair on the path has a step to take."""
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
        (t, label), cands, rank = best
        path.append({"thread": t, "label": label.text})
        if not cands:
            break
        pair = max(cands, key=lambda p: losing[p])
    return path


# --- independent trace-inclusion cross-check ----------------------------------

@record
class TraceCheckResult(Record):
    verdict: str  # 'trace-refinement' | 'violation'
    counterexample: list = None
    traces_checked: int = 0
    detail: str = ""

    @property
    def ok(self):
        return self.verdict == "trace-refinement"


def check_trace_refinement(sim: SimulationResult) -> TraceCheckResult:
    """Determinized matching of every stutter-free concrete client trace
    against the abstract trace graph under pointwise refinement.  `sim` is
    a game `check_simulation` played, with any verdict but
    `unknown-beyond-bound`: its two explorations and its projector are
    read, and nothing is built or explored.

    A node pairs a concrete state with the abstract states that may answer
    the concrete trace to it, closed under abstract steps that leave the
    client's projection unchanged.  Every concrete step is matched alike:
    the new set is the closure of the abstract successors, by a step that
    changes the projection, that refine the concrete successor, and of the
    states of the set that refine it (the abstract side staying put); it is
    computed once per set and successor projection.  This is sound for the
    paper's refinement of stutter-free client traces: a concrete trace's
    projections p0 .. pn are refined pointwise by abstract ones q0 .. qn
    with consecutive repeats, which collapsed are the stutter-free client
    trace of an abstract execution.  It is also the game's freedom to answer
    an implementation step, whether it changes the projection or not, by
    staying put or by one abstract step (a concrete acquire's spin read can
    shrink what its thread observes, as the abstract acquire does, and its
    final update then change nothing visible), so a simulation implies
    trace inclusion, as the paper's theorem says.  `traces_checked` counts
    the concrete steps walked that change the client's projection.  The
    initial states refine each other, as in the game (`_game`)."""
    conc, ab, project = sim.explored, sim.abstract, sim.projector
    aproj = [project(c) for c in ab.states]
    cproj = [project(c) for c in conc.states]
    refines = _refines_memo()

    def closure(astates):
        out = set(astates)
        work = list(astates)
        while work:
            k = work.pop()
            for _, _, k2 in ab.edges[k]:
                if k2 not in out and aproj[k2] == aproj[k]:
                    out.add(k2)
                    work.append(k2)
        return frozenset(out)

    # (abstract set, id of an interned concrete projection) -> the set that
    # answers a step to it, empty when none does
    answers = {}

    def answer(aset, cp):
        out = answers.get((aset, id(cp)))
        if out is None:
            step = {k2 for k in aset for _, _, k2 in ab.edges[k]
                    if aproj[k2] != aproj[k] and refines(aproj[k2], cp)}
            step |= {k for k in aset if refines(aproj[k], cp)}
            out = answers[aset, id(cp)] = closure(step)
        return out

    # each exploration numbers its initial state 0
    start = (0, closure({0}))
    seen = {start}
    parents = {start: None}
    work = [start]
    visible = 0
    while work:
        node = work.pop()
        ck, aset = node
        for t, label, ck2 in conc.edges[ck]:
            if cproj[ck2] != cproj[ck]:
                visible += 1
            aset2 = answer(aset, cproj[ck2])
            if not aset2:
                path = _trace_path(parents, node)
                path.append({"thread": t, "label": label.text})
                return TraceCheckResult(
                    "violation", path, visible,
                    "concrete client trace has no abstract match")
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
        path.append({"thread": t, "label": label.text})
    path.reverse()
    return path
