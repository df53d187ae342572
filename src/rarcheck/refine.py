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

A check refutes first.  The abstract client is explored first, under the
step bound, and a release that can run while its thread does not hold the
lock is rejected as input from that exploration.  Then one breadth-first
search over (concrete state, abstract answer set) reads the concrete
system's exploration one level behind `explore.levels` (`_search`): it
matches every stutter-free concrete client trace against the abstract
state graph, pointwise under refinement, and stops at the first trace that
has no abstract match, with the concrete system explored only as deep as
that trace.  A simulation implies trace inclusion, so that trace refutes
the simulation, and it is the shortest violating trace in scheduler steps.
Only when the search finds none is the game played, over the concrete
graph `explore` returned.  The concrete graph folds each implementation-
silent run into the step that reaches it (`explore._impl_silent`): the game
answers such an edge as it answers its first step, the search matches it as
one step, and counterexamples list every step.  The search and the game
read one list of projections per system, each state projected once by its
number, and one memo decides each pair of projections once.
"""

from __future__ import annotations

import sys

from . import program as P
from .explore import ExploreResult, explore, finish_run, levels, step_path
# only so that `rarcheck.refine.successors` resolves for perfbench's tracer
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
    signature.  Equal projections are one object.  A configuration's
    register part is computed once per thread state, and its signature
    once per client component content.  Both depend only on the client's
    registers and variables, so one projector serves the abstract and the
    concrete system of one client, and a component of one equal to a
    component of the other is signed once (each system hash-conses its own
    components).  Equal register parts and equal signatures are one object
    too, so a projection is found by the identities of its parts.  The
    projector keeps no projection per configuration: a check projects each
    state once, into a list by its number (`check_simulation`)."""
    regs = {t: sorted(rs) for t, rs in client_regs.items()}
    # thread state -> its register part; component -> its signature, and
    # component content -> its signature; a register part's or a
    # signature's content -> the one object with that content; identities
    # of a projection's parts -> the projection
    parts, sig_of, sigs, interned, shared = {}, {}, {}, {}, {}

    def project(cfg):
        gamma = cfg.gamma
        sig = sig_of.get(gamma)
        if sig is None:
            key = gamma._parts()
            sig = sigs.get(key)
            if sig is None:
                sig = _client_sig(gamma, threads)
                sig = sigs[key] = interned.setdefault(sig, sig)
            sig_of[gamma] = sig
        own = []
        for ts in cfg.locs:
            part = parts.get(ts)
            if part is None:
                part = (ts.t, tuple([(r, ts.ls.get(r)) for r in regs[ts.t]]))
                part = parts[ts] = interned.setdefault(part, part)
            own.append(part)
        key = tuple(map(id, own)) + (id(sig),)
        p = shared.get(key)
        if p is None:
            p = shared[key] = (tuple(own),) + sig
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
    pairs of states.  A check makes one, which its answer sets and its
    game share."""
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


def _check_releases(ab, ctx):
    """The release rule, on the abstract client's exploration: no thread may
    reach a release call while it does not hold the lock.  Such a thread's
    move is a release call and it has no step out of its configuration."""
    for n, steps in enumerate(ab.edges):
        stepping = {t for t, _, _ in steps}
        for ts in ab.states[n].locs:
            for move in ctx.thread_steps[ts]:
                call = move.step.action
                if move.step.kind == "call" and call.meth == "release" \
                        and ts.t not in stepping:
                    raise LitmusError(
                        f"thread {ts.t}: {call!r} can run while thread "
                        f"{ts.t} does not hold the lock {call.obj!r}")


@record
class SimulationResult(Record):
    verdict: str  # 'simulation-found' | 'no-simulation' | 'unknown-beyond-bound'
    relation_size: int = 0
    pairs_explored: int = 0
    counterexample: list = None
    detail: str = ""
    # the concrete exploration the search read and the game was played
    # over (None when the search refuted or the abstract run was
    # truncated), the abstract exploration, and the search's trace check
    # (None when the answer is unknown-beyond-bound)
    explored: ExploreResult = None
    abstract: ExploreResult = None
    trace: TraceCheckResult = None

    @property
    def ok(self):
        return self.verdict == "simulation-found"


def check_simulation(impl: Impl, client_lf,
                     max_steps: int = 64) -> SimulationResult:
    """Refute by a client trace, else play the forward-simulation game.
    The abstract client is vetted first: its program (`_check_client`),
    then its exploration (`_check_releases`).  A truncated abstract run
    answers unknown at once: an abstract answer missing past the bound
    could make a violation spurious.  Then the trace search (`_search`)
    reads the concrete system's exploration level by level; an input
    error that exploration meets is raised as it is.  Its first trace with
    no abstract match answers no-simulation, with that trace as witness
    and the search nodes stored as `pairs_explored`.  With none, a
    truncated concrete run answers unknown, and otherwise the game is
    played over the concrete graph.

    Each state is projected once, into a list by its number: the abstract
    states here, the concrete ones by the search as their levels are
    numbered.  One `_refines_memo` decides each pair of projections once,
    for the answer sets and the game alike."""
    abs_sys = build_system(client_lf)
    conc_sys = build_system(client_lf, impl)
    _check_client(abs_sys)
    ab = explore(abs_sys.cfg0, abs_sys.ctx, max_steps)
    _check_releases(ab, abs_sys.ctx)
    if ab.truncated:
        return SimulationResult("unknown-beyond-bound",
                                detail="abstract exploration truncated",
                                abstract=ab)
    project = _projector(abs_sys.client_locals, abs_sys.ctx.threads)
    aproj = [project(cfg) for cfg in ab.states]
    refines = _refines_memo()
    conc, cproj, trace, nodes = _search(
        conc_sys, _answer_sets(ab, aproj, refines), project, max_steps)
    if not trace.ok:
        return SimulationResult("no-simulation", 0, nodes,
                                trace.counterexample, trace.detail,
                                abstract=ab, trace=trace)
    if conc.truncated:
        return SimulationResult("unknown-beyond-bound",
                                detail="concrete exploration truncated",
                                explored=conc, abstract=ab)
    kept = {"explored": conc, "abstract": ab, "trace": trace}
    moves = _game(ab, conc, aproj, cproj, refines)
    losing = _attractor(moves)
    if 0 in losing:  # the initial pair
        path = _extract_counterexample(0, moves, losing)
        return SimulationResult("no-simulation", 0, len(moves), path,
                                "a concrete step cannot be matched", **kept)

    return SimulationResult("simulation-found", len(moves) - len(losing),
                            len(moves), **kept)


def _game(ab, conc, aproj, cproj, refines):
    """The pairs (abstract state, concrete state) reachable from the initial
    pair, numbered in discovery order, as `moves`: per pair number, per
    concrete step, ((thread, label), [candidate pair numbers]).  States are
    the explorations' own numbers; neither exploration is truncated, so
    each stores only explored states.  `aproj` and `cproj` are the states'
    projections by number.  Two states relate when their `$rval`s are
    equal and their projections refine (`refines`, the memo the trace
    check's answer sets use), which is decided once per pair of distinct
    projections.  The initial pair is related: both systems are
    built from one client (`litmus.build_system`), so their initial states
    have the same client registers and client component, and `$rval` is
    bot in every thread.

    A concrete edge that folds an implementation-silent run (its label a
    tuple: `explore._impl_silent`) is answered as its first step is.  The
    silent steps change neither the client's projection nor `$rval`, so the
    edge's target relates to the same abstract states as its first step's
    target, and no second abstract step could answer one of them: an
    enabled lock call flips its caller's `$rval`, so it reaches no related
    state, and a hole's return is never followed by another.  These two
    facts hold of the abstract lock (`tests/test_folded_game.py` pins
    them); an object whose call can keep `$rval` breaks the first."""
    # per state number: its `$rval`s
    arvals = [_rvals(cfg) for cfg in ab.states]
    crvals = [_rvals(cfg) for cfg in conc.states]
    # per abstract state: (thread, reply core) -> successors
    areplies = []
    for steps in ab.edges:
        out = {}
        for t, lab, a2 in steps:
            out.setdefault((t, _reply_core(lab)), []).append(a2)
        areplies.append(out)

    def related(a, c):
        return arvals[a] == crvals[c] and refines(aproj[a], cproj[c])

    # forward reachability over candidate pairs, from the initial pair: each
    # exploration numbers its initial state 0
    order = [(0, 0)]
    seen = {(0, 0): 0}
    moves = []
    for a, c in order:  # grows while it is walked
        step_moves = []
        for t, lab, c2 in conc.edges[c]:
            core = _reply_core(lab[0] if type(lab) is tuple else lab)
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
        path += step_path(t, label)
        if not cands:
            break
        pair = max(cands, key=lambda p: losing[p])
    return path


# --- trace inclusion, searched breadth-first ----------------------------------

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
    """The trace check of `sim`, which `check_simulation`'s search made
    (`_search`), with any verdict but `unknown-beyond-bound`: nothing is
    built, explored or walked again.  `traces_checked` counts the concrete
    edges the search walked that change the client's projection."""
    return sim.trace


def _answer_sets(ab, aproj, refines):
    """The trace check's abstract side, over the abstract exploration `ab`
    (not truncated), its states' projections `aproj` by number and the
    check's `_refines_memo`: the set that answers the empty trace, and the
    function that gives the set answering one more concrete step, from the
    set that answered the trace before it and the step's target projection.

    A set holds the abstract states that may answer a concrete trace,
    closed under abstract steps that leave the client's projection
    unchanged.  Every concrete step is matched alike: the new set is the
    closure of the abstract successors, by a step that changes the
    projection, that refine the concrete successor, and of the states of
    the set that refine it (the abstract side staying put); it is computed
    once per set and successor projection, and is empty when nothing
    answers.  This is sound for the paper's refinement of stutter-free
    client traces: a concrete trace's projections p0 .. pn are refined
    pointwise by abstract ones q0 .. qn with consecutive repeats, which
    collapsed are the stutter-free client trace of an abstract execution.
    It is also the game's freedom to answer an implementation step, whether
    it changes the projection or not, by staying put or by one abstract
    step (a concrete acquire's spin read can shrink what its thread
    observes, as the abstract acquire does, and its final update then
    change nothing visible), so a simulation implies trace inclusion, as
    the paper's theorem says.  The initial states refine each other, as in
    the game (`_game`), and each exploration numbers its initial state 0.
    """
    def closure(astates):
        out = set(astates)
        work = list(astates)
        while work:
            k = work.pop()
            for _, _, k2 in ab.edges[k]:
                if k2 not in out and aproj[k2] is aproj[k]:
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
                    if aproj[k2] is not aproj[k] and refines(aproj[k2], cp)}
            step |= {k for k in aset if refines(aproj[k], cp)}
            out = answers[aset, id(cp)] = closure(step)
        return out

    return closure({0}), answer


def _search(system, answer_sets, project, max_steps):
    """Trace inclusion of the concrete `system` in the abstract exploration
    whose `_answer_sets` are `answer_sets`, by one breadth-first search over
    nodes (concrete state, abstract answer set) that reads `explore`'s
    graph of the concrete system while `explore.levels` grows it.  Returns
    that graph and its states' projections by number (both None on a
    violation), the `TraceCheckResult` and the number of nodes stored.

    The search walks level by level in scheduler steps, as `explore` does,
    and a folded edge lands `len(label)` levels on.  At each level it first
    lets `explore` step the level, then projects the states just numbered
    and walks its nodes, whose states have edge lists by then: the search
    reaches no state at a lower level than `explore` does.  A folded edge
    whose target was not numbered when the edge was found names the
    target's key, which `number` resolves when the edge lands.  An edge
    that the bound cut inside its run names its landing's key until
    `explore` has ended (`explore.levels`): it is matched where it lands,
    by that configuration's projection, which is its whole run's too, and
    once `explore` has ended it goes on to its landing, past the bound,
    or, when the run is not truncated, along its whole run
    (`explore.finish_run`), landing where that run lands.  The search
    walks no edge of a state at the step bound, as `explore` steps none of
    them on; a node past the bound holds a state explored below it: the
    bound counts the steps to a state, not the length of a trace, as in
    the game.

    Every concrete edge walked from a node gives the node its target
    reaches (`_answer_sets`), and the first edge to land with an empty
    answer set ends the shortest trace that no abstract trace matches.  A
    folded edge is matched as one step, when it lands: the implementation-
    silent steps after its first leave the projection as it is, so the
    traces are those of its steps one by one.  On a violation the search
    stops at once, and the concrete system is explored to the level the
    refuting edge leaves from, in full, and no deeper.  With none, the
    search has walked a node at each of `explore`'s levels, so `explore`
    has returned its graph by the time the search ends."""
    start, answer = answer_sets
    ctx = system.ctx
    graph = levels(system.cfg0, ctx, max_steps)
    conc = next(graph)
    states, edges, number = conc
    cproj = []  # number -> projection of the state
    node = (0, start)
    # node -> (node, thread, label) of the edge that first reached it
    parents = {node: None}
    # at each level: nodes to walk, and (steps still to go, target, source
    # node, thread, label) for each edge landing at it or passing it
    frontier = [node]
    level, visible = 0, 0
    bound = sys.maxsize  # the states at the bound are numbered from here
    while frontier:
        if level == max_steps - 1:
            bound = len(states)
        conc = next(graph, conc)  # the level stepped
        cproj += map(project, states[len(cproj):])
        later = []
        for item in frontier:
            if len(item) > 2:  # an edge that lands here or later
                rest, m, node, t, label = item
                if rest > 1:
                    later.append((rest - 1, m, node, t, label))
                    continue
                if (type(m) is not int and level == max_steps
                        and m not in number):
                    # a cut edge that `explore` gave its whole run
                    tail, fin = finish_run(m, t, ctx, max_steps)
                    label = (label if type(label) is tuple
                             else (label,)) + tail
                    m = number[fin]
                    if len(tail) > 1:
                        later.append((len(tail) - 1, m, node, t, label))
                        continue
                steps = ((t, label, m),)
            else:
                node = item
                if node[0] >= bound:
                    continue
                steps = edges[node[0]]
            src, aset = node
            cp = cproj[src]
            for t, label, m in steps:
                if type(label) is tuple and node is item:
                    # matched when it lands
                    later.append((len(label) - 1, m, node, t, label))
                    continue
                if type(m) is not int:  # numbered by now, or a cut landing
                    m = number.get(m, m)
                cp2 = cproj[m] if type(m) is int else project(m)
                aset2 = answer(aset, cp2)
                if not aset2:
                    return _violation(parents, node, t, label,
                                      visible + (cp2 is not cp))
                if type(m) is not int:
                    # landed again once `explore` has ended
                    later.append((1, m, node, t, label))
                    continue
                if cp2 is not cp:
                    visible += 1
                nxt = (m, aset2)
                if nxt not in parents:
                    parents[nxt] = (node, t, label)
                    later.append(nxt)
        frontier = later
        level += 1
    return (conc, cproj, TraceCheckResult("trace-refinement", None, visible),
            len(parents))


def _violation(parents, node, t, label, visible):
    """The search's answer when the edge (thread t, `label`) from `node`
    lands with an empty answer set."""
    path = _trace_path(parents, node) + step_path(t, label)
    return (None, None, TraceCheckResult(
        "violation", path, visible,
        "concrete client trace has no abstract match"), len(parents))


def _trace_path(parents, node):
    """The steps of the search's path to `node`."""
    steps = []
    while parents[node] is not None:
        node, t, label = parents[node]
        steps.append((t, label))
    return [step for t, label in reversed(steps)
            for step in step_path(t, label)]
