"""Exhaustive interleaving exploration of the composed semantics.

A configuration is a tuple of hash-consed parts: one thread state (command
and registers) per thread, the client component (gamma) and the library
component (beta).  The parts are made only through tables on the system's
context, keyed by their content, so within one system equal parts are one
object (SPIN's COLLAPSE mode taken one step further, as in Filliatre and
Conchon's hash-consing): equality of parts is identity, and a
configuration's hash and equality are tuple operations over identities.
Component states are in normal form, so a configuration is its own
canonical key: states whose operations stand in the same order on every
variable are equal.

Each part's transitions are computed once per system: a thread state's local
steps and the thread states they lead to, a command's split into context and
redex and each residual plugged into it (shared by the thread states that
run the command), and a component rule's successors from a (thread, move,
components) key.  A memory rule and an object method's rule keep one
contract (`memory`): each step gives the components after it, the
operation its label names and the value it binds, so one path steps both.
Exploration is a breadth-first search memoized on configurations, bounded
by a scheduler-step budget with explicit truncation reporting.  It numbers
each configuration when it first stores it, and returns the reachable
state graph by those numbers (`ExploreResult`): the states, their edges,
the edge that first reached each state (`via`, which a witness follows
back) and the terminal states.  Every checker reads that graph instead of
stepping states again, and refinement plays its game over the numbers.
Exploration has one loop, `levels`, which yields the graph as it grows,
one level at a time, and `explore` drains it: refinement's trace search
reads the concrete graph one level behind it and stops it at the first
refuting trace.

Every exploration folds silent runs (SPIN's statement merging, Holzmann
2003): a step takes with it the run of folding steps its thread then takes
alone, memoized per thread state (`_run`), so no configuration inside a run
is made.  A folded edge weighs the scheduler steps it takes, and levels
count scheduler steps, so the step bound, the terminal states' order and
the witnesses are those of a run of single steps.  `successors` turns its
`reduce` argument into one of two fold policies:

- Reduced, for checks that read only terminal states and the reachable
  components: the `explore` command, `check_hoare` and the FIFO oracle.  A
  step folds when it is its thread's only move, silent and not a loop's
  test (`_silent_only`).  A configuration where some thread's move is such
  a step takes only the first such thread's run (an ample set: Peled, CAV
  1993; Godefroid, LNCS 1032, 1996).  On a queue, a step that changes the
  library component also forgets the queue's dead prefix (`_forget`), the
  operations no rule can touch again, so states that differ only in that
  history are one state, reached at the lowest level of any of them; a
  witness counts the forgotten operations back into its queue positions.
  The run keeps no edges.  It keeps the terminal states, so the outcomes
  and hoare verdicts, and, when it is not truncated, every reachable
  (gamma, beta) pair up to forgotten queue prefixes.
- Full, for `check_outline` and refinement, which read every state and
  edge: no ample sets and no forgetting.  A step folds when it is
  implementation-silent (`_impl_silent`): a silent step inside a filled
  hole's body that is not a hole's return or a loop's test and leaves
  RVAL as it is.  It changes no client register, no component and no
  call's result, so it commutes with every other thread's step and
  refinement's projections cannot see it.  The run stores every other
  configuration and every edge.  A system without an implementation has
  no such step, so its full run is the search of single steps.

The bound may cut a folded edge and land it on a configuration that the
single-step search passed below the bound, by a path that a folded run
takes only inside a run.  A reduced run that stops at the bound only in
such configurations, where a thread is still silent-only, asks the
single-step search to the bound whether it stops there too
(`_single_steps_truncated`), so its truncation flag is the single-step
search's.  A full run's flag is not always: it may stop at the bound where
the single-step search ends.
"""

from __future__ import annotations

import sys
from operator import itemgetter

from . import memory, objects, program
from .assertions import eval_assertion, merged_locals
from .state import RVAL, ComponentState, Record, forget_prefix, record


class ThreadState:
    """One thread's command and registers, made only by
    `SystemContext.thread_state`: it hashes and compares by identity.  The
    register dict is shared and never mutated."""

    __slots__ = ("t", "cmd", "ls")

    def __init__(self, t, cmd, ls: dict):
        self.t = t
        self.cmd = cmd
        self.ls = ls

    def __repr__(self):
        return f"ThreadState({self.t!r}, {self.cmd!r}, {self.ls!r})"


class Configuration(tuple):
    """The tuple (locs, gamma, beta): one thread state per thread, in the
    context's thread order, plus the client (gamma) and library (beta)
    component states.  Its parts are hash-consed, so equal configurations
    are the same state, and hashing or comparing one is a tuple operation
    over the parts' identities, in C."""

    __slots__ = ()

    locs = property(itemgetter(0))
    gamma = property(itemgetter(1))
    beta = property(itemgetter(2))

    def __repr__(self):
        return (f"Configuration({self.prog!r}, {self.rho!r}, {self.gamma!r}, "
                f"{self.beta!r})")

    @property
    def prog(self) -> dict:
        """thread -> command."""
        return {ts.t: ts.cmd for ts in self.locs}

    @property
    def rho(self) -> dict:
        """thread -> registers."""
        return {ts.t: ts.ls for ts in self.locs}

    def thread(self, t) -> ThreadState:
        """Thread t's state."""
        for ts in self.locs:
            if ts.t == t:
                return ts
        raise KeyError(t)


def canonical_key(cfg: Configuration) -> Configuration:
    """The key a configuration is memoized under: the configuration
    itself."""
    return cfg


class SystemContext:
    """Static facts about one litmus system: threads, the library object's
    spec (if any) and labelling, which assertion evaluation reads too, and
    the registers the final clause reads; and the tables that hash-cons the
    system's thread states, components and step labels, so that equal parts
    are one object, and memoize their transitions.  The tables belong to
    one system: a component's key leaves out its layout, so components of
    two systems must never meet in one table."""

    def __init__(self, threads, object_spec=None, n_labels=None,
                 observed=None):
        self.threads = tuple(sorted(threads))
        self.object_spec = object_spec
        self.n_labels = dict(n_labels or {})
        self.observed = tuple(observed or ())
        # content -> the thread state or component.  A client and a library
        # component share a key only when neither has a variable, and then
        # their layouts agree too.
        self.thread_states = {}
        self.components = {}
        # thread state -> its local steps (`_Move`s): a thread's local step
        # reads nothing else, so each distinct thread state is stepped once
        self.thread_steps = {}
        # command -> its split into evaluation context and redex, and
        # (split, residual) -> the residual plugged back into the context
        # (`program.local_step`): thread states that share a command share
        # its split, and a new register map runs only the redex's rule
        self.redexes = {}
        self.plugs = {}
        # (t, move key, executing, context) -> the component rule's
        # successors (`_component_steps`)
        self.component_steps = {}
        self.labels = {}  # (component, action, rank, at_hole) -> step label
        # fold predicate -> thread state -> its whole run (`_run`); and, on
        # a queue, the queue's name and (gamma, beta) -> the pair with the
        # queue's dead prefix forgotten and its length (`_forget`)
        self.runs = {_silent_only: {}, _impl_silent: {}}
        self.queue = None
        if object_spec is not None and object_spec.kind == "queue":
            self.queue = object_spec.name
        self.forgotten = {}

    def thread_state(self, t, cmd, ls: dict) -> ThreadState:
        return self.thread_states.setdefault((t, cmd, frozenset(ls.items())),
                                             ThreadState(t, cmd, ls))

    def component(self, comp: ComponentState) -> ComponentState:
        return self.components.setdefault(comp._parts(), comp)

    def label(self, component: str, action=None, rank=None,
              at_hole=False) -> StepLabel:
        """The step label with these fields, made on first request."""
        key = (component, action, rank, at_hole)
        label = self.labels.get(key)
        if label is None:
            label = self.labels[key] = StepLabel(component, action, rank,
                                                 at_hole)
        return label

    def configuration(self, prog: dict, rho: dict, gamma: ComponentState,
                      beta: ComponentState) -> Configuration:
        """The configuration of per-thread commands and registers and two
        components, its parts interned."""
        return Configuration((
            tuple(self.thread_state(t, prog[t], rho[t])
                  for t in self.threads),
            self.component(gamma), self.component(beta)))


class StepLabel(Record):
    """A step's label: its component ('client' or 'library'), its action
    (None for a silent step), the position on its variable that
    disambiguates the choice, and whether it dissolves a hole.  Made once
    per system by `SystemContext.label`.  Its text, which also orders a
    thread's successors, is rendered once, when the label is made."""

    __slots__ = ("component", "action", "rank", "at_hole", "text")
    _fields = ("component", "action", "rank", "at_hole")

    def __init__(self, component, action, rank=None, at_hole=False):
        if action is None:
            text = "eps[L]" if component == "library" else "eps"
        else:
            text = repr(action)
            if rank is not None:
                text += f"@{rank}"
        for name, value in zip(self.__slots__,
                               (component, action, rank, at_hole, text)):
            object.__setattr__(self, name, value)


class _Move:
    """One local step of an interned thread state, with what follows from
    the thread state alone: the component-transition key part (the action,
    or the method and its evaluated arguments), the label of a silent step,
    and the thread states it leads to, by what it binds (None when it binds
    nothing)."""

    __slots__ = ("step", "key", "label", "nexts")

    def __init__(self, ctx, step, ls):
        self.step = step
        self.label = None
        if step.kind == "eps":
            self.key = None
            self.label = ctx.label("library" if step.lib else "client",
                                   at_hole=step.at_hole)
        elif step.kind == "act":
            self.key = step.action
        else:  # a call: its arguments are evaluated once
            call = step.action
            self.key = (call.meth,
                        tuple(program.eval_expr(a, ls) for a in call.args))
        self.nexts = {}

    def next_state(self, ctx, t, result=None, label=None):
        """The thread state after this step, whose component rule gave
        `result` and `label`: a step with `reg` binds the result there, and
        a call binds it to RVAL and, for an acquire with a binder, the
        operation counter of its label's action to the binder."""
        step = self.step
        if step.kind == "call":
            bound = (result,
                     label.action.index if step.action.binder else None)
        else:
            bound = None if step.reg is None else result
        ts = self.nexts.get(bound)
        if ts is None:
            ls = step.ls
            if step.kind == "call":
                ls = dict(ls)
                ls[RVAL], index = bound
                if step.action.binder:
                    ls[step.action.binder] = index
            elif step.reg is not None:
                ls = dict(ls)
                ls[step.reg] = bound
            ts = self.nexts[bound] = ctx.thread_state(t, step.cmd, ls)
        return ts


def _moves(ts: ThreadState, ctx: SystemContext):
    moves = ctx.thread_steps.get(ts)
    if moves is None:
        moves = ctx.thread_steps[ts] = [
            _Move(ctx, step, ts.ls)
            for step in program.local_step(ts.cmd, ts.ls, ctx.redexes,
                                           ctx.plugs)]
    return moves


def _label_text(succ) -> str:
    """Orders one thread's successors: by the text of their labels."""
    return succ[0].text


def _silent_only(ts: ThreadState, ctx: SystemContext) -> bool:
    """Whether ts's only local move is silent and not a loop's test.  A
    thread state whose step is an input error is not: the error is raised
    when exploration steps it.

    This is the cycle proviso, made static (condition C3 of Clarke,
    Grumberg and Peled): only a loop's test brings a thread back to a
    command it has run, so every cycle of a reduced run passes a loop test,
    which is taken only where the configuration is fully expanded, and no
    thread is put off for ever.  It also keeps the step bound's meaning.
    An ample step can be moved to the front of any path that takes it
    later, at no cost in length.  Every path to a configuration in which
    no thread is silent-only takes each ample step it passes, so such a
    configuration lies at the same level, counted in scheduler steps, in a
    reduced and in a full run.  Were a loop's test ample, as its thread
    comes back to it, a reduced run could reach a configuration one loop
    iteration later than a full run, and stop at the bound where a full run
    does not."""
    try:
        moves = _moves(ts, ctx)
    except program.ProgramError:
        return False
    return (len(moves) == 1 and moves[0].step.kind == "eps"
            and type(ctx.redexes[ts.cmd].redex) is not program.While)


def _impl_silent(ts: ThreadState, ctx: SystemContext) -> bool:
    """Whether ts is implementation-silent: its only local move is a silent
    step inside a filled hole's body that is not a hole's return, not a
    loop's test (`_silent_only`) and leaves RVAL as it is.  Such a step
    changes only the thread's command and its '$' registers: no client
    register (a hole's return writes those), no component and no call's
    result.  So it commutes with every other thread's step, and no
    projection a refinement check reads tells the states before and after
    it apart."""
    if not _silent_only(ts, ctx):
        return False
    step = ctx.thread_steps[ts][0].step
    return (step.lib and not step.at_hole
            and step.ls.get(RVAL) == ts.ls.get(RVAL))


class _Run:
    """A thread state's run under a fold predicate: the thread states its
    folding steps reach, in order, so the last one does not fold, and their
    labels."""

    __slots__ = ("states", "labels")

    def __init__(self, states: tuple, labels: tuple):
        self.states = states
        self.labels = labels


def _run(ts: ThreadState, ctx: SystemContext, silent, limit: int):
    """ts's run of steps that fold under the predicate `silent`, cut to its
    first `limit` steps, or None when that leaves no step.  A whole run is
    memoized (None when ts has no such step); a walk that the limit stops
    is not, so a run cut at the step bound makes no thread state beyond
    it."""
    runs = ctx.runs[silent]
    run = runs.get(ts, False)
    if run is False:
        states, labels = [], []
        cur = ts
        while len(states) < limit and silent(cur, ctx):
            move = _moves(cur, ctx)[0]
            cur = move.next_state(ctx, cur.t)
            states.append(cur)
            labels.append(move.label)
        run = _Run(tuple(states), tuple(labels)) if states else None
        if len(states) < limit:
            runs[ts] = run
    if run is not None and len(run.states) > limit:
        run = _Run(run.states[:limit], run.labels[:limit]) if limit else None
    return run


def _ample(cfg: Configuration, ctx: SystemContext, silent,
           budget: int = sys.maxsize) -> list:
    """The ample set of cfg, as a reduced successor list: the run of the
    first thread (in thread order) whose step folds under `silent`, cut to
    `budget` steps; [] when no thread's step folds.  A silent step changes
    only its own thread's command and registers, so it commutes with every
    other thread's step, stays enabled until taken, and no component or
    other thread can see it.  Only a configuration on the initial
    configuration's ample chain, or one that the step bound cut in a run,
    has a silent-only thread: every other one is reached by a step that
    folds its thread's run (`successors`)."""
    locs, gamma, beta = cfg
    runs = ctx.runs[silent]
    for i, ts in enumerate(locs):
        if runs.get(ts, False) is not None:
            run = _run(ts, ctx, silent, budget)
            if run is not None:
                labels = run.labels
                locs = locs[:i] + (run.states[-1],) + locs[i + 1:]
                return [(ts.t, labels if len(labels) > 1 else labels[0],
                         Configuration((locs, gamma, beta)), 0)]
    return []


def successors(cfg: Configuration, ctx: SystemContext, reduce: bool = False,
               budget: int = sys.maxsize):
    """All (thread, label, configuration) successors, deterministically
    ordered, under the reduced or the full fold policy (`reduce`, module
    docstring).  Every step takes with it the run of folding steps of the
    thread state it reaches.  An edge takes at most `budget` scheduler
    steps: a run that would take more stops there.  An edge of more than
    one step has for label the tuple of their labels.  A reduced successor
    is (thread, label, configuration, forgot), forgot being the number of
    queue operations its step forgot: the label's position on the queue
    counts them in."""
    locs, gamma, beta = cfg
    silent, ample, forget = ((_silent_only, True, ctx.queue) if reduce
                             else (_impl_silent, False, None))
    out = _ample(cfg, ctx, silent, budget) if ample else []
    if out:
        return out
    runs = ctx.runs[silent]
    for i, ts in enumerate(locs):
        t = ts.t
        found = []  # (label, thread state, gamma, beta)
        for move in _moves(ts, ctx):
            if move.step.kind == "eps":
                found.append((move.label, move.next_state(ctx, t), gamma,
                              beta))
            else:
                for g2, b2, result, label in _component_steps(
                        ctx, t, move, gamma, beta):
                    found.append((label,
                                  move.next_state(ctx, t, result, label),
                                  g2, b2))
        if len(found) > 1:
            found.sort(key=_label_text)
        head, tail = locs[:i], locs[i + 1:]
        for label, ts2, g2, b2 in found:
            forgot = 0
            if forget is not None and b2 is not beta:
                g2, b2, forgot = _forget(ctx, forget, g2, b2)
            run = runs.get(ts2, False)
            if run is not None:
                if run is False or len(run.states) >= budget:
                    run = _run(ts2, ctx, silent, budget - 1)
                if run is not None:
                    label, ts2 = (label,) + run.labels, run.states[-1]
            nxt = Configuration((head + (ts2,) + tail, g2, b2))
            out.append((t, label, nxt, forgot) if reduce else (t, label, nxt))
    return out


def _forget(ctx, q, gamma, beta):
    """(gamma', beta', n): the components after a reduced step with the
    first n operations on queue q forgotten, those that no rule can touch
    again (`objects.queue_dead_prefix`, `state.forget_prefix`), each
    component interned; memoized per (gamma, beta) pair.  A forgotten
    state's dead prefix is empty, so a step that leaves beta as it is
    forgets nothing.  Positions on q move down by n, so the forgotten and
    the full state have the same future up to that renaming, and the same
    values of every assertion atom (`assertions.eval_covered` reads the
    missing initial operation).  Client steps count too: an acquire can
    raise a thread's view of q."""
    key = (gamma, beta)
    found = ctx.forgotten.get(key)
    if found is None:
        n = objects.queue_dead_prefix(beta, q)
        if n:
            beta2, gamma2 = forget_prefix(beta, gamma, q, n)
            if gamma2 is not gamma:
                gamma2 = ctx.component(gamma2)
            found = (gamma2, ctx.component(beta2), n)
        else:
            found = (gamma, beta, 0)
        ctx.forgotten[key] = found
    return found


def _component_steps(ctx, t, move, gamma, beta):
    """The component rule's successors of thread t's `move` from the
    components, as (gamma', beta', result, label), each component interned.
    A memory action's variable fixes its side, and a call steps the library
    object; `build_system` has checked the call's object, method and number
    of arguments.  Rules are read from their module when called (mem_read,
    ..., lock_acquire, ...)."""
    lib = move.step.lib
    own, other = (beta, gamma) if lib else (gamma, beta)
    key = (t, move.key, own, other)
    found = ctx.component_steps.get(key)
    if found is None:
        if move.step.kind == "act":
            a = move.key
            steps = getattr(memory, "mem_" + a.kind)(own, other, t, a)
        else:
            steps = ctx.object_spec.steps(t, *move.key, own, other)
        comp = "library" if lib else "client"
        found = ctx.component_steps[key] = []
        for own2, other2, op, result in steps:
            own2 = ctx.component(own2)
            if other2 is not other:  # else unchanged, so interned already
                other2 = ctx.component(other2)
            found.append(((other2, own2) if lib else (own2, other2))
                         + (result, ctx.label(comp, op.action, op.ts)))
    return found


@record
class ExploreResult(Record):
    """The state graph of one exploration.  States are numbered when they
    are first stored, the initial one 0, in the order `explore` reaches
    them; in a full run, the successors of the states stopped at the step
    bound are numbered after every explored state, so `states[:
    states_explored]` are the explored ones, those with an edge list."""

    states_explored: int
    outcomes: list  # sorted list of dicts register -> value
    truncated: bool
    states: list  # number -> Configuration
    # number -> ((thread, label, successor number), ...) in successors()
    # order, for every explored state: () when terminal, and the computed
    # successors of states stopped at the step bound too.  The label is a
    # StepLabel, or the tuple of the StepLabels of the steps an edge folds
    # (an implementation-silent run, `_impl_silent`).  None for a reduced
    # run, which keeps no edges.
    edges: list
    # number -> (state number, thread, label) of the edge that first
    # reached it, None for the initial state.  A reduced edge of more than
    # one step has for label the tuple of the labels of the steps it takes,
    # and a reduced edge adds the number of queue operations it forgot.
    via: list
    terminals: list  # the terminal states' numbers, in exploration order

    def witness_path(self, n: int) -> list:
        """The steps from the initial state to state n along the edges that
        first reached each state on the way, one per scheduler step: each
        edge's `step_path`, given the number of queue operations that the
        edges before it forgot.  Exploration goes level by level in
        scheduler steps, so this is a shortest path.  It names the queue
        positions of a full run, and replays through full steps."""
        steps = []
        while self.via[n] is not None:
            n, t, label, *forgot = self.via[n]
            steps.append((t, label, sum(forgot)))
        path, offset = [], 0
        for t, label, forgot in reversed(steps):
            path += step_path(t, label, offset)
            offset += forgot
        return path


def step_path(t, label, offset: int = 0) -> list:
    """An edge of thread t as witness steps, one per scheduler step: a
    folded edge's label is the tuple of its steps' labels.  A reduced run
    that has forgotten `offset` queue operations before the edge counts
    them back into each library step's position on the queue."""
    path = []
    for lab in label if type(label) is tuple else (label,):
        if offset and lab.component == "library" and lab.rank is not None:
            lab = StepLabel(lab.component, lab.action, lab.rank + offset,
                            lab.at_hole)
        path.append({"thread": t, "label": lab.text})
    return path


def explore(cfg0: Configuration, ctx: SystemContext, max_steps: int = 64,
            reduce: bool = False) -> ExploreResult:
    """Bounded exhaustive exploration memoized on configurations, under the
    reduced or the full fold policy (`reduce`, module docstring): every
    level of `levels`, then its result."""
    for res in levels(cfg0, ctx, max_steps, reduce):
        pass
    return res


def levels(cfg0: Configuration, ctx: SystemContext, max_steps: int = 64,
           reduce: bool = False):
    """`explore`, one level at a time: yields the growing graph (states,
    edges, number) before each level, and the `ExploreResult` last.  At
    the yield before level L, every state at a level up to L is numbered,
    and every state below L has its edge list.

    Each configuration is numbered when first stored.  An edge that folds
    n steps lands n levels on, as a run of single steps would reach its
    target, and configurations at one level are stepped in the order such
    a run would step them.  A folded edge's target is numbered when the
    edge lands; in a full run, the edge names its target's key until then.
    A reduced run whose every configuration at the bound with a step has a
    silent-only thread is truncated only if the single-step search is
    (module docstring)."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    number = {canonical_key(cfg0): 0}
    states, via = [cfg0], [None]
    edges = None if reduce else []
    terminals = []
    outcomes = set()
    truncated = cut = False
    # the numbers of the configurations at `level`, in the order they are
    # stepped, and (steps still to go, target, via) for each folded edge
    # passing the level
    frontier = [0]
    level = 0
    # the states with an edge to a folded target not numbered when the edge
    # was found; `pending` when the state being stepped has one
    landing, pending = [], False
    while frontier:
        yield states, edges, number
        later = []
        budget = max_steps - level
        expand = budget > 0
        for n in frontier:
            if type(n) is tuple:
                rest, nk, step = n
                if rest > 1:
                    later.append((rest - 1, nk, step))
                elif nk not in number:  # the first edge to land here
                    number[nk] = len(states)
                    later.append(len(states))
                    states.append(nk)
                    via.append(step)
                continue
            cfg = states[n]
            succs = successors(cfg, ctx, reduce, budget if expand else 1)
            if not succs:
                terminals.append(n)
                outcomes.add(_outcome_of(cfg, ctx))
            elif not expand:
                # in a reduced run, a silent-only thread marks an edge the
                # bound cut, which may land where the single-step search
                # passed below the bound
                if reduce and not truncated and any(
                        _silent_only(ts, ctx) for ts in cfg.locs):
                    cut = True
                else:
                    truncated = True
                if reduce:
                    continue
            out = []
            for succ in succs:
                t, label, nxt = succ[0], succ[1], succ[2]
                nk = canonical_key(nxt)
                m = number.get(nk)
                if m is None:
                    # a reduced edge's via adds how many it forgot
                    step = (n, t, label) + succ[3:]
                    if type(label) is tuple:  # numbered when it lands
                        later.append((len(label) - 1, nk, step))
                        if edges is not None:  # by its key until then
                            out.append((t, label, nk))
                            pending = True
                        continue
                    m = number[nk] = len(states)
                    states.append(nk)
                    via.append(step)
                    if expand:
                        later.append(m)
                out.append((t, label, m))
            if edges is not None:
                if pending:
                    landing.append(n)
                    pending = False
                edges.append(tuple(out))
        frontier = later
        level += 1
    if cut and not truncated:
        truncated = _single_steps_truncated(cfg0, ctx, max_steps)
    for n in landing:  # every folded edge has landed
        edges[n] = tuple((t, label, m if type(m) is int else number[m])
                         for t, label, m in edges[n])
    out_list = sorted(
        ({r: v for r, v in oc} for oc in outcomes),
        key=lambda d: sorted((k, repr(v)) for k, v in d.items()))
    # a full run stores edges for exactly the explored states
    explored = len(states) if edges is None else len(edges)
    yield ExploreResult(explored, out_list, truncated, states, edges, via,
                        terminals)


def _single_steps_truncated(cfg0: Configuration, ctx: SystemContext,
                            max_steps: int) -> bool:
    """Whether the search of single steps from cfg0 stops at the bound:
    some configuration first reached at level `max_steps` has a step.  A
    full-policy step given a budget of one folds nothing.  An input error
    that this search meets, the reduced run that asks has not met within
    the bound: that run stops on the bound before it."""
    seen = {cfg0}
    frontier = [cfg0]
    try:
        for _ in range(max_steps):
            later = []
            for cfg in frontier:
                for succ in successors(cfg, ctx, False, 1):
                    nxt = succ[2]
                    if nxt not in seen:
                        seen.add(nxt)
                        later.append(nxt)
            frontier = later
        return any(successors(cfg, ctx, False, 1) for cfg in frontier)
    except program.ProgramError:
        return True


def _outcome_of(cfg: Configuration, ctx: SystemContext):
    merged = merged_locals(cfg)
    regs = ctx.observed or tuple(sorted(r for r in merged if r != RVAL))
    return tuple((r, merged.get(r)) for r in sorted(regs))


# --- Hoare triples and proof outlines ----------------------------------------

@record
class CheckReport(Record):
    verdict: str  # 'valid' | 'invalid' | 'unknown-beyond-bound'
    witness: list = None
    states_explored: int = 0
    truncated: bool = False
    detail: str = ""


def check_hoare(cfg0, ctx, pre, post, max_steps: int = 64,
                explored: ExploreResult = None) -> CheckReport:
    """Partial-correctness check of {pre} program {post}.  `explored`, if
    given, is the exploration of cfg0 under the same bound, reused."""
    if pre is not None and not eval_assertion(pre, cfg0, ctx):
        return CheckReport("valid", detail="precondition unsatisfied")
    res = explore(cfg0, ctx, max_steps, reduce=True) if explored is None \
        else explored
    if post is not None:
        for n in res.terminals:
            if not eval_assertion(post, res.states[n], ctx):
                return CheckReport("invalid", res.witness_path(n),
                                   res.states_explored, res.truncated,
                                   "postcondition fails at a terminal state")
    if res.truncated:
        return CheckReport("unknown-beyond-bound", None, res.states_explored,
                           True, "paths beyond the step bound not examined")
    return CheckReport("valid", None, res.states_explored, False)


@record
class OutlineReport(Record):
    verdicts: dict  # name -> CheckReport
    states_explored: int = 0
    truncated: bool = False

    @property
    def valid(self) -> bool:
        return all(r.verdict == "valid" for r in self.verdicts.values())


def check_outline(cfg0, ctx, outline, max_steps: int = 64) -> OutlineReport:
    """Reachability check of every annotation plus interference freedom
    over reachable states."""
    res = explore(cfg0, ctx, max_steps)
    verdicts = {}

    def name_of(t, label):
        return f"T{t}@{label}"

    def fail(name, n, detail):
        if name not in verdicts or verdicts[name].verdict == "valid":
            verdicts[name] = CheckReport("invalid", res.witness_path(n),
                                         res.states_explored, res.truncated,
                                         detail)

    if outline.invariant is not None:
        verdicts["Inv"] = CheckReport("valid")
    for t, anns in outline.annotations.items():
        for label in anns:
            verdicts[name_of(t, label)] = CheckReport("valid")
    if outline.final is not None:
        verdicts["final"] = CheckReport("valid")

    explored = res.states[:res.states_explored]
    for n, cfg in enumerate(explored):
        if outline.invariant is not None and not eval_assertion(
                outline.invariant, cfg, ctx):
            fail("Inv", n, "invariant fails at a reachable state")
        for t, anns in outline.annotations.items():
            pc = program.pc_of(cfg.thread(t).cmd, ctx.n_labels[t])
            ann = anns.get(pc)
            if ann is not None and not eval_assertion(ann, cfg, ctx):
                fail(name_of(t, pc), n, "annotation fails while active")
    if outline.final is not None:
        for n in res.terminals:
            if not eval_assertion(outline.final, res.states[n], ctx):
                fail("final", n, "final assertion fails at a terminal state")

    # Interference freedom restricted to reachable states: a step of one
    # thread must preserve the annotation currently active in every other.
    # Only steps to states beyond the step bound can fail it anew.  After a
    # step of thread t2, every other thread t has the command, and so the
    # pc and the annotation, it had before; if the successor was explored,
    # the loop above has evaluated that annotation there and recorded its
    # failure under the same name.  So only edges to states numbered past
    # the explored ones are checked, and there are none when the run is not
    # truncated.
    for n, cfg in enumerate(explored):
        beyond = [edge for edge in res.edges[n]
                  if edge[2] >= res.states_explored]
        if not beyond:
            continue
        pcs = {ts.t: program.pc_of(ts.cmd, ctx.n_labels[ts.t])
               for ts in cfg.locs}
        active = {}
        for t in ctx.threads:
            ann = outline.annotations.get(t, {}).get(pcs[t])
            if ann is not None and eval_assertion(ann, cfg, ctx):
                active[t] = ann
        for t2, label, m in beyond:
            for t, ann in active.items():
                if t != t2 and not eval_assertion(ann, res.states[m], ctx):
                    fail(name_of(t, pcs[t]), n,
                         f"interference by thread {t2} step {label.text}")

    return OutlineReport(verdicts, res.states_explored, res.truncated)
