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
run the command), and a memory or object rule's successors from a (thread,
action, components) key.  Exploration is a breadth-first search memoized on
configurations, bounded by a scheduler-step budget with explicit truncation
reporting.  It returns the reachable state graph, which every checker reads
instead of stepping states again.

Checks that read only terminal states, and the reachable components, explore
reduced: the `explore` command, `check_hoare` and the FIFO oracle.  At a
configuration where some thread's only move is silent and no loop lies on
its command's spine, only the first such thread steps (an ample set: Peled,
CAV 1993; Godefroid, LNCS 1032, 1996).  A reduced run keeps the terminal
states, so the outcomes and hoare verdicts, the truncation flag (as the
tests compare it with full runs), and, when it is not truncated, every
reachable (gamma, beta) pair; it does not keep every configuration or
edge.  `check_outline` and refinement read every state, and explore in
full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

from . import memory, objects, program
from .assertions import EvalCtx, eval_assertion
from .state import BOT, READ, TRUE, Action, ComponentState, wrval


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
    spec (if any), labelling and the registers the final clause reads; and
    the tables that hash-cons the system's thread states, components and
    step labels, so that equal parts are one object, and memoize their
    transitions.  The tables belong to one system: a component's key leaves
    out its layout, so components of two systems must never meet in one
    table."""

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
        # (t, action, executing, context) -> the memory rule's successors,
        # and (t, method, arguments, beta, gamma) -> the object rule's
        self.component_steps = {}
        self.labels = {}  # (component, action, rank, at_hole) -> step label
        # for reduced exploration: thread state -> whether it is silent-only
        # (`_silent_only`), and tuple of thread states -> its ample set
        # (`_ample`)
        self.silent_only = {}
        self.ample = {}

    def eval_ctx(self) -> EvalCtx:
        return EvalCtx(self.object_spec, self.n_labels)

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


@dataclass(frozen=True, slots=True)
class StepLabel:
    component: str  # 'client' | 'library'
    action: object  # Action or None for silent steps
    rank: object = None  # position on its variable, disambiguating the choice
    at_hole: bool = False
    # the label's text, which also orders a thread's successors: rendered
    # once, when the label is made
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.action is None:
            text = "eps[L]" if self.component == "library" else "eps"
        else:
            text = repr(self.action)
            if self.rank is not None:
                text += f"@{self.rank}"
        object.__setattr__(self, "text", text)

    def render(self) -> str:
        return self.text


class _Move:
    """One local step of an interned thread state, with what follows from
    the thread state alone: the component-transition key part (the action,
    or the method and its evaluated arguments), the label of a silent step,
    and the thread states it leads to, by the value bound (None when it
    binds none)."""

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

    def next_state(self, ctx, t, bound):
        """The thread state after this step, binding `bound`: the value
        read (a step with `reg`) or (return value, operation counter) for
        a call."""
        ts = self.nexts.get(bound)
        if ts is None:
            step = self.step
            ls = step.ls
            if step.kind == "call":
                ls = dict(ls)
                ls["rval"], index = bound
                if step.action.binder:  # an acquire binds the counter
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


def _may_recur(cmd) -> bool:
    """Whether a loop lies on cmd's spine: the parts that run next, down
    sequences, labels, holes and bodies, but not the branches of an
    unevaluated `if` or a loop's body.  Only a loop's unfolding makes a
    command larger, and a thread state can come back only by unfolding a
    loop on its spine; so a thread state whose command has none never
    recurs, and its run of silent moves is no longer than its command."""
    stack = [cmd]
    while stack:
        c = stack.pop()
        if isinstance(c, program.While):
            return True
        if isinstance(c, program.Seq):
            stack += (c.a, c.b)
        elif isinstance(c, (program.Labeled, program.Body)):
            stack.append(c.cmd)
        elif isinstance(c, program.Hole) and c.content is not None:
            stack.append(c.content)
        elif isinstance(c, program.Assign) and \
                isinstance(c.src, program.Hole):
            stack.append(c.src)
    return False


def _silent_only(ts: ThreadState, ctx: SystemContext) -> bool:
    """Whether ts's only local move is silent and ts never recurs
    (`_may_recur`).  A thread state whose step is an input error is not:
    the error is raised when exploration steps it.

    That ts never recurs is the cycle proviso, made static: a cycle of
    ample steps alone would bring each thread that moved on it back to its
    state, so every cycle of a reduced run holds a fully expanded
    configuration (condition C3 of Clarke, Grumberg and Peled), and no
    thread is put off for ever.  It also keeps the step bound's meaning.
    An ample step can be moved to the front of any path that takes it
    later, at no cost in length.  Every path to a configuration in which
    no thread is silent-only takes each ample step it passes, so such a
    configuration lies at the same level in a reduced and in a full run.
    Were a thread at a loop's head ample, as it comes back there, a
    reduced run could reach a configuration one loop iteration later than
    a full run, and stop at the bound where a full run does not."""
    found = ctx.silent_only.get(ts)
    if found is None:
        try:
            moves = _moves(ts, ctx)
        except program.ProgramError:
            moves = ()
        found = ctx.silent_only[ts] = (
            len(moves) == 1 and moves[0].step.kind == "eps"
            and not _may_recur(ts.cmd))
    return found


def _ample(locs: tuple, ctx: SystemContext):
    """The ample set of the thread states `locs`: the move of the first
    thread (in thread order) that is silent-only (`_silent_only`), as
    [(thread, label, thread states after)], or None when there is no such
    thread.  A silent step changes only its own thread's command and
    registers, so it commutes with every other thread's step, stays enabled
    until taken, and no component or other thread can see it."""
    ample = ctx.ample.get(locs, False)
    if ample is False:
        ample = None
        for i, ts in enumerate(locs):
            if _silent_only(ts, ctx):
                move = _moves(ts, ctx)[0]
                ample = [(ts.t, move.label,
                          locs[:i] + (move.next_state(ctx, ts.t, None),)
                          + locs[i + 1:])]
                break
        ctx.ample[locs] = ample
    return ample


def successors(cfg: Configuration, ctx: SystemContext, reduce: bool = False):
    """All (thread, label, configuration) successors, deterministically
    ordered; with `reduce`, only the ample set's when the configuration has
    one (`_ample`)."""
    locs, gamma, beta = cfg
    if reduce:
        ample = _ample(locs, ctx)
        if ample is not None:
            return [(t, label, Configuration((locs2, gamma, beta)))
                    for t, label, locs2 in ample]
    out = []
    for i, ts in enumerate(locs):
        t = ts.t
        found = []  # (label, thread state, gamma, beta)
        for move in _moves(ts, ctx):
            step = move.step
            if step.kind == "eps":
                found.append((move.label, move.next_state(ctx, t, None),
                              gamma, beta))
            elif step.kind == "act":
                for g2, b2, v, label in _mem_steps(ctx, t, move.key,
                                                   step.lib, gamma, beta):
                    bound = v if step.reg is not None else None
                    found.append((label, move.next_state(ctx, t, bound),
                                  g2, b2))
            else:
                binds = bool(step.action.binder)
                for g2, b2, rv, label in _object_steps(ctx, t, move.key,
                                                       gamma, beta):
                    bound = (rv, label.action.index if binds else None)
                    found.append((label, move.next_state(ctx, t, bound),
                                  g2, b2))
        if len(found) > 1:
            found.sort(key=_label_text)
        head, tail = locs[:i], locs[i + 1:]
        for label, ts2, g2, b2 in found:
            out.append((t, label, Configuration((head + (ts2,) + tail, g2,
                                                 b2))))
    return out


def _mem_steps(ctx, t, a, lib, gamma, beta):
    """The memory rule's successors of thread t's action `a` from the
    components, as (gamma', beta', value read or written, label), each
    component interned.  An action's variable fixes its side, so `lib`
    follows from the key."""
    own, other = (beta, gamma) if lib else (gamma, beta)
    key = (t, a, own, other)
    found = ctx.component_steps.get(key)
    if found is None:
        found = ctx.component_steps[key] = []
        comp = "library" if lib else "client"
        for own2, other2, op in _mem_dispatch(own, other, t, a):
            if a.kind == READ:  # op is the write read from
                v = wrval(op.action)
                done = Action(READ, a.var, v, sync=a.sync)
            else:  # op is the inserted write or update
                v, done = op.action.aux, op.action
            own2, other2 = ctx.component(own2), ctx.component(other2)
            g2, b2 = (other2, own2) if lib else (own2, other2)
            found.append((g2, b2, v, ctx.label(comp, done, op.ts)))
    return found


def _mem_dispatch(executing, context, t, a):
    if a.kind == "read":
        return memory.mem_read(executing, context, t, a)
    if a.kind == "write":
        return memory.mem_write(executing, context, t, a)
    if a.kind == "update":
        return memory.mem_update(executing, context, t, a)
    raise program.ProgramError(f"not a memory action: {a!r}")


def _object_steps(ctx, t, key, gamma, beta):
    """The object rule's successors of thread t's call from the components,
    as (gamma', beta', return value, label), each component interned.
    `key` is the method and its evaluated arguments; `build_system` has
    checked the call's object, method and number of arguments."""
    memo_key = (t, *key, beta, gamma)
    found = ctx.component_steps.get(memo_key)
    if found is not None:
        return found
    meth, args = key
    obj = ctx.object_spec.name
    # (beta', gamma', new operation, the call's return value) per step
    if meth == "acquire":
        steps = [s + (TRUE,)
                 for s in objects.lock_acquire(beta, gamma, t, obj)]
    elif meth == "release":
        steps = [s + (BOT,) for s in objects.lock_release(beta, gamma, t, obj)]
    elif meth == "enq":
        steps = [s + (BOT,)
                 for s in objects.queue_enq(beta, gamma, t, obj, *args)]
    else:  # deq
        steps = objects.queue_deq(beta, gamma, t, obj)
    found = ctx.component_steps[memo_key] = [
        (ctx.component(g2), ctx.component(b2), rv,
         ctx.label("library", op.action, op.ts))
        for b2, g2, op, rv in steps]
    return found


@dataclass
class ExploreResult:
    states_explored: int
    outcomes: list  # sorted list of dicts register -> value
    truncated: bool
    configs: dict  # key (the configuration itself) -> Configuration
    # key -> ((thread, StepLabel, successor), ...) in successors() order, for
    # every explored state: () when terminal, and the computed successors of
    # states stopped at the step bound too.  A successor that was explored is
    # the stored configuration itself.
    edges: dict
    terminal_keys: list
    initial_key: object

    def witness_path(self, key):
        """The steps from the initial state to the reachable `key` along the
        path that exploration discovered it by: a breadth-first search over
        `edges` in stored order retraces exploration's own first-discovery
        order, so this is a shortest path."""
        parent = {self.initial_key: None}
        queue = deque([self.initial_key])
        while key not in parent:
            k = queue.popleft()
            for t, label, nxt in self.edges[k]:
                if nxt not in parent:
                    parent[nxt] = (k, t, label)
                    queue.append(nxt)
        path = []
        while parent[key] is not None:
            key, t, label = parent[key]
            path.append({"thread": t, "label": label.render()})
        path.reverse()
        return path


def explore(cfg0: Configuration, ctx: SystemContext, max_steps: int = 64,
            reduce: bool = False) -> ExploreResult:
    """Bounded exhaustive exploration memoized on configurations.

    With `reduce`, a configuration that has an ample set (`_ample`) takes
    only its step.  The reduced run reaches the same terminal states, so it
    gives the same outcomes, and, when it is not truncated, the same
    (gamma, beta) pairs; it does not keep every configuration or edge.  So
    only checks that read no more than that reduce: the `explore` command,
    `check_hoare` and the FIFO oracle.  `check_outline` and refinement read
    every state, and explore in full."""
    if max_steps <= 0:
        raise ValueError("max_steps must be positive")
    k0 = canonical_key(cfg0)
    visited = {k0: cfg0}
    edges = {}
    frontier = [cfg0]
    level = 0  # of every configuration in the frontier
    truncated = False
    terminal_keys = []
    outcomes = set()
    while frontier:
        nxt_frontier = []
        expand = level < max_steps
        for cfg in frontier:
            succs = successors(cfg, ctx, reduce)
            if not succs:
                edges[cfg] = ()
                terminal_keys.append(cfg)
                outcomes.add(_outcome_of(cfg, ctx))
                continue
            truncated |= not expand
            out = []
            for t, label, nxt in succs:
                nk = canonical_key(nxt)
                known = visited.get(nk)
                if known is None:
                    known = nxt
                    if expand:
                        visited[nk] = nxt
                        nxt_frontier.append(nxt)
                out.append((t, label, known))
            edges[cfg] = tuple(out)
        frontier = nxt_frontier
        level += 1
    out_list = sorted(
        ({r: v for r, v in oc} for oc in outcomes),
        key=lambda d: sorted((k, repr(v)) for k, v in d.items()))
    return ExploreResult(len(visited), out_list, truncated, visited, edges,
                         terminal_keys, k0)


def _outcome_of(cfg: Configuration, ctx: SystemContext):
    merged = {}
    for ts in cfg.locs:
        merged.update(ts.ls)
    regs = ctx.observed or tuple(sorted(r for r in merged if r != "rval"))
    return tuple((r, merged.get(r)) for r in sorted(regs))


# --- Hoare triples and proof outlines ----------------------------------------

@dataclass
class CheckReport:
    verdict: str  # 'valid' | 'invalid' | 'unknown-beyond-bound'
    witness: list = None
    states_explored: int = 0
    truncated: bool = False
    detail: str = ""


def check_hoare(cfg0, ctx, pre, post, max_steps: int = 64,
                explored: ExploreResult = None) -> CheckReport:
    """Partial-correctness check of {pre} program {post}.  `explored`, if
    given, is the exploration of cfg0 under the same bound, reused."""
    ectx = ctx.eval_ctx()
    if pre is not None and not eval_assertion(pre, cfg0, ectx):
        return CheckReport("valid", detail="precondition unsatisfied")
    res = explore(cfg0, ctx, max_steps, reduce=True) if explored is None \
        else explored
    if post is not None:
        for k in res.terminal_keys:
            cfg = res.configs[k]
            if not eval_assertion(post, cfg, ectx):
                return CheckReport("invalid", res.witness_path(k),
                                   res.states_explored, res.truncated,
                                   "postcondition fails at a terminal state")
    if res.truncated:
        return CheckReport("unknown-beyond-bound", None, res.states_explored,
                           True, "paths beyond the step bound not examined")
    return CheckReport("valid", None, res.states_explored, False)


@dataclass
class OutlineReport:
    verdicts: dict  # name -> CheckReport
    states_explored: int = 0
    truncated: bool = False

    @property
    def valid(self) -> bool:
        return all(r.verdict == "valid" for r in self.verdicts.values())


def check_outline(cfg0, ctx, outline, max_steps: int = 64) -> OutlineReport:
    """Reachability check of every annotation plus interference freedom
    over reachable states."""
    ectx = ctx.eval_ctx()
    res = explore(cfg0, ctx, max_steps)
    verdicts = {}

    def name_of(t, label):
        return f"T{t}@{label}"

    def fail(name, key, detail):
        if name not in verdicts or verdicts[name].verdict == "valid":
            verdicts[name] = CheckReport("invalid", res.witness_path(key),
                                         res.states_explored, res.truncated,
                                         detail)

    if outline.invariant is not None:
        verdicts["Inv"] = CheckReport("valid")
    for t, anns in outline.annotations.items():
        for label in anns:
            verdicts[name_of(t, label)] = CheckReport("valid")
    if outline.final is not None:
        verdicts["final"] = CheckReport("valid")

    for key, cfg in res.configs.items():
        if outline.invariant is not None and not eval_assertion(
                outline.invariant, cfg, ectx):
            fail("Inv", key, "invariant fails at a reachable state")
        for t, anns in outline.annotations.items():
            pc = program.pc_of(cfg.thread(t).cmd, ctx.n_labels[t])
            ann = anns.get(pc)
            if ann is not None and not eval_assertion(ann, cfg, ectx):
                fail(name_of(t, pc), key, "annotation fails while active")
    if outline.final is not None:
        for key in res.terminal_keys:
            if not eval_assertion(outline.final, res.configs[key], ectx):
                fail("final", key, "final assertion fails at a terminal state")

    # Interference freedom restricted to reachable states: a step of one
    # thread must preserve the annotation currently active in every other.
    # Only steps to states beyond the step bound can fail it anew.  After a
    # step of thread t2, every other thread t has the command, and so the
    # pc and the annotation, it had before; if the successor was explored,
    # the loop above has evaluated that annotation there and recorded its
    # failure under the same name.  So only edges that leave `res.configs`
    # are checked, and there are none when the run is not truncated.
    for key, cfg in res.configs.items():
        beyond = [edge for edge in res.edges[key]
                  if edge[2] not in res.configs]
        if not beyond:
            continue
        pcs = {ts.t: program.pc_of(ts.cmd, ctx.n_labels[ts.t])
               for ts in cfg.locs}
        active = {}
        for t in ctx.threads:
            ann = outline.annotations.get(t, {}).get(pcs[t])
            if ann is not None and eval_assertion(ann, cfg, ectx):
                active[t] = ann
        for t2, label, nxt in beyond:
            for t, ann in active.items():
                if t != t2 and not eval_assertion(ann, nxt, ectx):
                    fail(name_of(t, pcs[t]), key,
                         f"interference by thread {t2} step {label.render()}")

    return OutlineReport(verdicts, res.states_explored, res.truncated)
