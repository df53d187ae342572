"""Exhaustive interleaving exploration of the composed semantics.

A configuration is a tuple of interned parts: one thread state (command and
registers) per thread, the client component (gamma) and the library
component (beta).  The parts are interned in tables on the system's context,
so within one system equal parts are one object, a configuration's hash
combines the parts' stored hashes and equality is identity of parts in the
common case (as in SPIN's COLLAPSE mode).  Component states are in normal
form, so a configuration is its own canonical key: states whose operations
stand in the same order on every variable are equal.

Each part's transitions are computed once per system: a thread state's local
steps and the thread states they lead to, and a memory or object rule's
successors from a (thread, action, components) key.  Exploration is a
breadth-first search memoized on configurations, bounded by a
scheduler-step budget with explicit truncation reporting.  It returns the
reachable state graph, which every checker reads instead of stepping states
again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import memory, objects, program
from .assertions import EvalCtx, eval_assertion
from .state import BOT, READ, TRUE, Action, ComponentState, wrval


class ThreadState:
    """One thread's command and registers.  The hash is computed once, at
    construction; the register dict is shared and never mutated."""

    __slots__ = ("t", "cmd", "ls", "_hash")

    def __init__(self, t, cmd, ls: dict):
        self.t = t
        self.cmd = cmd
        self.ls = ls
        self._hash = hash((t, cmd, frozenset(ls.items())))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ThreadState):
            return NotImplemented
        return (self._hash == other._hash and self.t == other.t
                and self.cmd == other.cmd and self.ls == other.ls)

    def __repr__(self):
        return f"ThreadState({self.t!r}, {self.cmd!r}, {self.ls!r})"


class Configuration:
    """One thread state per thread, in the context's thread order, plus the
    client (gamma) and library (beta) component states.  Equal
    configurations are the same state; the hash is computed once, at
    construction."""

    __slots__ = ("locs", "gamma", "beta", "_hash")

    def __init__(self, locs: tuple, gamma: ComponentState,
                 beta: ComponentState):
        self.locs = locs
        self.gamma = gamma
        self.beta = beta
        self._hash = hash((locs, gamma, beta))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        # tuple comparison tries identity first, so interned parts compare
        # without calling their __eq__
        return self._hash == other._hash and \
            (self.locs, self.gamma, self.beta) == \
            (other.locs, other.gamma, other.beta)

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

    def key(self):
        return canonical_key(self)

    def terminated(self) -> bool:
        return all(program.is_done(ts.cmd) for ts in self.locs)


def canonical_key(cfg: Configuration) -> Configuration:
    """The key a configuration is memoized under: the configuration itself,
    whose hash is stored."""
    hash(cfg)
    return cfg


class SystemContext:
    """Static facts about one litmus system: threads, the library object (if
    any), variable components and labelling; and the tables that intern the
    system's thread states and components and memoize their transitions.
    The tables belong to one system: component equality ignores the
    layout, so components of two systems must never meet in one table."""

    def __init__(self, threads, client_vars, library_vars, object_spec=None,
                 n_labels=None, observed=None):
        self.threads = tuple(sorted(threads))
        self.client_vars = frozenset(client_vars)
        self.library_vars = frozenset(library_vars)
        self.object_spec = object_spec
        self.n_labels = dict(n_labels or {})
        self.observed = tuple(observed or ())
        # interned thread states and components: equal ones are one object.
        # A client and a library component are equal only when neither has
        # a variable, and then their layouts agree too.
        self.thread_states = {}
        self.components = {}
        # thread state -> its local steps (`_Move`s): a thread's local step
        # reads nothing else, so each distinct thread state is stepped once
        self.thread_steps = {}
        # (t, action, executing, context) -> the memory rule's successors,
        # and (t, method, arguments, beta, gamma) -> the object rule's
        self.component_steps = {}
        self.labels = {}  # interned step labels, which those steps carry

    def side_of(self, x):
        return "C" if x in self.client_vars else "L"

    def eval_ctx(self) -> EvalCtx:
        specs = {self.object_spec.name: self.object_spec} \
            if self.object_spec else {}
        return EvalCtx(self.side_of, specs, self.n_labels)

    def thread_state(self, t, cmd, ls: dict) -> ThreadState:
        ts = ThreadState(t, cmd, ls)
        return self.thread_states.setdefault(ts, ts)

    def component(self, comp: ComponentState) -> ComponentState:
        return self.components.setdefault(comp, comp)

    def label(self, label: StepLabel) -> StepLabel:
        return self.labels.setdefault(label, label)

    def configuration(self, prog: dict, rho: dict, gamma: ComponentState,
                      beta: ComponentState) -> Configuration:
        """The configuration of per-thread commands and registers and two
        components, its parts interned."""
        return Configuration(
            tuple(self.thread_state(t, prog[t], rho[t])
                  for t in self.threads),
            self.component(gamma), self.component(beta))


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
            self.label = ctx.label(StepLabel(
                "library" if step.lib else "client", None,
                at_hole=step.at_hole))
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
            for step in program.local_step({ts.t: ts.cmd}, {ts.t: ts.ls},
                                           ts.t)]
    return moves


def successors(cfg: Configuration, ctx: SystemContext):
    """All (thread, label, configuration) successors, deterministically
    ordered."""
    out = []
    locs, gamma, beta = cfg.locs, cfg.gamma, cfg.beta
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
        found.sort(key=lambda s: s[0].text)
        head, tail = locs[:i], locs[i + 1:]
        for label, ts2, g2, b2 in found:
            out.append((t, label, Configuration(head + (ts2,) + tail, g2,
                                                b2)))
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
            found.append((g2, b2, v, ctx.label(StepLabel(comp, done, op.ts))))
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
         ctx.label(StepLabel("library", op.action, op.ts)))
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


def explore(cfg0: Configuration, ctx: SystemContext,
            max_steps: int = 64) -> ExploreResult:
    """Bounded exhaustive exploration memoized on configurations."""
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
            succs = successors(cfg, ctx)
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
    res = explore(cfg0, ctx, max_steps) if explored is None else explored
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
    for key, cfg in res.configs.items():
        pcs = {ts.t: program.pc_of(ts.cmd, ctx.n_labels[ts.t])
               for ts in cfg.locs}
        active = {}
        for t in ctx.threads:
            ann = outline.annotations.get(t, {}).get(pcs[t])
            if ann is not None and eval_assertion(ann, cfg, ectx):
                active[t] = ann
        if not active:
            continue
        for t2, label, nxt in res.edges[key]:
            for t, ann in active.items():
                if t == t2:
                    continue
                if not eval_assertion(ann, nxt, ectx):
                    wkey = nxt if nxt in res.configs else key
                    fail(name_of(t, pcs[t]), wkey,
                         f"interference by thread {t2} step {label.render()}")

    return OutlineReport(verdicts, res.states_explored, res.truncated)
