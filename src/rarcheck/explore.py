"""Exhaustive interleaving exploration of the composed semantics.

Configurations pair per-thread programs and local states with the client and
library component states.  Component states are in normal form, so a
configuration is its own canonical key: states whose operations stand in
the same order on every variable are equal.  Exploration is a breadth-first
search memoized on configurations, bounded by a scheduler-step budget with
explicit truncation reporting.  It returns the reachable state graph, which
every checker reads instead of stepping states again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import memory, objects, program
from .assertions import EvalCtx, eval_assertion
from .state import BOT, READ, TRUE, Action, ComponentState, wrval


class Configuration:
    """Programs and local states per thread, plus the client (gamma) and
    library (beta) component states.  Equal configurations are the same
    state; the hash is computed once."""

    __slots__ = ("prog", "rho", "gamma", "beta", "_hash")

    def __init__(self, prog: dict, rho: dict, gamma: ComponentState,
                 beta: ComponentState):
        self.prog = prog  # t -> command
        self.rho = rho  # t -> locals
        self.gamma = gamma
        self.beta = beta
        self._hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((
                frozenset(self.prog.items()),
                frozenset((t, frozenset(ls.items()))
                          for t, ls in self.rho.items()),
                self.gamma, self.beta))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Configuration):
            return NotImplemented
        return (hash(self) == hash(other) and self.gamma == other.gamma
                and self.beta == other.beta and self.rho == other.rho
                and self.prog == other.prog)

    def __repr__(self):
        return (f"Configuration({self.prog!r}, {self.rho!r}, {self.gamma!r}, "
                f"{self.beta!r})")

    def key(self):
        return canonical_key(self)

    def terminated(self) -> bool:
        return all(program.is_done(p) for p in self.prog.values())


def canonical_key(cfg: Configuration) -> Configuration:
    """The key a configuration is memoized under: the configuration itself,
    whose hash this computes once."""
    hash(cfg)
    return cfg


class SystemContext:
    """Static facts about one litmus system: threads, the library object (if
    any), variable components and labelling."""

    def __init__(self, threads, client_vars, library_vars, object_spec=None,
                 n_labels=None, observed=None):
        self.threads = tuple(sorted(threads))
        self.client_vars = frozenset(client_vars)
        self.library_vars = frozenset(library_vars)
        self.object_spec = object_spec
        self.n_labels = dict(n_labels or {})
        self.observed = tuple(observed or ())
        # (command, registers) -> its local steps: a thread's local step
        # reads nothing else, so each distinct thread state of the system
        # is stepped once.  The Step lists and their register dicts are
        # shared, and nothing mutates them.
        self.thread_steps = {}

    def side_of(self, x):
        return "C" if x in self.client_vars else "L"

    def eval_ctx(self) -> EvalCtx:
        specs = {self.object_spec.name: self.object_spec} \
            if self.object_spec else {}
        return EvalCtx(self.side_of, specs, self.n_labels)


@dataclass(frozen=True, slots=True)
class StepLabel:
    component: str  # 'client' | 'library'
    action: object  # Action or None for silent steps
    rank: object = None  # position on its variable, disambiguating the choice
    at_hole: bool = False

    def render(self) -> str:
        if self.action is None:
            return "eps[L]" if self.component == "library" else "eps"
        core = repr(self.action)
        if self.rank is not None:
            core += f"@{self.rank}"
        return core


def _with_thread(cfg: Configuration, t, p, ls, gamma=None, beta=None):
    prog = dict(cfg.prog)
    prog[t] = p
    rho = dict(cfg.rho)
    rho[t] = ls
    return Configuration(prog, rho, gamma if gamma is not None else cfg.gamma,
                         beta if beta is not None else cfg.beta)


def successors(cfg: Configuration, ctx: SystemContext):
    """All (thread, label, configuration) successors, deterministically
    ordered."""
    out = []
    memo = ctx.thread_steps
    for t in ctx.threads:
        p, ls = cfg.prog.get(t), cfg.rho.get(t, {})
        key = (p, tuple(ls.items()))
        known = memo.get(key)
        if known is None:
            known = memo[key] = program.local_step(cfg.prog, cfg.rho, t)
        for step in known:
            comp = "library" if step.lib else "client"
            if step.kind == "eps":
                nxt = _with_thread(cfg, t, step.cmd, step.ls)
                out.append((t, StepLabel(comp, None, at_hole=step.at_hole),
                            nxt))
            elif step.kind == "act":
                a = step.action
                own, other = (cfg.beta, cfg.gamma) if step.lib else \
                    (cfg.gamma, cfg.beta)
                for own2, other2, op in _mem_dispatch(own, other, t, a):
                    if a.kind == READ:  # op is the write read from
                        v = wrval(op.action)
                        done = Action(READ, a.var, v, sync=a.sync)
                    else:  # op is the inserted write or update
                        v, done = op.action.aux, op.action
                    ls = step.ls
                    if step.reg is not None:
                        ls = dict(ls)
                        ls[step.reg] = v
                    g2, b2 = (other2, own2) if step.lib else (own2, other2)
                    nxt = _with_thread(cfg, t, step.cmd, ls, g2, b2)
                    out.append((t, StepLabel(comp, done, op.ts), nxt))
            elif step.kind == "call":
                out.extend(_object_steps(cfg, t, step, ctx))
    out.sort(key=lambda s: (s[0], s[1].render()))
    return out


def _mem_dispatch(executing, context, t, a):
    if a.kind == "read":
        return memory.mem_read(executing, context, t, a)
    if a.kind == "write":
        return memory.mem_write(executing, context, t, a)
    if a.kind == "update":
        return memory.mem_update(executing, context, t, a)
    raise program.ProgramError(f"not a memory action: {a!r}")


def _object_steps(cfg, t, step, ctx):
    spec = ctx.object_spec
    call = step.action
    if spec is None or call.obj != spec.name:
        raise program.ProgramError(f"no object named {call.obj!r}")
    args = [program.eval_expr(a, cfg.rho[t]) for a in call.args]
    beta, gamma, obj = cfg.beta, cfg.gamma, spec.name
    # (beta', gamma', new operation, the call's return value) per step
    if spec.kind == "lock" and call.meth == "acquire":
        found = [s + (TRUE,)
                 for s in objects.lock_acquire(beta, gamma, t, obj)]
    elif spec.kind == "lock" and call.meth == "release":
        found = [s + (BOT,) for s in objects.lock_release(beta, gamma, t, obj)]
    elif spec.kind == "queue" and call.meth == "enq":
        found = [s + (BOT,)
                 for s in objects.queue_enq(beta, gamma, t, obj, args[0])]
    elif spec.kind == "queue" and call.meth == "deq":
        found = objects.queue_deq(beta, gamma, t, obj)
    else:
        raise program.ProgramError(
            f"object {spec.name!r} has no method {call.meth!r}")

    results = []
    for b2, g2, op, rv in found:
        ls2 = dict(step.ls)
        ls2["rval"] = rv
        if call.binder:  # an acquire binds the lock's operation counter
            ls2[call.binder] = op.action.index
        nxt = _with_thread(cfg, t, step.cmd, ls2, g2, b2)
        results.append((t, StepLabel("library", op.action, op.ts), nxt))
    return results


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
    labels = {}  # interned: equal labels share one object
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
                out.append((t, labels.setdefault(label, label), known))
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
    for ls in cfg.rho.values():
        merged.update(ls)
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
            pc = program.pc_of(cfg.prog[t], ctx.n_labels[t])
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
        pcs = {t: program.pc_of(cfg.prog[t], ctx.n_labels[t])
               for t in ctx.threads}
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
