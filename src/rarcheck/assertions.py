"""Observability assertions over (local-states, client, library) triples.

Atoms describe what a thread may or must observe: possible observation,
definite observation, conditional observation (same-component and the
library-to-client form used for synchronising method calls), covered
operations and hidden values, plus program-counter and local predicates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import program
from .state import (ComponentState, StateError, is_modifying,
                    is_releasing_write, wrval, LOCK_ACQUIRE, LOCK_RELEASE)


@dataclass(frozen=True)
class MethodInstance:
    obj: str
    kind: str
    index: object = None  # lock operation counter
    val: object = None  # enqueue/dequeue value

    def matches(self, a) -> bool:
        if a.var != self.obj:
            return False
        if self.kind == "init":
            if not a.kind.endswith("_init"):
                return False
        elif a.kind != self.kind:
            return False
        if self.index is not None and a.index != self.index:
            return False
        if self.val is not None and a.val != self.val:
            return False
        return True

    def __repr__(self):
        if self.index is not None:
            return f"{self.obj}.{self.kind}_{self.index}"
        if self.val is not None:
            return f"{self.obj}.{self.kind}_{self.val}"
        return f"{self.obj}.{self.kind}"


# --- assertion AST ----------------------------------------------------------

@dataclass(frozen=True)
class BoolA:
    val: bool


@dataclass(frozen=True)
class NotA:
    a: object


@dataclass(frozen=True)
class AndA:
    items: tuple


@dataclass(frozen=True)
class OrA:
    items: tuple


@dataclass(frozen=True)
class ImpliesA:
    a: object
    b: object


@dataclass(frozen=True)
class ForallA:
    name: str
    values: tuple
    body: object


@dataclass(frozen=True)
class ExistsA:
    name: str
    values: tuple
    body: object


@dataclass(frozen=True)
class PossVar:
    t: object
    var: str
    val: object  # expression
    comp: object = None


@dataclass(frozen=True)
class PossMeth:
    t: object
    m: MethodInstance
    comp: object = None


@dataclass(frozen=True)
class DefVar:
    t: object
    var: str
    val: object
    comp: object = None


@dataclass(frozen=True)
class DefMeth:
    t: object
    m: MethodInstance
    comp: object = None


@dataclass(frozen=True)
class CondVar:
    t: object
    var: str
    val: object
    tgt: str
    tgtval: object
    comp: object = None


@dataclass(frozen=True)
class CondCross:
    t: object
    m: MethodInstance
    tgt: str
    tgtval: object


@dataclass(frozen=True)
class CoveredA:
    m: MethodInstance


@dataclass(frozen=True)
class HiddenA:
    m: MethodInstance


@dataclass(frozen=True)
class PcIn:
    t: object
    labels: frozenset


@dataclass(frozen=True)
class LocalPred:
    expr: object


@dataclass(frozen=True)
class ProofOutline:
    """Per-thread pc-indexed annotations plus the global parts."""

    annotations: dict  # t -> {label: Assertion}
    invariant: object = None
    final: object = None
    pre: object = None

    def labels(self, t):
        return sorted(self.annotations.get(t, {}))


# --- state-level primitives -------------------------------------------------

def last_write(state: ComponentState, x: str):
    for op in reversed(state.ops_on(x)):
        if is_modifying(op.action):
            return op
    return None


def dview(view: dict, state: ComponentState, x: str, n) -> bool:
    """view (variable -> position) pins x to the last write in state and that
    write wrote n."""
    lw = last_write(state, x)
    return lw is not None and view.get(x) == lw.ts and wrval(lw.action) == n


def eval_possible(state: ComponentState, t, x: str, u) -> bool:
    return any(wrval(w.action) == u for w in state.obs(t, x))


def eval_possible_meth(state: ComponentState, t, m: MethodInstance) -> bool:
    lo = state.front(t, m.obj)
    return lo is not None and any(m.matches(op.action)
                                  for op in state.ops_on(m.obj) if op.ts >= lo)


def eval_definite(state: ComponentState, t, x: str, u) -> bool:
    lw = last_write(state, x)
    return (lw is not None and state.front(t, x) == lw.ts
            and wrval(lw.action) == u)


def eval_definite_meth(state: ComponentState, t, m: MethodInstance) -> bool:
    top = state.max_op(m.obj)
    return state.front(t, m.obj) == top.ts and m.matches(top.action)


def eval_conditional(state: ComponentState, t, x: str, u, y: str, v) -> bool:
    for w in state.obs(t, x):
        if wrval(w.action) != u:
            continue
        if not is_releasing_write(w.action):
            return False
        if not dview(state.recorded(w), state, y, v):
            return False
    return True


def eval_cond_cross(lib: ComponentState, cli: ComponentState, t,
                    m: MethodInstance, y: str, v, spec) -> bool:
    if spec is None or not spec.is_sync(m):
        return False
    lo = lib.front(t, m.obj)
    if lo is None:
        return False
    return all(dview(lib.recorded(op), cli, y, v)
               for op in lib.ops_on(m.obj)
               if op.ts >= lo and m.matches(op.action))


def eval_covered(state: ComponentState, m: MethodInstance) -> bool:
    ops_o = state.ops_on(m.obj)
    if not ops_o:
        return False
    top_ts = ops_o[-1].ts
    return all(state.covers(op) or (m.matches(op.action) and op.ts == top_ts)
               for op in ops_o)


def eval_hidden(state: ComponentState, m: MethodInstance) -> bool:
    hits = [op for op in state.ops_on(m.obj) if m.matches(op.action)]
    return bool(hits) and all(state.covers(op) for op in hits)


# --- configuration-level evaluation -----------------------------------------

class EvalCtx:
    """What assertion evaluation needs besides the configuration itself."""

    def __init__(self, side_of, objects=None, n_labels=None):
        self.side_of = side_of  # var -> 'C' | 'L'
        self.objects = objects or {}
        self.n_labels = n_labels or {}

    def component(self, cfg, atom_comp, var=None, default="C"):
        if atom_comp:
            side = atom_comp
        elif var is not None:
            side = self.side_of(var)
        else:
            side = default
        return cfg.gamma if side == "C" else cfg.beta


def _merged_locals(cfg) -> dict:
    out = {}
    for ts in cfg.locs:
        out.update(ts.ls)
    return out


def _resolve(valexpr, env):
    if isinstance(valexpr, (program.Lit, program.Var, program.Un, program.Bin)):
        return program.eval_expr(valexpr, env)
    return valexpr


def eval_assertion(a, cfg, ctx: EvalCtx, env=None) -> bool:
    """Assertion a at cfg, with cfg's registers or env.  It recurses as a
    module-level function: a recursive closure would hold itself, and so
    keep every checked system in a reference cycle."""
    env = _merged_locals(cfg) if env is None else env
    if isinstance(a, BoolA):
        return a.val
    if isinstance(a, NotA):
        return not eval_assertion(a.a, cfg, ctx, env)
    if isinstance(a, AndA):
        return all(eval_assertion(x, cfg, ctx, env) for x in a.items)
    if isinstance(a, OrA):
        return any(eval_assertion(x, cfg, ctx, env) for x in a.items)
    if isinstance(a, ImpliesA):
        return (not eval_assertion(a.a, cfg, ctx, env)
                or eval_assertion(a.b, cfg, ctx, env))
    if isinstance(a, ForallA):
        return all(eval_assertion(a.body, cfg, ctx, {**env, a.name: v})
                   for v in a.values)
    if isinstance(a, ExistsA):
        return any(eval_assertion(a.body, cfg, ctx, {**env, a.name: v})
                   for v in a.values)
    if isinstance(a, PossVar):
        sigma = ctx.component(cfg, a.comp, a.var)
        return eval_possible(sigma, a.t, a.var, _resolve(a.val, env))
    if isinstance(a, PossMeth):
        sigma = ctx.component(cfg, a.comp, default="L")
        return eval_possible_meth(sigma, a.t, a.m)
    if isinstance(a, DefVar):
        sigma = ctx.component(cfg, a.comp, a.var)
        return eval_definite(sigma, a.t, a.var, _resolve(a.val, env))
    if isinstance(a, DefMeth):
        sigma = ctx.component(cfg, a.comp, default="L")
        return eval_definite_meth(sigma, a.t, a.m)
    if isinstance(a, CondVar):
        sigma = ctx.component(cfg, a.comp, a.var)
        return eval_conditional(sigma, a.t, a.var, _resolve(a.val, env),
                                a.tgt, _resolve(a.tgtval, env))
    if isinstance(a, CondCross):
        spec = ctx.objects.get(a.m.obj)
        return eval_cond_cross(cfg.beta, cfg.gamma, a.t, a.m, a.tgt,
                               _resolve(a.tgtval, env), spec)
    if isinstance(a, CoveredA):
        return eval_covered(cfg.beta, a.m)
    if isinstance(a, HiddenA):
        return eval_hidden(cfg.beta, a.m)
    if isinstance(a, PcIn):
        try:
            ts = cfg.thread(a.t)
        except KeyError:
            raise StateError(f"pc({a.t}): no thread {a.t}") from None
        return program.pc_of(ts.cmd, ctx.n_labels.get(a.t, 0)) in a.labels
    if isinstance(a, LocalPred):
        return bool(program.eval_expr(a.expr, env))
    raise TypeError(f"not an assertion: {a!r}")


# --- executable lock-step reasoning rules ------------------------------------
#
# Hoare-style laws about abstract lock steps, checked over every reachable
# configuration of a lock client and every enabled acquire/release step.
# Each rule is (rule-id, instance, applies, pre, post) instantiated over
# finite parameter ranges.

def lock_rules(lock: str, versions, client_vars, values, threads, spec):
    """Instantiate the six acquire/release rules over parameter ranges.

    Yields (rule-id, instance-description, applies, pre, post) where
    applies takes (t, action), pre takes cfg, post takes (cfg2, action).
    """
    def rel(u):
        return MethodInstance(lock, LOCK_RELEASE, index=u)

    def acq(u):
        return MethodInstance(lock, LOCK_ACQUIRE, index=u)

    # release versions are even and start at 2; acquire versions are odd
    for u in [u for u in versions if u >= 2 and u % 2 == 0]:
        yield (1, f"u={u}",
               lambda t, a: a.kind == LOCK_ACQUIRE,
               lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
               lambda cfg2, a, u=u: a.index > u + 1)
        yield (2, f"u={u}",
               lambda t, a: a.kind in (LOCK_ACQUIRE, LOCK_RELEASE),
               lambda cfg, u=u: eval_hidden(cfg.beta, rel(u)),
               lambda cfg2, a, u=u: eval_hidden(cfg2.beta, rel(u)))
        for t0 in threads:
            yield (3, f"u={u},t={t0}",
                   lambda t, a, t0=t0: a.kind == LOCK_ACQUIRE and t == t0,
                   lambda cfg, u=u, t0=t0:
                       eval_definite_meth(cfg.beta, t0, rel(u)),
                   lambda cfg2, a, u=u, t0=t0:
                       eval_definite_meth(cfg2.beta, t0, acq(u + 1)))
        for x in client_vars:
            for v in values:
                for t0 in threads:
                    yield (4, f"u={u},x={x},v={v},t={t0}",
                           lambda t, a, t0=t0:
                               a.kind in (LOCK_ACQUIRE, LOCK_RELEASE)
                               and t != t0,
                           lambda cfg, x=x, v=v, t0=t0:
                               eval_definite(cfg.gamma, t0, x, v),
                           lambda cfg2, a, x=x, v=v, t0=t0:
                               eval_definite(cfg2.gamma, t0, x, v))
                    yield (5, f"u={u},x={x},v={v},t={t0}",
                           lambda t, a, t0=t0:
                               a.kind == LOCK_ACQUIRE and t == t0,
                           lambda cfg, u=u, x=x, v=v, t0=t0:
                               eval_cond_cross(cfg.beta, cfg.gamma, t0,
                                               rel(u), x, v, spec),
                           lambda cfg2, a, u=u, x=x, v=v, t0=t0:
                               a.index != u + 1
                               or eval_definite(cfg2.gamma, t0, x, v))
                    for t1 in threads:
                        if t1 == t0:
                            continue
                        yield (6, f"u={u},x={x},v={v},t={t0},t'={t1}",
                               lambda t, a, u=u, t0=t0:
                                   a.kind == LOCK_RELEASE and t == t0
                                   and a.index == u,
                               lambda cfg, u=u, x=x, v=v, t0=t0, t1=t1:
                                   not eval_possible_meth(cfg.beta, t1, rel(u))
                                   and eval_definite(cfg.gamma, t0, x, v),
                               lambda cfg2, a, u=u, x=x, v=v, t1=t1:
                                   eval_cond_cross(cfg2.beta, cfg2.gamma, t1,
                                                   rel(u), x, v, spec))


def check_lock_rules(steps, rules):
    """steps: iterable of (cfg, t, action, cfg2) for abstract lock steps.
    Returns violations as (rule-id, instance, cfg, action)."""
    violations = []
    for rule_id, inst, applies, pre, post in rules:
        for cfg, t, action, cfg2 in steps:
            if not applies(t, action):
                continue
            if not pre(cfg):
                continue
            if not post(cfg2, action):
                violations.append((rule_id, inst, cfg, action))
    return violations
