"""Observability assertions over (local-states, client, library) triples.

Three view atoms describe what a thread may or must observe of a subject:
possible observation (`pobs`), definite observation (`dobs`) and
conditional observation (`cond`, whose recorded views pin a client
variable).  A subject is a variable test `x = e`, read in the client
component, or a method instance `o.m_i`, read in the library component;
each atom has one evaluator over (component, column, action test) for
both kinds.  A lift (`@C`/`@L`) is checked when the system is built
(`litmus.build_system`) and never chooses a component.  Covered operations
and hidden values of the object (`cvd`, `cvv`), program-counter and
register predicates complete the language.
"""

from __future__ import annotations

from . import program
from .state import (ComponentState, Hashed, Record, hashed,
                    is_releasing_write, record, wrval, DEQUEUE, ENQUEUE,
                    LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE, QUEUE_INIT)

# method -> the kind of operation its instances name; `init` names either
# object's initial operation
METHODS = {"init": "init", "acquire": LOCK_ACQUIRE, "release": LOCK_RELEASE,
           "enq": ENQUEUE, "deq": DEQUEUE}
_METHOD_OF = {LOCK_INIT: "init", QUEUE_INIT: "init",
              **{kind: meth for meth, kind in METHODS.items()}}


@hashed
class MethodInstance(Hashed):
    obj: str
    kind: str
    index: object = None  # lock operation counter
    val: object = None  # enqueue/dequeue value

    def matches(self, a) -> bool:
        """Whether action a, an operation on the object's own column, is
        an instance of this method: every reader of a method instance reads
        that column alone (`_column`, `eval_covered`, `eval_hidden`)."""
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
        suffix = self.index if self.index is not None else self.val
        base = f"{self.obj}.{_METHOD_OF[self.kind]}"
        return base if suffix is None else f"{base}_{suffix}"


# --- assertion AST ----------------------------------------------------------

@hashed
class BoolA(Hashed):
    val: bool


@hashed
class NotA(Hashed):
    a: object


@hashed
class AndA(Hashed):
    items: tuple


@hashed
class OrA(Hashed):
    items: tuple


@hashed
class ImpliesA(Hashed):
    a: object
    b: object


@hashed
class ForallA(Hashed):
    name: str
    values: tuple
    body: object


@hashed
class ExistsA(Hashed):
    name: str
    values: tuple
    body: object


@hashed
class VarEq(Hashed):
    """The variable subject `x = e`: operations on x that wrote e's value."""
    var: str
    val: object  # expression


# A view atom's subject is a VarEq or a MethodInstance.  The subject picks
# the component: a variable is the client's, the object the library's.  The
# lift (`@C`/`@L`, or None) is kept for printing and for `build_system`'s
# check that it names the subject's component; it never chooses one.

@hashed
class Poss(Hashed):
    t: object
    subject: object
    comp: object = None


@hashed
class Def(Hashed):
    t: object
    subject: object
    comp: object = None


@hashed
class Cond(Hashed):
    t: object
    subject: object
    y: str
    v: object  # expression
    comp: object = None


@hashed
class CoveredA(Hashed):
    m: MethodInstance


@hashed
class HiddenA(Hashed):
    m: MethodInstance


@hashed
class PcIn(Hashed):
    t: object
    labels: frozenset


@hashed
class LocalPred(Hashed):
    expr: object


@record
class ProofOutline(Record):
    """Per-thread pc-indexed annotations plus the global parts."""

    annotations: dict  # t -> {label: Assertion}
    invariant: object = None
    final: object = None
    pre: object = None


# --- state-level primitives -------------------------------------------------
#
# The view atoms read one column x of one component sigma, and an action
# test picks the operations on x that the atom's subject names.  Every
# operation on a variable's column is a write or an update, so a variable's
# top operation is its last write.

def wrote(u):
    """The action test of a variable subject: the operation wrote u."""
    return lambda a: wrval(a) == u


def pobs(sigma: ComponentState, t, x: str, test) -> bool:
    """Thread t can observe an operation on x that passes test."""
    return any(test(op.action) for op in sigma.obs(t, x))


def dobs(sigma: ComponentState, t, x: str, test) -> bool:
    """Thread t views x's top operation, and that operation passes test."""
    top = sigma.max_op(x)
    return sigma.front(t, x) == top.ts and test(top.action)


def cond(sigma: ComponentState, t, x: str, test, releases,
         client: ComponentState, y: str, v) -> bool:
    """Every operation on x that thread t can observe and that passes test
    releases, and its recorded view pins client variable y to its last
    write in client, which wrote v."""
    return all(releases(op.action) and _pins(sigma.recorded(op), client, y, v)
               for op in sigma.obs(t, x) if test(op.action))


def _pins(view: dict, client: ComponentState, y: str, v) -> bool:
    top = client.max_op(y)
    return view[y] == top.ts and wrval(top.action) == v


def eval_covered(state: ComponentState, m: MethodInstance) -> bool:
    """Every operation on m's object but the top is covered, and the top
    is an instance of m.  A column whose first operation is not the
    object's initial one has had a prefix forgotten (a reduced run's
    queue, `explore._forget`), which holds the uncovered initial
    operation."""
    ops_o = state.ops_on(m.obj)
    if not ops_o or not ops_o[0].action.kind.endswith("_init"):
        return False
    top_ts = ops_o[-1].ts
    return all(state.covers(op) or (m.matches(op.action) and op.ts == top_ts)
               for op in ops_o)


def eval_hidden(state: ComponentState, m: MethodInstance) -> bool:
    hits = [op for op in state.ops_on(m.obj) if m.matches(op.action)]
    return bool(hits) and all(state.covers(op) for op in hits)


# --- configuration-level evaluation -----------------------------------------

def merged_locals(cfg) -> dict:
    """Every thread's registers in one map."""
    out = {}
    for ts in cfg.locs:
        out.update(ts.ls)
    return out


def _column(subject, cfg, env):
    """The component, column and action test that a view atom's subject
    names: a variable is read in the client, the object in the library."""
    if isinstance(subject, MethodInstance):
        return cfg.beta, subject.obj, subject.matches
    return cfg.gamma, subject.var, wrote(program.eval_expr(subject.val, env))


def eval_assertion(a, cfg, ctx, env=None) -> bool:
    """Assertion a at cfg, with cfg's registers or env.  `ctx` is the
    system's `explore.SystemContext`, of which this reads the library
    object's spec (None: no object) and each thread's label count.  It
    recurses as a module-level function: a recursive closure would hold
    itself, and so keep every checked system in a reference cycle."""
    env = merged_locals(cfg) if env is None else env
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
    if isinstance(a, (Poss, Def, Cond)):
        sigma, x, test = _column(a.subject, cfg, env)
        if isinstance(a, Poss):
            return pobs(sigma, a.t, x, test)
        if isinstance(a, Def):
            return dobs(sigma, a.t, x, test)
        if isinstance(a.subject, VarEq):
            releases = is_releasing_write
        elif ctx.object_spec and ctx.object_spec.is_sync(a.subject):
            # a method instance synchronises as a whole, not operation by
            # operation: `q.deq` also matches empty dequeues
            releases = lambda _: True
        else:
            return False
        return cond(sigma, a.t, x, test, releases, cfg.gamma, a.y,
                    program.eval_expr(a.v, env))
    if isinstance(a, CoveredA):
        return eval_covered(cfg.beta, a.m)
    if isinstance(a, HiddenA):
        return eval_hidden(cfg.beta, a.m)
    if isinstance(a, PcIn):
        return program.pc_of(cfg.thread(a.t).cmd,
                             ctx.n_labels.get(a.t, 0)) in a.labels
    if isinstance(a, LocalPred):
        return bool(program.eval_expr(a.expr, env))
    raise TypeError(f"not an assertion: {a!r}")
