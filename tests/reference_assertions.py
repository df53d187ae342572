"""A reference for the view atoms, independent of the subject-generic
evaluators of `rarcheck.assertions` (`pobs`, `dobs`, `cond`).

It keeps one evaluator per atom and per subject kind, as the atoms were
first written: possible, definite and conditional observation of a
variable, read in the client component; of a method instance, read in the
library component; and the library-to-client conditional observation, in
which a synchronising method instance pins a client variable.  A variable's
last write is searched for among its operations.
"""

from rarcheck.state import UPDATE, WRITE, is_releasing_write, wrval


def last_write(state, x):
    for op in reversed(state.ops_on(x)):
        if op.action.kind in (WRITE, UPDATE):
            return op
    return None


def dview(view, state, x, n):
    """view (variable -> position) pins x to the last write in state and
    that write wrote n."""
    lw = last_write(state, x)
    return lw is not None and view.get(x) == lw.ts and wrval(lw.action) == n


def eval_possible(state, t, x, u):
    return any(wrval(w.action) == u for w in state.obs(t, x))


def eval_possible_meth(state, t, m):
    lo = state.front(t, m.obj)
    return lo is not None and any(m.matches(op.action)
                                  for op in state.ops_on(m.obj) if op.ts >= lo)


def eval_definite(state, t, x, u):
    lw = last_write(state, x)
    return (lw is not None and state.front(t, x) == lw.ts
            and wrval(lw.action) == u)


def eval_definite_meth(state, t, m):
    top = state.max_op(m.obj)
    return state.front(t, m.obj) == top.ts and m.matches(top.action)


def eval_conditional(state, t, x, u, y, v):
    for w in state.obs(t, x):
        if wrval(w.action) != u:
            continue
        if not is_releasing_write(w.action):
            return False
        if not dview(state.recorded(w), state, y, v):
            return False
    return True


def eval_cond_cross(lib, cli, t, m, y, v, spec):
    if spec is None or not spec.is_sync(m):
        return False
    lo = lib.front(t, m.obj)
    if lo is None:
        return False
    return all(dview(lib.recorded(op), cli, y, v)
               for op in lib.ops_on(m.obj)
               if op.ts >= lo and m.matches(op.action))
