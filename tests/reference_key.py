"""A reference key for configurations, independent of rarcheck's normal form.

It reads a configuration through the public accessors only (operations with
their timestamps, thread views, recorded views, covered set and matched
pairs) into plain data, ranks each variable's distinct timestamps on their
own by sorting them, as a canonical key over arbitrary ordered timestamps
must, and builds sorted tuples.  So it works for any timestamps, not only
dense positions, and two configurations get the same key exactly when they
are equal up to an order-preserving renaming of each variable's timestamps.
"""

from component_views import cvd, mview, ops, tview, variables
from rarcheck.state import Sym

SIDES = ("C", "L")


def _matched(comp) -> set:
    """Matched pairs as operation names: they are positions on the queue,
    the only variable of a queue component."""
    if not comp.matched:
        return set()
    (q,) = variables(comp)
    return {((q, e), (q, d)) for e, d in comp.matched}


def describe(cfg) -> dict:
    """Plain data for a configuration; operations are named (var, ts)."""
    out = {"prog": dict(cfg.prog),
           "rho": {t: dict(ls) for t, ls in cfg.rho.items()}}
    for side, comp in zip(SIDES, (cfg.gamma, cfg.beta)):
        out[side] = {
            "vars": variables(comp),
            "ops": {(op.action.var, op.ts): op.action for op in ops(comp)},
            "tview": {t: {x: op.ts for x, op in v.items()}
                      for t, v in tview(comp).items()},
            "mview": {(op.action.var, op.ts): dict(v)
                      for op, v in mview(comp).items()},
            "cvd": {(op.action.var, op.ts) for op in cvd(comp)},
            "matched": _matched(comp),
        }
    return out


def remap(desc: dict, f, variables=None) -> dict:
    """desc with f applied to every timestamp of the given variables (all
    by default), including the other component's references to them."""

    def ts(x, q):
        return f(q) if variables is None or x in variables else q

    def view(v):
        return {x: ts(x, q) for x, q in v.items()}

    out = {"prog": desc["prog"], "rho": desc["rho"]}
    for side in SIDES:
        d = desc[side]
        out[side] = {
            "vars": d["vars"],
            "ops": {(x, ts(x, q)): a for (x, q), a in d["ops"].items()},
            "tview": {t: view(v) for t, v in d["tview"].items()},
            "mview": {(x, ts(x, q)): view(v)
                      for (x, q), v in d["mview"].items()},
            "cvd": {(x, ts(x, q)) for x, q in d["cvd"]},
            "matched": {((x, ts(x, e)), (y, ts(y, q)))
                        for (x, e), (y, q) in d["matched"]},
        }
    return out


def _val_key(v):
    if v is None:
        return ("n",)
    if isinstance(v, Sym):
        return ("s", v.name)
    return ("v", v)


def _act_key(a):
    return (a.kind, a.var, _val_key(a.val), _val_key(a.aux), a.sync,
            -1 if a.owner is None else a.owner,
            -1 if a.index is None else a.index)


def reference_key(desc: dict):
    times = {}
    for s in SIDES:
        for x, q in desc[s]["ops"]:
            times.setdefault(x, []).append(q)
    ranks = {x: {q: i for i, q in enumerate(sorted(qs))}
             for x, qs in times.items()}

    def ref(x, q):
        # a reference below every operation on x (-1: one a reduced run
        # forgot, `reference_forget`) ranks below them all
        if q not in ranks[x] and q < min(ranks[x]):
            return (x, -1)
        return (x, ranks[x][q])

    def view(v):
        return tuple(sorted((x, ref(x, q)) for x, q in v.items()))

    parts = []
    for s in SIDES:
        d = desc[s]
        parts.append((
            tuple(sorted(ref(x, q) + (_act_key(a),)
                         for (x, q), a in d["ops"].items())),
            tuple(sorted((t, view(v)) for t, v in d["tview"].items())),
            tuple(sorted((ref(x, q), view(v))
                         for (x, q), v in d["mview"].items())),
            tuple(sorted(ref(x, q) for x, q in d["cvd"])),
            tuple(sorted((ref(*e), ref(*q)) for e, q in d["matched"])),
        ))
    prog = tuple(sorted(desc["prog"].items()))
    rho = tuple(sorted((t, tuple(sorted((r, _val_key(v))
                                        for r, v in ls.items())))
                       for t, ls in desc["rho"].items()))
    return (prog, rho) + tuple(parts)


def ref_key(cfg):
    return reference_key(describe(cfg))


def inserted_op(before, after):
    """The operation `after` adds to component state `before`, where
    `after` is `before` with one operation inserted and every later
    position on its variable moved up by one; None when both hold the same
    operations."""
    if ops(after) == ops(before):
        return None
    for new in ops(after):
        rest = {moved(op, new, -1) for op in ops(after) if op != new}
        if new.ts > 0 and rest == ops(before):
            return new
    raise AssertionError(f"{after} is not {before} plus one operation")


def moved(op, new, by=1):
    """op's name after `new` was inserted (see inserted_op); with by=-1,
    its name before."""
    if new is None or op.action.var != new.action.var or op.ts < new.ts:
        return op
    return op._replace(ts=op.ts + by)
