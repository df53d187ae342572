"""A reference for thread-local stepping, independent of the split and plug
tables of `rarcheck.program.local_step`.

It is the recursive rule set taken literally: each step searches the
command for its redex again and rebuilds every node on the way back up,
with `replace` for each enclosing label, sequence, hole, assignment and
body.
"""

from rarcheck.program import (Assign, Body, Bot, Cas, DoUntil, Fai, GRead,
                              GWrite, Hole, If, Labeled, MethodCall,
                              ProgramError, Seq, Step, While, eval_expr,
                              is_done)
from rarcheck.state import FALSE, RVAL, TRUE, fai, open_read, update, write


def replace(step, **changes):
    """step with the given fields changed."""
    return Step(**{f: changes.get(f, getattr(step, f)) for f in step._fields})


def _ls_set(ls, r, v):
    out = dict(ls)
    out[r] = v
    return out


def steps(cmd, ls, lib=False):
    """The local steps of a thread running cmd with registers ls."""
    if isinstance(cmd, Labeled):
        return [replace(s, cmd=Labeled(cmd.label, s.cmd))
                for s in steps(cmd.cmd, ls, lib)]

    if isinstance(cmd, Bot):
        return []

    if isinstance(cmd, Assign):
        if isinstance(cmd.src, Hole):
            if is_done(cmd.src):  # the method's result is in RVAL
                return [Step("eps", None, Bot(),
                             _ls_set(ls, cmd.reg, ls[RVAL]), lib,
                             at_hole=True)]
            return [replace(s, cmd=Assign(cmd.reg, s.cmd))
                    for s in steps(cmd.src, ls, lib)]
        return [Step("eps", None, Bot(),
                     _ls_set(ls, cmd.reg, eval_expr(cmd.src, ls)), lib)]

    if isinstance(cmd, GWrite):
        a = write(cmd.var, eval_expr(cmd.expr, ls), cmd.releasing)
        return [Step("act", a, Bot(), ls, lib)]

    if isinstance(cmd, GRead):
        return [Step("act", open_read(cmd.var, cmd.acquiring), Bot(), ls, lib,
                     reg=cmd.reg)]

    if isinstance(cmd, Cas):
        u = eval_expr(cmd.expect, ls)
        v = eval_expr(cmd.new, ls)
        return [Step("act", update(cmd.var, u, v), Bot(),
                     _ls_set(ls, cmd.reg, TRUE), lib),
                Step("act", open_read(cmd.var, skip=u), Bot(),
                     _ls_set(ls, cmd.reg, FALSE), lib)]

    if isinstance(cmd, Fai):
        return [Step("act", fai(cmd.var), Bot(), ls, lib, reg=cmd.reg)]

    if isinstance(cmd, MethodCall):
        return [Step("call", cmd, Bot(), ls, lib)]

    if isinstance(cmd, Body):
        out = []
        for s in steps(cmd.cmd, ls, lib=True):
            if is_done(s.cmd):
                out.append(replace(s, cmd=Bot(),
                                   ls=_ls_set(s.ls, RVAL, cmd.retval)))
            else:
                out.append(replace(s, cmd=Body(cmd.meth, cmd.retval, s.cmd)))
        return out

    if isinstance(cmd, Hole):
        inner = cmd.content
        if inner is None:
            raise ProgramError("cannot execute a pristine hole")
        if isinstance(inner, Bot):
            return []  # consumed by the enclosing sequence or assignment
        return [replace(s, cmd=Hole(s.cmd)) for s in steps(inner, ls, lib=True)]

    if isinstance(cmd, Seq):
        if is_done(cmd.a):
            return [Step("eps", None, cmd.b, ls, lib,
                         at_hole=_ends_in_hole(cmd.a))]
        return [replace(s, cmd=Seq(s.cmd, cmd.b))
                for s in steps(cmd.a, ls, lib)]

    if isinstance(cmd, If):
        branch = cmd.then if eval_expr(cmd.cond, ls) else cmd.other
        return [Step("eps", None, branch, ls, lib)]

    if isinstance(cmd, While):
        if eval_expr(cmd.cond, ls):
            return [Step("eps", None, Seq(cmd.body, cmd), ls, lib)]
        return [Step("eps", None, Bot(), ls, lib)]

    if isinstance(cmd, DoUntil):
        raise ProgramError("do-until must be desugared before execution")

    raise ProgramError(f"cannot step {cmd!r}")


def _ends_in_hole(cmd) -> bool:
    if isinstance(cmd, Labeled):
        return _ends_in_hole(cmd.cmd)
    return isinstance(cmd, Hole)
