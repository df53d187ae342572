"""Program syntax with holes and the thread-local transition rules.

Thread programs are immutable command trees whose nodes hash at
construction (`state.Hashed`).  A local step either is silent
(assignments, control flow, hole dissolution) or proposes a candidate action
that the memory/object semantics must validate.  A read, the failure branch
of a CAS and a fetch-and-increment are proposed once, with the value read
left open: the memory rules bind it from each write the thread can observe,
and the step's `reg` names the register that receives it.  An object call
leaves bottom in its hole and its result in the register `rval`, which
`r := o.m()` then binds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .state import FALSE, TRUE, Hashed, fai, hashed, open_read, update, write


class ProgramError(Exception):
    pass


# --- expressions -----------------------------------------------------------

@hashed
class Lit(Hashed):
    val: object

    def __repr__(self):
        return repr(self.val)


@hashed
class Var(Hashed):
    name: str

    def __repr__(self):
        return self.name


@hashed
class Un(Hashed):
    op: str
    e: object

    def __repr__(self):
        return f"{self.op}({self.e!r})"


@hashed
class Bin(Hashed):
    op: str
    a: object
    b: object

    def __repr__(self):
        return f"({self.a!r} {self.op} {self.b!r})"


_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "%": lambda a, b: a % b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
}

_UNOPS = {
    "-": lambda a: -a,
    "not": lambda a: not a,
}


def eval_expr(e, ls: dict):
    if isinstance(e, Lit):
        return e.val
    if isinstance(e, Var):
        if e.name not in ls:
            raise ProgramError(f"unbound local {e.name!r}")
        return ls[e.name]
    try:
        if isinstance(e, Un):
            v = _UNOPS[e.op](eval_expr(e.e, ls))
        elif isinstance(e, Bin):
            v = _BINOPS[e.op](eval_expr(e.a, ls), eval_expr(e.b, ls))
        else:
            raise ProgramError(f"not an expression: {e!r}")
    except (TypeError, ArithmeticError) as exc:
        # the input's fault (5 % 0, bot + 1, true < 1), named by its
        # innermost Un/Bin
        raise ProgramError(f"cannot evaluate {e!r}: {exc}") from None
    if type(v) is bool:  # a test's or a connective's Python result
        return TRUE if v else FALSE
    return v


# --- commands ---------------------------------------------------------------

@hashed
class Bot(Hashed):
    def __repr__(self):
        return "_|_"


@hashed
class Assign(Hashed):
    reg: str
    src: object  # Expr or Hole

    def __repr__(self):
        return f"{self.reg} := {self.src!r}"


@hashed
class GWrite(Hashed):
    var: str
    expr: object
    releasing: bool = False

    def __repr__(self):
        return f"{self.var} :={'R' if self.releasing else ''} {self.expr!r}"


@hashed
class GRead(Hashed):
    reg: str
    var: str
    acquiring: bool = False

    def __repr__(self):
        return f"{self.reg} <-{'A' if self.acquiring else ''} {self.var}"


@hashed
class Cas(Hashed):
    reg: str
    var: str
    expect: object
    new: object

    def __repr__(self):
        return f"{self.reg} <- CAS({self.var},{self.expect!r},{self.new!r})"


@hashed
class Fai(Hashed):
    reg: str
    var: str

    def __repr__(self):
        return f"{self.reg} <- FAI({self.var})"


@hashed
class MethodCall(Hashed):
    obj: str
    meth: str
    args: tuple = ()
    binder: object = None  # lock acquire: local receiving the version

    def __repr__(self):
        inner = ",".join(map(repr, self.args))
        if self.binder:
            inner = self.binder if not inner else f"{inner},{self.binder}"
        return f"{self.obj}.{self.meth}({inner})"


@hashed
class Body(Hashed):
    """A concrete method body running inside a hole.

    Reduces to bottom when the wrapped command terminates; that same step
    records the method's return value in the distinguished local rval.
    """

    meth: str
    retval: object
    cmd: object

    def __repr__(self):
        return f"<{self.meth}: {self.cmd!r}>"


@hashed
class Hole(Hashed):
    content: object = None  # None (pristine), MethodCall, command or Bot

    def __repr__(self):
        return f"[{self.content!r}]" if self.content is not None else "[.]"


@hashed
class Seq(Hashed):
    a: object
    b: object

    def __repr__(self):
        return f"{self.a!r}; {self.b!r}"


@hashed
class If(Hashed):
    cond: object
    then: object
    other: object

    def __repr__(self):
        return f"if {self.cond!r} then {{{self.then!r}}} else {{{self.other!r}}}"


@hashed
class While(Hashed):
    cond: object
    body: object

    def __repr__(self):
        return f"while {self.cond!r} do {{{self.body!r}}}"


@hashed
class DoUntil(Hashed):
    body: object
    cond: object

    def __repr__(self):
        return f"do {{{self.body!r}}} until {self.cond!r}"


@hashed
class Labeled(Hashed):
    label: int
    cmd: object

    def __repr__(self):
        return f"{self.label}: {self.cmd!r}"


def seq_all(cmds):
    if not cmds:
        return Bot()
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def map_stmts(f, cmd):
    """cmd with f applied to each of its statements, innermost first: the
    blocks of an if, a loop or a label are mapped before f is given the
    statement that holds them.  A Seq chain is walked along its right spine
    by a loop, so its length costs no recursion; f is never given a Seq."""
    firsts = []
    while isinstance(cmd, Seq):
        firsts.append(map_stmts(f, cmd.a))
        cmd = cmd.b
    if isinstance(cmd, If):
        cmd = If(cmd.cond, map_stmts(f, cmd.then), map_stmts(f, cmd.other))
    elif isinstance(cmd, While):
        cmd = While(cmd.cond, map_stmts(f, cmd.body))
    elif isinstance(cmd, DoUntil):
        cmd = DoUntil(map_stmts(f, cmd.body), cmd.cond)
    elif isinstance(cmd, Labeled):
        cmd = Labeled(cmd.label, map_stmts(f, cmd.cmd))
    out = f(cmd)
    for a in reversed(firsts):
        out = Seq(a, out)
    return out


def nodes(cmd):
    """The command and expression nodes of a tree, pre-order.  The walk
    keeps its own stack, so no depth costs recursion."""
    stack = [cmd]
    while stack:
        node = stack.pop()
        yield node
        kids = []
        for f in node._fields:
            v = getattr(node, f)
            if isinstance(v, Hashed):
                kids.append(v)
            elif type(v) is tuple:  # a method call's arguments
                kids += v
        stack += reversed(kids)


def desugar(cmd):
    """Rewrite do-until loops: do C until B == C; while not B do C."""
    return map_stmts(desugar_stmt, cmd)


def desugar_stmt(cmd):
    """One statement of `desugar`, its blocks already rewritten."""
    if isinstance(cmd, DoUntil):
        return Seq(cmd.body, While(Un("not", cmd.cond), cmd.body))
    return cmd


def is_done(cmd) -> bool:
    """Terminated commands: bottom, or a hole holding it."""
    if isinstance(cmd, Labeled):
        return is_done(cmd.cmd)
    if isinstance(cmd, Hole):
        cmd = cmd.content
    return isinstance(cmd, Bot)


def pc_of(prog_t, n_labels: int) -> int:
    """Label of the first statement whose effect is still pending."""
    c = prog_t
    while isinstance(c, Seq):
        if not is_done(c.a):
            lbl = _leading_label(c.a)
            return lbl if lbl is not None else 0
        c = c.b
    if is_done(c):
        return n_labels + 1
    lbl = _leading_label(c)
    return lbl if lbl is not None else 0


def _leading_label(cmd):
    if isinstance(cmd, Labeled):
        return cmd.label
    return None


# --- thread-local steps -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Step:
    """One candidate step of a single thread.

    kind: 'eps' (silent), 'act' (candidate action for the memory semantics)
    or 'call' (abstract object call, resolved by the object semantics).
    """

    kind: str
    action: object  # Action for 'act', MethodCall payload for 'call'
    cmd: object
    ls: dict
    lib: bool = False  # inside a filled hole
    at_hole: bool = False  # step dissolves/consumes a hole
    reg: str = None  # register receiving the value the memory binds


def _ls_set(ls, r, v):
    out = dict(ls)
    out[r] = v
    return out


def _steps(cmd, ls, lib=False):
    if isinstance(cmd, Labeled):
        return [replace(s, cmd=Labeled(cmd.label, s.cmd))
                for s in _steps(cmd.cmd, ls, lib)]

    if isinstance(cmd, Bot):
        return []

    if isinstance(cmd, Assign):
        if isinstance(cmd.src, Hole):
            if is_done(cmd.src):  # the method's result is in rval
                return [Step("eps", None, Bot(),
                             _ls_set(ls, cmd.reg, ls["rval"]), lib,
                             at_hole=True)]
            return [replace(s, cmd=Assign(cmd.reg, s.cmd))
                    for s in _steps(cmd.src, ls, lib)]
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
        # the object rules give the successors; the call leaves bottom
        # behind, and its result only in rval
        return [Step("call", cmd, Bot(), ls, lib)]

    if isinstance(cmd, Body):
        out = []
        for s in _steps(cmd.cmd, ls, lib=True):
            if is_done(s.cmd):
                out.append(replace(s, cmd=Bot(),
                                   ls=_ls_set(s.ls, "rval", cmd.retval)))
            else:
                out.append(replace(s, cmd=Body(cmd.meth, cmd.retval, s.cmd)))
        return out

    if isinstance(cmd, Hole):
        inner = cmd.content
        if inner is None:
            raise ProgramError("cannot execute a pristine hole")
        if isinstance(inner, Bot):
            return []  # consumed by the enclosing sequence or assignment
        return [replace(s, cmd=Hole(s.cmd)) for s in _steps(inner, ls, lib=True)]

    if isinstance(cmd, Seq):
        if is_done(cmd.a):
            return [Step("eps", None, cmd.b, ls, lib,
                         at_hole=_ends_in_hole(cmd.a))]
        return [replace(s, cmd=Seq(s.cmd, cmd.b))
                for s in _steps(cmd.a, ls, lib)]

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


def local_step(prog: dict, rho: dict, t):
    """All program-level successors of thread t; empty when blocked/done."""
    p = prog.get(t)
    if p is None or is_done(p):
        return []
    return _steps(p, rho[t])
