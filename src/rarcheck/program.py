"""Program syntax with holes and the thread-local transition rules.

Thread programs are immutable command trees whose nodes hash at
construction (`state.Hashed`).  A local step either is silent
(assignments, control flow, hole dissolution) or proposes a candidate action
that the memory/object semantics must validate.  A read, the failure branch
of a CAS and a fetch-and-increment are proposed once, with the value read
left open: the memory rules bind it from each write the thread can observe,
and the step's `reg` names the register that receives it.  An object call
leaves bottom in its hole and its result in the register `state.RVAL`,
which `r := o.m()` then binds.

A node prints as the input language writes it, so an error quotes what
the user wrote; only runtime forms (bottom, labels, bodies and holes
holding them, sequences) have reprs of their own.

`local_step` splits a command once into an evaluation context and the
redex that steps, and plugs each residual back into that context once,
in tables that the caller keeps per system: a command reached with new
registers runs only its redex's rule.
"""

from __future__ import annotations

from .state import (FALSE, RVAL, TRUE, Hashed, Record, fai, hashed,
                    open_read, record, update, write)


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
        if self.op == "not":  # parenthesised whole: `not` is also an assertion
            return f"(not {self.e!r})"
        # -(5) is not the literal -5
        return f"-({self.e!r})" if isinstance(self.e, Lit) else f"-{self.e!r}"


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
    records the method's return value in the register RVAL.
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
        if isinstance(self.content, MethodCall):  # as written
            return repr(self.content)
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
        alt = ("" if isinstance(self.other, Bot)
               else f" else {_block(self.other)}")
        return f"if {self.cond!r} then {_block(self.then)}{alt}"


@hashed
class While(Hashed):
    cond: object
    body: object

    def __repr__(self):
        return f"while {self.cond!r} do {_block(self.body)}"


@hashed
class DoUntil(Hashed):
    body: object
    cond: object

    def __repr__(self):
        return f"do {_block(self.body)} until {self.cond!r}"


@hashed
class Labeled(Hashed):
    label: int
    cmd: object

    def __repr__(self):
        return f"{self.label}: {self.cmd!r}"


def _block(c) -> str:
    """A braced block: each command of a Seq chain followed by `;`, none
    for bottom."""
    out = []
    while isinstance(c, Seq):
        out.append(f"{c.a!r};")
        c = c.b
    if not isinstance(c, Bot):
        out.append(f"{c!r};")
    return f"{{ {' '.join(out)} }}"


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

@record
class Step(Record):
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


_BOT = Bot()


class _Split:
    """A command split into an evaluation context and its redex (Felleisen
    and Hieb's reduction semantics): `frames` are the nodes around the
    redex, outermost first, each standing for itself with a hole where the
    node below it was: `Labeled`, `Seq(., b)` while its first part runs,
    `Hole`, `Body(m, rv, .)` and `Assign(r, .)` around an unfinished hole.
    `redex` is the node whose rule steps, bottom when the command has
    terminated, and `lib` tells whether a hole or a body encloses it."""

    __slots__ = ("frames", "redex", "lib")

    def __init__(self, cmd):
        frames, lib = [], False
        while True:
            if isinstance(cmd, Labeled):
                inner = cmd.cmd
            elif isinstance(cmd, Seq) and not is_done(cmd.a):
                inner = cmd.a
            elif isinstance(cmd, Assign) and isinstance(cmd.src, Hole) \
                    and not is_done(cmd.src):
                inner = cmd.src
            elif isinstance(cmd, Hole):
                if cmd.content is None:
                    raise ProgramError("cannot execute a pristine hole")
                # a hole holding bottom has no step: the enclosing sequence
                # or assignment consumes it
                inner, lib = cmd.content, True
            elif isinstance(cmd, Body):
                inner, lib = cmd.cmd, True
            else:
                break
            frames.append(cmd)
            cmd = inner
        self.frames = tuple(frames)
        self.redex = cmd
        self.lib = lib


def _fire(c, ls):
    """The rule of redex c under registers ls: per step, in order,
    (kind, action, residual, registers, at_hole, reg)."""
    if isinstance(c, Seq):  # its first part is done
        return [("eps", None, c.b, ls, _ends_in_hole(c.a), None)]
    if isinstance(c, Assign):
        if isinstance(c.src, Hole):  # the method's result is in RVAL
            return [("eps", None, _BOT, _ls_set(ls, c.reg, ls[RVAL]), True,
                     None)]
        return [("eps", None, _BOT, _ls_set(ls, c.reg, eval_expr(c.src, ls)),
                 False, None)]
    if isinstance(c, GWrite):
        a = write(c.var, eval_expr(c.expr, ls), c.releasing)
        return [("act", a, _BOT, ls, False, None)]
    if isinstance(c, GRead):
        return [("act", open_read(c.var, c.acquiring), _BOT, ls, False,
                 c.reg)]
    if isinstance(c, Cas):
        u = eval_expr(c.expect, ls)
        v = eval_expr(c.new, ls)
        return [("act", update(c.var, u, v), _BOT, _ls_set(ls, c.reg, TRUE),
                 False, None),
                ("act", open_read(c.var, skip=u), _BOT,
                 _ls_set(ls, c.reg, FALSE), False, None)]
    if isinstance(c, Fai):
        return [("act", fai(c.var), _BOT, ls, False, c.reg)]
    if isinstance(c, MethodCall):
        # the object rules give the successors; the call leaves bottom
        # behind, and its result only in RVAL
        return [("call", c, _BOT, ls, False, None)]
    if isinstance(c, If):
        return [("eps", None, c.then if eval_expr(c.cond, ls) else c.other,
                 ls, False, None)]
    if isinstance(c, While):
        if eval_expr(c.cond, ls):
            return [("eps", None, Seq(c.body, c), ls, False, None)]
        return [("eps", None, _BOT, ls, False, None)]
    if isinstance(c, Bot):
        return []
    if isinstance(c, DoUntil):
        raise ProgramError("do-until must be desugared before execution")
    raise ProgramError(f"cannot step {c!r}")


def _plug(frames, c):
    """Residual c put back into frames, innermost first, and the `Body`
    frame that finished, or None.  A finished body collapses to bottom,
    and its return value goes to RVAL."""
    finished = None
    for f in reversed(frames):
        if isinstance(f, Labeled):
            c = Labeled(f.label, c)
        elif isinstance(f, Seq):
            c = Seq(c, f.b)
        elif isinstance(f, Hole):
            c = Hole(c)
        elif isinstance(f, Assign):
            c = Assign(f.reg, c)
        elif is_done(c):  # a Body
            c, finished = _BOT, f
        else:
            c = Body(f.meth, f.retval, c)
    return c, finished


def _ends_in_hole(cmd) -> bool:
    if isinstance(cmd, Labeled):
        return _ends_in_hole(cmd.cmd)
    return isinstance(cmd, Hole)


def local_step(cmd, ls: dict, redexes: dict, plugs: dict):
    """All thread-local steps of a thread running cmd with registers ls;
    empty when it has terminated.  `redexes` (command -> its `_Split`) and
    `plugs` ((split, residual) -> the plugged command and the finished
    body) are one system's tables: a command is split once, and each of
    its residuals plugged once, whatever registers it runs under (Danvy
    and Nielsen's refocusing); only the redex's rule reads them."""
    split = redexes.get(cmd)
    if split is None:
        split = redexes[cmd] = _Split(cmd)
    out = []
    for kind, action, residual, ls2, at_hole, reg in _fire(split.redex, ls):
        key = (split, residual)
        plugged = plugs.get(key)
        if plugged is None:
            plugged = plugs[key] = _plug(split.frames, residual)
        cmd2, finished = plugged
        if finished is not None:
            ls2 = _ls_set(ls2, RVAL, finished.retval)
        out.append(Step(kind, action, cmd2, ls2, split.lib, at_hole, reg))
    return out
