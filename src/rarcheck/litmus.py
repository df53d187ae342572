"""Textual litmus/outline format: parser, pretty-printer, system builder.

One format serves every mode: plain litmus tests need no annotations, proof
outlines attach an assertion in braces before each top-level statement,
refinement inputs name the implementation to check.  The parser builds the
`program` command trees the engine steps.  Example::

    name mp-relacq
    init d := 0; f := 0

    thread 1 { d := 5; f :=R 1; }
    thread 2 {
      do r1 <-A f until r1 = 1;
      r2 <- d;
    }

    final { r1 = 1 and r2 = 5 }
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from importlib import resources

from . import assertions as A
from . import program as P
from .explore import Configuration, SystemContext
from .objects import lock_spec, queue_spec
from .state import (BOT, EMPTY, FALSE, TRUE, make_init_states, DEQUEUE,
                    ENQUEUE, LOCK_ACQUIRE, LOCK_INIT, LOCK_RELEASE, QUEUE_INIT)


class LitmusError(Exception):
    def __init__(self, msg, line=None, col=None):
        self.line, self.col = line, col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(msg + where)


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<assignr>:=R\b)
  | (?P<assign>:=)
  | (?P<reada><-A\b)
  | (?P<read><-)
  | (?P<implies>=>)
  | (?P<op>!=|<=|>=|[<>=+\-*%])
  | (?P<punct>[{}(),;:.@])
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Tok:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str):
    toks, line, col, i = [], 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise LitmusError(f"unexpected character {text[i]!r}", line, col)
        kind = m.lastgroup
        s = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(Tok(kind, s, line, col))
            col += len(s)
        i = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


# --- surface syntax ----------------------------------------------------------

@dataclass(frozen=True)
class LitmusFile:
    name: str
    init: tuple  # ordered (name, value) pairs
    object_decl: object  # None or (kind, name, impl-or-None)
    mode: str
    # ordered (tid, ((annotation or None, command), ...)); a plain `x := e`
    # is an Assign until build_system knows whether x is a global
    threads: tuple
    invariant: object = None
    final: object = None
    pre: object = None


_KEYWORDS = {"name", "init", "object", "mode", "thread", "invariant", "final",
             "pre", "if", "then", "else", "while", "do", "until", "and", "or",
             "not", "true", "false", "bot", "empty", "in", "forall", "exists",
             "CAS", "FAI", "pobs", "dobs", "cond", "cvd", "cvv", "pc", "impl"}
_SYMBOLS = {v.name: v for v in (TRUE, FALSE, BOT, EMPTY)}


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Tok:
        t = self.peek()
        self.pos += 1
        return t

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise LitmusError(msg, tok.line, tok.col)

    def accept(self, kind, text=None):
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind, text=None, what=None):
        t = self.accept(kind, text)
        if t is None:
            want = what or text or kind
            self.fail(f"expected {want}, found {self.peek().text!r}")
        return t

    def kw(self, word):
        t = self.peek()
        if t.kind == "name" and t.text == word:
            return self.next()
        return None

    # -- file ------------------------------------------------------------

    def parse_joined_name(self) -> str:
        last = self.expect("name")
        parts = [last.text]
        while True:
            nxt = self.peek()
            adjacent = (nxt.line == last.line
                        and nxt.col == last.col + len(last.text))
            if adjacent and (nxt.kind in ("name", "int")
                             or (nxt.kind == "op" and nxt.text == "-")):
                parts.append(self.next().text)
                last = nxt
            else:
                return "".join(parts)

    def parse_file(self) -> LitmusFile:
        self.expect("name", "name", "'name' header")
        name = self.parse_joined_name()
        init = []
        if self.kw("init"):
            init = self.parse_init()
        object_decl = None
        if self.kw("object"):
            object_decl = self.parse_object()
        mode = "explore"
        if self.kw("mode"):
            mode = self.expect("name").text
            if mode not in ("explore", "outline", "hoare", "refine"):
                self.fail(f"unknown mode {mode!r}")
        threads = []
        while self.kw("thread"):
            tid = int(self.expect("int").text)
            self.expect("punct", "{")
            stmts = []
            while not self.accept("punct", "}"):
                stmts.append(self.parse_stmt())
            threads.append((tid, tuple(stmts)))
        if not threads:
            self.fail("at least one thread required")
        invariant = final = pre = None
        while self.peek().kind != "eof":
            if self.kw("invariant"):
                self.expect("punct", "{")
                invariant = self.parse_assertion()
                self.expect("punct", "}")
            elif self.kw("pre"):
                self.expect("punct", "{")
                pre = self.parse_assertion()
                self.expect("punct", "}")
            elif self.kw("final"):
                self.expect("punct", "{")
                final = self.parse_assertion()
                self.expect("punct", "}")
            else:
                self.fail(f"unexpected {self.peek().text!r}")
        return LitmusFile(name, tuple(init), object_decl, mode,
                          tuple(threads), invariant, final, pre)

    def parse_init(self):
        out = []
        while True:
            var = self.expect("name").text
            self.expect("assign", what="':='")
            out.append((var, self.parse_value()))
            if not self.accept("punct", ";"):
                break
            if self.peek().kind != "name" or self.peek().text in (
                    "object", "mode", "thread"):
                break
        return out

    def parse_object(self):
        kind = self.expect("name").text
        if kind not in ("lock", "queue"):
            self.fail(f"unknown object kind {kind!r}")
        name = self.expect("name").text
        impl = None
        if self.kw("impl"):
            impl = self.expect("name").text
        return (kind, name, impl)

    def parse_value(self):
        t = self.peek()
        if t.kind == "int":
            return int(self.next().text)
        if t.kind == "op" and t.text == "-":
            self.next()
            return -int(self.expect("int").text)
        if t.kind == "name" and t.text in _SYMBOLS:
            return _SYMBOLS[self.next().text]
        self.fail("expected a value")

    # -- statements --------------------------------------------------------

    def parse_stmt(self):
        """A top-level statement: (its annotation or None, its command)."""
        ann = None
        if self.accept("punct", "{"):
            ann = self.parse_assertion()
            self.expect("punct", "}")
        return ann, self.parse_cmd()

    def parse_cmd(self):
        c = self.parse_simple()
        self.accept("punct", ";")
        return c

    def parse_simple(self):
        t = self.peek()
        if t.kind == "name" and t.text == "if":
            self.next()
            cond = self.parse_expr()
            self.expect("name", "then")
            then = self.parse_block()
            other = self.parse_block() if self.kw("else") else P.Bot()
            return P.If(cond, then, other)
        if t.kind == "name" and t.text == "while":
            self.next()
            cond = self.parse_expr()
            self.expect("name", "do")
            return P.While(cond, self.parse_block())
        if t.kind == "name" and t.text == "do":
            self.next()
            body = self.parse_block()
            self.expect("name", "until")
            return P.DoUntil(body, self.parse_expr())
        if t.kind != "name":
            self.fail(f"expected a statement, found {t.text!r}")
        name = self.next().text
        if self.accept("punct", "."):
            return self.parse_call(name)
        if self.accept("assignr"):
            return P.GWrite(name, self.parse_expr(), True)
        if self.accept("assign"):
            if (self.peek().kind == "name"
                    and self.peek(1).kind == "punct"
                    and self.peek(1).text == "."):
                obj = self.next().text
                self.next()
                return P.Assign(name, self.parse_call(obj))
            return P.Assign(name, self.parse_expr())
        if self.accept("reada"):
            return P.GRead(name, self.expect("name").text, True)
        if self.accept("read"):
            if self.peek().text == "CAS":
                self.next()
                self.expect("punct", "(")
                var = self.expect("name").text
                self.expect("punct", ",")
                u = self.parse_expr()
                self.expect("punct", ",")
                v = self.parse_expr()
                self.expect("punct", ")")
                return P.Cas(name, var, u, v)
            if self.peek().text == "FAI":
                self.next()
                self.expect("punct", "(")
                var = self.expect("name").text
                self.expect("punct", ")")
                return P.Fai(name, var)
            return P.GRead(name, self.expect("name").text)
        self.fail(f"expected ':=', '<-' or a call after {name!r}")

    def parse_call(self, obj):
        meth = self.expect("name").text
        self.expect("punct", "(")
        args, binder = [], None
        if not self.accept("punct", ")"):
            while True:
                if (meth == "acquire" and self.peek().kind == "name"
                        and self.peek().text not in _KEYWORDS):
                    binder = self.next().text
                else:
                    args.append(self.parse_expr())
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        return P.Hole(P.MethodCall(obj, meth, tuple(args), binder))

    def parse_block(self):
        """One statement, or a braced sequence of them, as one command.
        Only top-level statements carry annotations."""
        if not self.accept("punct", "{"):
            return self.parse_cmd()
        out = []
        while not self.accept("punct", "}"):
            if self.peek().kind == "punct" and self.peek().text == "{":
                self.fail("annotations go on top-level statements only")
            out.append(self.parse_cmd())
        return P.seq_all(out)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        return self.parse_or()

    def parse_or(self):
        e = self.parse_and()
        while self.kw("or"):
            e = P.Bin("or", e, self.parse_and())
        return e

    def parse_and(self):
        e = self.parse_cmp()
        while self.kw("and"):
            e = P.Bin("and", e, self.parse_cmp())
        return e

    def parse_cmp(self):
        e = self.parse_add()
        t = self.peek()
        if t.kind == "op" and t.text in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return P.Bin(t.text, e, self.parse_add())
        if t.kind == "name" and t.text == "in":
            self.next()
            vals = self.parse_value_set()
            out = P.Bin("=", e, P.Lit(vals[0]))
            for v in vals[1:]:
                out = P.Bin("or", out, P.Bin("=", e, P.Lit(v)))
            return out
        return e

    def parse_add(self):
        e = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in ("+", "-"):
                self.next()
                e = P.Bin(t.text, e, self.parse_term())
            else:
                return e

    def parse_term(self):
        e = self.parse_factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in ("*", "%"):
                self.next()
                e = P.Bin(t.text, e, self.parse_factor())
            else:
                return e

    def parse_factor(self):
        t = self.peek()
        if t.kind == "int" or (t.kind == "op" and t.text == "-"
                               and self.peek(1).kind == "int"):
            return P.Lit(self.parse_value())
        if t.kind == "op" and t.text == "-":
            self.next()
            return P.Un("-", self.parse_factor())
        if t.kind == "name" and t.text == "not":
            self.next()
            return P.Un("not", self.parse_factor())
        if t.kind == "name" and t.text in _SYMBOLS:
            return P.Lit(_SYMBOLS[self.next().text])
        if t.kind == "name" and t.text not in _KEYWORDS:
            return P.Var(self.next().text)
        if t.kind == "punct" and t.text == "(":
            self.next()
            e = self.parse_expr()
            self.expect("punct", ")")
            return e
        self.fail(f"expected an expression, found {t.text!r}")

    def parse_value_set(self):
        self.expect("punct", "{")
        vals = [self.parse_value()]
        while self.accept("punct", ","):
            vals.append(self.parse_value())
        self.expect("punct", "}")
        return vals

    # -- assertions ----------------------------------------------------------

    def parse_assertion(self):
        return self.parse_a_implies()

    def parse_a_implies(self):
        a = self.parse_a_or()
        if self.accept("implies"):
            return A.ImpliesA(a, self.parse_a_implies())
        return a

    def parse_a_or(self):
        items = [self.parse_a_and()]
        while self.kw("or"):
            items.append(self.parse_a_and())
        return items[0] if len(items) == 1 else A.OrA(tuple(items))

    def parse_a_and(self):
        items = [self.parse_a_not()]
        while self.kw("and"):
            items.append(self.parse_a_not())
        return items[0] if len(items) == 1 else A.AndA(tuple(items))

    def parse_a_not(self):
        if self.kw("not"):
            return A.NotA(self.parse_a_not())
        return self.parse_a_atom()

    def at_operator(self, ahead=0):
        t = self.peek(ahead)
        return t.kind == "op" or (t.kind == "name" and t.text == "in")

    def parse_a_atom(self):
        # a group or a truth value followed by an operator is the first
        # operand of a local-state predicate
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            start = self.pos
            self.next()
            a = self.parse_assertion()
            self.expect("punct", ")")
            if not self.at_operator():
                return a
            self.pos = start
        if (t.kind == "name" and t.text in ("true", "false")
                and not self.at_operator(1)):
            self.next()
            return A.BoolA(t.text == "true")
        if t.kind == "name" and t.text in ("forall", "exists"):
            self.next()
            name = self.expect("name").text
            self.expect("name", "in")
            vals = self.parse_value_set()
            self.expect("punct", ":")
            body = self.parse_assertion()
            cls = A.ForallA if t.text == "forall" else A.ExistsA
            return cls(name, tuple(vals), body)
        if t.kind == "name" and t.text in ("pobs", "dobs"):
            self.next()
            self.expect("punct", "(")
            tid = int(self.expect("int").text)
            self.expect("punct", ",")
            subject = self.parse_subject()
            self.expect("punct", ")")
            cls = A.Poss if t.text == "pobs" else A.Def
            return cls(tid, subject, self.parse_lift())
        if t.kind == "name" and t.text == "cond":
            self.next()
            self.expect("punct", "(")
            tid = int(self.expect("int").text)
            self.expect("punct", ",")
            subject = self.parse_subject()
            self.expect("punct", ",")
            pin = self.parse_vareq()
            self.expect("punct", ")")
            return A.Cond(tid, subject, pin.var, pin.val, self.parse_lift())
        if t.kind == "name" and t.text in ("cvd", "cvv"):
            self.next()
            self.expect("punct", "(")
            m = self.parse_minst()
            self.expect("punct", ")")
            return A.CoveredA(m) if t.text == "cvd" else A.HiddenA(m)
        if t.kind == "name" and t.text == "pc":
            self.next()
            self.expect("punct", "(")
            tid = int(self.expect("int").text)
            self.expect("punct", ")")
            if self.accept("op", "="):
                return A.PcIn(tid, frozenset({int(self.expect("int").text)}))
            if self.kw("in"):
                self.expect("punct", "{")
                labels = [int(self.expect("int").text)]
                while self.accept("punct", ","):
                    labels.append(int(self.expect("int").text))
                self.expect("punct", "}")
                return A.PcIn(tid, frozenset(labels))
            self.fail("expected '=' or 'in' after pc(t)")
        # fall back to a local-state predicate; 'and'/'or' stay at the
        # assertion level, so only arithmetic and one comparison are eaten
        e = self.parse_add()
        t = self.peek()
        if t.kind == "op" and t.text in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            return A.LocalPred(P.Bin(t.text, e, self.parse_add()))
        if t.kind == "name" and t.text == "in":
            self.next()
            vals = self.parse_value_set()
            items = tuple(A.LocalPred(P.Bin("=", e, P.Lit(v))) for v in vals)
            return items[0] if len(items) == 1 else A.OrA(items)
        return A.LocalPred(e)

    def parse_subject(self):
        if (self.peek().kind == "name" and self.peek(1).kind == "punct"
                and self.peek(1).text == "."):
            return self.parse_minst()
        return self.parse_vareq()

    def parse_vareq(self):
        x = self.expect("name").text
        self.expect("op", "=")
        return A.VarEq(x, self.parse_factor())

    def parse_minst(self) -> A.MethodInstance:
        obj = self.expect("name").text
        self.expect("punct", ".")
        raw = self.expect("name").text
        m = re.fullmatch(r"([a-z]+)(?:_([0-9]+|empty))?", raw)
        if not m:
            self.fail(f"bad method instance {raw!r}")
        meth, suffix = m.group(1), m.group(2)
        kinds = {"init": "init", "acquire": LOCK_ACQUIRE,
                 "release": LOCK_RELEASE, "enq": ENQUEUE, "deq": DEQUEUE}
        if meth not in kinds:
            self.fail(f"unknown method {meth!r}")
        kind = kinds[meth]
        index = val = None
        if meth in ("init", "acquire", "release"):
            index = int(suffix) if suffix is not None else None
        elif suffix is not None:
            val = EMPTY if suffix == "empty" else int(suffix)
        return A.MethodInstance(obj, kind, index, val)

    def parse_lift(self):
        if self.accept("punct", "@"):
            side = self.expect("name").text
            if side not in ("C", "L"):
                self.fail("lift must be @C or @L")
            return side
        return None


def parse_litmus(text: str) -> LitmusFile:
    lf = Parser(text).parse_file()
    _validate(lf)
    return lf


def corpus_text(name: str) -> str:
    return resources.files("rarcheck").joinpath(
        "corpus", f"{name}.lit").read_text()


def load_corpus(name: str) -> LitmusFile:
    return parse_litmus(corpus_text(name))


def _validate(lf: LitmusFile):
    seen = set()
    for x, _ in lf.init:
        if x in seen:
            raise LitmusError(f"duplicate initialisation of {x!r}")
        seen.add(x)
    tids = [t for t, _ in lf.threads]
    if len(set(tids)) != len(tids):
        raise LitmusError("duplicate thread id")


# --- building executable systems ---------------------------------------------

@dataclass
class System:
    """A litmus file elaborated into an executable initial configuration."""

    lf: LitmusFile
    cfg0: Configuration
    ctx: SystemContext
    outline: A.ProofOutline
    client_locals: dict  # tid -> frozenset of client-side registers


def _names(cmd):
    """(registers, globals, plain assignment targets) a command uses.  A
    register is read into, bound or named in an expression; a global is
    read, updated or written releasing; a plain `x := e` writes a register
    unless x is declared as a global."""
    regs, globs, plain = set(), set(), set()
    for n in P.nodes(cmd):
        if isinstance(n, P.Var):
            regs.add(n.name)
        elif isinstance(n, (P.GRead, P.Cas, P.Fai)):
            regs.add(n.reg)
            globs.add(n.var)
        elif isinstance(n, P.GWrite):
            globs.add(n.var)
        elif isinstance(n, P.MethodCall) and n.binder:
            regs.add(n.binder)
        elif isinstance(n, P.Assign) and isinstance(n.src, P.Hole):
            regs.add(n.reg)  # r := o.m()
        elif isinstance(n, P.Assign):
            plain.add(n.reg)
    return regs, globs, plain


def build_system(lf: LitmusFile, impl=None) -> System:
    """Elaborate a parsed litmus file; impl (a LockImpl) fills the holes."""
    tids = [t for t, _ in lf.threads]
    progs = {t: P.seq_all([P.Labeled(i, cmd) for i, (_, cmd)
                           in enumerate(stmts, start=1)])
             for t, stmts in lf.threads}
    names = {t: _names(progs[t]) for t in tids}
    local_evidence = set().union(*(regs for regs, _, _ in names.values()))
    global_evidence = set().union(*(globs for _, globs, _ in names.values()))
    # an initialised name that a thread assigns plainly and a register
    # predicate of a clause or an annotation reads is a register, unless a
    # thread reads, updates or writes it releasing as a global
    clauses = [lf.invariant, lf.final, lf.pre] + [
        ann for _, stmts in lf.threads for ann, _ in stmts]
    read_by_preds = {r for a in clauses for r in _pred_registers(a)}
    assigned = set().union(*(plain for _, _, plain in names.values()))
    local_evidence |= {x for x, _ in lf.init if x in assigned
                       and x in read_by_preds and x not in global_evidence}
    clash = local_evidence & global_evidence
    if clash:
        raise LitmusError(
            f"{sorted(clash)[0]!r} used both as a register and a global")

    obj = lf.object_decl
    obj_name = obj[1] if obj else None
    init_globals = [(x, v) for x, v in lf.init if x not in local_evidence]
    client_vars = {x for x, _ in init_globals}
    undeclared = global_evidence - client_vars - ({obj_name} if obj else set())
    if undeclared:
        raise LitmusError(f"undeclared variable {sorted(undeclared)[0]!r}")

    thread_locals = {t: (regs | plain) - client_vars
                     for t, (regs, _, plain) in names.items()}
    for i, t in enumerate(tids):
        for t2 in tids[i + 1:]:
            shared = thread_locals[t] & thread_locals[t2]
            if shared:
                raise LitmusError(
                    f"local {sorted(shared)[0]!r} used by threads {t} and {t2}")

    # local inits go to the thread that owns the register
    local_inits = {t: {} for t in tids}
    for x, v in lf.init:
        if x in local_evidence:
            owner = next((t for t in tids if x in thread_locals[t]), None)
            if owner is None:
                raise LitmusError(f"initialised local {x!r} is never used")
            local_inits[owner][x] = v

    # library side
    spec = None
    library = None
    if impl is not None and (obj is None or obj[0] != "lock"):
        raise LitmusError("an implementation needs a lock object")
    if obj is not None:
        spec = lock_spec(obj_name) if obj[0] == "lock" else queue_spec(obj_name)
    _check_calls(progs, spec)
    _check_view_atoms(clauses, tids, client_vars, obj_name)
    if impl is not None:
        spec = None  # the implementation's variables replace the object
        library = ("impl", impl.init)
    elif obj is not None:
        library = (obj[0], obj_name)

    resolve = partial(_resolve, client_vars, impl)
    progs = {t: P.map_stmts(resolve, progs[t]) for t in tids}

    rho, gamma, beta = make_init_states(init_globals, client_vars, library,
                                        set(tids), local_inits)

    observed = _observed_registers(lf, local_evidence)
    n_labels = {t: len(stmts) for t, stmts in lf.threads}
    ctx = SystemContext(tids, spec, n_labels, observed)
    cfg0 = ctx.configuration(progs, rho, gamma, beta)
    annotations = {t: {i: ann for i, (ann, _) in enumerate(stmts, start=1)
                       if ann is not None} for t, stmts in lf.threads}
    outline = A.ProofOutline(annotations, lf.invariant, lf.final, lf.pre)
    client_locals = {t: frozenset(thread_locals[t]) for t in tids}
    return System(lf, cfg0, ctx, outline, client_locals)


def _resolve(client_vars, impl, c):
    """Plain writes to globals become global writes, do-until loops are
    desugared, and impl's bodies fill the method-call holes, also those
    whose result is assigned.  Not a closure, which would hold itself."""
    if isinstance(c, P.Assign) and isinstance(c.src, P.Hole):
        return P.Assign(c.reg, _resolve(client_vars, impl, c.src))
    if isinstance(c, P.Assign) and c.reg in client_vars:
        return P.GWrite(c.reg, c.src)
    if impl is not None and isinstance(c, P.Hole):
        body, retval = impl.method(c.content.meth)
        return P.Hole(P.Body(c.content.meth, retval, body))
    return P.desugar_stmt(c)


def _check_calls(progs, spec):
    """Every method call, reachable or not, names the declared object and
    one of its methods, and passes as many arguments as the method takes;
    spec is None when no object is declared."""
    for t, prog in progs.items():
        for call in P.nodes(prog):
            if not isinstance(call, P.MethodCall):
                continue
            if spec is None or call.obj != spec.name:
                raise LitmusError(
                    f"thread {t}: {call!r}: no object named {call.obj!r}")
            n = spec.arity(call.meth)
            if n is None:
                raise LitmusError(
                    f"thread {t}: {call!r}: object {spec.name!r} has no "
                    f"method {call.meth!r}")
            if len(call.args) != n:
                raise LitmusError(
                    f"thread {t}: {call!r} passes {len(call.args)} "
                    f"argument{'s' * (len(call.args) != 1)}; "
                    f"{spec.name}.{call.meth} takes {n}")


def _check_view_atoms(clauses, tids, variables, obj_name):
    """Every pobs, dobs, cond, cvd and cvv atom of the clauses and
    annotations names a declared thread, declared variables and, in its
    method form, the declared object.  A view of anything else does not
    exist: reading it as false or true would give a verdict for a typo.
    The declared variables are the client's and the object is the
    library's, so a variable atom lifted to the library component (`@L`)
    or a method atom lifted to the client's (`@C`) names a column that
    component does not have, and is rejected too."""
    for a in clauses:
        for atom in _atoms(a):
            if isinstance(atom, (A.Poss, A.Def, A.Cond)):
                if atom.t not in tids:
                    raise LitmusError(f"{_pa(atom)}: no thread {atom.t}")
                s, comp = atom.subject, atom.comp
                pins = (atom.y,) if isinstance(atom, A.Cond) else ()
            elif isinstance(atom, (A.CoveredA, A.HiddenA)):
                s, comp, pins = atom.m, None, ()
            else:
                continue
            for x in ((s.var,) if isinstance(s, A.VarEq) else ()) + pins:
                if x not in variables:
                    raise LitmusError(
                        f"{_pa(atom)}: undeclared variable {x!r}")
            if isinstance(s, A.VarEq):
                if comp == "L":
                    raise LitmusError(f"{_pa(atom)}: {s.var!r} is a client "
                                      f"variable, not in the library "
                                      f"component")
            elif s.obj != obj_name:
                raise LitmusError(f"{_pa(atom)}: no object named {s.obj!r}")
            elif comp == "C":
                raise LitmusError(f"{_pa(atom)}: {s.obj!r} is the library "
                                  f"object, not in the client component")


def _atoms(a):
    """The atoms of assertion a (None: no assertion), left to right."""
    if isinstance(a, (A.AndA, A.OrA)):
        for x in a.items:
            yield from _atoms(x)
    elif isinstance(a, A.NotA):
        yield from _atoms(a.a)
    elif isinstance(a, A.ImpliesA):
        yield from _atoms(a.a)
        yield from _atoms(a.b)
    elif isinstance(a, (A.ForallA, A.ExistsA)):
        yield from _atoms(a.body)
    elif a is not None:
        yield a


def _pred_registers(a):
    """The names that the register predicates (LocalPred) of assertion a
    read, each predicate's in sorted order, predicates left to right."""
    for atom in _atoms(a):
        if isinstance(atom, A.LocalPred):
            yield from sorted({n.name for n in P.nodes(atom.expr)
                               if isinstance(n, P.Var)})


def _observed_registers(lf: LitmusFile, local_evidence):
    """The registers the final clause reads, in order of first reading."""
    regs = (r for r in _pred_registers(lf.final) if r in local_evidence)
    return tuple(dict.fromkeys(regs))


# --- pretty printing ----------------------------------------------------------

def pretty(lf: LitmusFile) -> str:
    out = [f"name {lf.name}"]
    if lf.init:
        out.append("init " + "; ".join(f"{x} := {v}" for x, v in lf.init))
    if lf.object_decl:
        kind, name, impl = lf.object_decl
        line = f"object {kind} {name}"
        if impl:
            line += f" impl {impl}"
        out.append(line)
    if lf.mode != "explore":
        out.append(f"mode {lf.mode}")
    for t, stmts in lf.threads:
        out.append(f"thread {t} {{")
        for ann, cmd in stmts:
            if ann is not None:
                out.append(f"  {{ {_pa(ann)} }}")
            out.append(f"  {_pcmd(cmd)};")
        out.append("}")
    if lf.invariant is not None:
        out.append(f"invariant {{ {_pa(lf.invariant)} }}")
    if lf.pre is not None:
        out.append(f"pre {{ {_pa(lf.pre)} }}")
    if lf.final is not None:
        out.append(f"final {{ {_pa(lf.final)} }}")
    return "\n".join(out) + "\n"


def _pe(e) -> str:
    if isinstance(e, P.Lit):
        return str(e.val)
    if isinstance(e, P.Var):
        return e.name
    if isinstance(e, P.Un):
        if e.op == "not":  # parenthesised whole: `not` is also an assertion
            return f"(not {_pe(e.e)})"
        # -(5) is not the literal -5
        return f"-({_pe(e.e)})" if isinstance(e.e, P.Lit) else f"-{_pe(e.e)}"
    if isinstance(e, P.Bin):
        return f"({_pe(e.a)} {e.op} {_pe(e.b)})"
    raise TypeError(f"not an expression: {e!r}")


def _pcmd(c) -> str:
    if isinstance(c, P.Assign):
        src = _pcall(c.src) if isinstance(c.src, P.Hole) else _pe(c.src)
        return f"{c.reg} := {src}"
    if isinstance(c, P.GWrite):
        return f"{c.var} :={'R' if c.releasing else ''} {_pe(c.expr)}"
    if isinstance(c, P.GRead):
        return f"{c.reg} <-{'A' if c.acquiring else ''} {c.var}"
    if isinstance(c, P.Cas):
        return f"{c.reg} <- CAS({c.var},{_pe(c.expect)},{_pe(c.new)})"
    if isinstance(c, P.Fai):
        return f"{c.reg} <- FAI({c.var})"
    if isinstance(c, P.Hole):
        return _pcall(c)
    if isinstance(c, P.If):
        alt = ("" if isinstance(c.other, P.Bot)
               else f" else {{ {_pblock(c.other)} }}")
        return f"if {_pe(c.cond)} then {{ {_pblock(c.then)} }}{alt}"
    if isinstance(c, P.While):
        return f"while {_pe(c.cond)} do {{ {_pblock(c.body)} }}"
    if isinstance(c, P.DoUntil):
        return f"do {{ {_pblock(c.body)} }} until {_pe(c.cond)}"
    raise TypeError(f"not a statement: {c!r}")


def _pblock(c) -> str:
    """A block's statements: the commands of a Seq chain, none for Bot."""
    out = []
    while isinstance(c, P.Seq):
        out.append(_pcmd(c.a) + ";")
        c = c.b
    if not isinstance(c, P.Bot):
        out.append(_pcmd(c) + ";")
    return " ".join(out)


def _pcall(hole) -> str:
    m = hole.content
    inner = ",".join(_pe(a) for a in m.args)
    if m.binder:
        inner = m.binder if not inner else f"{inner},{m.binder}"
    return f"{m.obj}.{m.meth}({inner})"


def _pminst(m: A.MethodInstance) -> str:
    names = {LOCK_INIT: "init", QUEUE_INIT: "init", LOCK_ACQUIRE: "acquire",
             LOCK_RELEASE: "release", ENQUEUE: "enq", DEQUEUE: "deq",
             "init": "init"}
    base = f"{m.obj}.{names[m.kind]}"
    if m.index is not None:
        return f"{base}_{m.index}"
    if m.val is not None:
        return f"{base}_{m.val}"
    return base


def _psubject(s) -> str:
    if isinstance(s, A.MethodInstance):
        return _pminst(s)
    return f"{s.var}={_pe(s.val)}"


def _pa(a) -> str:
    lift = lambda c: f"@{c}" if c else ""
    if isinstance(a, A.BoolA):
        return "true" if a.val else "false"
    if isinstance(a, A.NotA):
        return f"not {_pa(a.a)}"
    if isinstance(a, A.AndA):
        return "(" + " and ".join(_pa(x) for x in a.items) + ")"
    if isinstance(a, A.OrA):
        return "(" + " or ".join(_pa(x) for x in a.items) + ")"
    if isinstance(a, A.ImpliesA):
        return f"({_pa(a.a)} => {_pa(a.b)})"
    if isinstance(a, A.ForallA):
        vals = ",".join(map(str, a.values))
        return f"(forall {a.name} in {{{vals}}}: {_pa(a.body)})"
    if isinstance(a, A.ExistsA):
        vals = ",".join(map(str, a.values))
        return f"(exists {a.name} in {{{vals}}}: {_pa(a.body)})"
    if isinstance(a, A.Poss):
        return f"pobs({a.t}, {_psubject(a.subject)}){lift(a.comp)}"
    if isinstance(a, A.Def):
        return f"dobs({a.t}, {_psubject(a.subject)}){lift(a.comp)}"
    if isinstance(a, A.Cond):
        return (f"cond({a.t}, {_psubject(a.subject)}, "
                f"{a.y}={_pe(a.v)}){lift(a.comp)}")
    if isinstance(a, A.CoveredA):
        return f"cvd({_pminst(a.m)})"
    if isinstance(a, A.HiddenA):
        return f"cvv({_pminst(a.m)})"
    if isinstance(a, A.PcIn):
        labels = sorted(a.labels)
        if len(labels) == 1:
            return f"pc({a.t}) = {labels[0]}"
        return f"pc({a.t}) in {{{','.join(map(str, labels))}}}"
    if isinstance(a, A.LocalPred):
        return _pe(a.expr)
    raise TypeError(f"not an assertion: {a!r}")
