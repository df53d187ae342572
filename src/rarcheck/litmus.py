"""Textual litmus/outline format: parser, pretty-printer, system builder.

One format serves every mode: plain litmus tests need no annotations, proof
outlines attach an assertion in braces before each top-level statement,
refinement inputs declare the object that `refine --impl` replaces.  The
parser builds the `program` command trees the engine steps.  Example::

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

from . import assertions as A
from . import program as P
from .explore import Configuration, SystemContext
from .objects import KINDS, spec_of
from .state import (BOT, EMPTY, FALSE, TRUE, Record, make_init_states,
                    record)


class LitmusError(Exception):
    def __init__(self, msg, line=None, col=None):
        self.line, self.col = line, col
        where = f" at {line}:{col}" if line is not None else ""
        super().__init__(msg + where)


# No tree the parser builds is deeper, nor are more parentheses open at
# once, so the parser and the engine's recursive walks stay far from
# Python's recursion limit.  A printed tree (`pretty`) parses back: it opens
# no more parentheses than it is deep.
MAX_DEPTH = 150


# --- tokens ------------------------------------------------------------------
# One scan gives every token's text, with the blanks and comments before it
# in its match, and the empty end (eof) last.  A character that starts no
# token is matched alone by `.` and rejected.

_TOKEN_RE = re.compile(r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    ( [A-Za-z_][A-Za-z0-9_]* | \d+ | :=R\b | := | <-A\b | <- | => | != | <=
    | >= | [<>=+\-*%{}(),;:.@] | . | \Z )""", re.VERBOSE)
_OPS = ("!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "%")
_BAD_RE = re.compile(r"[^A-Za-z_\d<>=+\-*%{}(),;:.@!]")  # in no token


def _scan(text: str) -> list:
    """The texts of the tokens of text, the last one '' (eof)."""
    toks = _TOKEN_RE.findall(text)
    if len(toks) > 1 and not toks[-2]:  # an empty match after the blanks
        toks.pop()
    if "!" in toks or _BAD_RE.search("".join(toks)):  # `!` only in `!=`
        k = next(k for k, s in enumerate(toks) if s == "!" or _BAD_RE.match(s))
        raise LitmusError(f"unexpected character {toks[k]!r}",
                          *_line_col(text, _start(text, k)))
    return toks


def _start(text: str, k: int) -> int:
    """Where token k of text starts (the end of text for eof)."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == k:
            return m.start(1)
    return len(text)


def _line_col(text: str, at: int):
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


# --- surface syntax ----------------------------------------------------------

@record
class LitmusFile(Record):
    name: str
    init: tuple  # ordered (name, value) pairs
    object_decl: object  # None or (kind, name)
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
             "CAS", "FAI", "pobs", "dobs", "cond", "cvd", "cvv", "pc"}
_SYMBOLS = {v.name: v for v in (TRUE, FALSE, BOT, EMPTY)}
_CMPS = ("=", "!=", "<", "<=", ">", ">=")
_OPERATORS = frozenset(_OPS + ("in",))  # what a predicate's operand meets
# the binding power of expression operators and of assertion connectives
_BINARY = {"or": 1, "and": 2, **dict.fromkeys(_CMPS + ("in",), 3),
           "+": 4, "-": 4, "*": 5, "%": 5}
_CONNECTIVES = {"=>": 1, "or": 2, "and": 3}
_JOINED_RE = re.compile(r"[A-Za-z_\d-]+")  # names, numbers and `-`, joined


class Parser:
    """Recursive descent over the token texts, read by index from a list
    with a second eof, so a one-token look-ahead stays inside it.  Binary
    operators and connectives are parsed by precedence climbing (Pratt,
    POPL 1973): one loop takes all of one operand's, so a chain costs one
    frame.  A method that builds a tree is given its root's depth and leaves
    its deepest node's in `deep`: an operand or a block is one level down,
    and a growing chain pushes its left operand one further.  A group is no
    level; `groups` counts the open parentheses."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _scan(text) + [""]
        self.pos = self.deep = self.groups = 0

    def fail(self, msg, k=None):
        at = _start(self.text, self.pos if k is None else k)
        raise LitmusError(msg, *_line_col(self.text, at))

    def nest(self, depth, k=None):
        if depth > MAX_DEPTH:
            self.fail(f"nesting deeper than {MAX_DEPTH} levels", k)

    def accept(self, s) -> bool:
        ok = self.toks[self.pos] == s
        self.pos += ok
        return ok

    def expect(self, s, what=None):
        if not self.accept(s):
            self.fail(f"expected {what or s}, found {self.toks[self.pos]!r}")

    def take(self, ok, what) -> str:
        t = self.toks[self.pos]
        if not ok(t):
            self.fail(f"expected {what}, found {t!r}")
        self.pos += 1
        return t

    def name(self) -> str:
        return self.take(str.isidentifier, "name")

    def number(self) -> int:
        return int(self.take(str.isdecimal, "int"))

    # -- file ------------------------------------------------------------

    def parse_file(self) -> LitmusFile:
        self.expect("name", "'name' header")
        # the names, numbers and `-` right after the name are part of it
        joined = self.name()
        name = _JOINED_RE.match(self.text, _start(self.text, 1)).group()
        while len(joined) < len(name):
            joined += self.toks[self.pos]
            self.pos += 1
        init = self.parse_init() if self.accept("init") else []
        object_decl = self.parse_object() if self.accept("object") else None
        mode = self.name() if self.accept("mode") else "explore"
        if mode not in ("explore", "outline", "hoare", "refine"):
            self.fail(f"unknown mode {mode!r}")
        threads = []
        while self.accept("thread"):
            tid = self.number()
            self.expect("{")
            stmts = []
            while not self.accept("}"):
                stmts.append(self.parse_stmt())
            threads.append((tid, tuple(stmts)))
        if not threads:
            if self.toks[self.pos]:  # a stray token, not the end
                self.expect("thread", "'thread'")
            self.fail("at least one thread required")
        clauses = {"invariant": None, "final": None, "pre": None}
        while t := self.toks[self.pos]:
            if t not in clauses:
                self.fail(f"unexpected {t!r}")
            self.pos += 1
            self.expect("{")
            clauses[t] = self.parse_assertion()
            self.expect("}")
        return LitmusFile(name, tuple(init), object_decl, mode,
                          tuple(threads), **clauses)

    def parse_init(self):
        out = []
        while True:
            var = self.name()
            self.expect(":=", "':='")
            out.append((var, self.parse_value()))
            t = self.toks[self.pos + 1]  # after a `;`
            if not self.accept(";") or not t.isidentifier() or t in (
                    "object", "mode", "thread"):
                return out

    def parse_object(self):
        kind = self.name()
        if kind not in KINDS:
            self.fail(f"unknown object kind {kind!r}")
        return kind, self.name()

    def parse_value(self):
        t = self.toks[self.pos]
        if t.isdecimal() or t in _SYMBOLS:
            self.pos += 1
            return _SYMBOLS[t] if t in _SYMBOLS else int(t)
        if self.accept("-"):
            return -self.number()
        self.fail("expected a value")

    def parse_values(self, item):
        self.expect("{")
        vals = [item()]
        while self.accept(","):
            vals.append(item())
        self.expect("}")
        return vals

    # -- statements --------------------------------------------------------

    def parse_stmt(self):
        """A top-level statement: (its annotation or None, its command)."""
        ann = None
        if self.toks[self.pos] == "{":
            self.pos += 1
            ann = self.parse_assertion()
            self.expect("}")
        return ann, self.parse_cmd(0)

    def parse_cmd(self, depth):
        c = self.parse_simple(depth)
        if self.toks[self.pos] == ";":
            self.pos += 1
        return c

    def parse_simple(self, depth):
        toks = self.toks
        t = toks[self.pos]
        self.pos += 1
        if t == "if":
            cond = self.parse_expr(depth + 1)
            self.expect("then")
            then = self.parse_block(depth + 1)
            other = (self.parse_block(depth + 1) if self.accept("else")
                     else P.Bot())
            return P.If(cond, then, other)
        if t == "while":
            cond = self.parse_expr(depth + 1)
            self.expect("do")
            return P.While(cond, self.parse_block(depth + 1))
        if t == "do":
            body = self.parse_block(depth + 1)
            self.expect("until")
            return P.DoUntil(body, self.parse_expr(depth + 1))
        if not t.isidentifier():
            self.fail(f"expected a statement, found {t!r}", self.pos - 1)
        op = toks[self.pos]
        self.pos += 1
        if op == "<-":
            fn = toks[self.pos]
            if fn != "CAS" and fn != "FAI":
                return P.GRead(t, self.name())
            self.pos += 1
            self.expect("(")
            var = self.name()
            if fn == "FAI":
                self.expect(")")
                return P.Fai(t, var)
            self.expect(",")
            u = self.parse_expr(depth + 1)
            self.expect(",")
            v = self.parse_expr(depth + 1)
            self.expect(")")
            return P.Cas(t, var, u, v)
        if op == ":=R":
            return P.GWrite(t, self.parse_expr(depth + 1), True)
        if op == ":=":
            obj = toks[self.pos]
            if obj.isidentifier() and toks[self.pos + 1] == ".":
                self.pos += 2
                return P.Assign(t, self.parse_call(obj, depth + 1))
            return P.Assign(t, self.parse_expr(depth + 1))
        if op == "<-A":
            return P.GRead(t, self.name(), True)
        if op == ".":
            return self.parse_call(t, depth)
        self.pos -= 1
        self.fail(f"expected ':=', '<-' or a call after {t!r}")

    def parse_call(self, obj, depth):
        meth = self.name()
        self.expect("(")
        args, binder = [], None
        if not self.accept(")"):
            while True:
                t = self.toks[self.pos]
                if (meth == "acquire" and t.isidentifier()
                        and t not in _KEYWORDS):
                    binder = self.name()
                else:
                    args.append(self.parse_expr(depth + 2))
                if not self.accept(","):
                    break
            self.expect(")")
        return P.Hole(P.MethodCall(obj, meth, tuple(args), binder))

    def parse_block(self, depth):
        """One statement, or a braced sequence of them, as one command.
        Only top-level statements carry annotations."""
        self.nest(depth)
        if not self.accept("{"):
            return self.parse_cmd(depth)
        out = []
        while not self.accept("}"):
            if self.toks[self.pos] == "{":
                self.fail("annotations go on top-level statements only")
            out.append(self.parse_cmd(depth))
        return P.seq_all(out)

    # -- expressions -------------------------------------------------------

    def parse_expr(self, depth, least=1):
        """An expression of operators that bind at least `least` tightly
        (`_BINARY`), its root at `depth`.  Operators of one power associate
        to the left; a comparison takes no second one, and `e in {v, ...}`
        is `e = v or ...`."""
        e = self.parse_operand(depth)
        deep, most, toks = self.deep, 5, self.toks
        while True:
            op = toks[self.pos]
            power = _BINARY.get(op)
            if power is None or not least <= power <= most:
                self.deep = deep
                return e
            at = self.pos
            self.pos += 1
            if op == "in":
                vals = self.parse_values(self.parse_value)
                first, e = e, P.Bin("=", e, P.Lit(vals[0]))
                for v in vals[1:]:
                    e = P.Bin("or", e, P.Bin("=", first, P.Lit(v)))
                deep += len(vals)
            else:
                b = self.parse_expr(depth + 1, 4 if power == 3 else power + 1)
                e = P.Bin(op, e, b)
                deep = max(deep + 1, self.deep)
            most = 2 if power == 3 else power
            self.nest(deep, at)

    def parse_operand(self, depth):
        """A literal, a register, a negation or a group."""
        self.nest(depth)
        t = self.toks[self.pos]
        self.deep = depth
        if t.isdecimal() or t == "-" and self.toks[self.pos + 1].isdecimal():
            return P.Lit(self.parse_value())
        self.pos += 1
        if t == "-" or t == "not":
            return P.Un(t, self.parse_operand(depth + 1))
        if t in _SYMBOLS:
            return P.Lit(_SYMBOLS[t])
        if t.isidentifier() and t not in _KEYWORDS:
            return P.Var(t)
        if t != "(":
            self.fail(f"expected an expression, found {t!r}", self.pos - 1)
        self.groups += 1
        self.nest(self.groups, self.pos - 1)
        e = self.parse_expr(depth)
        self.expect(")")
        self.groups -= 1
        return e

    # -- assertions ----------------------------------------------------------

    def parse_assertion(self, depth=0, least=1):
        """An assertion of connectives that bind at least `least` tightly
        (`_CONNECTIVES`), its root at `depth`.  Conjunctions and
        disjunctions are flat; implication associates to the right."""
        a = self.parse_a_operand(depth)
        deep, most, toks = self.deep, 3, self.toks
        while True:
            op = toks[self.pos]
            power = _CONNECTIVES.get(op)
            if power is None or not least <= power <= most:
                self.deep = deep
                return a
            at = self.pos
            self.pos += 1
            deep += 1
            if op == "=>":
                a = A.ImpliesA(a, self.parse_assertion(depth + 1))
                deep = max(deep, self.deep)
            else:
                items = [a]
                while True:
                    items.append(self.parse_a_operand(depth + 1) if op == "and"
                                 else self.parse_assertion(depth + 1, 3))
                    deep = max(deep, self.deep)
                    if not self.accept(op):
                        break
                a = (A.AndA if op == "and" else A.OrA)(tuple(items))
            most = power - 1
            self.nest(deep, at)

    def parse_a_operand(self, depth):
        """A negated operand or an atom.  A group or a truth value followed
        by an operator is the first operand of a local-state predicate."""
        self.nest(depth)
        toks, start = self.toks, self.pos
        t = toks[start]
        self.deep = depth + 1  # where an atom's parts are
        self.pos += 1
        if t == "not":
            return A.NotA(self.parse_a_operand(depth + 1))
        if t == "(":
            self.groups += 1
            self.nest(self.groups, start)
            a = self.parse_assertion(depth)
            self.expect(")")
            self.groups -= 1
            if toks[self.pos] not in _OPERATORS:
                return a
        elif t in ("true", "false") and toks[self.pos] not in _OPERATORS:
            return A.BoolA(t == "true")
        elif t in ("forall", "exists"):
            name = self.name()
            self.expect("in")
            vals = self.parse_values(self.parse_value)
            self.expect(":")
            body = self.parse_assertion(depth + 1)
            cls = A.ForallA if t == "forall" else A.ExistsA
            return cls(name, tuple(vals), body)
        elif t in ("pobs", "dobs", "cond"):
            self.expect("(")
            tid = self.number()
            self.expect(",")
            if toks[self.pos].isidentifier() and toks[self.pos + 1] == ".":
                subject = self.parse_minst()
            else:
                subject = self.parse_vareq(depth)
            if t == "cond":
                deep = self.deep
                self.expect(",")
                pin = self.parse_vareq(depth)
                self.deep = max(deep, self.deep)
                self.expect(")")
                return A.Cond(tid, subject, pin.var, pin.val,
                              self.parse_lift())
            self.expect(")")
            cls = A.Poss if t == "pobs" else A.Def
            return cls(tid, subject, self.parse_lift())
        elif t in ("cvd", "cvv"):
            self.expect("(")
            m = self.parse_minst()
            self.expect(")")
            return A.CoveredA(m) if t == "cvd" else A.HiddenA(m)
        elif t == "pc":
            self.expect("(")
            tid = self.number()
            self.expect(")")
            if self.accept("="):
                return A.PcIn(tid, frozenset({self.number()}))
            if self.accept("in"):
                return A.PcIn(tid, frozenset(self.parse_values(self.number)))
            self.fail("expected '=' or 'in' after pc(t)")
        # fall back to a local-state predicate; 'and'/'or' stay at the
        # assertion level, so only arithmetic and one comparison are eaten
        self.pos = start
        e = self.parse_expr(depth + 2, 4)
        deep, t = self.deep, toks[self.pos]
        if t in _CMPS:
            self.pos += 1
            b = self.parse_expr(depth + 2, 4)
            self.deep = max(deep, self.deep)
            return A.LocalPred(P.Bin(t, e, b))
        if not self.accept("in"):
            return A.LocalPred(e)
        items = tuple(A.LocalPred(P.Bin("=", e, P.Lit(v)))
                      for v in self.parse_values(self.parse_value))
        if len(items) == 1:
            return items[0]
        self.deep = deep + 1
        self.nest(self.deep)
        return A.OrA(items)

    def parse_vareq(self, depth):
        x = self.name()
        self.expect("=")
        return A.VarEq(x, self.parse_operand(depth + 2))

    def parse_minst(self) -> A.MethodInstance:
        obj = self.name()
        self.expect(".")
        raw = self.name()
        m = re.fullmatch(r"([a-z]+)(?:_([0-9]+|empty))?", raw)
        if not m:
            self.fail(f"bad method instance {raw!r}")
        meth, suffix = m.group(1), m.group(2)
        if meth not in A.METHODS:
            self.fail(f"unknown method {meth!r}")
        index = val = None
        if meth in ("init", "acquire", "release"):
            index = int(suffix) if suffix is not None else None
        elif suffix is not None:
            val = EMPTY if suffix == "empty" else int(suffix)
        return A.MethodInstance(obj, A.METHODS[meth], index, val)

    def parse_lift(self):
        if not self.accept("@"):
            return None
        side = self.name()
        if side not in ("C", "L"):
            self.fail("lift must be @C or @L")
        return side


def parse_litmus(text: str) -> LitmusFile:
    lf = Parser(text).parse_file()
    _validate(lf)
    return lf


def corpus_text(name: str) -> str:
    from importlib import resources  # on use: slow to import
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

@record
class System(Record):
    """A litmus file elaborated into an executable initial configuration."""

    lf: LitmusFile
    cfg0: Configuration
    ctx: SystemContext
    outline: A.ProofOutline
    # tid -> frozenset of client-side registers, never a '$' name
    client_locals: dict


def build_system(lf: LitmusFile, impl=None) -> System:
    """Elaborate a parsed litmus file; impl (a `refine.Impl`) fills the
    holes of an object of its kind, and its variables replace the object.

    Each clause is walked once, and so is each thread (`_Elaboration`).
    Whether a plain `x := e` writes the global x depends on every thread:
    the walk takes each initialised name no predicate reads for a global,
    and a thread that assigns a name so mistaken is walked again."""
    tids = [t for t, _ in lf.threads]
    clauses = [lf.invariant, lf.final, lf.pre] + [
        ann for _, stmts in lf.threads for ann, _ in stmts if ann is not None]
    # the predicates' registers by clause; the other atoms; and each register
    # read that no quantifier binds, with the atom reading it
    pred_regs, atoms, free = [], [], []
    for a in clauses:
        pred_regs.append([])
        _atoms(a, pred_regs[-1], atoms, free)
    read_by_preds = set().union(*pred_regs)

    obj = lf.object_decl
    obj_name = obj[1] if obj else None
    spec = fill = None
    if obj is not None:
        spec = spec_of(obj[0], obj_name)
        fill = impl if impl is not None and impl.kind == spec.kind else None
    guess = {x for x, _ in lf.init} - read_by_preds
    walks = {t: _Elaboration(t, guess, spec, fill) for t in tids}
    progs = {t: walks[t].thread(stmts) for t, stmts in lf.threads}
    local_evidence = set().union(*(w.regs for w in walks.values()))
    global_evidence = set().union(*(w.globs for w in walks.values()))
    # an initialised name that a thread assigns plainly and a register
    # predicate of a clause or an annotation reads is a register, unless a
    # thread reads, updates or writes it releasing as a global
    assigned = set().union(*(w.plain for w in walks.values()))
    local_evidence |= {x for x, _ in lf.init if x in assigned
                       and x in read_by_preds and x not in global_evidence}
    clash = local_evidence & global_evidence
    if clash:
        raise LitmusError(
            f"{sorted(clash)[0]!r} used both as a register and a global")

    init_globals = [(x, v) for x, v in lf.init if x not in local_evidence]
    client_vars = {x for x, _ in init_globals}
    undeclared = global_evidence - client_vars - ({obj_name} if obj else set())
    if undeclared:
        raise LitmusError(f"undeclared variable {sorted(undeclared)[0]!r}")

    thread_locals = {t: (w.regs | w.plain) - client_vars
                     for t, w in walks.items()}
    for i, t in enumerate(tids):
        for t2 in tids[i + 1:]:
            shared = thread_locals[t] & thread_locals[t2]
            if shared:
                raise LitmusError(
                    f"local {sorted(shared)[0]!r} used by threads {t} and {t2}")

    # local inits go to the thread that owns the register: every local is
    # some thread's, as each piece of local evidence comes from a walk
    local_inits = {t: {x: v for x, v in lf.init if x in thread_locals[t]}
                   for t in tids}

    if impl is not None and fill is None:
        raise LitmusError(f"an implementation needs a {impl.kind} object")
    for w in walks.values():
        if w.error:
            raise LitmusError(w.error)
    _check_view_atoms(atoms, tids, client_vars, obj_name)
    # a name a clause reads as a register is a thread's register: any other
    # name, an initialised global included, is unbound, whether or not
    # evaluation reaches it
    names = set().union(*thread_locals.values())
    for atom, r in free:
        if r not in names:
            raise LitmusError(f"{_pa(atom)}: no register {r!r}")
    for t, stmts in lf.threads:
        if walks[t].plain & (guess ^ client_vars):
            progs[t] = _Elaboration(t, client_vars, spec, fill).thread(stmts)
    library = fill or spec  # an implementation's variables replace the object
    rho, gamma, beta = make_init_states(
        init_globals, library.init_actions() if library else (), set(tids),
        local_inits)
    # the registers the final clause reads, in order of first reading
    observed = tuple(dict.fromkeys(r for r in pred_regs[1]
                                   if r in local_evidence))
    n_labels = {t: len(stmts) for t, stmts in lf.threads}
    # on a queue, the threads that never dequeue and that no view atom on
    # the queue names: their view of it does not bound its dead prefix
    enqueue_only = ()
    if spec is not None and spec.kind == "queue":
        named = {a.t for a in atoms if isinstance(a, (A.Poss, A.Def, A.Cond))
                 and isinstance(a.subject, A.MethodInstance)}
        enqueue_only = [t for t in tids
                        if "deq" not in walks[t].meths and t not in named]
    ctx = SystemContext(tids, None if fill else spec, n_labels, observed,
                        enqueue_only)
    cfg0 = ctx.configuration(progs, rho, gamma, beta)
    annotations = {t: {i: ann for i, (ann, _) in enumerate(stmts, start=1)
                       if ann is not None} for t, stmts in lf.threads}
    outline = A.ProofOutline(annotations, lf.invariant, lf.final, lf.pre)
    client_locals = {t: frozenset(thread_locals[t]) for t in tids}
    return System(lf, cfg0, ctx, outline, client_locals)


# the expressions of each statement kind
_EXPRESSIONS = {P.Assign: ("src",), P.GWrite: ("expr",), P.If: ("cond",),
                P.While: ("cond",), P.DoUntil: ("cond",),
                P.Cas: ("expect", "new")}


class _Elaboration:
    """One walk over thread t's statements, blocks first, resolves them (a
    plain write to one of `client_vars` becomes a global write, a do-until
    loop is desugared, `impl`'s bodies fill the method-call holes) and
    collects what `build_system` checks: registers read into, bound or
    named in an expression (`regs`), globals read, updated or written
    releasing (`globs`), plain assignments' targets (`plain`), the methods
    called (`meths`), and the first call of a method that is not the
    declared object's (`error`)."""

    __slots__ = ("t", "client_vars", "spec", "impl", "bodies", "regs",
                 "globs", "plain", "meths", "error")

    def __init__(self, t, client_vars, spec, impl):
        self.t, self.client_vars, self.spec, self.impl = (t, client_vars,
                                                          spec, impl)
        self.regs, self.globs, self.plain = set(), set(), set()
        self.meths = set()
        self.bodies = {}  # method -> its filled hole
        self.error = None

    def thread(self, stmts):
        return P.seq_all([P.Labeled(i, self.block(cmd))
                          for i, (_, cmd) in enumerate(stmts, start=1)])

    def block(self, c):
        """c resolved, statement by statement (`program.map_stmts`)."""
        return P.map_stmts(self.stmt, c)

    def stmt(self, c):
        """One statement resolved, its blocks already resolved."""
        cls = type(c)
        if cls is P.Hole:
            return self.call(c)
        if cls is P.Assign and type(c.src) is P.Hole:  # r := o.m()
            self.regs.add(c.reg)
            return P.Assign(c.reg, self.call(c.src))
        for f in _EXPRESSIONS.get(cls, ()):
            self.regs |= _registers(getattr(c, f))
        if cls is P.Assign:
            self.plain.add(c.reg)
            return P.GWrite(c.reg, c.src) if c.reg in self.client_vars else c
        if cls in (P.GRead, P.Cas, P.Fai, P.GWrite):
            self.globs.add(c.var)
            if cls is not P.GWrite:
                self.regs.add(c.reg)
        return P.desugar_stmt(c)

    def call(self, hole):
        call, spec = hole.content, self.spec
        self.meths.add(call.meth)
        if call.binder:
            self.regs.add(call.binder)
        for a in call.args:
            self.regs |= _registers(a)
        if spec is None or call.obj != spec.name:
            error = f"{call!r}: no object named {call.obj!r}"
        elif spec.arity(call.meth) is None:
            error = (f"{call!r}: object {spec.name!r} has no method "
                     f"{call.meth!r}")
        elif len(call.args) != spec.arity(call.meth):
            error = (f"{call!r} passes {len(call.args)} "
                     f"argument{'s' * (len(call.args) != 1)}; "
                     f"{spec.name}.{call.meth} takes {spec.arity(call.meth)}")
        elif self.impl is None:
            return hole
        else:
            if call.meth not in self.bodies:
                body, retval = self.impl.method(call.meth)
                self.bodies[call.meth] = P.Hole(P.Body(call.meth, retval, body))
            return self.bodies[call.meth]
        self.error = self.error or f"thread {self.t}: {error}"
        return hole


def _registers(e) -> set:
    """The registers expression e reads; of an atom, the registers its
    values read (a subject's `x = e`, a cond atom's pin): no other field of
    an atom holds an expression."""
    return {n.name for n in P.nodes(e) if type(n) is P.Var}


def _check_view_atoms(atoms, tids, variables, obj_name):
    """Every pobs, dobs, cond, cvd and cvv atom names a declared thread,
    declared variables and, in its method form, the declared object: a view
    of anything else does not exist, and reading it as false or true would
    give a verdict for a typo.  The variables are the client's and the
    object the library's, so a variable atom lifted to the library (`@L`)
    or a method atom lifted to the client (`@C`) is rejected too.  A pc
    atom names a declared thread, for the same reason."""
    for atom in atoms:
        if isinstance(atom, A.PcIn):
            if atom.t not in tids:
                raise LitmusError(f"pc({atom.t}): no thread {atom.t}")
            continue
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
                raise LitmusError(f"{_pa(atom)}: undeclared variable {x!r}")
        if isinstance(s, A.VarEq):
            if comp == "L":
                raise LitmusError(f"{_pa(atom)}: {s.var!r} is a client "
                                  f"variable, not in the library component")
        elif s.obj != obj_name:
            raise LitmusError(f"{_pa(atom)}: no object named {s.obj!r}")
        elif comp == "C":
            raise LitmusError(f"{_pa(atom)}: {s.obj!r} is the library "
                              f"object, not in the client component")


def _atoms(a, regs: list, others: list, free: list, bound=frozenset()):
    """Walk the atoms of assertion a (None: no assertion) left to right:
    the registers each register predicate reads go to regs, sorted, and
    every other atom to others; and (atom, register) to free for each
    register that a register predicate or a view atom's value reads and no
    enclosing forall or exists binds.  Evaluation may skip an atom, so
    `build_system` checks these, not evaluation."""
    if isinstance(a, (A.AndA, A.OrA)):
        for x in a.items:
            _atoms(x, regs, others, free, bound)
    elif isinstance(a, A.NotA):
        _atoms(a.a, regs, others, free, bound)
    elif isinstance(a, A.ImpliesA):
        _atoms(a.a, regs, others, free, bound)
        _atoms(a.b, regs, others, free, bound)
    elif isinstance(a, (A.ForallA, A.ExistsA)):
        _atoms(a.body, regs, others, free, bound | {a.name})
    elif a is not None:
        if isinstance(a, A.LocalPred):
            read = sorted(_registers(a.expr))
            regs += read
        else:
            others.append(a)
            read = sorted(_registers(a))
        free += [(a, r) for r in read if r not in bound]


# --- pretty printing ----------------------------------------------------------

def pretty(lf: LitmusFile) -> str:
    out = [f"name {lf.name}"]
    if lf.init:
        out.append("init " + "; ".join(f"{x} := {v}" for x, v in lf.init))
    if lf.object_decl:
        kind, name = lf.object_decl
        out.append(f"object {kind} {name}")
    if lf.mode != "explore":
        out.append(f"mode {lf.mode}")
    for t, stmts in lf.threads:
        out.append(f"thread {t} {{")
        for ann, cmd in stmts:
            if ann is not None:
                out.append(f"  {{ {_pa(ann)} }}")
            out.append(f"  {cmd!r};")
        out.append("}")
    if lf.invariant is not None:
        out.append(f"invariant {{ {_pa(lf.invariant)} }}")
    if lf.pre is not None:
        out.append(f"pre {{ {_pa(lf.pre)} }}")
    if lf.final is not None:
        out.append(f"final {{ {_pa(lf.final)} }}")
    return "\n".join(out) + "\n"


def _psubject(s) -> str:
    if isinstance(s, A.MethodInstance):
        return repr(s)
    return f"{s.var}={s.val!r}"


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
    if isinstance(a, (A.ForallA, A.ExistsA)):
        q = "forall" if isinstance(a, A.ForallA) else "exists"
        vals = ",".join(map(str, a.values))
        return f"({q} {a.name} in {{{vals}}}: {_pa(a.body)})"
    if isinstance(a, (A.Poss, A.Def)):
        name = "pobs" if isinstance(a, A.Poss) else "dobs"
        return f"{name}({a.t}, {_psubject(a.subject)}){lift(a.comp)}"
    if isinstance(a, A.Cond):
        return (f"cond({a.t}, {_psubject(a.subject)}, "
                f"{a.y}={a.v!r}){lift(a.comp)}")
    if isinstance(a, (A.CoveredA, A.HiddenA)):
        name = "cvd" if isinstance(a, A.CoveredA) else "cvv"
        return f"{name}({a.m!r})"
    if isinstance(a, A.PcIn):
        labels = sorted(a.labels)
        if len(labels) == 1:
            return f"pc({a.t}) = {labels[0]}"
        return f"pc({a.t}) in {{{','.join(map(str, labels))}}}"
    if isinstance(a, A.LocalPred):
        return repr(a.expr)
    raise TypeError(f"not an assertion: {a!r}")
