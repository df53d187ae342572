"""Fuzz the command line over generated expressions, whole files and
mutated corpus files.

One-thread programs evaluate a generated expression once in a thread
statement and once in the final clause.  Whatever the operators make of
their operands' values, `explore` gives a verdict (exit 0 or 1) or an input
error (exit 3), never an internal error (exit 4).  An input error names
an unbound register or an operator fault whose cause is in the expression
itself, so a wrong value put into a register by the engine stays visible.
"""

import contextlib
import functools
import io
from importlib import resources

from hypothesis import given, settings, strategies as st

from rarcheck.cli import run_cli
from rarcheck.litmus import load_corpus, parse_litmus, pretty, tokenize
from rarcheck.refine import builtin_impls

BINOPS = ("+", "-", "*", "%", "=", "!=", "<", "<=", ">", ">=", "and", "or")
UNOPS = ("-", "not")

atoms = st.one_of(st.integers(0, 9).map(str),
                  st.sampled_from(["true", "false", "bot", "empty",
                                   "r1", "r2"]))
exprs = st.recursive(atoms, lambda sub: st.one_of(
    st.builds("{} ({})".format, st.sampled_from(UNOPS), sub),
    st.builds("({} {} {})".format, sub, st.sampled_from(BINOPS), sub)),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(exprs)
def test_explore_never_exits_internal(tmp_path_factory, expr):
    # r1 is read from memory; r2 is unbound where the thread evaluates
    # the expression and holds its value where the final clause does
    path = tmp_path_factory.mktemp("fuzz") / "e.lit"
    path.write_text(f"name fuzz\ninit x := 0\n"
                    f"thread 1 {{ r1 <- x; r2 := {expr}; }}\n"
                    f"final {{ 0 = {expr} }}\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["explore", str(path)])
    msg = err.getvalue()
    assert code in (0, 1, 3), (expr, msg)
    if code == 3:
        # an operator fault needs an operand no number stands in for (bot,
        # empty, or a boolean: a literal or a test's or connective's result,
        # which arithmetic and ordering refuse) or a modulus; anything else
        # is the engine's fault.  The message names the faulty operation.
        assert msg.startswith(("error: cannot evaluate",
                               "error: unbound local")), (expr, msg)
        if msg.startswith("error: cannot evaluate"):
            faulty = msg.removeprefix("error: cannot evaluate ").split(":")[0]
            assert any(w in faulty for w in (
                "bot", "empty", "true", "false", "not", "and", "or", "=",
                "<", ">", "%")), (expr, msg)


# --- whole files ---------------------------------------------------------------
#
# Generated litmus files: one or two threads over globals x and y, every
# statement kind, if/while/do-until nested two deep, a lock or a queue object,
# annotations on top-level statements, value sets, and invariant, pre and
# final clauses.  Each file must parse, print back to itself, and give
# `explore`, `outline` and `hoare`, and `refine` with every built-in lock
# implementation on a lock client, a verdict, a bound or an input error,
# never exit 4.

GLOBALS = ("x", "y")
CMPS = ("=", "!=", "<", "<=", ">", ">=")
values = st.one_of(st.integers(-3, 9).map(str),
                   st.sampled_from(["true", "false", "bot", "empty"]))
value_sets = st.lists(values, min_size=1, max_size=3).map(", ".join)


@functools.lru_cache(maxsize=None)  # strategies are built once
def file_exprs(regs):
    leaf = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(regs),
                     values)
    return st.recursive(leaf, lambda sub: st.one_of(
        st.builds("{} ({})".format, st.sampled_from(UNOPS), sub),
        st.builds("({} {} {})".format, sub, st.sampled_from(BINOPS), sub),
        st.builds("({} in {{{}}})".format, sub, value_sets)), max_leaves=4)


@functools.lru_cache(maxsize=None)
def statements(t, obj, depth):
    regs = (f"a{t}", f"b{t}")
    e, r, x = file_exprs(regs), st.sampled_from(regs), st.sampled_from(GLOBALS)
    kinds = [st.builds("{} := {}".format, x, e),
             st.builds("{} :=R {}".format, x, e),
             st.builds("{} := {}".format, r, e),
             st.builds("{} <- {}".format, r, x),
             st.builds("{} <-A {}".format, r, x),
             st.builds("{} <- CAS({}, {}, {})".format, r, x, e, e),
             st.builds("{} <- FAI({})".format, r, x)]
    if obj == "lock":
        kinds += [st.just("l.acquire()"), st.just("l.release()"),
                  st.builds("{} := l.acquire()".format, r),
                  st.builds("l.acquire({})".format, r)]
    elif obj == "queue":
        kinds += [st.builds("q.enq({})".format, e),
                  st.builds("{} := q.deq()".format, r)]
    if depth:
        inner = statements(t, obj, depth - 1)
        block = st.one_of(
            inner,
            st.lists(inner, max_size=3).map(
                lambda ss: "{ " + " ".join(s + ";" for s in ss) + " }"))
        kinds += [st.builds("if {} then {}".format, e, block),
                  st.builds("if {} then {} else {}".format, e, block, block),
                  st.builds("while {} do {}".format, e, block),
                  st.builds("do {} until {}".format, block, e)]
    return st.one_of(kinds)


@functools.lru_cache(maxsize=None)
def assertions(tids, obj, regs):
    t, x = st.sampled_from(tids).map(str), st.sampled_from(GLOBALS)
    v = st.integers(-3, 9).map(str)
    e = file_exprs(regs) if regs else st.integers(-3, 9).map(str)
    atoms = [st.sampled_from(["true", "false"]),
             st.builds("{} {} {}".format, e, st.sampled_from(CMPS), e),
             st.builds("{} in {{{}}}".format, e, value_sets),
             st.builds("pobs({}, {}={})".format, t, x, v),
             st.builds("dobs({}, {}={})".format, t, x, v),
             st.builds("cond({}, {}={}, {}={})".format, t, x, v, x, v),
             st.builds("pc({}) = {}".format, t, st.integers(1, 5)),
             st.builds("pc({}) in {{{}}}".format, t, st.lists(
                 st.integers(1, 5).map(str), min_size=1,
                 max_size=3).map(",".join)),
             st.builds("forall v in {{{}}}: pobs({}, {}=v)".format,
                       value_sets, t, x)]
    if obj == "lock":
        m = st.builds("l.{}_{}".format, st.sampled_from(
            ["init", "acquire", "release"]), st.integers(0, 4))
        atoms += [st.builds("cvd({})".format, m), st.builds("cvv({})".format, m),
                  st.builds("pobs({}, {})".format, t, m),
                  st.builds("cond({}, {}, {}={})".format, t, m, x, v)]
    elif obj == "queue":
        m = st.builds("q.{}_{}".format, st.sampled_from(["enq", "deq"]),
                      st.sampled_from(["1", "2", "empty"]))
        atoms += [st.builds("dobs({}, {})".format, t, m)]
    return st.recursive(st.one_of(atoms), lambda sub: st.one_of(
        st.builds("not {}".format, sub),
        st.builds("({} {} {})".format, sub,
                  st.sampled_from(["and", "or", "=>"]), sub),
        st.builds("(exists v in {{{}}}: {})".format, value_sets, sub)),
        max_leaves=3)


@st.composite
def litmus_files(draw):
    obj = draw(st.sampled_from([None, "lock", "queue"]))
    tids = tuple(range(1, draw(st.integers(1, 2)) + 1))
    regs = tuple(f"{c}{t}" for t in tids for c in "ab")
    lines = ["name fuzz", "init x := 0; y := " + draw(values)]
    if obj:
        lines.append(f"object {obj} {obj[0]}")
    mode = draw(st.sampled_from([None, "explore", "outline", "hoare"]))
    if mode:
        lines.append(f"mode {mode}")
    for t in tids:
        body = [f"a{t} := 0;", f"b{t} := 0;"]
        for s in draw(st.lists(statements(t, obj, 2), min_size=1,
                               max_size=3)):
            if draw(st.booleans()):
                body.append("{ " + draw(assertions(tids, obj, (f"a{t}",
                                                               f"b{t}")))
                            + " }")
            body.append(s + ";")
        lines.append(f"thread {t} {{\n  " + "\n  ".join(body) + "\n}")
    for clause, own in (("invariant", ()), ("pre", ()), ("final", regs)):
        if draw(st.booleans()):
            lines.append(f"{clause} {{ {draw(assertions(tids, obj, own))} }}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(litmus_files())
def test_whole_files_round_trip_and_never_exit_internal(tmp_path_factory,
                                                        text):
    lf = parse_litmus(text)
    assert parse_litmus(pretty(lf)) == lf, text
    path = tmp_path_factory.mktemp("fuzz") / "f.lit"
    path.write_text(text)
    runs = [[command, str(path)] for command in ("explore", "outline", "hoare")]
    if "object lock" in text:
        runs += [["refine", "--impl", impl, "--client", str(path)]
                 for impl in sorted(builtin_impls())]
    for argv in runs:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli(argv + ["--max-steps", "12"])
        assert code in (0, 1, 2, 3), (argv, text, err.getvalue())


# --- mutated files ---------------------------------------------------------------
#
# Each corpus file or generated file with one to three of its tokens deleted,
# duplicated or swapped with another token of the file.  Whatever the edits
# make of it, `explore`, `outline`, `hoare` and `refine` give a verdict, a
# bound or an input error (exit 0-3), and an input error is one `error:`
# line.

def spaced_tokens(text):
    """The file's tokens, each with what separated it from the one before:
    nothing, a space or a line break.  Joined, they read as the file."""
    out, prev = [], None
    for tok in tokenize(text)[:-1]:  # no eof
        if prev is None:
            gap = ""
        elif tok.line != prev.line:
            gap = "\n"
        else:
            gap = "" if tok.col == prev.col + len(prev.text) else " "
        out.append(gap + tok.text)
        prev = tok
    return out


CORPUS_TOKENS = {
    path.name.removesuffix(".lit"): spaced_tokens(path.read_text())
    for path in resources.files("rarcheck").joinpath("corpus").iterdir()
    if path.name.endswith(".lit")}


def _mutated(draw, toks, inner=None):
    """The text of spaced tokens toks after one to three edits; with
    `inner`, one flag per token, only flagged tokens are edited (a
    duplicate is flagged too)."""
    toks = list(toks)
    flags = [True] * len(toks) if inner is None else list(inner)
    for _ in range(draw(st.integers(1, 3))):
        where = [k for k, flag in enumerate(flags) if flag]
        i = where[draw(st.integers(0, len(where) - 1))]
        edit = draw(st.sampled_from(["delete", "duplicate", "swap"]))
        if edit == "delete":
            del toks[i], flags[i]
        elif edit == "duplicate":
            toks.insert(i, toks[i])
            flags.insert(i, True)
        else:
            j = where[draw(st.integers(0, len(where) - 1))]
            toks[i], toks[j] = toks[j], toks[i]
    return "".join(toks) + "\n"


def body_tokens(toks):
    """One flag per spaced token: whether it lies inside the braces of a
    thread body or a clause.  In a generated file every brace at the top
    level opens one of these."""
    flags, depth = [], 0
    for tok in toks:
        text = tok.strip()
        if text == "}":
            depth -= 1
        flags.append(depth > 0)
        if text == "{":
            depth += 1
    return flags


@st.composite
def mutated_corpus_files(draw):
    return _mutated(draw, CORPUS_TOKENS[draw(st.sampled_from(
        sorted(CORPUS_TOKENS)))])


@st.composite
def mutated_generated_files(draw):
    return _mutated(draw, spaced_tokens(draw(litmus_files())))


@st.composite
def mutated_generated_bodies(draw):
    """The same edits, only inside thread bodies and clauses: the header
    stays whole, so no example stops on its first lines."""
    toks = spaced_tokens(draw(litmus_files()))
    return _mutated(draw, toks, body_tokens(toks))


def test_spaced_tokens_read_back_as_the_corpus_file():
    assert len(CORPUS_TOKENS) == 8
    for name, toks in CORPUS_TOKENS.items():
        assert parse_litmus("".join(toks)) == load_corpus(name), name


def _exit_0_to_3(tmp_path_factory, text, max_steps):
    path = tmp_path_factory.mktemp("mutant") / "m.lit"
    path.write_text(text)
    for argv in (["explore", str(path)], ["outline", str(path)],
                 ["hoare", str(path)],
                 ["refine", "--impl", "seqlock", "--client", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = run_cli(argv + ["--max-steps", max_steps])
        msg = err.getvalue()
        assert code in (0, 1, 2, 3), (argv, text, msg)
        if code == 3:
            lines = msg.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (
                argv, text, msg)


@settings(max_examples=100, deadline=None)
@given(mutated_corpus_files())
def test_mutated_corpus_files_exit_0_to_3(tmp_path_factory, text):
    _exit_0_to_3(tmp_path_factory, text, "30")


@settings(max_examples=50, deadline=None)
@given(litmus_files())
def test_spaced_tokens_read_back_as_generated_files(text):
    assert parse_litmus("".join(spaced_tokens(text))) == parse_litmus(text)


@settings(max_examples=100, deadline=None)
@given(mutated_generated_files())
def test_mutated_generated_files_exit_0_to_3(tmp_path_factory, text):
    _exit_0_to_3(tmp_path_factory, text, "12")


@settings(max_examples=100, deadline=None)
@given(mutated_generated_bodies())
def test_mutated_generated_bodies_exit_0_to_3(tmp_path_factory, text):
    _exit_0_to_3(tmp_path_factory, text, "12")
