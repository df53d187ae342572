"""Fuzz the command line over generated expressions, whole files, mutated
corpus files and grammar-preserving edits of generated files.

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
import json
import re
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from rarcheck.cli import run_cli
from rarcheck.litmus import load_corpus, parse_litmus, pretty
from rarcheck.refine import builtin_impls
from reference_parser import tokenize

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


NO_LOCK = "error: an implementation needs a lock object\n"


def _declares_lock(text) -> bool:
    decl = parse_litmus(text).object_decl
    return decl is not None and decl[0] == "lock"


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
        if argv[0] == "explore":
            built = code in (0, 1, 2)  # the file builds without a lock impl
        if argv[0] == "refine" and built and not _declares_lock(text):
            # a file that builds has one input error left for refine
            assert (code, msg) == (3, NO_LOCK), (text, msg)
            continue
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


# --- grammar-preserving edits -------------------------------------------------
#
# A generated file after one to three edits that keep the grammar: a top-level
# statement (with its annotation) deleted, duplicated or swapped with another
# one; a view atom of a clause or an annotation given another thread id, its
# subject swapped between a variable and a method instance, or a lift added
# or dropped; or an expression of a statement replaced by another one over
# the same thread's registers.  Most such files parse and many build, so the
# edits reach the checks that token edits mostly stop short of.

VIEW_ATOM = re.compile(r"(pobs|dobs|cond)\((\d+), (\w+\.\w+|\w+=-?\w+)"
                       r"((?:, \w+=-?\w+)?)\)(@[CL])?")
# the right-hand side of an assignment, a loop's exit test and an if's or a
# while's condition, when it holds no value set
EXPRESSION_SITE = re.compile(
    r"(?:(?<=:= )|(?<=:=R )|(?<=until ))(?:(?! until | else )[^;{}\n])+"
    r"(?=;| until | else )|(?:(?<=if )|(?<=while ))[^;{}\n]+?(?= then| do)")
METHOD_SUBJECTS = {"lock": ("l.acquire_1", "l.release_2", "l.init_0",
                            "l.release"),
                   "queue": ("q.enq_1", "q.deq_empty", "q.deq"),
                   None: ("l.release_2", "q.enq_1")}


def statement_chunks(text):
    """The file's lines, each annotation joined to the statement it labels:
    a chunk that starts with two spaces is one top-level statement."""
    out = []
    for line in text.splitlines():
        if out and out[-1].startswith("  {") and "\n" not in out[-1]:
            out[-1] += "\n" + line
        else:
            out.append(line)
    return out


def _edit_statements(draw, text, edit):
    chunks = statement_chunks(text)
    where = [k for k, chunk in enumerate(chunks) if chunk.startswith("  ")]
    if not where:
        return text
    i = where[draw(st.integers(0, len(where) - 1))]
    if edit == "delete":
        del chunks[i]
    elif edit == "duplicate":
        chunks.insert(i, chunks[i])
    else:
        j = where[draw(st.integers(0, len(where) - 1))]
        chunks[i], chunks[j] = chunks[j], chunks[i]
    return "\n".join(chunks) + "\n"


def _edit_atom(draw, text, edit, obj):
    found = list(VIEW_ATOM.finditer(text))
    if not found:
        return text
    m = found[draw(st.integers(0, len(found) - 1))]
    name, t, subject, pin, lift = m.groups()
    if edit == "thread":
        t = str(draw(st.integers(1, 3)))
    elif edit == "subject":
        subject = (f"{draw(st.sampled_from(GLOBALS))}="
                   f"{draw(st.integers(-3, 9))}" if "." in subject
                   else draw(st.sampled_from(METHOD_SUBJECTS[obj])))
    else:
        lift = None if lift else draw(st.sampled_from(["@C", "@L"]))
    atom = f"{name}({t}, {subject}{pin}){lift or ''}"
    return text[:m.start()] + atom + text[m.end():]


def _edit_expression(draw, text):
    # the statements of the threads, not the initial values
    found = list(EXPRESSION_SITE.finditer(text, text.index("\nthread ")))
    if not found:
        return text
    m = found[draw(st.integers(0, len(found) - 1))]
    t = re.findall(r"thread (\d+)", text[:m.start()])[-1]
    e = draw(file_exprs((f"a{t}", f"b{t}")))
    return text[:m.start()] + e + text[m.end():]


@st.composite
def edited_generated_files(draw):
    text = draw(litmus_files())
    obj = next((kind for kind in ("lock", "queue")
                if f"object {kind} " in text), None)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "duplicate", "swap", "thread",
                                     "subject", "lift", "expression"]))
        if edit in ("delete", "duplicate", "swap"):
            text = _edit_statements(draw, text, edit)
        elif edit == "expression":
            text = _edit_expression(draw, text)
        else:
            text = _edit_atom(draw, text, edit, obj)
    return text


def test_statement_chunks_and_view_atoms_of_a_file():
    text = ("name fuzz\ninit x := 0; y := 0\nthread 1 {\n  a1 := 0;\n"
            "  { pobs(1, x=0) }\n  x := 1;\n}\nfinal { dobs(1, x=1)@C }\n")
    chunks = statement_chunks(text)
    assert [c for c in chunks if c.startswith("  ")] == [
        "  a1 := 0;", "  { pobs(1, x=0) }\n  x := 1;"]
    assert "\n".join(chunks) + "\n" == text
    assert [m.group(0) for m in VIEW_ATOM.finditer(text)] == [
        "pobs(1, x=0)", "dobs(1, x=1)@C"]
    body = ("thread 2 {\n  a2 := (b2 + 1);\n  x :=R -1;\n"
            "  if (a2 in {1, 2}) then y := 2 else y := 3;\n"
            "  while not (a2) do a2 := 0;\n  do a2 := 1 until (b2 = 1);\n"
            "  a2 := l.acquire();\n}\n")
    assert [m.group(0) for m in EXPRESSION_SITE.finditer(body)] == [
        "(b2 + 1)", "-1", "2", "3", "not (a2)", "0", "1", "(b2 = 1)",
        "l.acquire()"]


@settings(max_examples=100, deadline=None)
@given(edited_generated_files())
def test_edited_generated_files_exit_0_to_3(tmp_path_factory, text):
    _exit_0_to_3(tmp_path_factory, text, "12")


# --- lock clients for refine ----------------------------------------------------
#
# Generated files above declare a lock in a third of the examples, and most
# of those use a releasing write, an acquiring read, an update or an
# unbalanced release, which refine refuses as input (a release is refused
# wherever the abstract client can run it without the lock, under every
# implementation).  These clients are
# sync-free and call the lock in acquire/release rounds, so refine plays
# the simulation game on each, and by the paper's theorem the two correct
# locks simulate the abstract lock under every one of them, and so pass the
# trace check that follows.

# the names of the built-in locks' locals and of the register a call's
# result goes to, less the tool's '$': a client register so named is the
# client's alone
TOOL_NAMES = ("r", "loc", "m_t", "s_n", "rval")


@st.composite
def lock_clients(draw):
    """One or two threads, each running one or two rounds of `l.acquire()`,
    plain accesses of x and y, `l.release()`, with a plain access or none
    before each round.  The threads share out the names of TOOL_NAMES as
    registers of their own."""
    lines = ["name client", "init x := 0; y := 0", "object lock l"]
    n = draw(st.integers(1, 2))
    names = draw(st.permutations(TOOL_NAMES))
    for t in range(1, n + 1):
        regs = [f"a{t}", f"b{t}", *names[t - 1::n]]
        r = st.sampled_from(regs)
        x = st.sampled_from(GLOBALS)
        plain = st.one_of(st.builds("{} := {}".format, x, st.integers(1, 3)),
                          st.builds("{} := {}".format, x, r),
                          st.builds("{} <- {}".format, r, x))
        body = [f"{reg} := 0;" for reg in regs]
        for _ in range(draw(st.integers(1, 2))):
            body += [s + ";" for s in draw(st.lists(plain, max_size=1))]
            body.append(draw(st.sampled_from(
                ["l.acquire();", f"{draw(r)} := l.acquire();"])))
            body += [s + ";" for s in draw(st.lists(plain, min_size=1,
                                                    max_size=2))]
            body.append("l.release();")
        lines.append(f"thread {t} {{\n  " + "\n  ".join(body) + "\n}")
    return "\n".join(lines) + "\n"


def _refine_report(tmp_path_factory, text, impl):
    path = tmp_path_factory.mktemp("client") / "c.lit"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(["refine", "--impl", impl, "--client", str(path),
                        "--max-steps", "200", "--json"])
    # the game's or the trace check's verdict, never a bound or an input
    # error
    assert code in (0, 1), (impl, text, err.getvalue())
    return json.loads(out.getvalue())


@settings(max_examples=20, deadline=None)
@given(lock_clients())
def test_refine_plays_the_game_on_lock_clients(tmp_path_factory, text):
    for impl in sorted(builtin_impls()):
        report = _refine_report(tmp_path_factory, text, impl)
        if not impl.endswith("-relaxed"):  # the game finds a simulation
            assert (report["verdict"], report["trace_check"]) == (
                "simulation-found", "trace-refinement"), (impl, text)


# A client on which the trace check once failed where the game found a
# simulation: thread 1 writes y between its rounds, and its read of y = 2
# after thread 2's y := 1 found no abstract match, because a concrete step
# that left the client's projection unchanged kept the abstract side where
# it was.
DISAGREEING_CLIENT = """\
name client
init x := 0; y := 0
object lock l
thread 1 {
  a1 := l.acquire();
  l.release();
  y := 2;
  l.acquire();
  a1 <- y;
}
thread 2 {
  a2 := l.acquire();
  x := 2;
  l.release();
  a2 := l.acquire();
  y := 1;
  l.release();
}
"""


# the game's pairs and relation on DISAGREEING_CLIENT, over concrete graphs
# whose implementation-silent runs, loop tests included, are folded
# ((3911, 3460) and (1214, 1073) over unfolded ones; (1999, 1705) and
# (689, 583) with each spin's loop test left unfolded)
DISAGREEING_GAMES = {"seqlock": (1085, 907), "ticketlock": (542, 450)}


@pytest.mark.parametrize("impl", sorted(DISAGREEING_GAMES))
def test_trace_check_agrees_with_the_game_outside_rounds(tmp_path_factory,
                                                         impl):
    report = _refine_report(tmp_path_factory, DISAGREEING_CLIENT, impl)
    assert (report["verdict"], report["trace_check"]) == (
        "simulation-found", "trace-refinement")
    assert (report["pairs_explored"],
            report["relation_size"]) == DISAGREEING_GAMES[impl]
