"""Fuzz the command line over generated expressions.

One-thread programs evaluate a generated expression once in a thread
statement and once in the final clause.  Whatever the operators make of
their operands' values, `explore` gives a verdict (exit 0 or 1) or an input
error (exit 3), never an internal error (exit 4).  An input error names
an unbound register or an operator fault whose cause is in the expression
itself, so a wrong value put into a register by the engine stays visible.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from rarcheck.cli import run_cli

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
        # an operator fault needs an operand no number stands in for
        # (bot, empty) or a modulus; anything else is the engine's fault
        assert msg.startswith(("error: cannot evaluate",
                               "error: unbound local")), (expr, msg)
        if msg.startswith("error: cannot evaluate"):
            assert any(w in expr for w in ("bot", "empty", "%")), (expr, msg)
