import pytest
from hypothesis import given, settings, strategies as st

from component_views import ops, variables
from rarcheck import assertions as A
from rarcheck import program as P
from rarcheck.litmus import (MAX_DEPTH, LitmusError, Parser, build_system,
                             load_corpus, parse_litmus, pretty, _pa)
from rarcheck.state import (DEQUEUE, EMPTY, LOCK_ACQUIRE, LOCK_RELEASE, TRUE,
                            Hashed)
from test_cli_fuzz import litmus_files

CORPUS = ["mp-relaxed", "mp-relacq", "lockmp", "lockmp-mutant", "queue-mp",
          "seqlock-refine", "ticketlock-refine", "lock-two-rounds"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", CORPUS)
    def test_parse_pretty_parse(self, name):
        lf = load_corpus(name)
        assert parse_litmus(pretty(lf)) == lf

    @pytest.mark.parametrize("name", CORPUS)
    def test_builds(self, name):
        system = build_system(load_corpus(name))
        assert system.cfg0.prog


_EXPRESSIONS = (P.Lit, P.Var, P.Un, P.Bin)
_STATEMENTS = (P.Assign, P.GWrite, P.GRead, P.Cas, P.Fai, P.Hole, P.If,
               P.While, P.DoUntil)


def _syntax(*trees):
    """The statements, expressions and method instances of trees: a parsed
    file's threads and clauses, or built programs."""
    stack = list(trees)
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack += node
        elif isinstance(node, (A.MethodInstance,) + _EXPRESSIONS
                        + _STATEMENTS):
            yield node
        if isinstance(node, Hashed):
            stack += [getattr(node, f) for f in node._fields]


def _reparse(node):
    """node's repr parsed back as what node is, the whole text read."""
    parser = Parser(repr(node))
    if isinstance(node, A.MethodInstance):
        got = parser.parse_minst()
    elif isinstance(node, _EXPRESSIONS):
        got = parser.parse_expr(0)
    else:
        got = parser.parse_cmd(0)
    assert parser.toks[parser.pos] == "", repr(node)
    return got


REPRS = [
    (P.Un("not", P.Var("r")), "(not r)"),
    (P.Un("-", P.Var("r")), "-r"),
    (P.Un("-", P.Lit(5)), "-(5)"),
    (P.If(P.Var("c"), P.Assign("r", P.Lit(1)), P.Bot()),
     "if c then { r := 1; }"),
    (P.While(P.Var("c"), P.Bot()), "while c do {  }"),
    (P.Hole(P.MethodCall("l", "acquire", (), "v")), "l.acquire(v)"),
    (A.MethodInstance("l", LOCK_ACQUIRE, 1), "l.acquire_1"),
    (A.MethodInstance("q", DEQUEUE, None, EMPTY), "q.deq_empty"),
    (A.MethodInstance("l", "init", 0), "l.init_0"),
]


class TestNodesPrintAsWritten:
    """A node's repr is the input language's text for it, so an error that
    quotes a node quotes something the user could have written."""

    def test_corpus_nodes_reparse(self):
        kinds = set()
        for name in CORPUS:
            lf = load_corpus(name)
            for node in _syntax(lf.threads, lf.invariant, lf.final, lf.pre):
                assert _reparse(node) == node
                kinds.add(type(node))
            # the built programs' expressions: desugared loops negate tests
            progs = tuple(build_system(lf).cfg0.prog.values())
            for node in _syntax(progs):
                if isinstance(node, _EXPRESSIONS):
                    assert _reparse(node) == node
                    kinds.add(type(node))
        assert {P.Un, P.Hole, P.DoUntil, A.MethodInstance} <= kinds

    @settings(max_examples=150, deadline=None)
    @given(litmus_files())
    def test_generated_nodes_reparse(self, text):
        lf = parse_litmus(text)
        for node in _syntax(lf.threads, lf.invariant, lf.final, lf.pre):
            assert _reparse(node) == node

    @pytest.mark.parametrize("node,text", REPRS,
                             ids=[text for _, text in REPRS])
    def test_reprs(self, node, text):
        assert repr(node) == text


def _minst():
    return st.builds(A.MethodInstance, st.just("l"),
                     st.sampled_from([LOCK_ACQUIRE, LOCK_RELEASE, "init"]),
                     st.integers(0, 6))


def _atoms():
    tid = st.integers(1, 2)
    var = st.sampled_from(["d1", "d2"])
    val = st.builds(P.Lit, st.integers(0, 9))
    subject = st.one_of(st.builds(A.VarEq, var, val), _minst())
    lift = st.sampled_from([None, "C", "L"])
    cmp_pred = st.builds(
        lambda r, op, v: A.LocalPred(P.Bin(op, P.Var(r), P.Lit(v))),
        st.sampled_from(["r1", "r2", "rl"]),
        st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
        st.integers(0, 9))
    return st.one_of(
        st.builds(A.BoolA, st.booleans()),
        cmp_pred,
        st.builds(A.PcIn, tid, st.sets(st.integers(1, 5), min_size=1,
                                       max_size=3).map(frozenset)),
        st.builds(A.Poss, tid, subject, lift),
        st.builds(A.Def, tid, subject, lift),
        st.builds(A.Cond, tid, subject, var, val, lift),
        st.builds(A.CoveredA, _minst()),
        st.builds(A.HiddenA, _minst()),
    )


def _assertions(depth=2):
    if depth == 0:
        return _atoms()
    sub = _assertions(depth - 1)
    pair = st.tuples(sub, sub)
    return st.one_of(
        _atoms(),
        st.builds(A.NotA, sub),
        st.builds(lambda xs: A.AndA(xs), pair),
        st.builds(lambda xs: A.OrA(xs), pair),
        st.builds(A.ImpliesA, sub, sub),
        st.builds(lambda n, vals, b: A.ForallA(n, vals, b),
                  st.just("v"),
                  st.lists(st.integers(0, 9), min_size=1, max_size=3,
                           unique=True).map(tuple), sub),
    )


class TestAssertionRoundTrip:
    @given(_assertions())
    def test_pretty_then_parse_is_identity(self, a):
        text = _pa(a)
        parsed = Parser(text).parse_assertion()
        assert parsed == a


class TestRoundTripShapes:
    """Texts whose printed form once failed to parse back to the same file."""

    @pytest.mark.parametrize("final", [
        "r1 + 1 = 2", "(r1 + 1) = 2", "true = r1", "(not r1) = true",
        "(r1 = 1 and r1 = 2) = true", "(r1 in {1, 2}) = false",
        "r1 in {-1, 2}", "-5 = r1", "-(5) = r1"])
    def test_final_round_trips(self, final):
        lf = parse_litmus(f"name t\ninit x := 0\nthread 1 {{ r1 <- x; }}\n"
                          f"final {{ {final} }}\n")
        assert parse_litmus(pretty(lf)) == lf

    def test_negative_literal_is_one_literal(self):
        lf = parse_litmus("name t\nthread 1 { r1 := -1; r2 := -(1); "
                          "r3 := 2 - -1; if r1 in {-1, 2} then r2 := 0 }\n")
        (_, a), (_, b), (_, c), (_, d) = lf.threads[0][1]
        assert a == P.Assign("r1", P.Lit(-1))
        assert b == P.Assign("r2", P.Un("-", P.Lit(1)))
        assert c == P.Assign("r3", P.Bin("-", P.Lit(2), P.Lit(-1)))
        assert d.cond.a.b == P.Lit(-1)
        assert parse_litmus(pretty(lf)) == lf


class TestErrors:
    @pytest.mark.parametrize("block", [
        "if r1 = 0 then { { r1 = 5 } d := 1; }",
        "while r1 = 0 do { d := 1; { true } r1 <- d; }",
        "do { { true } r1 <- d; } until r1 = 1",
        "if r1 = 0 then { d := 1; } else { { true } d := 2; }"])
    def test_nested_annotation_rejected(self, block, tmp_path, capsys):
        line = f"thread 1 {{ r1 <- d; {block}; }}"
        text = f"name t\ninit d := 0\n{line}\n"
        with pytest.raises(LitmusError, match="top-level") as exc:
            parse_litmus(text)
        brace = line.index("{ r1 = 5 }" if "r1 = 5" in line else "{ true }")
        assert (exc.value.line, exc.value.col) == (3, brace + 1)
        from rarcheck.cli import run_cli
        path = tmp_path / "t.lit"
        path.write_text(text)
        assert run_cli(["explore", str(path)]) == 3
        assert "top-level" in capsys.readouterr().err


    def test_missing_rhs_position(self):
        text = "name t\ninit d := 0\nthread 1 {\n  d := \n}\n"
        with pytest.raises(LitmusError) as exc:
            parse_litmus(text)
        assert exc.value.line == 5  # error reported at the dangling brace
        assert exc.value.col is not None

    @pytest.mark.parametrize("header,token,col", [
        ("object lock l impl seqlock", "impl", 15),
        ("object lock l foo", "foo", 15),
        ("final { true }", "final", 1),
    ])
    def test_stray_token_after_the_header_is_named(self, header, token, col):
        text = (f"name t\ninit d := 0\n{header}\n"
                "thread 1 { l.acquire(); d := 1; l.release(); }\n")
        with pytest.raises(LitmusError) as exc:
            parse_litmus(text)
        assert str(exc.value) == \
            f"expected 'thread', found {token!r} at 3:{col}"

    def test_no_thread_at_the_end(self):
        with pytest.raises(LitmusError,
                           match="^at least one thread required at 3:1$"):
            parse_litmus("name t\ninit d := 0\n")

    def test_unknown_mode(self):
        with pytest.raises(LitmusError):
            parse_litmus("name t\nmode nonsense\nthread 1 { r <- d }\n")

    def test_duplicate_init(self):
        with pytest.raises(LitmusError):
            parse_litmus("name t\ninit d := 0; d := 1\nthread 1 { r <- d }\n")

    def test_undeclared_variable(self):
        with pytest.raises(LitmusError, match="undeclared"):
            build_system(parse_litmus("name t\nthread 1 { r <- d }\n"))

    def test_register_global_clash(self):
        text = ("name t\ninit d := 0\n"
                "thread 1 { r <- d }\nthread 2 { x <- r }\n")
        with pytest.raises(LitmusError, match="register and a global"):
            build_system(parse_litmus(text))

    def test_shared_register_rejected(self):
        text = ("name t\ninit d := 0\n"
                "thread 1 { r <- d }\nthread 2 { r <- d }\n")
        with pytest.raises(LitmusError, match="used by threads"):
            build_system(parse_litmus(text))

    def test_bad_character(self):
        with pytest.raises(LitmusError):
            parse_litmus("name t\nthread 1 { d ? 1 }\n")


class TestLockmpStructure:
    def test_outline_shape(self):
        system = build_system(load_corpus("lockmp"))
        outline = system.outline
        for t in (1, 2):
            assert sorted(outline.annotations[t]) == [1, 2, 3, 4]
            assert system.ctx.n_labels[t] == 4  # terminal pc is 5
        assert outline.invariant is not None
        assert outline.final is not None

    def test_version_ghost_is_thread2_local(self):
        system = build_system(load_corpus("lockmp"))
        assert system.cfg0.rho[2]["rl"] == 1
        assert "rl" not in system.cfg0.rho[1]

    def test_annotations_parse_to_obs_atoms(self):
        system = build_system(load_corpus("lockmp"))
        q1 = system.outline.annotations[2][1]
        found = set()

        def walk(a):
            found.add(type(a).__name__)
            if isinstance(a, A.Cond):
                found.add(f"Cond {type(a.subject).__name__}")
            for attr in ("items",):
                for x in getattr(a, attr, ()):
                    walk(x)
            for attr in ("a", "b", "body"):
                if hasattr(a, attr):
                    walk(getattr(a, attr))

        walk(q1)
        assert "Cond MethodInstance" in found
        assert "Def" in found
        assert "HiddenA" in found

    def test_client_vars_and_domain(self):
        system = build_system(load_corpus("lockmp"))
        assert variables(system.cfg0.gamma) == {"d1", "d2"}
        assert variables(system.cfg0.beta) == {"l"}
        from test_lock_rules import occurring_ints
        assert set(occurring_ints(system)) >= {0, 5}


class TestImplFill:
    def test_refine_file_declares_impl(self):
        # a refine client declares the object; `refine --impl` names the
        # implementation that replaces it
        lf = load_corpus("seqlock-refine")
        assert lf.object_decl == ("lock", "l")
        assert lf.mode == "refine"

    def test_concrete_build_has_library_vars(self):
        from rarcheck.refine import builtin_impls
        lf = load_corpus("seqlock-refine")
        system = build_system(lf, builtin_impls()["seqlock"])
        assert variables(system.cfg0.beta) == {"glb"}
        (op,) = ops(system.cfg0.beta)
        assert op.action.var == "glb" and op.action.val == 0

    def test_plain_litmus_needs_no_annotations(self):
        lf = load_corpus("mp-relaxed")
        assert all(ann is None
                   for _, stmts in lf.threads for ann, _ in stmts)

    def test_impl_requires_lock_object(self):
        from rarcheck.refine import builtin_impls
        lf = load_corpus("queue-mp")
        with pytest.raises(LitmusError, match="lock object"):
            build_system(lf, builtin_impls()["seqlock"])


class TestOddButGrammatical:
    def test_pre_section(self):
        text = ("name t\ninit d := 0\nthread 1 { r1 <- d }\n"
                "pre { dobs(1, d=0) }\nfinal { r1 = 0 }\n")
        lf = parse_litmus(text)
        assert lf.pre is not None
        from rarcheck.explore import check_hoare
        system = build_system(lf)
        rep = check_hoare(system.cfg0, system.ctx, lf.pre, lf.final, 16)
        assert rep.verdict == "valid"

    def test_lock_result_bound_to_register(self):
        text = ("name t\ninit d := 0\nobject lock l\n"
                "thread 1 { r0 := l.acquire(); d := 1; l.release(); }\n"
                "final { r0 = true }\n")
        from rarcheck.explore import explore
        system = build_system(parse_litmus(text))
        res = explore(system.cfg0, system.ctx, 32)
        assert res.outcomes == [{"r0": TRUE}]

    def test_register_named_only_by_an_assertion(self):
        # r is initialised and assigned plainly; the final clause reads it
        # as a register, so it is one, and the init is its initial value
        text = ("name t\ninit r := 0\nthread 1 { r := 5; }\n"
                "final { r = 5 }\n")
        from rarcheck.explore import explore
        system = build_system(parse_litmus(text))
        assert variables(system.cfg0.gamma) == set()
        assert system.cfg0.rho[1]["r"] == 0
        res = explore(system.cfg0, system.ctx, 8)
        assert res.outcomes == [{"r": 5}]
        # an annotation counts too, and a thread's global read wins
        ann = ("name t\ninit r := 0\nthread 1 { { r = 0 } r := 5; }\n")
        assert variables(build_system(parse_litmus(ann)).cfg0.gamma) == set()
        glob = ("name t\ninit r := 0\nthread 1 { r := 5; }\n"
                "thread 2 { s <- r; }\nfinal { s = 5 }\n")
        assert variables(build_system(parse_litmus(glob)).cfg0.gamma) == {"r"}

    def test_unknown_method_rejected(self):
        # rejected when the system is built, before any thread reaches it
        text = ("name t\nobject lock l\nthread 1 { l.steal(); }\n")
        with pytest.raises(LitmusError, match="no method"):
            build_system(parse_litmus(text))


def deep_inputs(n):
    """Four ways to nest n levels deep, by name: parentheses around a value,
    negations in a final clause, if statements, and a chain of sums."""
    return {
        "parens": f"name parens\nthread 1 {{ r := {'(' * n}1{')' * n}; }}\n",
        "nots": (f"name nots\nthread 1 {{ r := 1; }}\n"
                 f"final {{ {'not ' * n}r = 1 }}\n"),
        "ifs": ("name ifs\nthread 1 { " + "if 1 then { " * n + "r := 1;"
                + " }" * n + " }\n"),
        "terms": "name terms\nthread 1 { r := 1" + " + 1" * (n - 1) + "; }\n",
    }


# the inputs that once blew the recursion limit, and where each is rejected
TOO_DEEP = {"parens": (3000, (2, 167)), "nots": (3000, (3, 613)),
            "ifs": (600, (2, 1815)), "terms": (3000, (2, 615))}


class TestNesting:
    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_too_deep_is_an_input_error(self, shape):
        n, where = TOO_DEEP[shape]
        with pytest.raises(LitmusError, match="nesting deeper than 150") as e:
            parse_litmus(deep_inputs(n)[shape])
        assert (e.value.line, e.value.col) == where

    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_depth_100_builds_and_prints_back(self, shape):
        lf = parse_litmus(deep_inputs(100)[shape])
        assert parse_litmus(pretty(lf)) == lf
        assert build_system(lf).cfg0.prog

    @pytest.mark.parametrize("text,levels", [
        # a chain pushes its left operand one level down per operator
        ("r := 1" + " + 1" * 149, 150),
        ("r := " + "(" * 150 + "1" + ")" * 150, 150),  # groups are no level
        ("r := " + "- " * 149 + "r", 150),
        ("r := 1" + " - (1" * 149 + ")" * 149, 150),
        ("if r in {" + ",".join(map(str, range(149))) + "} then r := 1", 150)])
    def test_limit_is_exact(self, text, levels):
        # the statement is level 0; one level more is one too many
        assert MAX_DEPTH == levels
        lf = parse_litmus(f"name t\nthread 1 {{ {text}; }}\n")
        assert parse_litmus(pretty(lf)) == lf
        grown = (text.replace("1 + 1", "1 + 1 + 1", 1).replace("((", "(((", 1)
                 .replace("- r", "- - r").replace("(1)", "(1 - (1))")
                 .replace("{0,", "{-1,0,"))
        with pytest.raises(LitmusError, match="nesting deeper"):
            parse_litmus(f"name t\nthread 1 {{ {grown}; }}\n")
