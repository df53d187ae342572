import pytest
from hypothesis import given, strategies as st

from rarcheck import assertions as A
from rarcheck import program as P
from rarcheck.litmus import (LitmusError, Parser, build_system, load_corpus,
                             parse_litmus, pretty, _pa)
from rarcheck.state import LOCK_ACQUIRE, LOCK_RELEASE, TRUE

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
            assert outline.labels(t) == [1, 2, 3, 4]
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
        assert system.cfg0.gamma.variables() == {"d1", "d2"}
        assert system.cfg0.beta.variables() == {"l"}
        from test_lock_rules import occurring_ints
        assert set(occurring_ints(system)) >= {0, 5}


class TestImplFill:
    def test_refine_file_declares_impl(self):
        lf = load_corpus("seqlock-refine")
        assert lf.object_decl == ("lock", "l", "seqlock")
        assert lf.mode == "refine"

    def test_concrete_build_has_library_vars(self):
        from rarcheck.refine import builtin_impls
        lf = load_corpus("seqlock-refine")
        system = build_system(lf, builtin_impls()["seqlock"])
        assert system.cfg0.beta.variables() == {"glb"}
        (op,) = system.cfg0.beta.ops
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
        assert system.cfg0.gamma.variables() == set()
        assert system.cfg0.rho[1]["r"] == 0
        res = explore(system.cfg0, system.ctx, 8)
        assert res.outcomes == [{"r": 5}]
        # an annotation counts too, and a thread's global read wins
        ann = ("name t\ninit r := 0\nthread 1 { { r = 0 } r := 5; }\n")
        assert build_system(parse_litmus(ann)).cfg0.gamma.variables() == set()
        glob = ("name t\ninit r := 0\nthread 1 { r := 5; }\n"
                "thread 2 { s <- r; }\nfinal { s = 5 }\n")
        assert build_system(parse_litmus(glob)).cfg0.gamma.variables() == {"r"}

    def test_unknown_method_rejected(self):
        # rejected when the system is built, before any thread reaches it
        text = ("name t\nobject lock l\nthread 1 { l.steal(); }\n")
        with pytest.raises(LitmusError, match="no method"):
            build_system(parse_litmus(text))
