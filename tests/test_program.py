import copy
import pickle

import pytest

from rarcheck.explore import SystemContext, explore, successors
from rarcheck.litmus import build_system, load_corpus
from rarcheck.memory import mem_write
from rarcheck.program import (Assign, Bin, Bot, Cas, DoUntil, Fai, GRead,
                              GWrite, Hole, If, Lit, Labeled, MethodCall,
                              ProgramError, Seq, Un, Var, While,
                              desugar, eval_expr, is_done, local_step,
                              map_stmts, nodes, pc_of, seq_all)
from rarcheck.state import (FALSE, RVAL, TRUE, Action, make_init_states,
                            write)

WRITTEN = (1, 5, TRUE, FALSE)


def steps_of(prog, rho, t):
    """Thread t's local steps, split and plugged in tables of their own."""
    return local_step(prog[t], rho[t], {}, {})


def steps_after_writes(cmd, values=WRITTEN):
    """Successors of thread 1 running cmd once thread 2 has written each of
    values to x (initially 0), in turn: thread 1 observes every write."""
    rho, g, b = make_init_states([("x", 0)], {"x"}, (), {1, 2})
    for v in values:
        (g, b, _, _), = mem_write(g, b, 2, write("x", v))
    ctx = SystemContext([1, 2])
    return successors(ctx.configuration({1: cmd, 2: Bot()}, rho, g, b), ctx)


class TestEval:
    def test_literal(self):
        assert eval_expr(Lit(5), {}) == 5

    def test_local(self):
        assert eval_expr(Var("r"), {"r": 1}) == 1

    def test_comparison(self):
        assert eval_expr(Bin("=", Var("r1"), Lit(1)), {"r1": 1}) is TRUE
        assert eval_expr(Bin("=", Lit(TRUE), Lit(1)), {}) is FALSE

    def test_unbound(self):
        with pytest.raises(ProgramError):
            eval_expr(Var("nope"), {})

    def test_arith_and_bool(self):
        ls = {"r": 4}
        assert eval_expr(Bin("%", Var("r"), Lit(2)), ls) == 0
        assert eval_expr(Un("not", Bin("<", Var("r"), Lit(2))), ls) is TRUE


class TestLocalStep:
    def test_local_assign_is_silent(self):
        prog = {1: Seq(Assign("r", Lit(5)), GWrite("x", Var("r")))}
        steps = steps_of(prog, {1: {}}, 1)
        assert len(steps) == 1
        (s,) = steps
        assert s.kind == "eps" and s.ls == {"r": 5}
        # value-sequencing afterwards dissolves the bottom
        prog2 = {1: s.cmd}
        (s2,) = steps_of(prog2, {1: s.ls}, 1)
        assert s2.kind == "eps" and s2.cmd == GWrite("x", Var("r"))

    def test_write_candidate(self):
        prog = {1: GWrite("x", Bin("+", Var("r"), Lit(1)), releasing=True)}
        (s,) = steps_of(prog, {1: {"r": 4}}, 1)
        assert s.kind == "act"
        assert (s.action.kind, s.action.var, s.action.val, s.action.sync) == \
            ("write", "x", 5, "rel")

    def test_read_candidates_cover_domain(self):
        # one proposal whose value is open; the memory binds it to the value
        # of every observable write, and the register receives it
        prog = {1: GRead("r", "x", acquiring=True)}
        (s,) = steps_of(prog, {1: {}}, 1)
        assert (s.kind, s.action.kind, s.action.val, s.action.aux,
                s.action.sync, s.reg) == ("act", "read", None, None, "acq",
                                          "r")
        succ = steps_after_writes(prog[1])
        assert sorted(repr(lab.action.val) for _, lab, _ in succ) == \
            ["0", "1", "5", "false", "true"]
        assert all(lab.action.sync == "acq" for _, lab, _ in succ)
        for _, lab, nxt in succ:
            assert nxt.rho[1]["r"] is lab.action.val

    def test_cas_candidates_partition(self):
        prog = {1: Cas("r", "x", Lit(0), Lit(1))}
        win, fail = steps_of(prog, {1: {}}, 1)
        assert (win.action.kind, win.action.aux, win.action.val) == \
            ("update", 0, 1)
        assert win.ls["r"] is TRUE and win.reg is None
        # the failure branch: one open read skipping the expected value
        assert (fail.action.kind, fail.action.aux, fail.action.sync) == \
            ("read", 0, "rlx")
        assert fail.ls["r"] is FALSE and fail.reg is None
        succ = steps_after_writes(prog[1])
        wins = [lab for _, lab, _ in succ if lab.action.kind == "update"]
        fails = [(lab, nxt) for _, lab, nxt in succ
                 if lab.action.kind == "read"]
        # false is not 0: only the initial write is the expected value
        assert [lab.action.aux for lab in wins] == [0]
        assert all(lab.action.val == 1 for lab in wins)
        assert sorted(repr(lab.action.val) for lab, _ in fails) == \
            ["1", "5", "false", "true"]
        assert all(lab.action.sync == "rlx" for lab, _ in fails)
        assert all(nxt.rho[1]["r"] is FALSE for _, nxt in fails)

    def test_fai_candidates(self):
        prog = {1: Fai("r", "x")}
        (s,) = steps_of(prog, {1: {}}, 1)
        assert (s.action.kind, s.action.aux, s.action.val, s.reg) == \
            ("update", None, None, "r")
        succ = steps_after_writes(prog[1])
        # booleans are not fetch-and-increment bases
        assert [(lab.action.aux, lab.action.val) for _, lab, _ in succ] == \
            [(0, 1), (1, 2), (5, 6)]
        assert all(type(lab.action.aux) is int for _, lab, _ in succ)
        assert all(nxt.rho[1]["r"] == lab.action.aux for _, lab, nxt in succ)

    def test_one_proposal_per_read_cas_failure_and_fai(self):
        # values are bound by the memory, so no value is enumerated here,
        # also under labels, sequencing and library bodies
        from rarcheck.program import Body
        for cmd in (GRead("r", "x"), Cas("r", "x", Lit(0), Lit(1)),
                    Fai("r", "x")):
            for wrapped in (cmd, Labeled(1, Seq(cmd, Bot())),
                            Hole(Body("acquire", TRUE, cmd))):
                steps = local_step(wrapped, {"r": 0}, {}, {})
                kinds = [s.action.kind for s in steps]
                assert kinds == {GRead: ["read"], Cas: ["update", "read"],
                                 Fai: ["update"]}[type(cmd)]
                assert all(s.action.val is None for s in steps
                           if s.action.kind == "read")

    def test_if_and_while_unfold(self):
        prog = {1: If(Bin("=", Var("r"), Lit(1)), GWrite("x", Lit(1)),
                      Bot())}
        (s,) = steps_of(prog, {1: {"r": 1}}, 1)
        assert s.cmd == GWrite("x", Lit(1))
        loop = While(Bin("<", Var("r"), Lit(1)), Assign("r", Lit(1)))
        (s,) = steps_of({1: loop}, {1: {"r": 0}}, 1)
        assert s.cmd == Seq(Assign("r", Lit(1)), loop)
        (s,) = steps_of({1: loop}, {1: {"r": 1}}, 1)
        assert isinstance(s.cmd, Bot)

    def test_terminated_thread_has_no_steps(self):
        assert steps_of({1: Bot()}, {1: {}}, 1) == []


class TestHoles:
    def test_hole_with_bottom_dissolves(self):
        prog = {1: Seq(Hole(Bot()), GWrite("x", Lit(1)))}
        (s,) = steps_of(prog, {1: {}}, 1)
        assert s.kind == "eps" and s.at_hole
        assert s.cmd == GWrite("x", Lit(1))

    def test_value_in_assign_hole(self):
        # a returned call leaves bottom in its hole and its result in RVAL
        prog = {1: Assign("r", Hole(Bot()))}
        (s,) = steps_of(prog, {1: {RVAL: 7}}, 1)
        assert s.kind == "eps" and s.ls["r"] == 7 and s.at_hole

    def test_hole_body_steps_carry_library_tag(self):
        body = Seq(Assign("r", Lit(1)), GWrite("x", Var("r")))
        prog = {1: Hole(body)}
        (s,) = steps_of(prog, {1: {}}, 1)
        assert s.lib is True
        assert s.kind == "eps" and s.ls == {"r": 1}

    def test_method_call_becomes_call_candidate(self):
        prog = {1: Hole(MethodCall("l", "acquire", (), "rl"))}
        (s,) = steps_of(prog, {1: {}}, 1)
        assert s.kind == "call" and s.action.meth == "acquire"


class TestDesugar:
    def test_textbook(self):
        body = Assign("r", Lit(1))
        cond = Bin("=", Var("r"), Lit(1))
        got = desugar(DoUntil(body, cond))
        assert got == Seq(body, While(Un("not", cond), body))

    def test_no_until_unchanged(self):
        c = Seq(Assign("r", Lit(1)), GWrite("x", Var("r")))
        assert desugar(c) == c

    def test_nested_innermost_first(self):
        inner = DoUntil(Assign("r", Lit(1)), Var("r"))
        outer = DoUntil(Seq(inner, Assign("s", Lit(2))), Var("s"))
        got = desugar(outer)
        inner_d = Seq(Assign("r", Lit(1)),
                      While(Un("not", Var("r")), Assign("r", Lit(1))))
        body_d = Seq(inner_d, Assign("s", Lit(2)))
        assert got == Seq(body_d, While(Un("not", Var("s")), body_d))


class TestWalks:
    def test_nodes_pre_order(self):
        call = Hole(MethodCall("l", "acquire", (Var("a"), Lit(2))))
        tree = Seq(Labeled(1, GWrite("x", Bin("+", Var("r"), Lit(1)))),
                   If(Var("c"), call, Bot()))
        assert [repr(n) for n in nodes(tree)] == [
            repr(tree), "1: x := (r + 1)", "x := (r + 1)", "(r + 1)", "r",
            "1", repr(tree.b), "c", repr(call), "l.acquire(a,2)", "a", "2",
            "_|_"]

    def test_nodes_keep_their_own_stack(self):
        deep = Assign("r", Lit(0))
        for _ in range(5000):
            deep = If(Var("c"), deep, Bot())
        assert sum(1 for _ in nodes(deep)) == 3 * 5000 + 2

    def test_map_stmts_innermost_first(self):
        seen = []

        def f(c):
            seen.append(type(c).__name__)
            assert not isinstance(c, Seq)
            return Assign("s", Lit(0)) if isinstance(c, Assign) else c

        tree = Labeled(1, While(Var("c"), seq_all([
            Assign("r", Lit(1)), DoUntil(Assign("r", Lit(2)), Var("r"))])))
        got = map_stmts(f, tree)
        assert seen == ["Assign", "Assign", "DoUntil", "While", "Labeled"]
        assert got == Labeled(1, While(Var("c"), seq_all([
            Assign("s", Lit(0)), DoUntil(Assign("s", Lit(0)), Var("r"))])))


class TestPc:
    def prog(self):
        return seq_all([
            Labeled(1, Hole(MethodCall("l", "acquire"))),
            Labeled(2, GWrite("d1", Lit(5))),
            Labeled(3, GWrite("d2", Lit(5))),
            Labeled(4, Hole(MethodCall("l", "release"))),
        ])

    def test_initial_pc(self):
        assert pc_of(self.prog(), 4) == 1

    def test_hole_value_advances_pc(self):
        p = seq_all([
            Labeled(1, Hole(Bot())),
            Labeled(2, GWrite("d1", Lit(5))),
        ])
        assert pc_of(p, 2) == 2

    def test_terminal_pc(self):
        assert pc_of(Labeled(4, Hole(Bot())), 4) == 5
        assert pc_of(Bot(), 4) == 5

    def test_loop_unfold_keeps_label(self):
        loop = While(Bin("<", Var("r"), Lit(1)), Assign("r", Lit(1)))
        p = Seq(Labeled(1, Seq(Assign("r", Lit(0)), loop)),
                Labeled(2, GRead("r2", "d")))
        assert pc_of(p, 2) == 1

    def test_done(self):
        assert is_done(Labeled(3, Hole(Bot()))) and is_done(Bot())
        assert not is_done(Hole(MethodCall("l", "acquire")))
        assert not is_done(Labeled(3, GWrite("d", Lit(1))))


CORPUS = ("lock-two-rounds", "lockmp", "lockmp-mutant", "mp-relacq",
          "mp-relaxed", "queue-mp", "seqlock-refine", "ticketlock-refine")


class TestHashedValues:
    """Commands, expressions and actions keep their hash in a slot."""

    @pytest.mark.parametrize("name", CORPUS)
    def test_no_instance_dict(self, name):
        system = build_system(load_corpus(name))
        res = explore(system.cfg0, system.ctx, 64)
        found = [n for cfg in res.states[:res.states_explored]
                 for p in cfg.prog.values() for n in nodes(p)]
        actions = [a for cfg in res.states[:res.states_explored]
                   for comp in (cfg.gamma, cfg.beta)
                   for col in comp.acts for a in col]
        assert found and actions
        assert {type(n).__name__ for n in found} >= {"Seq", "Lit"}
        assert all(isinstance(a, Action) for a in actions)
        for v in found + actions:
            assert not hasattr(v, "__dict__"), type(v)

    @pytest.mark.parametrize("name", CORPUS)
    def test_equal_trees_built_apart_hash_equal(self, name):
        progs = [build_system(load_corpus(name)).cfg0.prog for _ in (0, 1)]
        assert progs[0] == progs[1]
        for t, p in progs[0].items():
            q = progs[1][t]
            assert p is not q
            for a, b in zip(nodes(p), nodes(q)):
                assert a == b and hash(a) == hash(b)

    def test_hash_is_stored_at_construction(self):
        deep = seq_all([GWrite("x", Lit(1))] * 5000)
        assert hash(deep) == deep._hash
        assert Lit(1) != Lit(TRUE) and Lit(0) != Lit(FALSE)

    def test_copies_and_pickles_keep_the_hash(self):
        tree = build_system(load_corpus("seqlock-refine")).cfg0.prog[1]
        act = Action("write", "x", val=TRUE)
        for v in (tree, act):
            for c in (copy.copy(v), copy.deepcopy(v),
                      pickle.loads(pickle.dumps(v))):
                assert c == v and hash(c) == hash(v)
        for c in (copy.deepcopy(act), pickle.loads(pickle.dumps(act))):
            assert c.val is TRUE

    def test_same_types_tells_one_from_true(self):
        def enq(v):
            return Seq(MethodCall("q", "enq", (Lit(v),)), Bot())
        assert enq(1) != enq(TRUE) and enq(0) != enq(FALSE)
        assert enq(1) == enq(1) and enq(TRUE) == enq(TRUE)
