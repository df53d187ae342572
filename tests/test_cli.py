import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rarcheck
from rarcheck.cli import run_cli
from rarcheck.explore import ExploreResult
from rarcheck.litmus import build_system, corpus_text, load_corpus
from rarcheck.refine import builtin_impls
from rarcheck.state import StateError
from refine_helpers import unbound_client
from test_litmus import TOO_DEEP, deep_inputs


@pytest.fixture()
def corpus_dir(tmp_path):
    for name in ("mp-relaxed", "mp-relacq", "lockmp", "lockmp-mutant",
                 "queue-mp", "seqlock-refine", "ticketlock-refine"):
        (tmp_path / f"{name}.lit").write_text(corpus_text(name))
    return tmp_path


def run(capsys, *argv):
    code = run_cli(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _content(cfg):
    return cfg.prog, cfg.rho, cfg.gamma._parts(), cfg.beta._parts()


class TestExplore:
    def test_relacq(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "explore", str(corpus_dir / "mp-relacq.lit"))
        assert code == 0
        assert "r1=1 r2=5" in out

    def test_relaxed_json(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "explore", "--json",
                           str(corpus_dir / "mp-relaxed.lit"))
        assert code == 0
        doc = json.loads(out)
        assert {"verdict", "states_explored", "outcomes", "witness",
                "truncated"} <= set(doc)
        r2s = {oc["r2"] for oc in doc["outcomes"]}
        assert r2s == {0, 5}

    def test_json_stable_across_runs(self, corpus_dir, capsys):
        _, out1, _ = run(capsys, "explore", "--json",
                         str(corpus_dir / "lockmp.lit"))
        _, out2, _ = run(capsys, "explore", "--json",
                         str(corpus_dir / "lockmp.lit"))
        assert out1 == out2

    def test_final_clause_explores_once(self, corpus_dir, capsys,
                                        monkeypatch):
        import rarcheck.explore as ex
        calls = []
        original = ex.explore

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ex, "explore", counting)
        monkeypatch.setattr("rarcheck.cli.explore", counting)
        code, out, _ = run(capsys, "explore", "--json",
                           str(corpus_dir / "lockmp.lit"))
        assert code == 0 and len(calls) == 1
        assert json.loads(out)["verdict"] == "pass"

    def test_queue_mp_bound_exhausted(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "explore", "--json",
                           str(corpus_dir / "queue-mp.lit"))
        assert code == 2
        doc = json.loads(out)
        assert doc["truncated"] is True
        assert doc["outcomes"] == [{"r1": 1, "r2": 5}]

    def test_initialised_register_assigned_plainly(self, tmp_path, capsys):
        # the first walk takes r, initialised and read by no clause, for a
        # global, so `r := 1` becomes a global write; `r <- x` shows r is a
        # register, and the thread is walked again with r a register
        good = tmp_path / "init-register.lit"
        good.write_text("name t\ninit r := 0; x := 0\n"
                        "thread 1 { r := 1; r <- x; }\n")
        code, out, err = run(capsys, "explore", str(good))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "outcome: r=0"

    def test_boolean_outcome_pastes_into_a_final_clause(self, tmp_path,
                                                        capsys):
        # text output spells a boolean as the input language does, so the
        # outcome line, pasted into a final clause, is a valid triple
        prog = "name t\ninit x := 0\nthread 1 { r := x = 0; }\n"
        path = tmp_path / "bool.lit"
        path.write_text(prog)
        code, out, err = run(capsys, "explore", str(path))
        assert (code, err) == (0, "")
        assert "outcome: r=true x=0\n" in out
        line = next(ln for ln in out.splitlines() if ln.startswith("outcome:"))
        final = " and ".join(a.replace("=", " = ")
                             for a in line.split()[1:])
        path.write_text(prog + f"final {{ {final} }}\n")
        code, out, err = run(capsys, "hoare", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("verdict: valid\n")


class TestOutline:
    def test_lockmp_valid(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "outline", str(corpus_dir / "lockmp.lit"))
        assert code == 0
        for name in ("Inv", "T1@1", "T2@4", "final"):
            assert f"{name}: valid" in out

    def test_mutant_invalid_with_witness(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "outline", "--json",
                           str(corpus_dir / "lockmp-mutant.lit"))
        assert code == 1
        doc = json.loads(out)
        assert doc["assertions"]["T2@2"] == "invalid"
        assert doc["witness"]


class TestHoare:
    def test_valid_triple(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "hoare", str(corpus_dir / "lockmp.lit"))
        assert code == 0
        assert "valid" in out


class TestRefine:
    def test_simulation_found(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "refine", "--impl", "ticketlock",
                           "--client", str(corpus_dir / "ticketlock-refine.lit"))
        assert code == 0
        assert "simulation-found" in out
        assert "trace_check" not in out or "trace-refinement" in out

    def test_mutant_counterexample(self, corpus_dir, capsys):
        code, out, _ = run(capsys, "refine", "--json", "--impl",
                           "seqlock-relaxed", "--client",
                           str(corpus_dir / "seqlock-refine.lit"))
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "no-simulation"
        assert doc["witness"]

    def test_concrete_system_explored_once(self, corpus_dir, capsys,
                                           monkeypatch):
        # `explore` runs on the abstract system only; the trace search
        # reads the concrete system's levels, each configuration stepped
        # once
        import rarcheck.explore as ex
        import rarcheck.refine as rf
        client = load_corpus("seqlock-refine")
        concrete = build_system(client, builtin_impls()["seqlock"]).cfg0
        abstract = build_system(client).cfg0
        starts, stepped = [], {}
        original, successors = rf.explore, ex.successors

        def counting(cfg0, *args, **kwargs):
            starts.append(cfg0)
            return original(cfg0, *args, **kwargs)

        def stepping(cfg, ctx, *args):
            stepped.setdefault(ctx, []).append(cfg)
            return successors(cfg, ctx, *args)

        monkeypatch.setattr(rf, "explore", counting)
        monkeypatch.setattr(ex, "successors", stepping)
        code, out, _ = run(capsys, "refine", "--json", "--impl", "seqlock",
                           "--client", str(corpus_dir / "seqlock-refine.lit"))
        assert code == 0
        assert json.loads(out)["trace_check"] == "trace-refinement"
        # configurations of separately built systems share no part, so
        # they are compared by content: commands, registers, components
        assert [_content(cfg) for cfg in starts] == [_content(abstract)]
        # the abstract system is stepped first, then the concrete one
        (_, ab_steps), (_, conc_steps) = stepped.items()
        assert _content(ab_steps[0]) == _content(abstract)
        assert _content(conc_steps[0]) == _content(concrete)
        assert len(set(conc_steps)) == len(conc_steps)

    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_version_binder_is_an_input_error(self, corpus_dir, capsys,
                                              impl):
        # lockmp's `l.acquire(rl)` binds the abstract lock's operation
        # counter, which no implementation sets
        code, out, err = run(capsys, "refine", "--impl", impl, "--client",
                             str(corpus_dir / "lockmp.lit"))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "binds rl" in err

    @pytest.mark.parametrize("impl, verdict, code", [
        ("seqlock", "simulation-found", 0),
        ("ticketlock", "simulation-found", 0),
        ("seqlock-relaxed", "no-simulation", 1),
        ("ticketlock-relaxed", "no-simulation", 1),
    ])
    def test_lockmp_without_binder(self, tmp_path, capsys, impl, verdict,
                                   code):
        assert "l.acquire(rl)" in corpus_text("lockmp")
        client = tmp_path / "lockmp-unbound.lit"
        client.write_text(unbound_client("lockmp"))
        got, out, err = run(capsys, "refine", "--json", "--impl", impl,
                            "--client", str(client))
        assert (got, err) == (code, "")
        assert json.loads(out)["verdict"] == verdict

    @pytest.mark.parametrize("impl, verdict, code", [
        ("seqlock", "simulation-found", 0),
        ("ticketlock", "simulation-found", 0),
        ("seqlock-relaxed", "no-simulation", 1),
        ("ticketlock-relaxed", "no-simulation", 1),
    ])
    def test_assigned_acquire_is_filled(self, tmp_path, capsys, impl,
                                        verdict, code):
        # the implementation's body also fills a call whose result is
        # assigned, and the register receives the acquire's true
        client = tmp_path / "acq-result.lit"
        client.write_text(ACQUIRE_RESULT_CLIENT)
        got, out, err = run(capsys, "refine", "--json", "--impl", impl,
                            "--client", str(client))
        assert (got, err) == (code, "")
        assert json.loads(out)["verdict"] == verdict

    def test_search_violation_is_no_simulation(self, corpus_dir, capsys):
        # the trace search refutes a relaxed mutant before any game is
        # played: exit 1, no-simulation, and the search's shortest
        # violating trace as witness, in text and in JSON
        import rarcheck.refine as rf
        client = str(corpus_dir / "seqlock-refine.lit")
        sim = rf.check_simulation(builtin_impls()["seqlock-relaxed"],
                                  load_corpus("seqlock-refine"), 64)
        assert sim.trace.counterexample == sim.counterexample
        code, out, _ = run(capsys, "refine", "--impl", "seqlock-relaxed",
                           "--client", client)
        assert code == 1
        assert out.splitlines() == (
            ["verdict: no-simulation", "witness:"]
            + [f"  thread {s['thread']}: {s['label']}"
               for s in sim.counterexample]
            + ["concrete client trace has no abstract match"])
        code, out, _ = run(capsys, "refine", "--json", "--impl",
                           "seqlock-relaxed", "--client", client)
        doc = json.loads(out)
        assert code == 1
        assert (doc["verdict"], doc["witness"], doc["pairs_explored"],
                doc["relation_size"]) == (
            "no-simulation", sim.counterexample, sim.pairs_explored, 0)
        assert "trace_check" not in doc

    def test_truncated_abstract_exploration(self, corpus_dir, capsys,
                                            monkeypatch):
        # the abstract system's context has the lock's specification, the
        # concrete one's none: only the abstract exploration is truncated
        import rarcheck.refine as rf
        original = rf.explore
        calls = []

        def abstract_truncated(cfg0, ctx, *args, **kwargs):
            res = original(cfg0, ctx, *args, **kwargs)
            calls.append(res)
            if ctx.object_spec is None:
                return res
            return ExploreResult(*(True if f == "truncated"
                                   else getattr(res, f)
                                   for f in ExploreResult._fields))

        monkeypatch.setattr(rf, "explore", abstract_truncated)
        lf = load_corpus("seqlock-refine")
        sim = rf.check_simulation(builtin_impls()["seqlock"], lf, 64)
        assert (sim.verdict, sim.detail) == (
            "unknown-beyond-bound", "abstract exploration truncated")
        # the concrete system is not searched at all
        assert sim.abstract.truncated and sim.explored is None
        code, out, _ = run(capsys, "refine", "--json", "--impl", "seqlock",
                           "--client", str(corpus_dir / "seqlock-refine.lit"))
        doc = json.loads(out)
        assert code == 2
        assert (doc["verdict"], doc["detail"]) == (
            "unknown-beyond-bound", "abstract exploration truncated")
        assert "trace_check" not in doc
        assert len(calls) == 2  # the abstract exploration, once per check


ACQUIRE_RESULT_CLIENT = """name acq-result
init x := 0
object lock l
thread 1 { r0 := l.acquire(); x := 1; l.release(); }
thread 2 { l.acquire(); r1 <- x; l.release(); }
"""


class TestSharedParser:
    def test_nothing_is_built_per_call(self, corpus_dir, capsys,
                                       monkeypatch):
        # the parser and the implementation table are built at import
        import argparse
        built, codes = [], []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        monkeypatch.setattr("rarcheck.cli.builtin_impls",
                            lambda: built.append("impls"))
        for argv in (["explore", str(corpus_dir / "mp-relacq.lit")],
                     ["outline", "--json", str(corpus_dir / "lockmp.lit")],
                     ["hoare", str(corpus_dir / "lockmp.lit")],
                     ["refine", "--impl", "seqlock", "--client",
                      str(corpus_dir / "seqlock-refine.lit")],
                     ["oracle", "fifo", "--enqs", "1"],
                     ["explore", "--nope", "x"]):
            codes.append(run(capsys, *argv)[0])
        assert codes == [0, 0, 0, 0, 0, 3]
        assert built == []

    def test_argv_error_leaves_no_state(self, corpus_dir, capsys):
        argv = ["explore", "--json", str(corpus_dir / "mp-relacq.lit")]
        before = run(capsys, *argv)
        code, out, err = run(capsys, "explore", "--max-steps", "x",
                             "--json", "--nope")
        assert (code, out) == (3, "") and err.startswith("error: ")
        assert run(capsys, *argv) == before
        assert before[0] == 0 and before[2] == ""

    def test_help_exits_zero_and_leaves_no_state(self, corpus_dir, capsys):
        argv = ["explore", str(corpus_dir / "mp-relacq.lit")]
        before = run(capsys, *argv)
        for help_argv in (["--help"], ["explore", "--help"]):
            with pytest.raises(SystemExit) as done:
                run_cli(help_argv)
            assert done.value.code == 0
            assert capsys.readouterr().out.startswith("usage: rarcheck ")
        assert run(capsys, *argv) == before

    def test_step_bound_is_not_remembered(self, corpus_dir, capsys):
        path = str(corpus_dir / "mp-relacq.lit")
        code, out, _ = run(capsys, "explore", "--json", "--max-steps", "1",
                           path)
        assert code == 2 and json.loads(out)["truncated"] is True
        default = run(capsys, "explore", "--json", path)
        assert default == run(capsys, "explore", "--json", "--max-steps",
                              "64", path)
        assert default[0] == 0 and json.loads(default[1])["truncated"] is False


class TestOracle:
    def test_fifo(self, capsys):
        code, out, _ = run(capsys, "oracle", "fifo", "--enqs", "2")
        assert code == 0
        assert "pass" in out

    def test_module_runs_the_driver(self):
        # `python -m rarcheck` is the command-line driver, exit code included
        env = dict(os.environ,
                   PYTHONPATH=str(Path(rarcheck.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "rarcheck", "oracle",
                               "fifo", "--enqs", "2", "--json"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        # 54 states in full; the oracle reads only terminal states and
        # reachable components, so it explores reduced
        # (test_reduction.test_fifo_state_counts pins both)
        assert json.loads(done.stdout)["states_explored"] == 19
        bad = subprocess.run([sys.executable, "-m", "rarcheck", "oracle",
                              "fifo", "--enqs", "-1"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert bad.returncode == 3 and bad.stderr.startswith("error: ")


class TestErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "explore", "--nope", "x")
        assert code == 3

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "explore", "does-not-exist.lit")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["explore", "{dir}/mp-relacq.lit"],
        ["outline", "{dir}/lockmp.lit"],
        ["hoare", "{dir}/lockmp.lit"],
        ["refine", "--impl", "seqlock", "--client",
         "{dir}/seqlock-refine.lit"],
    ])
    def test_zero_step_bound(self, corpus_dir, capsys, argv):
        argv = [a.format(dir=corpus_dir) for a in argv] + ["--max-steps", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "--max-steps" in err

    @pytest.mark.parametrize("max_steps,reduced,full", [
        (1, 2, 2), (2, 2, 3), (4, 2, 3), (5, 3, 3)])
    def test_input_error_beyond_a_reduced_bound(self, tmp_path, capsys,
                                                max_steps, reduced, full):
        # explore and hoare run thread 1's silent steps first, so at bounds
        # 2 to 4 they stop on the bound before thread 2's faulty second
        # step, which the full run of outline reaches at level 2
        path = tmp_path / "error-behind.lit"
        path.write_text("name error-behind\ninit x := 0\n"
                        "thread 1 { a1 := 0; b1 := 0; }\n"
                        "thread 2 { x := 1; c2 := - (true); }\n")
        for command, code in (("explore", reduced), ("hoare", reduced),
                              ("outline", full)):
            got, _, err = run(capsys, command, str(path), "--max-steps",
                              str(max_steps))
            assert got == code, command
            assert err.count("error:") == (code == 3)

    def test_negative_enqueue_count(self, capsys):
        code, out, err = run(capsys, "oracle", "fifo", "--enqs", "-1")
        assert code == 3
        assert err.count("\n") == 1 and "--enqs" in err

    @pytest.mark.parametrize("argv", [
        ["explore"], ["outline"], ["hoare"],
        ["refine", "--impl", "seqlock", "--client"]])
    def test_undecodable_file_is_an_input_error(self, tmp_path, capsys,
                                                argv):
        bad = tmp_path / "bad.lit"
        bad.write_bytes(b"name x\n\xff\n")
        code, out, err = run(capsys, *argv, str(bad))
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")

    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_too_deep_is_an_input_error(self, tmp_path, capsys, shape):
        n, (line, col) = TOO_DEEP[shape]
        path = tmp_path / f"{shape}.lit"
        path.write_text(deep_inputs(n)[shape])
        for command in ("explore", "outline", "hoare"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (3, "")
            assert err == (f"error: nesting deeper than 150 levels at "
                           f"{line}:{col}\n")

    @pytest.mark.parametrize("shape,code,outcome", [
        ("parens", 0, "r=1"), ("nots", 0, "r=1"), ("ifs", 2, None),
        ("terms", 0, "r=100")])
    def test_depth_100_runs(self, tmp_path, capsys, shape, code, outcome):
        path = tmp_path / f"{shape}.lit"
        path.write_text(deep_inputs(100)[shape])
        got, out, err = run(capsys, "explore", str(path))
        assert (got, err) == (code, "")
        if outcome:
            assert f"outcome: {outcome}\n" in out

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.lit"
        bad.write_text("name t\nthread 1 { x := }\n")
        code, _, err = run(capsys, "explore", str(bad))
        assert code == 3

    @pytest.mark.parametrize("stmt,final", [
        ("r1 := 5 % 0;", ""),
        ("r1 := bot + 1;", ""),
        ("if r1 < empty then { r2 := 1; } else { r2 := 2; }", ""),
        ("r1 := 1;", "final { r1 + bot = 1 }\n"),
    ])
    def test_expression_fault_is_an_input_error(self, tmp_path, capsys, stmt,
                                                final):
        # an operator that rejects its operands' values is a fault of the
        # input: exit 3 with one error line naming the expression
        bad = tmp_path / "bad.lit"
        bad.write_text(f"name t\ninit x := 0\nthread 1 {{ r1 := 0; {stmt} }}\n"
                       + final)
        code, out, err = run(capsys, "explore", str(bad))
        assert code == 3
        assert out == ""
        assert err.startswith("error: cannot evaluate (")
        assert err.count("\n") == 1

    def test_expression_fault_quotes_the_expression_as_written(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.lit"
        bad.write_text("name t\nthread 1 { r := bot; s := -r; }\n")
        code, out, err = run(capsys, "explore", str(bad))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot evaluate -r: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("decl,body,call", [
        ("queue q", "q.enq();", "q.enq()"),
        ("lock l", "l.acquire(); l.release(5);", "l.release(5)"),
        ("queue q", "r := q.deq(7);", "q.deq(7)"),
    ])
    def test_wrong_number_of_arguments_is_an_input_error(self, tmp_path,
                                                         capsys, decl, body,
                                                         call):
        # a call's arity is checked against the object when the system is
        # built: exit 3 with one error line naming the call, from every
        # command that builds it
        bad = tmp_path / "arity.lit"
        bad.write_text(f"name t\nobject {decl}\nthread 1 {{ {body} }}\n")
        commands = [["explore"], ["outline"], ["hoare"]]
        if decl.startswith("lock"):
            commands.append(["refine", "--impl", "seqlock", "--client"])
        for argv in commands:
            code, out, err = run(capsys, *argv, str(bad))
            assert (code, out) == (3, "")
            assert err.startswith(f"error: thread 1: {call} passes ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("call,message", [
        ("l.steal();", "object 'l' has no method 'steal'"),
        ("q.enq(1);", "no object named 'q'"),
    ])
    def test_unreachable_bad_call_is_an_input_error(self, tmp_path, capsys,
                                                    call, message):
        # every call is checked against the declared object when the system
        # is built, also one in a branch that no run takes
        bad = tmp_path / "bad-call.lit"
        bad.write_text("name t\nobject lock l\nthread 1 { r := 0; "
                       f"if r = 1 then {{ {call} }} else {{ r := 2; }} }}\n")
        for argv in (["explore"], ["outline"], ["hoare"],
                     ["refine", "--impl", "seqlock", "--client"]):
            code, out, err = run(capsys, *argv, str(bad))
            assert (code, out) == (3, "")
            assert err == f"error: thread 1: {call[:-1]}: {message}\n"

    @pytest.mark.parametrize("text,error", [
        ("thread 1 { r := 1; }\nthread 1 { s := 1; }\n",
         "duplicate thread id"),
        ("object lock l\nthread 1 { l.acquire(); }\n"
         "final { cvd(l.acquire_x) }\n",
         "bad method instance 'acquire_x' at 4:24"),
        ("init x := 0\nthread 1 { x := 1; }\nfinal { pobs(1, x=1)@Q }\n",
         "lift must be @C or @L at 4:24"),
        ("thread 1 { r := 1; }\nfinal { pc(1) > 2 }\n",
         "expected '=' or 'in' after pc(t) at 3:15"),
        ("object lock l\nthread 1 { l.acquire(); }\nfinal { cvd(l.steal) }\n",
         "unknown method 'steal' at 4:20"),
    ], ids=["thread-id", "method-instance", "lift", "pc", "method"])
    def test_rejected_by_the_parser(self, tmp_path, capsys, text, error):
        bad = tmp_path / "bad.lit"
        bad.write_text("name t\n" + text)
        for argv in (["explore"], ["outline"], ["hoare"],
                     ["refine", "--impl", "seqlock", "--client"]):
            assert run(capsys, *argv, str(bad)) == (3, "", f"error: {error}\n")

    def test_expression_fault_in_a_refine_client(self, tmp_path, capsys):
        # both explorations meet the fault; the abstract one, explored
        # first, raises it
        bad = tmp_path / "fault.lit"
        bad.write_text("name t\ninit d := 0\nobject lock l\nthread 1 { "
                       "l.acquire(); a := 1 % 0; d := 1; l.release(); }\n")
        assert run(capsys, "refine", "--impl", "seqlock", "--client",
                   str(bad)) == (3, "", "error: cannot evaluate (1 % 0): "
                                 "integer modulo by zero\n")

    @pytest.mark.parametrize("bound", [10, 12, 14, 20])
    def test_abstract_error_is_reported_before_the_concrete_bound(
            self, tmp_path, capsys, bound):
        # the abstract exploration meets the fault within each bound, and
        # runs first: the concrete one, which would stop truncated before
        # the fault below bound 20, is not explored
        bad = tmp_path / "late-fault.lit"
        bad.write_text("name t\ninit d := 0\nobject lock l\nthread 1 { "
                       "l.acquire(); l.release(); l.acquire(); l.release(); "
                       "a := 1 % 0; }\n")
        assert run(capsys, "refine", "--impl", "seqlock", "--client",
                   str(bad), "--max-steps", str(bound)) == (
            3, "", "error: cannot evaluate (1 % 0): integer modulo by zero\n")

    def test_impl_note_is_an_input_error(self, tmp_path, capsys):
        # an object declaration names no implementation (`refine --impl`
        # does), so a leftover `impl NAME` note is rejected where it stands
        bad = tmp_path / "impl-note.lit"
        bad.write_text("name t\ninit d := 0\nobject lock l impl seqlock\n"
                       "thread 1 { l.acquire(); d := 1; l.release(); }\n")
        for argv in (["explore"], ["outline"], ["hoare"],
                     ["refine", "--impl", "seqlock", "--client"]):
            code, out, err = run(capsys, *argv, str(bad))
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and err.endswith(" at 3:15\n")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    @pytest.mark.parametrize("threads,t", [
        ("thread 1 { l.release(); l.acquire(); d := 1; l.release(); }", 1),
        ("thread 1 { l.acquire(); d := 1; l.release(); }\n"
         "thread 2 { l.release(); }", 2),
        ("thread 1 { l.acquire(); l.release(); l.release(); }", 1),
        ("thread 1 { l.acquire(); l.release(); l.release(); }\n"
         "thread 2 { l.acquire(); l.release(); }\n"
         "thread 3 { l.acquire(); l.release(); }", 1),
    ], ids=["before-acquire", "by-another-thread", "double-release",
            "double-release-beside-two"])
    def test_release_without_the_lock_names_the_client_call(
            self, tmp_path, capsys, impl, threads, t):
        # a client release that can run while its thread does not hold the
        # lock is found in the abstract exploration, before the concrete
        # one, and reported as the client's call under every
        # implementation, whether or not the implementation's release
        # reads a register its acquire has not set
        bad = tmp_path / "release-first.lit"
        bad.write_text(f"name release-first\ninit d := 0\nobject lock l\n"
                       f"{threads}\n")
        code, out, err = run(capsys, "refine", "--impl", impl, "--client",
                             str(bad))
        assert (code, out) == (3, "")
        assert err == (f"error: thread {t}: l.release() can run while "
                       f"thread {t} does not hold the lock 'l'\n")

    def test_deep_thread_is_hashed_without_recursion(self, tmp_path, capsys):
        # command nodes hash at construction, so configuration keys over a
        # 600-statement thread no longer recurse once per statement
        deep = tmp_path / "deep.lit"
        deep.write_text("name deep\ninit x := 0\nthread 1 {\n"
                        + "  x := 1;\n" * 600 + "}\n")
        code, out, err = run(capsys, "explore", str(deep), "--max-steps",
                             "2000")
        assert code == 0 and err == ""
        # the initial state and one per write; 1,200 in full, where the
        # step past each finished write is a state too
        assert "verdict: pass" in out and "states_explored: 601" in out

    def test_deep_thread_builds_without_recursion(self, tmp_path, capsys):
        # building walks a Seq chain along its right spine by a loop, and
        # reads no literals, so a 1,500-statement thread explores
        deep = tmp_path / "deep.lit"
        deep.write_text("name deep\ninit x := 0\nthread 1 {\n"
                        + "  x := 1;\n" * 1500 + "}\n")
        code, out, err = run(capsys, "explore", str(deep), "--max-steps",
                             "5000")
        assert code == 0 and err == ""
        assert "verdict: pass" in out and "states_explored: 1501" in out

    def test_internal_error_is_not_a_verdict(self, corpus_dir, capsys,
                                             monkeypatch):
        # a fault inside the engine (here injected into the memory rules)
        # is a fault of the tool, so it must not exit 1 ("violation found")
        import rarcheck.memory as memory

        def boom(*args):
            raise RuntimeError("injected\nfault")

        monkeypatch.setattr(memory, "mem_write", boom)
        code, out, err = run(capsys, "explore",
                             str(corpus_dir / "mp-relacq.lit"))
        assert code == 4
        assert out == ""
        assert err.startswith("error: internal: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_broken_engine_invariant_is_internal(self, corpus_dir, capsys,
                                                 monkeypatch):
        # a StateError is an invariant of the engine broken, not an input
        # error: build_system rejects every input that once reached one
        import rarcheck.memory as memory

        def broken(*args):
            raise StateError("injected")

        monkeypatch.setattr(memory, "mem_write", broken)
        code, out, err = run(capsys, "explore",
                             str(corpus_dir / "mp-relacq.lit"))
        assert (code, out) == (4, "")
        assert err == "error: internal: StateError: injected\n"

    def test_pc_of_an_undeclared_thread_is_an_input_error(self, tmp_path,
                                                          capsys):
        # found by the mutated-corpus fuzz: `pc(22)` in an invariant exited
        # 4 with a KeyError
        bad = tmp_path / "pc.lit"
        bad.write_text("name t\ninit x := 0\nthread 1 { x := 1; }\n"
                       "invariant { pc(22) = 1 }\nfinal { pc(22) in {1,2} }\n")
        for command in ("explore", "outline", "hoare"):
            code, out, err = run(capsys, command, str(bad))
            assert (code, out) == (3, "")
            assert err == "error: pc(22): no thread 22\n"

    # an atom that evaluation skips was never checked: `true or pc(5) = 1`
    # and `true or q = 1` gave a verdict, where the other operand order
    # stopped with an error; both orders are rejected when the file is built.
    # The initialised global g is no register either.
    @pytest.mark.parametrize("clause, error", [
        ("true or pc(5) = 1", "pc(5): no thread 5"),
        ("pc(5) = 1 or true", "pc(5): no thread 5"),
        ("true or q = 1", "(q = 1): no register 'q'"),
        ("q = 1 or true", "(q = 1): no register 'q'"),
        ("true or pobs(1, x=q)", "pobs(1, x=q): no register 'q'"),
        ("(forall q in {1}: q = 1) and p = 1", "(p = 1): no register 'p'"),
        ("true or g = 1", "(g = 1): no register 'g'"),
        ("g = 1 or true", "(g = 1): no register 'g'"),
    ])
    @pytest.mark.parametrize("command", ["explore", "outline", "hoare"])
    def test_skipped_atom_of_an_undeclared_name_is_an_input_error(
            self, tmp_path, capsys, clause, error, command):
        bad = tmp_path / "skipped.lit"
        bad.write_text("name t\ninit x := 0; g := 0\n"
                       "thread 1 { r <- g; x := 1; }\n"
                       f"final {{ {clause} }}\n")
        assert run(capsys, command, str(bad)) == (3, "", f"error: {error}\n")

    @pytest.mark.parametrize("clause", ["forall q in {1}: q = 1",
                                        "exists q in {0, 1}: pobs(1, x=q)"])
    def test_quantified_register_builds(self, tmp_path, capsys, clause):
        good = tmp_path / "bound.lit"
        good.write_text(f"name t\ninit x := 0\nthread 1 {{ x := 1; }}\n"
                        f"final {{ {clause} }}\n")
        for command in ("explore", "outline", "hoare"):
            assert run(capsys, command, str(good))[0] == 0, command

    # a view atom that names an undeclared thread, variable or object read
    # a missing view as false (pobs, dobs) or true (cond) and gave a verdict
    @pytest.mark.parametrize("clause, error", [
        ("pobs(22, x=0)", "pobs(22, x=0): no thread 22"),
        ("cond(22, x=0, x=7)", "cond(22, x=0, x=7): no thread 22"),
        ("dobs(22, x=1)", "dobs(22, x=1): no thread 22"),
        ("pobs(1, y=0)", "pobs(1, y=0): undeclared variable 'y'"),
        ("cond(1, y=0, x=7)", "cond(1, y=0, x=7): undeclared variable 'y'"),
        ("cond(1, x=1, y=7)", "cond(1, x=1, y=7): undeclared variable 'y'"),
        ("dobs(1, q.init)", "dobs(1, q.init): no object named 'q'"),
        ("pobs(1, l.init_0)", "pobs(1, l.init_0): no object named 'l'"),
        ("cvd(q.init)", "cvd(q.init): no object named 'q'"),
        ("cvv(l.release_2)", "cvv(l.release_2): no object named 'l'"),
        ("cond(1, l.release_2, x=1)",
         "cond(1, l.release_2, x=1): no object named 'l'"),
        ("forall v in {0, 1}: pobs(2, x=v)",
         "pobs(2, x=v): no thread 2"),
    ])
    @pytest.mark.parametrize("where", ["final", "invariant", "annotation"])
    def test_view_of_an_undeclared_name_is_an_input_error(self, tmp_path,
                                                          capsys, clause,
                                                          error, where):
        body = "x := 1;"
        if where == "annotation":
            body = f"{{ {clause} }} x := 1;"
        text = f"name t\ninit x := 0\nthread 1 {{ {body} }}\n"
        if where != "annotation":
            text += f"{where} {{ {clause} }}\n"
        bad = tmp_path / "view.lit"
        bad.write_text(text)
        for command in ("explore", "outline", "hoare"):
            code, out, err = run(capsys, command, str(bad))
            assert (code, out, err) == (3, "", f"error: {error}\n"), command

    @pytest.mark.parametrize("clause,atom", [
        ("pobs(1, x=1)@L", "pobs(1, x=1)@L"),
        ("not pobs(1, x=1)@L", "pobs(1, x=1)@L"),
        ("cond(1, x=1, x=1)@L", "cond(1, x=1, x=1)@L"),
        ("dobs(1, x=1)@L", "dobs(1, x=1)@L"),
        ("pobs(1, x=0)@C and cond(1, x=1, x=1)@L", "cond(1, x=1, x=1)@L"),
    ])
    @pytest.mark.parametrize("command", ["explore", "outline", "hoare"])
    def test_variable_lifted_to_the_library_is_an_input_error(
            self, tmp_path, capsys, clause, atom, command):
        # x is a client variable: the library component has no column for
        # it, so no view of it there can be read as false or true
        bad = tmp_path / "lift.lit"
        bad.write_text(f"name t\ninit x := 0\nthread 1 {{ x := 1; }}\n"
                       f"final {{ {clause} }}\n")
        assert run(capsys, command, str(bad)) == (
            3, "", f"error: {atom}: 'x' is a client variable, not in the "
            f"library component\n")

    @pytest.mark.parametrize("clause,atom", [
        ("pobs(1, l.acquire_1)@C", "pobs(1, l.acquire_1)@C"),
        ("not dobs(1, l.init_0)@C", "dobs(1, l.init_0)@C"),
        ("cond(1, l.release_2, x=1)@C", "cond(1, l.release_2, x=1)@C"),
    ])
    @pytest.mark.parametrize("command", ["explore", "outline", "hoare"])
    def test_method_lifted_to_the_client_is_an_input_error(
            self, tmp_path, capsys, clause, atom, command):
        bad = tmp_path / "lift.lit"
        bad.write_text(f"name t\ninit x := 0\nobject lock l\n"
                       f"thread 1 {{ l.acquire(); }}\nfinal {{ {clause} }}\n")
        assert run(capsys, command, str(bad)) == (
            3, "", f"error: {atom}: 'l' is the library object, not in the "
            f"client component\n")

    def test_variable_lifted_to_the_client_is_read_there(self, tmp_path,
                                                          capsys):
        good = tmp_path / "lift.lit"
        for clause, code in (("pobs(1, x=1)@C", 0), ("dobs(1, x=0)@C", 1),
                             ("cond(1, x=1, x=1)@C", 1)):
            good.write_text(f"name t\ninit x := 0\nthread 1 {{ x := 1; }}\n"
                            f"final {{ {clause} }}\n")
            assert run(capsys, "hoare", str(good))[0] == code, clause

    def test_view_of_an_undeclared_name_in_a_refine_client(self, tmp_path,
                                                           capsys):
        bad = tmp_path / "client.lit"
        bad.write_text(corpus_text("lock-two-rounds").replace(
            "final {", "invariant { not pobs(3, d=2) }\nfinal {"))
        code, out, err = run(capsys, "refine", "--impl", "seqlock",
                             "--client", str(bad))
        assert (code, out, err) == (3, "",
                                    "error: pobs(3, d=2): no thread 3\n")


CORPUS = Path(rarcheck.__file__).parent / "corpus"


@pytest.mark.parametrize("argv,code", [
    (["explore", str(CORPUS / "mp-relacq.lit")], 0),
    (["explore", str(CORPUS / "queue-mp.lit"), "--json"], 2),
    (["refine", "--impl", "seqlock-relaxed", "--client",
      str(CORPUS / "lock-two-rounds.lit"), "--json"], 1),
])
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # a reader that has gone (`| head -c 10`) is no fault of rarcheck: the
    # exit code is the check's, and nothing is printed to stderr
    env = dict(os.environ, PYTHONPATH=str(Path(rarcheck.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "rarcheck", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (code, "")


@pytest.fixture()
def collector():
    """Leaves the cyclic collector as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestCollector:
    # a command runs with the cyclic collector paused: a checked system
    # holds no reference cycle, so the collector would only rescan the heap

    def test_paused_while_a_command_runs(self, capsys, monkeypatch,
                                         collector):
        import rarcheck.cli as cli
        seen = []
        original = cli._cmd_explore

        def spy(args):
            seen.append(gc.isenabled())
            return original(args)

        monkeypatch.setattr(cli, "_cmd_explore", spy)
        gc.enable()
        code, _, _ = run(capsys, "explore", str(CORPUS / "mp-relacq.lit"))
        assert code == 0 and seen == [False] and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_previous_state_restored_on_every_exit(self, capsys, monkeypatch,
                                                   collector, enabled):
        import rarcheck.cli as cli
        (gc.enable if enabled else gc.disable)()
        for argv, code in [
                (["explore", str(CORPUS / "mp-relacq.lit")], 0),
                (["outline", str(CORPUS / "lockmp-mutant.lit")], 1),
                (["explore", str(CORPUS / "queue-mp.lit")], 2),
                (["explore", str(CORPUS / "no-such-file.lit")], 3),
                (["explore"], 3)]:  # an argument error
            assert run(capsys, *argv)[0] == code, argv
            assert gc.isenabled() is enabled, argv
        with pytest.raises(SystemExit) as exc:
            run_cli(["--help"])
        assert exc.value.code == 0 and gc.isenabled() is enabled

        def boom(args):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "_cmd_explore", boom)
        assert run(capsys, "explore", str(CORPUS / "mp-relacq.lit"))[0] == 4
        assert gc.isenabled() is enabled

    def test_text_commands_leave_no_cycle(self, collector):
        # with the collector off, nothing a command leaves behind needs it:
        # reference counting has freed every system and every result
        files = sorted(CORPUS.glob("*.lit"))
        assert len(files) == 8
        runs = [[command, str(f)] for f in files
                for command in ("explore", "outline", "hoare")]
        runs += [["refine", "--impl", impl, "--client", str(f)]
                 for f in files for impl in sorted(builtin_impls())]
        runs.append(["oracle", "fifo", "--enqs", "3"])
        for argv in runs:
            gc.collect()
            gc.disable()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run_cli(argv)
            assert gc.collect() == 0, argv
