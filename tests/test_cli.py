import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rarcheck
from rarcheck.cli import run_cli
from rarcheck.litmus import build_system, corpus_text, load_corpus
from rarcheck.refine import builtin_impls


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
        import rarcheck.refine as rf
        client = load_corpus("seqlock-refine")
        concrete = build_system(client, builtin_impls()["seqlock"]).cfg0
        abstract = build_system(client).cfg0
        starts = []
        original = rf.explore

        def counting(cfg0, *args, **kwargs):
            starts.append(cfg0)
            return original(cfg0, *args, **kwargs)

        monkeypatch.setattr(rf, "explore", counting)
        code, out, _ = run(capsys, "refine", "--json", "--impl", "seqlock",
                           "--client", str(corpus_dir / "seqlock-refine.lit"))
        assert code == 0
        assert json.loads(out)["trace_check"] == "trace-refinement"
        assert starts.count(concrete) == 1
        assert starts.count(abstract) == 1
        assert len(starts) == 2

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
        text = corpus_text("lockmp")
        assert "l.acquire(rl)" in text
        client = tmp_path / "lockmp-unbound.lit"
        client.write_text(text.replace("l.acquire(rl)", "l.acquire()"))
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

    def test_skipped_trace_check_is_not_remembered(self, corpus_dir, capsys):
        client = str(corpus_dir / "seqlock-refine.lit")
        code, out, _ = run(capsys, "refine", "--json", "--impl", "seqlock",
                           "--client", client, "--skip-trace-check")
        assert code == 0 and "trace_check" not in json.loads(out)
        code, out, _ = run(capsys, "refine", "--json", "--impl", "seqlock",
                           "--client", client)
        assert code == 0
        assert json.loads(out)["trace_check"] == "trace-refinement"

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
        assert json.loads(done.stdout)["states_explored"] == 54
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

    def test_negative_enqueue_count(self, capsys):
        code, out, err = run(capsys, "oracle", "fifo", "--enqs", "-1")
        assert code == 3
        assert err.count("\n") == 1 and "--enqs" in err

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

    def test_deep_thread_is_hashed_without_recursion(self, tmp_path, capsys):
        # command nodes hash at construction, so configuration keys over a
        # 600-statement thread no longer recurse once per statement
        deep = tmp_path / "deep.lit"
        deep.write_text("name deep\ninit x := 0\nthread 1 {\n"
                        + "  x := 1;\n" * 600 + "}\n")
        code, out, err = run(capsys, "explore", str(deep), "--max-steps",
                             "2000")
        assert code == 0 and err == ""
        assert "verdict: pass" in out and "states_explored: 1200" in out

    def test_deep_thread_builds_without_recursion(self, tmp_path, capsys):
        # building walks a Seq chain along its right spine by a loop, and
        # reads no literals, so a 1,500-statement thread explores
        deep = tmp_path / "deep.lit"
        deep.write_text("name deep\ninit x := 0\nthread 1 {\n"
                        + "  x := 1;\n" * 1500 + "}\n")
        code, out, err = run(capsys, "explore", str(deep), "--max-steps",
                             "5000")
        assert code == 0 and err == ""
        assert "verdict: pass" in out and "states_explored: 3000" in out

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
