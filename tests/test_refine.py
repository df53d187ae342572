import contextlib
import io
import json
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rarcheck.explore as ex
import rarcheck.refine as rf
from rarcheck import program as P
from rarcheck.cli import run_cli
from rarcheck.explore import explore, successors
from rarcheck.litmus import (LitmusError, build_system, corpus_text,
                             load_corpus, parse_litmus)
from rarcheck.refine import (builtin_impls, check_simulation,
                             check_trace_refinement)
from rarcheck.state import TRUE
from reference_game import rounds
from reference_unfolded import single_steps
from refine_helpers import (game_moves, outcomes_kept, project_and_destutter,
                            state_refines, trace_check_alone, unbound_client)


def client():
    return load_corpus("seqlock-refine")


def listing(impl, meth):
    """The verbatim body of an implementation's method."""
    return dict(impl.methods)[meth]


class TestBuiltinImpls:
    def test_names(self):
        impls = builtin_impls()
        assert {"seqlock", "ticketlock", "seqlock-relaxed",
                "ticketlock-relaxed"} <= set(impls)

    def test_seqlock_acquire_shape(self):
        body = listing(builtin_impls()["seqlock"], "acquire")
        reads, cases, writes = _count_accesses(body)
        assert reads == [("glb", True)]  # one acquiring read
        assert cases == ["glb"]  # one CAS
        assert writes == []

    def test_ticketlock_acquire_shape(self):
        impl = builtin_impls()["ticketlock"]
        fais = _collect(listing(impl, "acquire"), P.Fai)
        reads = _collect(listing(impl, "acquire"), P.GRead)
        assert [f.var for f in fais] == ["nt"]
        assert [(r.var, r.acquiring) for r in reads] == [("sn", True)]

    def test_release_bodies_single_releasing_write(self):
        for name in ("seqlock", "ticketlock"):
            rel = listing(builtin_impls()[name], "release")
            assert isinstance(rel, P.GWrite) and rel.releasing

    def test_mutants_differ_only_in_release_mode(self):
        impls = builtin_impls()
        for name in ("seqlock", "ticketlock"):
            good, bad = impls[name], impls[f"{name}-relaxed"]
            assert listing(good, "acquire") == listing(bad, "acquire")
            rel = listing(good, "release")
            assert listing(bad, "release") == P.GWrite(rel.var, rel.expr,
                                                       False)

    def test_method_resolution(self):
        impl = builtin_impls()["seqlock"]
        body, ret = impl.method("acquire")
        assert ret is TRUE
        with pytest.raises(LitmusError):
            impl.method("steal")


def _collect(cmd, cls):
    out = []

    def walk(c):
        if isinstance(c, cls):
            out.append(c)
        for attr in ("a", "b", "body", "then", "other", "cmd"):
            if hasattr(c, attr):
                walk(getattr(c, attr))

    walk(cmd)
    return out


def _count_accesses(cmd):
    reads = [(r.var, r.acquiring) for r in _collect(cmd, P.GRead)]
    cases = [c.var for c in _collect(cmd, P.Cas)]
    writes = [w.var for w in _collect(cmd, P.GWrite)]
    return reads, cases, writes


class TestProjection:
    def test_destutter_collapses_runs(self):
        system = build_system(client())
        regs = system.client_locals
        threads = system.ctx.threads
        res = explore(system.cfg0, system.ctx, 64)
        n = res.terminals[0]
        # replay the witness path to obtain an execution
        execution = [system.cfg0]
        cfg = system.cfg0
        for step in res.witness_path(n):
            cfg = next(nxt for t, lab, nxt in successors(cfg, system.ctx)
                       if t == step["thread"]
                       and lab.text == step["label"])
            execution.append(cfg)
        trace = project_and_destutter(execution, regs, threads)
        assert 1 < len(trace) < len(execution)
        assert all(a != b for a, b in zip(trace, trace[1:]))

    def test_library_only_execution_is_singleton(self):
        system = build_system(client())
        regs = system.client_locals
        threads = system.ctx.threads
        cfg = system.cfg0
        execution = [cfg]
        # abstract lock acquire changes only views already at the front
        step = next(nxt for t, lab, nxt in successors(cfg, system.ctx)
                    if "acquire" in lab.text)
        execution.append(step)
        trace = project_and_destutter(execution, regs, threads)
        assert len(trace) == 1


class TestStateRefines:
    def test_reflexive(self):
        system = build_system(client())
        g = system.cfg0.gamma
        ls = {1: {}, 2: {}}
        assert state_refines((ls, g), (ls, g), system.ctx.threads)

    def test_fewer_observations_refine(self):
        from rarcheck.memory import mem_write
        from rarcheck.state import write
        system = build_system(client())
        g, b = system.cfg0.gamma, system.cfg0.beta
        (g2, _, new, _), = mem_write(g, b, 1, write("d1", 5))
        # advance thread 2's view past the init write: strictly fewer obs
        view = list(g2.view(2))
        view[g2.lay.vix["d1"]] = new.ts
        g3 = g2.with_view(2, tuple(view))
        ls = {1: {}, 2: {}}
        assert state_refines((ls, g2), (ls, g3), system.ctx.threads)
        assert not state_refines((ls, g3), (ls, g2), system.ctx.threads)

    def test_local_state_mismatch(self):
        system = build_system(client())
        g = system.cfg0.gamma
        assert not state_refines(({1: {"r1": 0}}, g), ({1: {"r1": 5}}, g),
                                 system.ctx.threads)


class TestSimulation:
    def test_seqlock_found(self):
        res = check_simulation(builtin_impls()["seqlock"], client(), 64)
        assert res.ok and res.relation_size > 0

    def test_ticketlock_found(self):
        res = check_simulation(builtin_impls()["ticketlock"],
                               load_corpus("ticketlock-refine"), 64)
        assert res.ok

    def test_relaxed_release_mutants_fail(self):
        for name, lit in (("seqlock-relaxed", "seqlock-refine"),
                          ("ticketlock-relaxed", "ticketlock-refine")):
            res = check_simulation(builtin_impls()[name], load_corpus(lit), 64)
            assert res.verdict == "no-simulation"
            assert res.counterexample  # concrete path emitted

    def test_sync_free_enforced(self):
        text = ("name bad\ninit d := 0\nobject lock l\nmode refine\n"
                "thread 1 { l.acquire(); d :=R 1; l.release(); }\n"
                "thread 2 { l.acquire(); r1 <- d; l.release(); }\n")
        with pytest.raises(LitmusError, match="releasing write"):
            check_simulation(builtin_impls()["seqlock"], parse_litmus(text),
                             64)

    def test_version_binder_rejected(self):
        with pytest.raises(LitmusError, match="binds rl"):
            check_simulation(builtin_impls()["seqlock"], load_corpus("lockmp"),
                             64)
        text = ("name bound\ninit d := 0; v := 0\nobject lock l\n"
                "mode refine\n"
                "thread 1 { r1 := l.acquire(v); d := 1; l.release(); }\n"
                "thread 2 { l.acquire(); r2 <- d; l.release(); }\n")
        with pytest.raises(LitmusError, match="binds v"):
            check_simulation(builtin_impls()["seqlock"], parse_litmus(text),
                             64)

    def test_client_errors_keep_their_order(self):
        # a binder in any thread is reported before the first
        # synchronisation, which is the first in thread and program order
        text = ("name both\ninit d := 0; v := 0\nobject lock l\n"
                "thread 1 { l.acquire(); r1 <-A d; d :=R 1; l.release(); }\n"
                "thread 2 { l.acquire(%s); r2 <- d; l.release(); }\n")
        seqlock = builtin_impls()["seqlock"]
        with pytest.raises(LitmusError, match="^client thread 2 binds v "):
            check_simulation(seqlock, parse_litmus(text % "v"), 64)
        with pytest.raises(LitmusError,
                           match="^client thread 1 uses an acquiring read$"):
            check_simulation(seqlock, parse_litmus(text % ""), 64)


# Clients whose registers have the names of the built-in locks' locals
# (`r` and `loc` in seqlock, `m_t` and `s_n` in ticketlock) or of the
# register a call's result goes to (`rval`).  The tool names its own
# registers with a '$', which no input name holds, so these registers are
# the client's alone.  Each once gave a wrong answer: no simulation for the
# lock whose local it overwrote, and no outcome s=7 for RVAL_PROGRAM.
SEQLOCK_CLASH_CLIENT = """\
name seqlock-clash
init x := 0
object lock l
thread 1 {
  l.acquire();
  r := 1 - 1 - 1;
  x := r;
  l.release();
}
thread 2 {
  l.acquire();
  a2 <- x;
  l.release();
}
"""

TICKETLOCK_CLASH_CLIENT = """\
name ticketlock-clash
init x := 0
object lock l
thread 1 {
  l.acquire();
  s_n := 7;
  x := s_n;
  l.release();
}
thread 2 {
  l.acquire();
  a2 <- x;
  l.release();
}
"""

RVAL_PROGRAM = """\
name rval
init x := 0
object lock l
thread 1 {
  rval := 7;
  l.acquire();
  x := rval;
  l.release();
}
thread 2 {
  l.acquire();
  s <- x;
  l.release();
}
"""


def _cli(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(args)
    return code, out.getvalue()


class TestToolRegisters:
    @pytest.mark.parametrize("impl", ["seqlock", "ticketlock"])
    @pytest.mark.parametrize("text", [SEQLOCK_CLASH_CLIENT,
                                      TICKETLOCK_CLASH_CLIENT])
    def test_clash_clients_find_a_simulation(self, impl, text):
        sim = check_simulation(builtin_impls()[impl], parse_litmus(text), 64)
        assert sim.verdict == "simulation-found"
        assert check_trace_refinement(sim).ok

    def test_the_result_register_is_the_clients(self):
        system = build_system(parse_litmus(RVAL_PROGRAM))
        res = explore(system.cfg0, system.ctx, 64)
        assert res.outcomes == [{"rval": 7, "s": 0}, {"rval": 7, "s": 7}]

    @pytest.mark.parametrize("text,reg", [(SEQLOCK_CLASH_CLIENT, "r"),
                                          (TICKETLOCK_CLASH_CLIENT, "s_n"),
                                          (RVAL_PROGRAM, "rval")])
    def test_renaming_a_client_register_changes_no_output(self, tmp_path,
                                                          text, reg):
        renamed = re.sub(rf"\b{reg}\b", "a1", text)
        assert renamed != text
        outputs = []
        for i, t in enumerate((text, renamed)):
            path = tmp_path / f"c{i}.lit"
            path.write_text(t)
            out = [_cli(["refine", "--impl", impl, "--client", str(path),
                         "--json"]) for impl in sorted(builtin_impls())]
            code, explored = _cli(["explore", str(path), "--json"])
            report = json.loads(explored)
            # the outcomes with the register renamed, in a fixed order
            report["outcomes"] = sorted(
                json.dumps({"a1" if k == reg else k: v for k, v in o.items()},
                           sort_keys=True) for o in report["outcomes"])
            out.append((code, report))
            outputs.append(out)
        assert outputs[0] == outputs[1]


STALE_READ_CLIENT = """
name stale-read
init x := 0; y := 0
object lock l
thread 1 { l.acquire(); x := 1; y := 1; l.release(); }
thread 2 { l.acquire(); r1 <- y; r2 <- x;
           if r1 = 1 then a := 1 % r2; else a := 0; l.release(); }
"""


class TestConcreteOnlyInputError:
    """Thread 2 divides by x once it has read y = 1.  Under a correct lock
    it then reads x = 1 too; only a relaxed mutant lets it read the stale
    x = 0.  So only the concrete system meets the error: the abstract one,
    explored and vetted first, ends without it.  A full exploration of the
    concrete system raises it; the trace search refutes the mutant first,
    by a stale read of y, and steps no configuration that reaches the
    division.  The error is raised as it is wherever the search meets it,
    with no handler between."""

    @pytest.mark.parametrize("impl,code,out", [
        ("seqlock", 0, "verdict: simulation-found\n"),
        ("seqlock-relaxed", 1, "verdict: no-simulation\n"),
        ("ticketlock-relaxed", 1, "verdict: no-simulation\n"),
    ])
    def test_only_a_mutant_reads_stale(self, tmp_path, impl, code, out):
        path = tmp_path / "stale-read.lit"
        path.write_text(STALE_READ_CLIENT)
        outs, errs = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(outs), \
                contextlib.redirect_stderr(errs):
            assert run_cli(["refine", "--impl", impl, "--client",
                            str(path)]) == code
        assert errs.getvalue() == ""
        assert outs.getvalue().startswith(out)

    @pytest.mark.parametrize("impl", ["seqlock-relaxed",
                                      "ticketlock-relaxed"])
    def test_the_search_refutes_before_the_error(self, impl):
        lf = parse_litmus(STALE_READ_CLIENT)
        abs_sys = build_system(lf)
        assert not explore(abs_sys.cfg0, abs_sys.ctx, 64).truncated
        conc_sys = build_system(lf, builtin_impls()[impl])
        with pytest.raises(P.ProgramError,
                           match=r"^cannot evaluate \(1 % r2\)"):
            explore(conc_sys.cfg0, conc_sys.ctx, 64)
        sim = check_simulation(builtin_impls()[impl], lf, 64)
        assert sim.verdict == "no-simulation"
        assert sim.counterexample[-1] == {"thread": 2, "label": "rd(y,0)@0"}

    def test_an_error_the_search_meets_is_raised(self, monkeypatch):
        # the search reads `explore`'s stepping of the concrete system, the
        # one built with the implementation
        concrete = []

        def building(lf, impl=None):
            system = build_system(lf, impl)
            if impl is not None:
                concrete.append(system.ctx)
            return system

        def failing(cfg, ctx, *rest):
            if ctx in concrete:
                raise P.ProgramError("made up")
            return successors(cfg, ctx, *rest)

        monkeypatch.setattr(rf, "build_system", building)
        monkeypatch.setattr(ex, "successors", failing)
        with pytest.raises(P.ProgramError, match="^made up$"):
            check_simulation(builtin_impls()["seqlock"],
                             parse_litmus(STALE_READ_CLIENT), 64)


# lockmp and lockmp-mutant play the game once their acquires' version binder
# is dropped (refine rejects it), and with it the clauses that read it
# (`unbound_client`)
GAME_CLIENTS = ("seqlock-refine", "ticketlock-refine", "lock-two-rounds",
                "lockmp", "lockmp-mutant")


def _lock_client(n, k):
    """A sync-free lock client: n threads, each running k rounds of acquire,
    a write of d, a read of d into its own register and release."""
    threads = []
    for t in range(1, n + 1):
        body = " ".join(f"l.acquire(); d := {10 * t + j}; r{t}{j} <- d; "
                        "l.release();" for j in range(k))
        threads.append(f"thread {t} {{ {body} }}\n")
    return f"name lock-{n}x{k}\ninit d := 0\nobject lock l\n" + "".join(
        threads)


LOCK_CLIENTS = {**{c: unbound_client(c) for c in GAME_CLIENTS},
                **{f"gen-{n}x{k}": _lock_client(n, k)
                   for n, k in ((1, 1), (1, 2), (2, 1), (2, 2))}}


class TestTraceRefinement:
    def test_both_locks_pass(self):
        assert trace_check_alone(builtin_impls()["seqlock"], client(),
                                 64).ok
        assert trace_check_alone(builtin_impls()["ticketlock"],
                                 load_corpus("ticketlock-refine"), 64).ok

    def test_mutants_fail_with_counterexample(self):
        res = trace_check_alone(builtin_impls()["seqlock-relaxed"],
                                client(), 64)
        assert res.verdict == "violation"
        labels = [s["label"] for s in res.counterexample]
        assert any(lab.startswith("rd(d") for lab in labels[-1:])

    @pytest.mark.parametrize("client_name", ["seqlock-refine",
                                             "lock-two-rounds"])
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_reuses_the_games_abstract_system(self, monkeypatch, impl,
                                              client_name):
        # the trace check builds and explores nothing: the search made it
        # while it explored the concrete system
        impl, lf = builtin_impls()[impl], load_corpus(client_name)
        sim = check_simulation(impl, lf, 64)
        assert not sim.abstract.truncated
        calls = []
        monkeypatch.setattr(rf, "build_system",
                            lambda *a: calls.append(a) or build_system(*a))
        monkeypatch.setattr(rf, "explore",
                            lambda *a: calls.append(a) or explore(*a))
        shared = check_trace_refinement(sim)
        assert calls == []
        assert_agrees(shared, trace_check_alone(impl, lf, 64))
        assert len(calls) == 4  # on its own: both systems, again

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_search_agrees_with_the_reference_walk(self, impl, client):
        # the breadth-first search against the depth-first walk over both
        # full explorations (`reference_trace`)
        lf = parse_litmus(LOCK_CLIENTS[client])
        sim = check_simulation(builtin_impls()[impl], lf, 64)
        ref = trace_check_alone(builtin_impls()[impl], lf, 64)
        assert_agrees(check_trace_refinement(sim), ref)
        assert sim.ok == ref.ok
        if impl.endswith("-relaxed") and len(lf.threads) > 1:
            assert not ref.ok


def assert_agrees(trace, ref):
    """The search's trace check against the reference walk's: equal on a
    pass, which both walk over the same nodes and edges; on a violation,
    both violate, and the search's witness, a shortest violating trace, is
    no longer than the walk's."""
    if ref.ok:
        assert trace == ref
    else:
        assert (trace.verdict, trace.detail) == (ref.verdict, ref.detail)
        assert len(trace.counterexample) <= len(ref.counterexample)


def replay(system, path):
    """Replays `path` step by step, through single steps of the unfolded
    reference: a folded edge of a path is one entry per step."""
    cfg = system.cfg0
    for step in path:
        matches = [nxt for t, lab, nxt in single_steps(cfg, system.ctx)
                   if t == step["thread"] and lab.text == step["label"]]
        assert len(matches) == 1, step
        cfg = matches[0]


def played_game(impl, lf, bound):
    """The game of `impl` against client `lf` at `bound`, played over both
    explorations whether or not the trace search refutes first, as
    (concrete system, moves), or None when either run is truncated."""
    abs_sys, conc_sys = build_system(lf), build_system(lf, impl)
    ab = explore(abs_sys.cfg0, abs_sys.ctx, bound)
    conc = explore(conc_sys.cfg0, conc_sys.ctx, bound)
    if ab.truncated or conc.truncated:
        return None
    return conc_sys, game_moves(abs_sys, ab, conc)


class TestCounterexampleReplay:
    def test_game_counterexample_replays_on_concrete_system(self):
        # the game refutes the mutant too, when it is played
        impl = builtin_impls()["seqlock-relaxed"]
        system, moves = played_game(impl, client(), 64)
        losing = rf._attractor(moves)
        assert 0 in losing
        replay(system, rf._extract_counterexample(0, moves, losing))

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", ["seqlock-relaxed",
                                      "ticketlock-relaxed"])
    def test_search_witness_replays_on_concrete_system(self, impl, client):
        lf = parse_litmus(LOCK_CLIENTS[client])
        res = check_simulation(builtin_impls()[impl], lf, 64)
        if len(lf.threads) == 1:  # nothing to race with
            assert res.ok
            return
        assert (res.verdict, res.detail) == (
            "no-simulation", "concrete client trace has no abstract match")
        replay(build_system(lf, builtin_impls()[impl]), res.counterexample)


class TestAttractor:
    @pytest.mark.parametrize("client", GAME_CLIENTS)
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_layers_match_reference_on_corpus_games(self, impl, client):
        # the games over both explorations, the mutants' included, which
        # the trace search refutes before any game is played
        lf = parse_litmus(unbound_client(client))
        games = [played_game(builtin_impls()[impl], lf, bound)
                 for bound in (25, 64)]
        assert games[-1]  # every client is explored in full at 64 steps
        for _, moves in filter(None, games):
            assert rf._attractor(moves) == rounds(moves)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10).flatmap(lambda n: st.lists(
        st.lists(st.lists(st.integers(0, n - 1), max_size=4), max_size=3),
        min_size=n, max_size=n)))
    @example([[[]]])  # a step with no reply
    @example([[[0]]])  # a self-loop resists forever
    @example([[[1, 1]], [[]]])  # a repeated candidate
    @example([[[1, 2]], [[0]], [[]]])  # a cycle with one escape
    @example([[[1], [2, 2]], [[0]], [[2], []]])
    def test_layers_match_reference_on_generated_games(self, steps):
        moves = [[(None, cands) for cands in pair] for pair in steps]
        assert rf._attractor(moves) == rounds(moves)


PINNED = json.loads((Path(__file__).parent / "golden" /
                     "refine_json.json").read_text(encoding="utf-8"))


class TestPinnedOutputs:
    """`refine --json` output and exit code for 4 impls x 3 lock clients at
    three bounds, recorded before the game took its counter-based form:
    verdicts, relation and pair counts and witnesses must not move.  The
    two `lock-two-rounds` entries of seqlock and ticketlock at 64 steps
    were recorded again when the trace check let the abstract side stutter
    (trace-check-failed, exit 1, before).  The pair and relation counts
    were recorded again when the concrete graph folded implementation-
    silent runs, and again when those runs came to take a spin's loop
    test with them; the unfolded reference game still gives the old ones
    (`test_folded_game`).  The relaxed mutants' entries were recorded again
    when the trace search came to refute before the game (its witness and
    its node count, and a refutation where a truncated run answered
    unknown), and the entries whose abstract run is truncated when the
    abstract exploration came to be checked first."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_refine_json(self, case, tmp_path, capsys):
        impl, client, bound = case.split()
        path = tmp_path / f"{client}.lit"
        path.write_text(corpus_text(client), encoding="utf-8")
        code = run_cli(["refine", "--json", "--impl", impl, "--client",
                        str(path), "--max-steps", bound])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (PINNED[case]["exit"],
                                            PINNED[case]["stdout"], "")


CORPUS_CLI = json.loads((Path(__file__).parent / "golden" /
                         "corpus_cli.json").read_text(encoding="utf-8"))


class TestCorpusOutputs:
    """Exit code, stdout and stderr of `explore`, `outline` and `hoare` on
    the 8 corpus files, as text and `--json`, at bounds 7 and 64, and of
    `oracle fifo --enqs 0..5 --json`, recorded before the engine stopped
    re-checking what the built system guarantees: no answer, count,
    witness or message may move."""

    @pytest.mark.parametrize("case", sorted(CORPUS_CLI))
    def test_cli_output(self, case, tmp_path, capsys):
        command, name, bound, form = case.split()
        if command == "oracle":
            argv = [command, name, "--enqs", bound]
        else:
            path = tmp_path / f"{name}.lit"
            path.write_text(corpus_text(name), encoding="utf-8")
            argv = [command, str(path), "--max-steps", bound]
        if form == "json":
            argv.append("--json")
        code = run_cli(argv)
        out = capsys.readouterr()
        pinned = CORPUS_CLI[case]
        assert (code, out.out, out.err) == (
            pinned["exit"], pinned["stdout"], pinned["stderr"])


class TestChecksAgree:
    """The paper's theorem: a simulation implies trace inclusion.  The game
    is played over both full explorations, whether or not the trace search
    would refute first, and the trace check is the reference walk over
    them.  Both relaxed mutants fail both checks wherever two threads share
    the lock.  On lock-two-rounds a concrete acquire's spin reads change
    the client projection more than once, and the abstract side matches
    them by staying put."""

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_simulation_implies_trace_refinement(self, impl, client):
        lf = parse_litmus(LOCK_CLIENTS[client])
        _, moves = played_game(builtin_impls()[impl], lf, 64)
        simulates = 0 not in rf._attractor(moves)
        trace = trace_check_alone(builtin_impls()[impl], lf, 64)
        if simulates:
            assert trace.ok, trace.counterexample
        if impl.endswith("-relaxed") and len(lf.threads) > 1:
            assert not simulates
            assert trace.verdict == "violation"


class TestOutcomesKept:
    """The refinement theorem as a test oracle that reads no game: where a
    simulation is found, the client's outcomes over the implementation are
    among its outcomes over the abstract lock.  An abstract outcome that the
    implementation never reaches is allowed, and is reported as the
    `outcomes_missing` property, not checked."""

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_a_simulation_keeps_the_clients_outcomes(self, impl, client,
                                                     record_property):
        lf, impl = parse_litmus(LOCK_CLIENTS[client]), builtin_impls()[impl]
        if check_simulation(impl, lf, 200).ok:
            record_property("outcomes_missing",
                            len(outcomes_kept(impl, lf)))

    def test_a_mutant_adds_outcomes(self):
        # the oracle can fail: with two threads on the lock, the relaxed
        # release lets a read see a write from outside its round
        lf = parse_litmus(LOCK_CLIENTS["gen-2x1"])
        for impl in ("seqlock-relaxed", "ticketlock-relaxed"):
            with pytest.raises(AssertionError):
                outcomes_kept(builtin_impls()[impl], lf)


class TestExploresOnce:
    """The game and the trace check read one exploration of each system:
    no configuration of either is stepped twice, neither by exploration nor
    by the refinement checks."""

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_no_configuration_is_stepped_twice(self, monkeypatch, impl,
                                               client):
        stepped = Counter()
        for module in (ex, rf):
            def counting(cfg, ctx, *rest, _successors=module.successors):
                stepped[ctx, cfg] += 1
                return _successors(cfg, ctx, *rest)
            monkeypatch.setattr(module, "successors", counting)
        lf = parse_litmus(LOCK_CLIENTS[client])
        sim = check_simulation(builtin_impls()[impl], lf, 64)
        check_trace_refinement(sim)
        assert len({ctx for ctx, _ in stepped}) == 2  # both systems
        assert max(stepped.values()) == 1


class TestProjectionMemo:
    # one projector serves the abstract and the concrete system of a
    # client: its signatures read only the client's own variables, so a
    # component equal in both systems is signed once
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_client_sig_once_per_component(self, monkeypatch, impl):
        signed = []
        client_sig = rf._client_sig

        def counting(gamma, threads):
            # by content: each system hash-conses its own components
            signed.append(gamma._parts())
            return client_sig(gamma, threads)

        monkeypatch.setattr(rf, "_client_sig", counting)
        impl = builtin_impls()[impl]
        sim = check_simulation(impl, client(), 64)
        assert signed and len(signed) == len(set(signed))

        signed.clear()
        trace_check_alone(impl, client(), 64)  # a projector of its own
        system = build_system(client())
        ab = explore(system.cfg0, system.ctx, 64)
        system = build_system(client(), impl)
        conc = explore(system.cfg0, system.ctx, 64)
        components = ({c.gamma._parts() for c in ab.states} |
                      {c.gamma._parts() for c in conc.states})
        assert len(signed) == len(set(signed)) == len(components)

    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_trace_check_reuses_the_simulation_projector(self, monkeypatch,
                                                         impl):
        # the trace check is the search's, which projected with the game's
        # projector: reading it signs nothing, and it answers as the
        # reference walk does with a projector of its own
        signed = []
        client_sig = rf._client_sig

        def counting(gamma, threads):
            signed.append(gamma._parts())
            return client_sig(gamma, threads)

        monkeypatch.setattr(rf, "_client_sig", counting)
        impl = builtin_impls()[impl]
        sim = check_simulation(impl, client(), 64)
        signed.clear()
        shared = check_trace_refinement(sim)
        assert signed == []
        assert_agrees(shared, trace_check_alone(impl, client(), 64))

    # a check projects each state once, into a list by its number, which
    # the trace search, its answer sets and the game all read, and one memo
    # decides each pair of projections for the answer sets and the game
    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_each_configuration_is_projected_once(self, monkeypatch, impl,
                                                  client):
        projected = Counter()
        projector = rf._projector

        def counting(*args):
            project = projector(*args)

            def counted(cfg):
                projected[cfg] += 1
                return project(cfg)
            return counted

        monkeypatch.setattr(rf, "_projector", counting)
        check_simulation(builtin_impls()[impl],
                         parse_litmus(LOCK_CLIENTS[client]), 64)
        assert projected and max(projected.values()) == 1

    @pytest.mark.parametrize("client", sorted(LOCK_CLIENTS))
    @pytest.mark.parametrize("impl", sorted(builtin_impls()))
    def test_each_projection_pair_is_decided_once(self, monkeypatch, impl,
                                                  client):
        decided = Counter()
        refines = rf._refines

        def counting(aproj, cproj):
            decided[id(aproj), id(cproj)] += 1
            return refines(aproj, cproj)

        monkeypatch.setattr(rf, "_refines", counting)
        check_simulation(builtin_impls()[impl],
                         parse_litmus(LOCK_CLIENTS[client]), 64)
        assert decided and max(decided.values()) == 1
