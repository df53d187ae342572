"""Answers do not depend on the interpreter's hash seed.

States are deduplicated through hashes, so an order that leaked from a set
or dict of hashed values into an answer would differ between processes.
Two interpreters with different PYTHONHASHSEED values run the same CLI
commands through `run_cli` and must print the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import rarcheck
from test_cli import ACQUIRE_RESULT_CLIENT
from test_explore import ONE_AND_TRUE

SCRIPT = r"""
import contextlib, io, pathlib, sys
import rarcheck
from rarcheck.cli import run_cli

corpus_dir = pathlib.Path(rarcheck.__file__).parent / "corpus"
corpus = sorted(corpus_dir.glob("*.lit"))
runs = [[cmd, str(f), "--json"] for f in corpus
        for cmd in ("explore", "outline", "hoare")]
for impl in ("seqlock", "ticketlock", "seqlock-relaxed",
             "ticketlock-relaxed"):
    for client in ("seqlock-refine", "ticketlock-refine", "lock-two-rounds"):
        runs.append(["refine", "--impl", impl, "--client",
                     str(corpus_dir / f"{client}.lit"), "--json"])
# booleans and an assigned acquire's result, from the directory given
extra = pathlib.Path(sys.argv[1])
runs.append(["explore", str(extra / "bools.lit"), "--json"])
runs.append(["refine", "--impl", "seqlock", "--client",
             str(extra / "acq-result.lit"), "--json"])
for argv in runs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    sys.__stdout__.write(f"{argv[:-1]} exit {code}\n{out.getvalue()}"
                         f"{err.getvalue()}\n")
"""


def _run(seed: str, extra: Path) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=str(Path(rarcheck.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", SCRIPT, str(extra)],
                          env=env, capture_output=True, check=True,
                          timeout=600).stdout


def test_outputs_identical_across_hash_seeds(tmp_path):
    (tmp_path / "bools.lit").write_text(ONE_AND_TRUE)
    (tmp_path / "acq-result.lit").write_text(ACQUIRE_RESULT_CLIENT)
    first, second = _run("0", tmp_path), _run("1", tmp_path)
    assert first.count(b" exit ") == 8 * 3 + 4 * 3 + 2
    assert b"exit 3" not in first[first.index(b"bools.lit"):]
    assert first == second
