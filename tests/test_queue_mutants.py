"""Each single-line mutant of the queue guards that forgetting rests on
(`queue_mutants.MUTANTS`) is caught by a program-level check: a hoare
verdict, in a reduced run that forgets the queue's dead prefix, on a
program whose final clause the real rules make valid.  The FIFO oracle
passes on every one of them (its one dequeuer never meets the guards), so
it is not the check."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import queue_mutants
import rarcheck

TESTS = Path(__file__).resolve().parent


def test_the_real_rules_make_every_program_valid():
    assert set(queue_mutants.verdicts().values()) == {"valid"}


@pytest.mark.parametrize("name", sorted(queue_mutants.MUTANTS))
def test_mutant_is_caught(tmp_path, name):
    package = tmp_path / "rarcheck"
    shutil.copytree(Path(rarcheck.__file__).parent, package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    file, line, mutation = queue_mutants.MUTANTS[name]
    path = package / file
    text = path.read_text()
    assert text.count(line + "\n") == 1, line
    path.write_text(text.replace(line + "\n", mutation + "\n"))
    out = subprocess.run(
        [sys.executable, "-c", "import json, queue_mutants; "
         "print(json.dumps(queue_mutants.verdicts()))"],
        env={"PYTHONPATH": f"{tmp_path}:{TESTS}"}, capture_output=True,
        text=True, check=True)
    assert "invalid" in json.loads(out.stdout).values(), out.stdout
