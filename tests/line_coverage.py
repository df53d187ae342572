"""Statement lines of `src/rarcheck` that a pytest run never executes.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Runs pytest in this process (by default `-q -p no:cacheprovider tests`)
under a `sys.settrace` line tracer that traces only frames of code in
`src/rarcheck`, then prints `path:line: text` for each statement that did
not run and exits with pytest's exit code.  A statement counts as run when
a line of its header ran: its first line up to its body for a compound
statement, all its lines for a simple one.  Docstrings and `try:` lines,
which compile to no instruction of their own, are not listed.  Code that
runs in a subprocess (the CLI tests that start `python -m rarcheck`) is
not traced.  It needs only the standard library and pytest; pytest does
not collect this file.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rarcheck"


def _tracer(ran):
    """A trace function that adds (file name, line) to ran for each line
    run in a frame of code in SRC."""
    ours = {}  # a code object's file name -> whether it lies in SRC

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = Path(name).resolve().parent == SRC
        if ours[name]:
            ran.add((name, frame.f_lineno))
            return local
        return None
    return call


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(tree):
    """(statement, its header's lines) for every statement of a module."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or _is_docstring(node) \
                or isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node, range(first, max(first, last) + 1)


def missed(sources, ran) -> list:
    """(path, line, text) of each statement of `sources` (path -> text)
    none of whose header lines ran, in file and line order."""
    ran = {(Path(name).resolve(), line) for name, line in ran}
    out = []
    for path, text in sources.items():
        lines = text.splitlines()
        for node, header in _statements(ast.parse(text)):
            if not any((path, n) in ran for n in header):
                out.append((path, node.lineno, lines[node.lineno - 1].strip()))
    return sorted(set(out))


def main(argv) -> int:
    # read before the run, so that the lines match the code that ran
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    ran = set()
    trace = _tracer(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    root = SRC.parent.parent
    for path, line, text in missed(sources, ran):
        print(f"{path.relative_to(root)}:{line}: {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
