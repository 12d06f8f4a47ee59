"""List the statements of ``src/skewplane`` that the tier-1 suite never runs.

Runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``,
then prints each statement of the package none of whose own lines ran, as
``path:line: source``, and their number last.  Standard library only:

    python tools/coverage.py                 # the whole tier-1 suite
    python tools/coverage.py tests/test_plane.py -k intersect

Extra arguments go to pytest.  A statement counts when its compiled code has
a line, so docstrings, ``pass`` and ``global`` do not; a compound statement's
own lines are its decorators and header, up to its body.  A statement whose
own lines carry ``# pragma: no cover`` is left out together with its body.
Tests that run the CLI in a child process are not traced, so what only they
reach is listed.  The exit status is pytest's; the list never fails the run.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "skewplane"
PRAGMA = "# pragma: no cover"


def code_lines(code: types.CodeType) -> set:
    """Every line at which some instruction of ``code`` or its nested code starts."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= code_lines(const)
    return lines


def bodies(node: ast.stmt):
    """The statement lists nested in ``node``: bodies, else and finally
    branches, exception handlers and match cases."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, None) or []
    for clause in getattr(node, "handlers", []) + getattr(node, "cases", []):
        yield clause.body


def statements(path: Path):
    """(first line, own lines) of each statement of the file that has code,
    skipping those marked with the pragma and everything under them."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    executable = code_lines(compile(source, str(path), "exec"))

    def visit(body):
        for node in body:
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            nested = [stmts for stmts in bodies(node) if stmts]
            end = max(nested[0][0].lineno, start + 1) if nested else node.end_lineno + 1
            own = range(start, end)
            if any(PRAGMA in text[line - 1] for line in own):
                continue
            if executable.intersection(own):
                yield start, own
            for stmts in nested:
                yield from visit(stmts)

    yield from visit(ast.parse(source).body)


def run_traced(pytest_args) -> tuple:
    """Run pytest on ``pytest_args`` under the tracer; (exit status, the
    (file, line) pairs of the package that ran)."""
    files = {str(path) for path in PACKAGE.glob("*.py")}
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv) -> int:
    # the script's own directory would shadow an installed ``coverage``
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(__file__).parent]
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    status, hits = run_traced(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for start, own in statements(path):
            if not any((str(path), line) in hits for line in own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{start}: {text[start - 1].strip()}")
    print(f"{missed} statements of src/skewplane never ran")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
