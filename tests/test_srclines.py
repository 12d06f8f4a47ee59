"""The line kinds of ``tools/srclines.py``, on a small synthetic module.

The tool is a script, not a package module: it is loaded from its path.
"""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "srclines.py"
_SPEC = importlib.util.spec_from_file_location("srclines", _PATH)
srclines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(srclines)

#: 8 code, 6 docstring, 1 comment and 7 blank lines: a string that is not a
#: docstring is code, a blank line inside a docstring is docstring, and a
#: docstring on a line with code is code.
SOURCE = '''\
"""Module docstring
over two lines."""

import os  # code with a trailing comment

# a comment line


def f(x):
    """One line."""
    text = """not a

docstring"""
    return x


class C:
    """Class

    docstring."""

    def g(self): """inline"""
'''
COUNTS = {"code": 8, "docstring": 6, "comment": 1, "blank": 7}


def test_each_line_has_one_kind():
    assert srclines.classify(SOURCE) == COUNTS


def test_a_tree_sums_its_files(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not counted\n", encoding="utf-8")
    want = {**COUNTS, "code": 9, "comment": 2, "blank": 8}
    assert srclines.tree_counts(tmp_path) == want


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_a_revision_is_read_from_git(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "pkg"
    package.mkdir()
    (package / "m.py").write_text(SOURCE, encoding="utf-8")
    git("init", "-q")
    git("add", "pkg")
    git("commit", "-q", "-m", "synthetic module")
    (package / "m.py").write_text("x = 1\n", encoding="utf-8")
    assert srclines.revision_counts("HEAD", repo=tmp_path, package="pkg") == COUNTS


def test_the_package_rows_cover_every_line(capsys):
    assert srclines.main([]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split() == ["code", "docstring", "comment", "blank", "total"]
    total = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (srclines.ROOT / srclines.PACKAGE).rglob("*.py"))
    assert row.split()[0] == "tree" and int(row.split()[-1]) == total
