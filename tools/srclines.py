"""Count the code, docstring, comment and blank lines of ``src/skewplane``.

    python tools/srclines.py            # the working tree
    python tools/srclines.py HEAD       # also HEAD's counts and the change

Each line of each ``.py`` file of the package falls in one kind, the first
that applies: ``code`` when a token other than a comment or a docstring
covers it (a multi-line string that is not a docstring is code, and so is
a line with code and a trailing comment), ``docstring`` when the first
statement of a module, class or function is a string covering it,
``comment`` when it holds a comment, and ``blank`` otherwise.  Given a git
revision, the package's files at that revision are read with ``git show``
and the last row is the working tree minus the revision.  Standard
library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/skewplane"
KINDS = ("code", "docstring", "comment", "blank")
#: Tokens that make no line a code line.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.Module) -> set:
    """The (line, column) at which each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def classify(source: str) -> Counter:
    """How many lines of ``source`` are of each of ``KINDS``."""
    starts = docstring_starts(ast.parse(source))
    found = {kind: set() for kind in KINDS[:3]}  # in order of precedence
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        lines = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.COMMENT:
            found["comment"].add(token.start[0])
        elif token.type == tokenize.STRING and token.start in starts:
            found["docstring"].update(lines)
        elif token.type not in LAYOUT:
            found["code"].update(lines)
    counts = Counter(dict.fromkeys(KINDS, 0))
    for number in range(1, len(source.splitlines()) + 1):
        counts[next((kind for kind, lines in found.items() if number in lines), "blank")] += 1
    return counts


def tree_counts(package: Path) -> Counter:
    """The line counts of every ``.py`` file under ``package``."""
    counts = Counter(dict.fromkeys(KINDS, 0))
    for path in sorted(package.rglob("*.py")):
        counts.update(classify(path.read_text(encoding="utf-8")))
    return counts


def revision_counts(rev: str, repo: Path = ROOT, package: str = PACKAGE) -> Counter:
    """The line counts of every ``.py`` file under ``package`` at ``rev``."""
    def git(*args) -> str:
        return subprocess.run(["git", *args], cwd=repo, capture_output=True,
                              check=True, encoding="utf-8").stdout

    counts = Counter(dict.fromkeys(KINDS, 0))
    for name in git("ls-tree", "-r", "--name-only", rev, "--", package).splitlines():
        if name.endswith(".py"):
            counts.update(classify(git("show", f"{rev}:{name}")))
    return counts


def table(rows: list) -> str:
    """``(label, counts)`` rows under a header, with a total column."""
    width = max(len(label) for label, _ in rows)
    lines = [" " * width + "".join(f"{kind:>11}" for kind in (*KINDS, "total"))]
    for label, counts in rows:
        values = [counts[kind] for kind in KINDS]
        lines.append(f"{label:<{width}}" + "".join(f"{v:>11}" for v in (*values, sum(values))))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a git revision to compare with, e.g. HEAD")
    args = parser.parse_args(argv)
    rows = [("tree", tree_counts(ROOT / PACKAGE))]
    if args.rev:
        then = revision_counts(args.rev)
        change = Counter({kind: rows[0][1][kind] - then[kind] for kind in KINDS})
        rows += [(args.rev, then), ("change", change)]
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
