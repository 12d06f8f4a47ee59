"""Start-up cost of the CLI: ``python -S -c "import skewplane.cli"`` per fresh process.

    python tools/importtime.py            # the working tree, 30 rounds
    python tools/importtime.py HEAD       # HEAD against the working tree

Each round starts one process per side and takes its wall time, process
start included; ``-S`` keeps the ``site`` module's imports, which the
package cannot change, out of the figure.  Given a git revision, the tool
exports it with ``git archive`` (``export`` of ``tools/abpairs.py``) and
times it too, the sides interleaved and flipping which runs first each
round.  Prints each side's best time, median and quartiles in ms, and with
a revision the working tree's best and median minus the revision's.

The working tree's ``src`` is timed from a copy without its
``__pycache__`` directories, as an export has none, and the children run
with ``PYTHONDONTWRITEBYTECODE=1``, the benchmark host's setting, so no
side ever reads or writes the package's bytecode: each import compiles the
package's modules, as on the benchmark's fresh checkouts, and reads the
standard library's cached bytecode.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from abpairs import ROOT, export, number, quartiles

ROUNDS = 30


def time_import(tree: Path) -> float:
    """Wall time in ms of one fresh ``python -S`` importing the CLI of ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-S", "-c", "import skewplane.cli"],
                           env=env, capture_output=True, text=True)
    elapsed = (time.perf_counter() - start) * 1000
    if child.returncode != 0:
        raise RuntimeError(f"import failed in {tree}: {child.stderr.strip()[-500:]}")
    return elapsed


def summary(sides: dict) -> list:
    """A line per side of ``sides`` (label to times in ms), best, median and
    quartiles; with two sides, a last line of the second minus the first."""
    lines = []
    for label, times in sides.items():
        q1, median, q3 = quartiles(times)
        lines.append(f"{label:<10} best {number(min(times))}  "
                     f"median {number(median)} [{number(q1)}, {number(q3)}]")
    if len(sides) == 2:
        first, second = sides.values()
        lines.append(f"{'difference':<10} best {number(min(second) - min(first))}  "
                     f"median {number(statistics.median(second) - statistics.median(first))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="a revision to time too, e.g. HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="importtime-") as tmp:
        trees = {"tree": Path(tmp, "tree")}
        shutil.copytree(ROOT / "src", trees["tree"] / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        if args.rev:
            trees = {args.rev: Path(tmp, "rev"), **trees}
            export(args.rev, trees[args.rev])
        sides = {label: [] for label in trees}
        for i in range(ROUNDS):
            for label in (list(trees) if i % 2 == 0 else list(trees)[::-1]):
                sides[label].append(time_import(trees[label]))
    print(f"python -S -c 'import skewplane.cli', {ROUNDS} rounds, ms per process")
    print("\n".join(summary(sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
