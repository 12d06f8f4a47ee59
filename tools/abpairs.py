"""Alternating A/B runs of the benchmark: a git revision against the working tree.

    python tools/abpairs.py REV --workload W [--pairs 10] [--seed 1]

Exports REV with ``git archive`` to a temporary directory, then runs
``bench/run.py --trace 0`` in that tree and in this one, pair after pair,
flipping which side runs first each pair; pair i uses seed ``--seed`` + i
on both sides.  Each run is a fresh process with the benchmark's own
settings, its run length included; ``--pairs`` is at least 10, the
number the claim rule needs.  Prints each pair's end-to-end metrics and
then, per metric of ``BENCHMARK.json`` (read from this tree), each
side's median and quartiles, the change's wins (ties count for neither
side), whether a gain may be claimed, and the median change against the
metric's bound.  A gain may be claimed when the change wins at least
nine tenths of the pairs, its median gap is larger than the parent's
quartile spread, every change run is ``correct`` and the change fails no
larger share of its operations than the parent; otherwise the line says
which of these fails.  Standard library only; it writes nothing in
either tree but the benchmark's own ``bench/out`` and ``bench/work``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: The claim rule counts wins over at least this many pairs.
MIN_PAIRS = 10
#: Significant digits printed: a 0.5 % gap shows even at 10 600.
DIGITS = 5


def export(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:  # Python before 3.11.4 has no extraction filters
            archive.extractall(into)


def run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``: its result object."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"bench/run.py failed in {tree}: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def number(x: float) -> str:
    """``x`` to ``DIGITS`` significant digits in positional notation, never
    with an exponent: 10600.3 reads ``10600``, 8.1834 ``8.1834``.  The
    decimals follow the rounded value, so 9.99999 reads ``10.000``."""
    if not x:
        return "0"
    exponent = int(f"{x:.{DIGITS - 1}e}".partition("e")[2])
    return f"{x:.{max(0, DIGITS - 1 - exponent)}f}"


def quartiles(values):
    """(Q1, median, Q3)."""
    return tuple(statistics.quantiles(values, n=4))


def blockers(parent_runs: list, change_runs: list) -> list:
    """Why no gain of the change may be claimed, whatever the metric."""
    reasons = []
    if len(parent_runs) < MIN_PAIRS:
        reasons.append(f"{len(parent_runs)} pairs, fewer than {MIN_PAIRS}")
    wrong = sum(not r["correct"] for r in change_runs)
    if wrong:
        reasons.append(f"change not correct in {wrong}/{len(change_runs)} runs")
    share = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
             for side, runs in (("parent", parent_runs), ("change", change_runs))}
    if share["change"] > share["parent"]:
        reasons.append(f"change fails {share['change']:.3%} of operations, "
                       f"parent {share['parent']:.3%}")
    return reasons


def summarize(spec: dict, parent: list, change: list, blocked: list) -> str:
    """One line for one metric over the pairs run; ``blocked`` are the
    reasons from ``blockers``."""
    sign = 1 if spec["better"] == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    reasons = list(blocked)
    if wins < 0.9 * len(parent):
        reasons.append("wins below 9 in 10")
    if sign * (cm - pm) <= p3 - p1:
        reasons.append(f"median gain {number(sign * (cm - pm))} "
                       f"not above spread {number(p3 - p1)}")
    rel = (cm - pm) / pm if pm else 0.0
    within = -sign * rel <= spec["bound"]
    return (f"{spec['name']:<24} parent {number(pm)} [{number(p1)}, {number(p3)}]  "
            f"change {number(cm)} [{number(c1)}, {number(c3)}]  wins {wins}/{len(parent)}  "
            f"claim {'not met (' + '; '.join(reasons) + ')' if reasons else 'holds'}  "
            f"median {rel:+.2%} ({'within' if within else 'BEYOND'} bound "
            f"{spec['bound']:.0%})")


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the parent revision, e.g. HEAD")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help=f"at least {MIN_PAIRS}, the claim rule's number")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    specs = benchmark["end_to_end"]
    names = [spec["name"] for spec in specs]

    results = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="abpairs-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.rev, trees["parent"])
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(run(trees[side], args.workload, seed))
            cells = []
            for side in ("parent", "change"):
                result = results[side][-1]
                values = " ".join(f"{name}={number(result['metrics'][name]['value'])}"
                                  for name in names)
                cells.append(f"{side}: {values} correct={result['correct']} "
                             f"failed={result['failed']}/{result['attempted']}")
            print(f"pair {i + 1} seed {seed} ({order[0]} first)\n  " + "\n  ".join(cells),
                  flush=True)

    print(f"\n{args.workload}: {args.rev} (parent) vs working tree (change), "
          f"{args.pairs} pairs")
    for side in ("parent", "change"):
        runs = results[side]
        print(f"{side}: correct in {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
              f"failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations")
    blocked = blockers(results["parent"], results["change"])
    for spec in specs:
        print(summarize(spec, *([r["metrics"][spec["name"]]["value"] for r in results[side]]
                                for side in ("parent", "change")), blocked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
