"""The claim rule of ``tools/abpairs.py``, on synthetic runs.

The tool is a script, not a package module: it is loaded from its path.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
_SPEC = importlib.util.spec_from_file_location("abpairs", _PATH)
abpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(abpairs)

HIGHER = {"name": "throughput_tasks_per_s", "better": "higher", "bound": 0.1}
LOWER = {"name": "latency_p90_ms", "better": "lower", "bound": 0.12}
PARENT = [100.0, 101.0, 99.0, 100.5, 100.0, 99.5, 101.5, 100.0, 98.5, 100.0]


def runs(n=10, correct=True, failed=0, attempted=1000):
    """``n`` run results as ``bench/run.py`` prints them, metrics aside."""
    return [{"correct": correct, "failed": failed, "attempted": attempted} for _ in range(n)]


def claim(line):
    """The claim field of a summary line."""
    return line.split("claim ", 1)[1].split("  median", 1)[0]


def test_ten_wins_above_the_spread_hold():
    change = [p + 5 for p in PARENT]
    line = abpairs.summarize(HIGHER, PARENT, change, abpairs.blockers(runs(), runs()))
    assert claim(line) == "holds"
    assert "wins 10/10" in line and "within bound" in line


def test_eight_wins_in_ten_are_not_a_claim():
    change = [p + 5 for p in PARENT[:8]] + [p - 5 for p in PARENT[8:]]
    line = abpairs.summarize(HIGHER, PARENT, change, [])
    assert "wins 8/10" in line
    assert claim(line) == "not met (wins below 9 in 10)"


def test_ties_count_for_neither_side():
    line = abpairs.summarize(HIGHER, PARENT, list(PARENT), [])
    assert "wins 0/10" in line
    assert claim(line).startswith("not met (wins below 9 in 10; median gain 0 ")


def test_a_gain_inside_the_parents_spread_is_not_a_claim():
    change = [p + 0.25 for p in PARENT]
    line = abpairs.summarize(HIGHER, PARENT, change, [])
    assert "wins 10/10" in line
    assert claim(line) == "not met (median gain 0.25000 not above spread 1.2500)"


def test_lower_is_better_reverses_the_sign():
    lower = [p - 5 for p in PARENT]
    assert claim(abpairs.summarize(LOWER, PARENT, lower, [])) == "holds"
    line = abpairs.summarize(LOWER, PARENT, [p + 5 for p in PARENT], [])
    assert "wins 0/10" in line and "median gain -5.0000" in line
    assert "median +5.00% (within bound 12%)" in line
    line = abpairs.summarize(LOWER, PARENT, [p * 1.2 for p in PARENT], [])
    assert "median +20.00% (BEYOND bound 12%)" in line


def test_fewer_than_ten_pairs_block_every_claim():
    assert abpairs.blockers(runs(9), runs(9)) == ["9 pairs, fewer than 10"]
    parent, change = PARENT[:9], [p + 5 for p in PARENT[:9]]
    line = abpairs.summarize(HIGHER, parent, change, abpairs.blockers(runs(9), runs(9)))
    assert "wins 9/9" in line
    assert claim(line) == "not met (9 pairs, fewer than 10)"


def test_an_incorrect_change_run_blocks_the_claim():
    change_runs = runs(9) + runs(1, correct=False)
    assert abpairs.blockers(runs(), change_runs) == ["change not correct in 1/10 runs"]
    assert abpairs.blockers(runs(1, correct=False) + runs(9), runs()) == []


def test_a_higher_failure_share_blocks_the_claim():
    reasons = abpairs.blockers(runs(failed=1), runs(failed=2))
    assert reasons == ["change fails 0.200% of operations, parent 0.100%"]
    assert abpairs.blockers(runs(failed=2), runs(failed=1)) == []
    assert abpairs.blockers(runs(failed=1), runs(failed=1)) == []
    line = abpairs.summarize(HIGHER, PARENT, [p + 5 for p in PARENT], reasons)
    assert claim(line) == "not met (change fails 0.200% of operations, parent 0.100%)"


@pytest.mark.parametrize("x, text", [
    (0, "0"),
    (0.0, "0"),
    (10600.3, "10600"),
    (8.1834, "8.1834"),
    (-8.18344, "-8.1834"),
    (0.15905, "0.15905"),
    (1e-9, "0.0000000010000"),
    (1.5e20, "150000000000000000000"),
    (-2.5e-7, "-0.00000025000"),
    # rounding carries into the next power of ten
    (0.09999999999999432, "0.10000"),
    (9.99999, "10.000"),
    (-9.99999, "-10.000"),
    (99999.7, "100000"),
])
def test_number_never_prints_an_exponent(x, text):
    assert abpairs.number(x) == text
    assert "e" not in abpairs.number(x).lower()
