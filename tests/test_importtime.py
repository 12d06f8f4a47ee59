"""The summary of ``tools/importtime.py`` on synthetic timings, and one real run.

The tool is a script, not a package module: it is loaded from its path,
with its own directory on ``sys.path`` for its import of ``abpairs``.
"""

import importlib.util
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_SPEC = importlib.util.spec_from_file_location("importtime", _TOOLS / "importtime.py")
importtime = importlib.util.module_from_spec(_SPEC)
sys.path.insert(0, str(_TOOLS))
try:
    _SPEC.loader.exec_module(importtime)
finally:
    sys.path.remove(str(_TOOLS))


def test_one_side_reads_best_median_and_quartiles():
    times = [70.0, 64.0, 66.0, 68.0, 80.0]
    assert importtime.summary({"tree": times}) == [
        "tree       best 64.000  median 68.000 [65.000, 75.000]"]


def test_two_sides_add_the_difference_of_the_second():
    lines = importtime.summary({"HEAD": [70.0, 72.0, 71.0], "tree": [64.0, 66.0, 65.5]})
    assert lines[0].startswith("HEAD       best 70.000  median 71.000")
    assert lines[1].startswith("tree       best 64.000  median 65.500")
    assert lines[2] == "difference best -6.0000  median -5.5000"


def test_a_real_two_round_run_on_the_tree(capsys, monkeypatch):
    monkeypatch.setattr(importtime, "ROUNDS", 2)
    assert importtime.main([]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header == "python -S -c 'import skewplane.cli', 2 rounds, ms per process"
    assert line.startswith("tree       best ") and " median " in line
