"""One measured set-up in a fresh interpreter.

    python3 bench/probe.py WORKLOAD SEED WORKDIR

Times importing skewplane and skewplane.cli, then building the
workload's inputs and warming it up, with a calibration point on either
side.  Prints one JSON line.  Only the calibration module is imported
before the timed import, so the program pays for its own dependencies.
"""

import json
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    before = calib.measure()
    start = time.perf_counter()
    import skewplane  # noqa: F401
    import skewplane.cli  # noqa: F401
    imported = time.perf_counter()
    import workloads  # the benchmark's own modules are not charged
    resumed = time.perf_counter()
    workloads.make(name, ROOT).setup(seed, workdir)
    done = time.perf_counter()
    after = calib.measure()
    print(json.dumps({"calib_before": before, "calib_after": after,
                      "import_s": imported - start,
                      "setup_s": (imported - start) + (done - resumed)}))


if __name__ == "__main__":
    main()
