"""Benchmark of skewplane: map verifiers, plane constructions and the CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; skewplane is imported from ./src.  One
closed-loop caller runs whole rounds of the workload's seeded tasks until
S seconds have passed (and at least MIN_TASKS tasks were timed), checks
every output against the benchmark's own reference arithmetic, and prints
a header (lines starting with '#') and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, host-calibrated (see calib.py):
throughput_tasks_per_s, latency_p50_ms, latency_p90_ms, setup_s and
peak_rss_mb.  --trace 1 reports the per-layer metrics of one traced round
(see tracing.py) and the tracing overhead against untraced rounds.
Results and traces are also written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORK = BENCH / "work"

#: Seconds of task time between two calibration points.
BATCH_S = 0.05
#: Every run times at least this many tasks (so p90 has ten beyond it).
MIN_TASKS = 100
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: Measuring stops after this many seconds whatever --seconds says.
HARD_STOP_S = 120
#: The whole run is abandoned (TimeoutError, exit 1) after this many seconds.
WATCHDOG_S = 175


class Review:
    """Checks outputs and keeps the attempted / failed / correct tally.

    Round 1 is checked in full against the reference arithmetic; later
    rounds must reproduce round 1's output summary exactly (a differing
    output is checked in full again).  A known-fault task whose check
    fails is a failed operation; any other failing check makes the run
    incorrect.  A task that raises is a failed operation.
    """

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.problems = []

    def __call__(self, outputs) -> None:
        wl = self.workload
        for task, output, error in outputs:
            self.attempted += 1
            if error is not None:
                self._fail(task, f"{type(error).__name__}: {error}")
                continue
            summary = wl.summary(task, output)
            if id(task) not in self.first:
                self.first[id(task)] = (summary, self._check(task, output))
            stored, problem = self.first[id(task)]
            if summary != stored:
                problem = self._check(task, output) or "output differs from round 1"
            if problem is None:
                continue
            if task.known_fault:
                self._fail(task, problem)
            else:
                self.problems.append(f"{task.label}: {problem}")

    def _check(self, task, output):
        if self.tracer is None:
            return self.workload.check(task, output)
        with self.tracer.paused():
            return self.workload.check(task, output)

    def _fail(self, task, reason) -> None:
        self.failed += 1
        self.failures.setdefault(task.label, [0, reason])[0] += 1


def run_round(wl, meter: calib.Meter, review: Review) -> float:
    """One round of every task, timed; returns its calibrated seconds."""
    done = len(meter.calibrated)
    meter.open()
    outputs = [(task, *meter.time(wl.run, task)) for task in wl.tasks]
    meter.close()
    review(outputs)
    return sum(meter.calibrated[done:])


def spawn_probe(name, seed, workdir):
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name, str(seed), str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_probes(name, seed, workdir):
    """SETUP_PROBES fresh set-ups (after one unmeasured one that fills
    the bytecode cache).  Returns raw and calibrated seconds."""
    spawn_probe(name, seed, workdir)
    probes = [spawn_probe(name, seed, workdir) for _ in range(SETUP_PROBES)]
    scales = [calib.factor(p["calib_before"], p["calib_after"]) for p in probes]
    return {
        "setup_raw": [p["setup_s"] for p in probes],
        "setup": [p["setup_s"] * s for p, s in zip(probes, scales)],
        "import": [p["import_s"] * s for p, s in zip(probes, scales)],
    }


def engine_name() -> str:
    import skewplane

    component = skewplane.QuaternionField().one().components()[0]
    return f"{type(component).__module__}.{type(component).__qualname__}"


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, args, review):
    """The untraced run: end-to-end metrics."""
    meter = calib.Meter(BATCH_S, wl.calibration)
    start = time.perf_counter()
    rounds = 0
    while True:
        run_round(wl, meter, review)
        rounds += 1
        elapsed = time.perf_counter() - start
        if ((elapsed >= args.seconds and len(meter.calibrated) >= MIN_TASKS)
                or elapsed >= HARD_STOP_S):
            break
    lat = meter.calibrated
    raw = meter.raw
    child_rss = getattr(wl, "child_rss_kib", 0)
    rss_kib = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = {
        "rounds": rounds, "tasks": len(lat), "wall_s": elapsed,
        "raw_throughput_tasks_per_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "raw_latency_p90_ms": statistics.quantiles(raw, n=10)[8] * 1e3,
        "calibration": wl.calibration,
        "calibration_nominal_ms": meter.nominal * 1e3,
        "calibration_points": len(meter.points),
        "calibration_ms_min_median_max": [min(meter.points) * 1e3,
                                          statistics.median(meter.points) * 1e3,
                                          max(meter.points) * 1e3],
        "rss_of": "largest CLI child" if child_rss else "benchmark process",
    }
    metrics = {
        "throughput_tasks_per_s": metric(len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": metric(rss_kib / 1024, "MB"),
    }
    return metrics, info


def measure_traced(wl, args, review, tracer, probes):
    """The traced run: one traced round against untraced rounds."""
    metrics = {}
    process_ms = 0.0
    if getattr(wl, "in_process", None) is not None:  # cli-session: one real round first
        meter = calib.Meter(BATCH_S, wl.calibration)
        run_round(wl, meter, review)
        process_ms = statistics.fmean(meter.calibrated) * 1e3
        wl.in_process = True
    baseline = []
    meter = calib.Meter(BATCH_S)
    start = time.perf_counter()
    while not baseline or time.perf_counter() - start < args.seconds / 2:
        baseline.append(run_round(wl, meter, review))
    meter = calib.Meter(BATCH_S)
    tracer.install()
    tracer.active = True
    try:
        traced = run_round(wl, meter, review)
    finally:
        tracer.active = False
        tracer.uninstall()
    scale = calib.NOMINAL_S / statistics.median(meter.points)
    overhead = 100.0 * (traced / statistics.median(baseline) - 1.0)
    for name, (value, unit) in tracer.metrics(scale).items():
        metrics[name] = metric(value, unit)
    metrics["cli.import_ms"] = metric(statistics.median(probes["import"]) * 1e3, "ms")
    metrics["cli.process_ms"] = metric(process_ms, "ms")
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    info = {"traced_round_s": traced, "untraced_round_s": baseline,
            "tracing_overhead_pct": overhead}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "skewplane" / "__init__.py").is_file():
        print(f"error: no skewplane package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _watchdog(signum, frame):
    raise TimeoutError(f"benchmark exceeded {WATCHDOG_S} s")


def _run(args, workdir: Path) -> int:
    probes = setup_probes(args.workload, args.seed, workdir)

    sys.path.insert(0, str(SRC))
    import skewplane
    import skewplane.cli  # noqa: F401  (set-up imports the whole package)

    if Path(skewplane.__file__).resolve().parent != (SRC / "skewplane").resolve():
        print(f"error: imported skewplane from {skewplane.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    wl = workloads.make(args.workload, ROOT)
    wl.setup(args.seed, workdir)
    wl.run(wl.tasks[0])  # untimed: fills OS caches for the first task
    # The task list is the benchmark's heap, not the program's: keep it out
    # of the program's garbage collections.
    gc.collect()
    gc.freeze()

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        review = Review(wl, tracer)
        metrics, info = measure_traced(wl, args, review, tracer, probes)
    else:
        tracer = None
        review = Review(wl)
        metrics, info = measure(wl, args, review)
        metrics["setup_s"] = metric(statistics.median(probes["setup"]), "s")

    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "skewplane": skewplane.__version__, "rational_engine": engine_name(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "tasks_per_round": len(wl.tasks),
        "setup_probes_s": probes["setup"], "setup_probes_raw_s": probes["setup_raw"],
        "import_probes_ms": [t * 1e3 for t in probes["import"]],
        **info,
    }
    for key, value in header.items():
        print(f"# {key}: {value}")
    for label, (count, reason) in review.failures.items():
        print(f"# failed x{count} {label}: {reason[:200]}")
    for problem in review.problems[:20]:
        print(f"# INCORRECT {problem[:300]}")
    result = {"correct": not review.problems, "attempted": review.attempted,
              "failed": review.failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"header": header, **result}, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"header": header, "metrics": metrics, **tracer.dump()}) + "\n",
            encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
