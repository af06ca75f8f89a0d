#!/usr/bin/env python3
"""Certifier benchmark for affplane.

    python3 perfbench/run.py --workload twist --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
The workload (twist, geometry or search, see perfbench/README.md) is made
from the seed, then timed in whole rounds of its fixed job list: the
first round always, then more while one more round still fits in
`--seconds`.  Times are scaled to a nominal host speed (see calibrate()).
Afterwards every job's output is checked by code that does not use the
program.  With `--trace 1` the run instead makes one round in
which each job runs once untraced and once with spans around each layer,
and reports per-layer figures instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 when
every output passed its check and 1 otherwise; a checkout without the
program's sources exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # scratch files and span dumps; ignored by git
SETUP_REPEATS = 3
# Host speed: this sandbox's CPU runs the same code up to 1.5x faster or
# slower from one minute to the next, and by a quarter within seconds.  So
# every timing is scaled to the speed of a host where calibrate() takes
# NOMINAL_CALIBRATION_S, gauged by calibrate() runs before, during (every
# CALIBRATION_PERIOD_S) and after the timed call.
NOMINAL_CALIBRATION_S = 0.005
CALIBRATION_PERIOD_S = 0.25


def calibrate():
    """Wall time of a fixed pure-Python loop that shares no code with the
    program: a gauge of the host's current speed."""
    table, s = tuple(range(256)), 0
    start = time.perf_counter()
    for a in range(500):
        for b in range(64):
            s = (s + table[(a * b + s) & 255]) & 0xFFFF
    return time.perf_counter() - start


def at_nominal_speed(fn):
    """fn's result, and its wall time scaled by the mean of
    NOMINAL_CALIBRATION_S / calibrate() over the gauges taken around and,
    from SIGALRM, during the call; the gauges' own time is not counted."""
    gauges, spent = [calibrate()], []

    def gauge(signum, frame):
        start = time.perf_counter()
        gauges.append(calibrate())
        spent.append(time.perf_counter() - start)

    previous = signal.signal(signal.SIGALRM, gauge)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start - sum(spent)
    gauges.append(calibrate())
    return result, elapsed * statistics.mean(NOMINAL_CALIBRATION_S / g for g in gauges)


def start_and_import():
    """A fresh interpreter starting and importing the program."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import affplane.cli"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)


class Runner:
    """Runs a workload's jobs in whole rounds and keeps the first output
    of each job for the checks; later rounds must reproduce it."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def _run(self, job):
        """One job; its time at nominal host speed, or None if it raised."""
        self.attempted += 1
        try:
            out, elapsed = at_nominal_speed(job.run)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if self.outputs.setdefault(job.key, out) != out:
            self.problems.append(f"{job.key}: output differs between rounds")
        return elapsed

    def rounds(self, seconds):
        """Whole rounds while another one still fits in `seconds` of wall
        time; the completed jobs' times at nominal speed."""
        times = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            times += [t for t in map(self._run, self.workload.jobs) if t is not None]
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                return times

    def traced_round(self, tracer):
        """Each job once untraced and once traced, back to back and in
        alternating order, so that drift in the host's speed cancels in the
        returned ratio of traced to untraced jobs per second."""
        plain = traced = 0.0
        for i, job in enumerate(self.workload.jobs):
            for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
                if with_spans:
                    tracer.job = job.key
                    tracer.install()
                try:
                    elapsed = self._run(job)
                finally:
                    tracer.uninstall()
                if elapsed is not None and with_spans:
                    traced += elapsed
                elif elapsed is not None:
                    plain += elapsed
        return plain / traced if traced else 0.0

    def check(self):
        """Problems found by the independent checks; a check that raises on
        a malformed output counts as a rejection."""
        checks = [(job.key, job.check, self.outputs[job.key])
                  for job in self.workload.jobs if job.key in self.outputs]
        checks.append(("round", self.workload.check_round, self.outputs))
        for key, check, out in checks:
            try:
                self.problems += [f"{key}: {e}" for e in check(out)]
            except Exception as exc:
                self.problems.append(f"{key}: check raised {exc!r}")
        return self.problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("twist", "geometry", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affplane" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        imports = [at_nominal_speed(start_and_import)[1] for _ in range(SETUP_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            workload, elapsed = at_nominal_speed(
                lambda: workloads.WORKLOADS[args.workload](random.Random(args.seed), workdir))
            builds.append(elapsed)
        runner = Runner(workload)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            overhead = runner.traced_round(tracer)
            metrics = {**tracer.metrics(), spans.OVERHEAD: overhead}
            units = {name: unit for name, unit, _ in spans.metric_specs()}
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            times = runner.rounds(args.seconds)
            metrics = {
                "setup_s": statistics.median(imports) + statistics.median(builds),
                "jobs_per_s": len(times) / sum(times),
                "job_p50_ms": statistics.median(times) * 1000,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}
        problems = runner.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
