#!/usr/bin/env python3
"""Write a BENCH_<PR>.json: the benchmark of one checkout, end to end and
layer by layer.

    python3 scripts/bench.py 8
    python3 scripts/bench.py 7 --checkout ../parent --out BENCH_7.json

For every workload in the checkout's BENCHMARK.json, the benchmark command
(`perfbench/run.py`) runs untraced once per seed in SEEDS, for the run
length the file declares, and then traced once at the first seed.  Each
run starts in the checkout, so it measures the sources there.  The file
records the checkout's commit, whether `src/` differs from it, the git
tree id of `src/` as it stands on disk (the id `git rev-parse
<commit>:src` prints once that tree is committed), the Python version, every untraced run, the median of each end-to-end metric
over the seeds, and the traced per-layer metrics.  Run it on the parent
and on the change, on the same host and minutes apart: times are scaled
to a nominal host speed, but the host still drifts (perfbench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _git(checkout, *args, env=None):
    return subprocess.run(["git", *args], cwd=checkout, check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def _src_tree(checkout):
    """The git tree id of the checkout's `src/` on disk: tracked and
    untracked files, ignored ones left out.  It is written from a
    temporary index, so the checkout's own index is left as it was."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git(checkout, "read-tree", "HEAD", env=env)
        _git(checkout, "add", "-A", "--", "src", env=env)
        return _git(checkout, "write-tree", "--prefix=src/", env=env)


def _run(checkout, command, workload, seed, seconds, trace):
    """One benchmark run: its closing JSON line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench: {' '.join(argv)} exited {done.returncode}")
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def bench(checkout, pr):
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    command = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(_run(checkout, command, workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['metrics']}", file=sys.stderr)
        traced = _run(checkout, command, workload, SEEDS[0], seconds, 1)
        workloads[workload] = {
            "runs": runs,
            "median": {m["name"]: statistics.median(r["metrics"][m["name"]] for r in runs)
                       for m in spec["end_to_end"]},
            "traced": traced,
        }
    return {
        "pr": pr,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "src_matches_commit": not _git(checkout, "status", "--porcelain", "--", "src"),
        "src_tree": _src_tree(checkout),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "workloads": workloads,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, help="number that names the output file")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, help="output file (default: BENCH_<PR>.json here)")
    args = parser.parse_args(argv)
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    report = bench(args.checkout.resolve(), args.pr)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    failed = [w for w, data in report["workloads"].items()
              if any(not r["correct"] or r["failed"] for r in data["runs"] + [data["traced"]])]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
