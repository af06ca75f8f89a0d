#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a few genuine jobs of each workload and shows that their outputs
pass the independent checks.  Then, for each check, it plants one fault
in a genuine output (a flipped table entry, a swapped point in a COLL map,
a wrong verdict, ...) and shows that the check rejects it.  Last, it
compares the metric list in BENCHMARK.json with what the runner reports.
Prints one line per case and exits 1 if any genuine output is rejected
or any planted fault gets through.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from affplane import andre, gf  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


PHIS_27 = ("0,0", "0,1", "0,2")  # job keys of the phi maps over GF(27)/GF(3)


def flip(seq, i, q):
    """seq with entry i moved to the next value mod q."""
    return seq[:i] + ((seq[i] + 1) % q,) + seq[i + 1:]


def swap(seq, i, j):
    out = list(seq)
    out[i], out[j] = out[j], out[i]
    return type(seq)(out)


def with_(out, **changes):
    return {**out, **changes}


class Report:
    def __init__(self):
        self.bad = 0

    def genuine(self, name, problems):
        self.bad += bool(problems)
        print(f"{'ok  ' if not problems else 'FAIL'} genuine {name} passes"
              + (f": {problems[0]}" if problems else ""))

    def planted(self, name, problems):
        self.bad += not problems
        print(f"{'ok  ' if problems else 'FAIL'} rejects {name}"
              + (f": {problems[0]}" if problems else " -- fault got through"))


def run_jobs(workload, keys):
    jobs = {job.key: job for job in workload.jobs if job.key in keys}
    return {key: (job, job.run()) for key, job in jobs.items()}


def twist(report, workdir):
    jobs = run_jobs(workloads.twist(random.Random(0), workdir),
                    {f"twist/27/{side}/{phi}" for side in ("left", "right") for phi in PHIS_27})
    for key, (job, out) in sorted(jobs.items()):
        report.genuine(key, job.check(out))
    job, out = jobs["twist/27/left/0,1"]  # phi not a homomorphism: non-associative
    q = 27
    report.planted("a wrong modulus", job.check(with_(out, modulus=(2, 1, 0, 1))))
    report.planted("a flipped field table entry", job.check(with_(out, mul=flip(out["mul"], 60, q))))
    report.planted("two swapped Frobenius images", job.check(
        with_(out, perms=(out["perms"][0], swap(out["perms"][1], 5, 6)) + out["perms"][2:])))
    report.planted("a norm image missing an element", job.check(with_(out, image=out["image"][:-1])))
    report.planted("a flipped twisted table entry", job.check(with_(out, qmul=flip(out["qmul"], 100, q))))
    report.planted("a flipped ternary table entry",
                   job.check(with_(out, ternary=flip(out["ternary"], 999, q))))
    report.planted("right distributivity claimed for phi != 0",
                   job.check(with_(out, flags={**out["flags"], "VW4-r": True})))
    report.planted("associativity claimed for a non-homomorphism", job.check(with_(out, assoc=None)))
    report.planted("a wrong vector-space verdict",
                   job.check(with_(out, vector_space=not out["vector_space"])))
    report.planted("a wrong right quotient", job.check(with_(out, quotients=flip(out["quotients"], 0, q))))

    K = gf.make_field(3, 3)
    phis = [spec.phi for spec in andre.enumerate_phi(K, gf.galois_subgroup(K, 1))]
    theory = checks.TwistTheory(3, 3, 1)
    by_side = {side: [jobs[f"twist/27/{side}/{phi}"][1] for phi in PHIS_27]
               for side in ("left", "right")}
    report.genuine("phi count and associative count at q=27",
                   checks.check_twist_counts(theory, phis, by_side))
    report.planted("a phi map missing from the enumeration",
                   checks.check_twist_counts(theory, phis[:-1], by_side))
    left = by_side["left"]
    report.planted("one associative build too many", checks.check_twist_counts(
        theory, phis, {**by_side, "left": [left[0], with_(left[1], assoc=None), left[2]]}))


def geometry(report, workdir):
    jobs = run_jobs(workloads.geometry(random.Random(0), workdir),
                    {"geometry/left-001", "geometry/transposed-001"})
    for key, (job, out) in sorted(jobs.items()):
        report.genuine(key, job.check(out))
    job, out = jobs["geometry/left-001"]
    q = 16
    lines = list(out["lines"])
    a, b = lines[20], lines[40]
    moved = [tuple(sorted((set(a) - {a[1]}) | {b[1]})), tuple(sorted((set(b) - {b[1]}) | {a[1]}))]
    report.planted("a point moved between two lines of the read-back plane",
                   job.check(with_(out, lines=tuple(lines[:20] + [moved[0]] + lines[21:40]
                                                    + [moved[1]] + lines[41:]))))
    report.planted("a non-byte-stable APLANE round trip", job.check(with_(out, round_trip_equal=False)))
    (table, point_of), *rest = out["coords"]
    report.planted("a flipped entry in the canonical frame's ring",
                   job.check(with_(out, coords=[(flip(table, 300, q), point_of)] + rest)))
    seeded_table, seeded_points = rest[0]
    report.planted("two swapped points in a coordinatization's point map",
                   job.check(with_(out, coords=[out["coords"][0], (seeded_table, swap(seeded_points, 17, 18))]
                                   + rest[1:])))
    code, stdout, coll = out["translations"][0]
    rows = coll.split("\n")
    rows[2], rows[3] = rows[2].split(" -> ")[0] + " -> " + rows[3].split(" -> ")[1], \
        rows[3].split(" -> ")[0] + " -> " + rows[2].split(" -> ")[1]
    report.planted("two swapped points in a COLL map", job.check(
        with_(out, translations=[(code, stdout, "\n".join(rows))] + out["translations"][1:])))
    report.planted("'absent' for a translation of the left plane", job.check(
        with_(out, translations=[(0, "absent\n", None)] + out["translations"][1:])))

    job, out = jobs["geometry/transposed-001"]
    pairs = job.check.args[5]
    i = next(i for i, t in enumerate(out["translations"]) if t[1].startswith("absent"))
    perm = checks.OwnPlane(out["lines"]).parallelogram_candidate(*pairs[i])
    coll = "".join(["COLL 1\n", f"points {q * q}\n"] + [f"{p} -> {v}\n" for p, v in enumerate(perm)])
    report.planted("'found' with the parallelogram map where no translation exists", job.check(with_(
        out, translations=out["translations"][:i] + [(0, "found\nfixed-point-free: True\n", coll)]
        + out["translations"][i + 1:])))


def search(report, workdir):
    workload = workloads.search(random.Random(0), workdir)
    keys = {f"isotopy/{s}/{s}" for s in workloads.SEARCH_PLANES}
    keys |= {"classify/relabelled-0", "classify/left-001", "classify/transposed-000"}
    jobs = run_jobs(workload, keys)
    for key, (job, out) in sorted(jobs.items()):
        report.genuine(key, job.check(out))
    job, out = jobs["isotopy/near-field/near-field"]
    F, G, H = out
    report.planted("two swapped values of H in an isotopism", job.check((F, G, swap(H, 3, 4))))
    report.planted("'absent' between two rings of one plane", job.check(None))
    different = next(j for j in workload.jobs if j.key == "isotopy/field/near-field")
    identity = tuple(range(9))
    report.planted("'found' between the field and near-field planes",
                   different.check((identity, identity, identity)))
    job, out = jobs["classify/relabelled-0"]
    report.planted("'non-desarguesian' for a relabelled field ring",
                   job.check(("non-desarguesian", None, "search-exhausted")))
    report.planted("two swapped points in an isomorphism certificate",
                   job.check((out[0], swap(out[1], 5, 9), out[2])))
    job, out = jobs["classify/left-001"]
    report.planted("'desarguesian' for a twisted ring with phi != 0",
                   job.check(("desarguesian", tuple(range(16)), "isomorphism-found")))


def metric_lists(report):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    report.genuine("BENCHMARK.json per_layer list matches the traced run's metrics",
                   [] if declared == spans.metric_specs() else ["lists differ"])
    names = [m["name"] for m in spec["end_to_end"]]
    report.genuine("BENCHMARK.json end_to_end list matches the run's metrics",
                   [] if names == ["setup_s", "jobs_per_s", "job_p50_ms", "peak_rss_mb"]
                   else ["lists differ"])


def main():
    report = Report()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench_out"))
    try:
        for part in (twist, geometry, search):
            part(report, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metric_lists(report)
    print(f"{report.bad} problem(s)")
    return 1 if report.bad else 0


if __name__ == "__main__":
    sys.exit(main())
