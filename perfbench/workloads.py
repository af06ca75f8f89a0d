"""The three workloads: inputs made from the seed, jobs that call the
program, and the independent check of each job's output.

Building a workload is the benchmark's set-up.  It calls the program only
to make the shared inputs (fields, rings, planes); everything a job
certifies is computed inside the job.  Jobs call `affplane` through module
attributes (`gf.make_field`, never a name imported from a module), so the
traced run sees every call once it has replaced those attributes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from affplane import andre, cli, collineation, formats, gf, plane, quasifield, ternary

import checks

TWIST_FIELDS = ((5, 2, 1), (3, 3, 1))  # GF(25)/GF(5) and GF(27)/GF(3)
TWIST_QUERIES = 64                      # right divisions per job
GEOMETRY_FIELD = (2, 4, 2)              # GF(16)/GF(4): four phi maps
GEOMETRY_FRAMES = 3                     # seeded frames, after the canonical one
GEOMETRY_PAIRS = 6                      # seeded `afp translate` point pairs
SEARCH_PLANES = ("field", "near-field", "transposed")
SEARCH_RELABELS = 8                     # seeded relabellings of the GF(16) ring


@dataclass
class Job:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    jobs: list
    check_round: Callable[[dict], list] = field(default=lambda outputs: [])


def _afp(argv):
    """`afp` in-process: exit code and standard output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# twist: algebra layers, no plane

def twist_job(p, n, d, phi, side, queries):
    K = gf.make_field(p, n)
    G = gf.galois_subgroup(K, d)
    fixed, image = andre.make_spec(K, G)
    spec = andre.spec_from_exponents(K, G, phi, fixed, image)
    Q = andre.build_left(spec) if side == "left" else andre.build_right(spec)
    report = quasifield.check_vw(Q)
    T = quasifield.to_ternary(Q, report)
    return {
        "modulus": K.modulus, "add": K.add_table, "mul": K.mul_table,
        "perms": G.perms, "fixed": fixed, "image": image,
        "qadd": Q.add_table, "qmul": Q.mul_table, "flags": report.flags(),
        "ternary": T.table, "validated": T.validated,
        "assoc": quasifield.associativity_witness(Q),
        "vector_space": quasifield.check_vector_space(Q, fixed),
        "quotients": tuple(andre.right_divide(spec, a, b) for a, b in queries),
    }


def twist(rng, workdir):
    """Every phi map over GF(25)/GF(5) and GF(27)/GF(3), left and right."""
    jobs, phis, theories = [], {}, {}

    def theory(fld):
        if fld not in theories:
            theories[fld] = checks.TwistTheory(*fld)
        return theories[fld]

    for fld in TWIST_FIELDS:
        p, n, d = fld
        K = gf.make_field(p, n)
        phis[fld] = [spec.phi for spec in andre.enumerate_phi(K, gf.galois_subgroup(K, d))]
        for phi, side in itertools.product(phis[fld], ("left", "right")):
            queries = tuple((rng.randrange(1, K.q), rng.randrange(K.q))
                            for _ in range(TWIST_QUERIES))
            jobs.append(Job(
                f"twist/{K.q}/{side}/{','.join(map(str, phi))}",
                partial(twist_job, p, n, d, phi, side, queries),
                lambda out, fld=fld, phi=phi, side=side, queries=queries:
                    checks.check_twist(theory(fld), phi, side, queries, out)))
    rng.shuffle(jobs)

    def check_round(outputs):
        errs = []
        for fld in TWIST_FIELDS:
            q = fld[0] ** fld[1]
            by_side = {side: [outputs[k] for k in outputs if k.startswith(f"twist/{q}/{side}/")]
                       for side in ("left", "right")}
            errs += checks.check_twist_counts(theory(fld), phis[fld], by_side)
        return errs

    return Workload(jobs, check_round)


# ---------------------------------------------------------------------------
# geometry: plane, collineation, formats and cli layers

def geometry_job(label, T, frames, pairs, workdir):
    base = workdir / label
    trs, aplane, again, coll = (f"{base}{s}" for s in (".trs", ".aplane", ".again.aplane", ".coll"))
    formats.write_trs(trs, T)
    code, out = _afp(["plane", "build", trs, "--out", aplane])
    P = formats.read_plane(aplane)
    formats.write_plane(again, P)
    coords = []
    for l, m, z in frames:
        c = plane.coordinatize(P, plane.CoordinateFrame(l, m, z))
        coords.append((c.ring.table, c.point_of))
    translations = []
    for z, z2 in pairs:
        Path(coll).unlink(missing_ok=True)
        tcode, tout = _afp(["translate", aplane, "--from", z, "--to", z2, "--out", coll])
        translations.append((tcode, tout, Path(coll).read_text() if Path(coll).exists() else None))
    return {
        "build": (code, out.split(" to ")[0]),
        "round_trip_equal": Path(aplane).read_bytes() == Path(again).read_bytes(),
        "lines": P.lines, "coords": coords, "translations": translations,
    }


def _seeded_frame(rng, q, lines):
    while True:
        l, m = rng.sample(range(len(lines)), 2)
        if set(lines[l]) & set(lines[m]):
            return l, m, rng.choice([p for p in range(q * q)
                                     if p not in lines[l] and p not in lines[m]])


def geometry(rng, workdir):
    """The four twisted left planes of order 16, phi = 0 included, and the
    planes of their transposes."""
    p, n, d = GEOMETRY_FIELD
    K = gf.make_field(p, n)
    q = K.q
    jobs = []
    for spec in andre.enumerate_phi(K, gf.galois_subgroup(K, d)):
        Q = andre.build_left(spec)
        for side, R in (("left", Q), ("transposed", quasifield.opposite(Q))):
            T = quasifield.to_ternary(R)
            lines = sorted(tuple(sorted(line)) for line in checks.plane_of_ring(q, T.table))
            canonical = (lines.index(tuple(x * q for x in range(q))), lines.index(tuple(range(q))), q + 1)
            frames = [canonical] + [_seeded_frame(rng, q, lines) for _ in range(GEOMETRY_FRAMES)]
            pairs = [tuple(rng.sample(range(q * q), 2)) for _ in range(GEOMETRY_PAIRS)]
            label = f"{side}-{''.join(map(str, spec.phi))}"
            jobs.append(Job(
                f"geometry/{label}",
                partial(geometry_job, label, T, frames, pairs, workdir),
                partial(checks.check_geometry, q, p, T.table, side == "left", frames, pairs)))
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# search: isotopism and isomorphism searches in the ternary layer

def isotopy_job(T, U):
    iso = ternary.find_isotopism(T, U)
    return None if iso is None else (iso.f, iso.g, iso.h)


def classify_job(T):
    r = collineation.classify_ternary(T)
    return r.verdict, r.isomorphism, r.reason


def search(rng, workdir):
    """Isotopy between order-9 coordinate rings of the field, near-field and
    transposed near-field planes, and order-16 classifications."""
    K9 = gf.make_field(3, 2)
    near = andre.build_left(andre.spec_from_exponents(K9, gf.galois_subgroup(K9, 1), (0, 1)))
    rings = dict(zip(SEARCH_PLANES, (quasifield.to_ternary(quasifield.from_field(K9)),
                                     quasifield.to_ternary(near),
                                     quasifield.to_ternary(quasifield.opposite(near)))))
    planes = {name: plane.plane_from_ternary(T) for name, T in rings.items()}
    off_axes = [x * 9 + y for x in range(1, 9) for y in range(1, 9)]

    def ring(name, z):
        P = planes[name]
        frame = plane.canonical_frame(P)
        return plane.coordinatize(P, plane.CoordinateFrame(frame.l, frame.m, z)).ring

    jobs = []
    for a, b in [(s, s) for s in SEARCH_PLANES] + list(itertools.combinations(SEARCH_PLANES, 2)):
        z1, z2 = rng.sample(off_axes, 2)
        T, U = ring(a, z1), ring(b, z2)
        jobs.append(Job(f"isotopy/{a}/{b}", partial(isotopy_job, T, U),
                        partial(checks.check_isotopism, 9, T.table, U.table, a == b)))

    K16 = gf.make_field(2, 4)
    field16 = quasifield.to_ternary(quasifield.from_field(K16))
    reference = []  # the field's own ring, made once when the checks run

    def check_class(T, desarguesian, out):
        if not reference:
            reference.append(checks.field_ring(checks.OwnField(2, 4)))
        return checks.check_classification(16, T.table, reference[0], desarguesian, out)

    for i in range(SEARCH_RELABELS):
        perm = [0, 1] + rng.sample(range(2, 16), 14)
        T = ternary.TernaryRing(16, checks.relabel(16, field16.table, perm))
        jobs.append(Job(f"classify/relabelled-{i}", partial(classify_job, T),
                        partial(check_class, T, True)))
    for spec in andre.enumerate_phi(K16, gf.galois_subgroup(K16, 2)):
        Q = andre.build_left(spec)
        for side, R in (("left", Q), ("transposed", quasifield.opposite(Q))):
            T = quasifield.to_ternary(R)
            jobs.append(Job(f"classify/{side}-{''.join(map(str, spec.phi))}",
                            partial(classify_job, T),
                            partial(check_class, T, not any(spec.phi))))
    rng.shuffle(jobs)
    return Workload(jobs)


WORKLOADS = {"twist": twist, "geometry": geometry, "search": search}
