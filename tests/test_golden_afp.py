"""Byte-exact transcript of a fixed set of `afp` runs.

Each run calls `cli.main` in process on inputs written to a fresh
directory and records its exit code, stdout, stderr (with the directory
replaced by `<dir>`) and the bytes of every file the run creates or
changes.  The expected transcript is `golden/afp_transcript.txt`.  Any
change to it is a change to what `afp` prints or writes; regenerate it
only for an intended one:

    PYTHONPATH=src python tests/test_golden_afp.py > tests/golden/afp_transcript.txt
"""

import contextlib
import io
import random
import sys
import tempfile
from pathlib import Path

from affplane import (AffinePlane, TernaryRing, build_left, formats,
                      from_field, galois_subgroup, make_field, opposite,
                      plane_from_ternary, spec_from_exponents, to_ternary)
from affplane.cli import main
from test_witnesses import _pick, _plane_mutants

GOLDEN = Path(__file__).parent / "golden" / "afp_transcript.txt"


def _seeded_frame(P, seed):
    """(l, m, z): two meeting lines and a point off both, drawn by seed."""
    rng = random.Random(seed)
    while True:
        l, m = _pick(rng, len(P.lines)), _pick(rng, len(P.lines))
        z = _pick(rng, P.n)
        on = set(P.lines[l]) | set(P.lines[m])
        if l != m and set(P.lines[l]) & set(P.lines[m]) and z not in on:
            return l, m, z


def _write_inputs(d):
    """Write the input files; return the seeded coordinatization frames."""
    K3, K9, K16 = make_field(3, 1), make_field(3, 2), make_field(2, 4)
    near9 = build_left(spec_from_exponents(K9, galois_subgroup(K9, 1), (0, 1)))
    andre16 = build_left(spec_from_exponents(K16, galois_subgroup(K16, 2),
                                             (0, 0, 1)))
    rings = {"k3": to_ternary(from_field(K3)),
             "k9": to_ternary(from_field(K9)),
             "near9": to_ternary(near9),
             "opp9": to_ternary(opposite(near9)),
             "k16": to_ternary(from_field(K16)),
             "a16": to_ternary(andre16),
             "opp16": to_ternary(opposite(andre16))}
    for name, T in rings.items():
        formats.write_trs(d / f"{name}.trs", T)
    formats.write_qf(d / "a16.qf", andre16)
    table = list(rings["near9"].table)
    table[100] = (table[100] + 4) % 9
    formats.write_trs(d / "bad9.trs", TernaryRing(9, tuple(table)))

    for name in ("near9", "a16"):
        P = plane_from_ternary(rings[name])
        for kind, lines in _plane_mutants(P, len(name)).items():
            formats.write_plane(d / f"{name}-{kind}.aplane",
                                AffinePlane.from_lines(P.n, lines))
    formats.write_plane(d / "oneline.aplane", AffinePlane.from_lines(3, [(0, 1, 2)]))
    (d / "unsorted.aplane").write_text("APLANE 1\npoints 3\nlines 2\n1 2\n0 1\n")

    a16 = plane_from_ternary(rings["a16"])
    opp16 = plane_from_ternary(rings["opp16"])
    return ([_seeded_frame(a16, seed) for seed in (1, 2, 3)]
            + [_seeded_frame(opp16, 4)])


def runs(frames):
    """The argv lists, with `{d}` standing for the working directory."""
    out = [
        "gf --p 2 --n 2",
        "gf --p 3 --n 2",
        "andre --p 3 --n 2 --subfield-deg 1 --phi 0,1 --out {d}/near9.qf",
        "andre --p 2 --n 4 --subfield-deg 2 --phi 0,0,1 --side right --out {d}/r16.qf",
        "andre --p 3 --n 2 --subfield-deg 1 --phi 0,7 --out {d}/x.qf",
        "check quasifield {d}/near9.qf",
        "check quasifield {d}/a16.qf",
        "check ternary {d}/k9.trs",
        "check ternary {d}/bad9.trs",
    ]
    for name in ("k3", "near9", "opp9", "k16", "a16", "opp16"):
        out.append(f"plane build {{d}}/{name}.trs --out {{d}}/{name}.aplane")
    out += ["plane build {d}/bad9.trs --out {d}/bad9.aplane",
            "check plane {d}/near9.aplane",
            "check plane {d}/a16.aplane"]
    for name in ("near9", "a16"):
        for kind in ("deleted", "duplicated", "swapped"):
            out.append(f"check plane {{d}}/{name}-{kind}.aplane")
    out += ["check plane {d}/oneline.aplane",
            "check plane {d}/unsorted.aplane",
            "coordinatize {d}/k3.aplane --l 1 --m 0 --z 4 --out {d}/back3.trs",
            "coordinatize {d}/near9.aplane --l 0 --m 82 --z 10 --out {d}/par.trs",
            "coordinatize {d}/near9.aplane --l 0 --m 1 --z 9 --out {d}/onaxis.trs",
            "coordinatize {d}/near9.aplane --l 1 --m 1 --z 10 --out {d}/same.trs",
            "coordinatize {d}/near9.aplane --l 0 --m 90 --z 10 --out {d}/range.trs"]
    for kind in ("deleted", "duplicated", "swapped"):
        out.append(f"coordinatize {{d}}/near9-{kind}.aplane --l 1 --m 0 --z 10"
                   f" --out {{d}}/{kind}.trs")
    for i, (l, m, z) in enumerate(frames):
        plane = "opp16" if i == 3 else "a16"
        out.append(f"coordinatize {{d}}/{plane}.aplane --l {l} --m {m} --z {z}"
                   f" --out {{d}}/{plane}-frame{i}.trs")
    out += [
        "translate {d}/k3.aplane --from 0 --to 4 --out {d}/k3.coll",
        "translate {d}/near9.aplane --from 0 --to 40 --out {d}/near9.coll",
        "translate {d}/opp9.aplane --from 0 --to 9 --out {d}/opp9.coll",
        "translate {d}/a16.aplane --from 0 --to 17 --out {d}/a16.coll",
        "translate {d}/a16.aplane --from 5 --to 200 --out {d}/a16b.coll",
        "translate {d}/opp16.aplane --from 0 --to 16 --out {d}/opp16.coll",
        "translate {d}/oneline.aplane --from 0 --to 1",
        "translate {d}/near9-swapped.aplane --from 0 --to 40",
        "translate {d}/near9-deleted.aplane --from 6 --to 10",
        "translate {d}/near9-duplicated.aplane --from 7 --to 11",
        "iso {d}/k3.trs {d}/back3.trs",
        "iso {d}/near9.trs {d}/k9.trs",
        "isotopy {d}/near9.trs {d}/near9.trs",
        "classify {d}/near9.qf",
        "--verbose classify {d}/k9.trs",
        "--verbose classify {d}/a16-frame0.trs",
    ]
    return out


def _snapshot(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def transcript():
    """The transcript text of every run, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        frames = _write_inputs(d)
        blocks = []
        for command in runs(frames):
            before = _snapshot(d)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(command.format(d=d).split())
            blocks += [f"$ afp {command.replace('{d}/', '')}\nexit {code}\n",
                       "stdout:\n", stdout.getvalue().replace(str(d), "<dir>"),
                       "stderr:\n", stderr.getvalue().replace(str(d), "<dir>")]
            for name, data in _snapshot(d).items():
                if before.get(name) != data:
                    blocks += [f"file {name}:\n", data.decode()]
        return "".join(blocks)


def test_afp_transcript_matches_golden():
    expected = GOLDEN.read_text()
    actual = transcript()
    assert actual.splitlines() == expected.splitlines()
    assert actual == expected


if __name__ == "__main__":
    sys.stdout.write(transcript())
