"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; every check is exact integer arithmetic, no tolerances.
"""

import itertools

from affplane import (LEFT_AXIOMS, CoordinateFrame, build_left,
                      canonical_frame, check_plane_axioms,
                      check_ternary_axioms, classify,
                      complete_isotopism, coordinatize, enumerate_phi,
                      fixed_field, formats, from_field, galois_subgroup,
                      is_isotopism, isotopism_from_frames, make_field, norm,
                      opposite, plane_from_ternary, predicts_associative,
                      predicts_right_distributive, right_divide, to_ternary,
                      translation_candidate, translation_from_shift,
                      verify_field_tables)
from affplane.cli import main
from affplane.plane import AffinePlane
from affplane.ternary import TernaryRing
from tests_support import (swept_associativity_witness, swept_report,
                           table_plane)

FIELD_SUITE = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
               (2, 4), (5, 2), (3, 3)]
ANDRE_SUITE = [(3, 2, 1), (2, 4, 2), (5, 2, 1), (3, 3, 1)]
EXPECTED_SPEC_COUNTS = [2, 4, 8, 3]


def report(number, name, ok):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def all_specs():
    out = []
    for p, n, d in ANDRE_SUITE:
        K = make_field(p, n)
        G = galois_subgroup(K, d)
        out.append((K, G, enumerate_phi(K, G)))
    return out


def test_criterion_01_field_suite():
    ok = True
    for p, n in FIELD_SUITE:
        K = make_field(p, n)
        verify_field_tables(K)
        for d in range(1, n + 1):
            if n % d:
                continue
            G = galois_subgroup(K, d)
            fixed = set(fixed_field(K, G))
            norms = [norm(K, G, x) for x in range(K.q)]
            for x in range(K.q):
                if x and norms[x] not in fixed:
                    ok = False
                for g in G.perms:
                    if norms[g[x]] != norms[x]:
                        ok = False
                for y in range(K.q):
                    if norms[K.mul(x, y)] != K.mul(norms[x], norms[y]):
                        ok = False
    report(1, "field suite with norms", ok)


def test_criterion_02_every_spec_builds():
    ok = True
    for (K, G, specs), expected in zip(all_specs(), EXPECTED_SPEC_COUNTS):
        if len(specs) != expected:
            ok = False
        if G.order ** (len(specs[0].image) - 1) != expected:
            ok = False
        for spec in specs:
            if not swept_report(build_left(spec)).passes(*LEFT_AXIOMS):
                ok = False
    report(2, "twisted builds pass left axioms", ok)


def test_criterion_03_associativity_equivalence():
    ok = True
    for K, G, specs in all_specs():
        for spec in specs:
            Q = build_left(spec)
            if predicts_associative(spec) != (swept_associativity_witness(Q) is None):
                ok = False
    report(3, "associativity prediction", ok)


def test_criterion_04_right_distributivity_equivalence():
    ok = True
    for K, G, specs in all_specs():
        for spec in specs:
            if predicts_right_distributive(spec) != swept_report(build_left(spec)).flags()["VW4-r"]:
                ok = False
    report(4, "right distributivity prediction", ok)


def test_criterion_05_division_formula():
    ok = True
    for p, n, d, phi in [(3, 2, 1, (0, 1)), (2, 4, 2, (0, 0, 1))]:
        K = make_field(p, n)
        G = galois_subgroup(K, d)
        from affplane import spec_from_exponents
        spec = spec_from_exponents(K, G, phi)
        Q = build_left(spec)
        for a in range(1, Q.q):
            for b in range(Q.q):
                x = right_divide(spec, a, b)
                if Q.mul(x, a) != b:
                    ok = False
                if [y for y in range(Q.q) if Q.mul(y, a) == b] != [x]:
                    ok = False
    report(5, "closed-form right division", ok)


def suite_rings():
    rings = [to_ternary(from_field(make_field(p, n)))
             for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]]
    K = make_field(3, 2)
    from affplane import spec_from_exponents
    spec = spec_from_exponents(K, galois_subgroup(K, 1), (0, 1))
    rings.append(to_ternary(build_left(spec)))
    return rings


def test_criterion_06_plane_axioms_and_mutations():
    ok = True
    rings = suite_rings()
    planes = [plane_from_ternary(T) for T in rings]
    for P in planes:
        if not check_plane_axioms(P).all_pass:
            ok = False
    T, P = rings[1], planes[1]  # order 3
    mutants = [
        AffinePlane.from_lines(P.n, P.lines[1:]),
        AffinePlane.from_lines(P.n, P.lines + (P.lines[0],)),
    ]
    table = list(T.table)
    table[13] = (table[13] + 1) % 3
    mutants.append(table_plane(TernaryRing(3, tuple(table))))
    for M in mutants:
        rep = check_plane_axioms(M)
        if rep.all_pass or not rep.witnesses:
            ok = False
    report(6, "plane axioms and mutations", ok)


def test_criterion_07_coordinatization_round_trip():
    ok = True
    for T in suite_rings():
        P = plane_from_ternary(T)
        coord = coordinatize(P, canonical_frame(P))
        if coord.ring.table != T.table:
            ok = False
    report(7, "coordinatization round trip", ok)


def test_criterion_08_implications_hold_everywhere():
    ok = True
    # ternary side: single-entry corruption sweep over the order-3 ring
    T = to_ternary(from_field(make_field(3, 1)))
    for idx in range(27):
        for v in range(3):
            table = list(T.table)
            table[idx] = v
            rep = check_ternary_axioms(TernaryRing(3, tuple(table)))
            if rep.passes("T3", "T4") and not rep.passes("T5"):
                ok = False
    # quasi-field side: every built table plus transposed variants
    for K, G, specs in all_specs():
        for spec in specs:
            for Q in (build_left(spec), opposite(build_left(spec))):
                rep = swept_report(Q)
                if rep.passes("VW1", "VW2", "VW3", "VW4") and not rep.passes("VW5"):
                    ok = False
    report(8, "axiom implications (finite case)", ok)


def test_criterion_09_translations(andre9, andre9_plane):
    ok = True
    shift_of = {}
    for c in range(9):
        for d in range(9):
            cert = translation_from_shift(andre9, c, d)
            shift_of[cert.collineation.perm[0]] = cert
            if (c, d) != (0, 0) and not cert.fixed_point_free:
                ok = False
    if len(shift_of) != 81:
        ok = False
    for target in range(1, 81):
        cand = translation_candidate(andre9_plane, 0, target)
        if cand is None or cand.collineation.perm != shift_of[target].collineation.perm:
            ok = False
    report(9, "translation family of the left plane", ok)


def test_criterion_10_transposed_plane_obstruction(andre9):
    Po = plane_from_ternary(to_ternary(opposite(andre9)))
    absent = [v for v in range(1, 9)
              if translation_candidate(Po, 0, v * 9) is None]
    report(10, f"missing translations ({len(absent)}/8 targets absent)",
           bool(absent))


def test_criterion_11_classification(andre9, andre16):
    ok = True
    for p, n in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        if classify(from_field(make_field(p, n))).verdict != "desarguesian":
            ok = False
    r9 = classify(andre9)
    if r9.verdict != "non-desarguesian" or r9.reason != "search-exhausted":
        ok = False
    r16 = classify(andre16)
    if r16.verdict != "non-desarguesian" or r16.reason != "non-associative":
        ok = False
    report(11, "field-plane classification", ok)


def test_criterion_12_isotopy(andre9_plane):
    frame1 = canonical_frame(andre9_plane)
    frame2 = CoordinateFrame(frame1.l, frame1.m, 1 * 9 + 2)
    iso = isotopism_from_frames(andre9_plane, frame1, frame2)
    c1 = coordinatize(andre9_plane, frame1)
    c2 = coordinatize(andre9_plane, frame2)
    ok = is_isotopism(c1.ring, c2.ring, iso)
    rebuilt = complete_isotopism(c1.ring, c2.ring, iso.h,
                                 iso.f.index(1), iso.g.index(1))
    if rebuilt != iso:
        ok = False
    report(12, "frame-change isotopism", ok)


def test_criterion_13_automorphism_families(andre9):
    from affplane import diag_automorphism, is_collineation
    from affplane.collineation import (shear_horizontal_map,
                                       shear_vertical_map, shift_map,
                                       swap_map)
    ok = True
    for u in range(1, 9):
        for v in range(1, 9):
            try:
                diag_automorphism(andre9, u, v)
            except Exception:
                ok = False
    for p, n in [(3, 1), (2, 2), (5, 1)]:
        K = make_field(p, n)
        P = plane_from_ternary(to_ternary(from_field(K)))
        if not is_collineation(P, swap_map(K)):
            ok = False
        for c, d in itertools.product(range(K.q), repeat=2):
            if not is_collineation(P, shift_map(K, c, d)):
                ok = False
        for c in range(K.q):
            if not is_collineation(P, shear_vertical_map(K, c)):
                ok = False
            if not is_collineation(P, shear_horizontal_map(K, c)):
                ok = False
    report(13, "scaling and frame map families", ok)


def test_criterion_14_cli_round_trips(tmp_path, andre9, andre9_ring, p3):
    ok = True
    trs = tmp_path / "a.trs"
    formats.write_trs(trs, andre9_ring)
    if formats.read_trs(trs).table != andre9_ring.table:
        ok = False
    formats.write_trs(tmp_path / "b.trs", formats.read_trs(trs))
    if trs.read_bytes() != (tmp_path / "b.trs").read_bytes():
        ok = False
    qf = tmp_path / "a.qf"
    formats.write_qf(qf, andre9)
    back = formats.read_qf(qf)
    if (back.add_table, back.mul_table) != (andre9.add_table, andre9.mul_table):
        ok = False
    plane = tmp_path / "a.aplane"
    formats.write_plane(plane, p3)
    if formats.read_plane(plane).lines != p3.lines:
        ok = False
    out1 = tmp_path / "c1.qf"
    out2 = tmp_path / "c2.qf"
    args = ["andre", "--p", "3", "--n", "2", "--subfield-deg", "1",
            "--phi", "0,1"]
    if main(args + ["--out", str(out1)]) != 0:
        ok = False
    if main(args + ["--out", str(out2)]) != 0:
        ok = False
    if out1.read_bytes() != out2.read_bytes():
        ok = False
    if main(["check", "quasifield", str(out1)]) != 0:
        ok = False
    report(14, "serialization and CLI determinism", ok)
