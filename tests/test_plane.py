import pytest

from affplane import (AffinePlane, CoordinateFrame, build_left,
                      canonical_frame, check_plane_axioms, coordinatize,
                      from_field, galois_subgroup, intersection, is_isotopism,
                      isotopism_from_frames, line_through, make_field,
                      parallel_classes, parallel_through, plane_from_ternary,
                      spec_from_exponents, to_ternary, translation_candidate,
                      validate)
from affplane.errors import InputError
from affplane.ternary import TernaryRing


def field_plane(p, n):
    return plane_from_ternary(to_ternary(from_field(make_field(p, n))))


def test_counts_gf3(p3):
    assert p3.n == 9
    assert len(p3.lines) == 12
    assert all(len(line) == 3 for line in p3.lines)
    assert all(len(ls) == 4 for ls in p3.point_lines)


def test_counts_andre9(andre9_plane):
    assert andre9_plane.n == 81
    assert len(andre9_plane.lines) == 90
    assert all(len(line) == 9 for line in andre9_plane.lines)


def test_requires_validated_ring(t3):
    unvalidated = TernaryRing(t3.q, t3.table)
    with pytest.raises(InputError):
        plane_from_ternary(unvalidated)
    assert plane_from_ternary(unvalidated, check=False).n == 9


def test_diagonal_line(p3):
    li = line_through(p3, 0, 4)
    assert p3.lines[li] == (0, 4, 8)
    assert line_through(p3, 4, 0) == li
    assert line_through(p3, 0, 1) == p3.lines.index((0, 1, 2))
    with pytest.raises(InputError):
        line_through(p3, 4, 4)


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                 (2, 3), (3, 2)])
def test_field_planes_pass_axioms(p, n):
    report = check_plane_axioms(field_plane(p, n))
    assert report.all_pass


def test_deleted_line_breaks_a1(p3):
    broken = AffinePlane.from_lines(9, p3.lines[1:])
    report = check_plane_axioms(broken)
    assert not report.passes("A1")
    assert "A1" in report.witnesses


def test_duplicated_line_breaks_a1(p3):
    broken = AffinePlane.from_lines(9, p3.lines + (p3.lines[0],))
    report = check_plane_axioms(broken)
    assert not report.passes("A1")


def test_corrupted_entry_breaks_axioms(t3):
    table = list(t3.table)
    table[(1 * 3 + 1) * 3 + 1] = (table[13] + 1) % 3
    broken = plane_from_ternary(TernaryRing(3, tuple(table)), check=False)
    report = check_plane_axioms(broken)
    assert not report.all_pass
    assert report.witnesses


def test_single_line_plane_fails_a3():
    P = AffinePlane.from_lines(3, [(0, 1, 2)])
    report = check_plane_axioms(P)
    assert not report.passes("A3")


def test_parallel_through(p3):
    diag = line_through(p3, 0, 4)
    assert parallel_through(p3, diag, 0) == diag
    other = parallel_through(p3, diag, 3)
    assert 3 in p3.lines[other]
    assert not set(p3.lines[other]) & set(p3.lines[diag])
    again = parallel_through(p3, other, 6)
    assert not set(p3.lines[again]) & set(p3.lines[other]) or again == other


def test_parallel_classes(p3, andre9_plane):
    classes = parallel_classes(p3)
    assert len(classes) == 4
    assert all(len(c) == 3 for c in classes)
    classes9 = parallel_classes(andre9_plane)
    assert len(classes9) == 10
    assert all(len(c) == 9 for c in classes9)
    # each class partitions the points
    for cls in classes9:
        covered = sorted(p for li in cls for p in andre9_plane.lines[li])
        assert covered == list(range(81))


@pytest.mark.parametrize("p,n,phi", [(5, 2, (0, 1, 0, 1)), (3, 3, (0, 1))])
def test_checked_andre_planes_of_order_25_and_27(p, n, phi):
    K = make_field(p, n)
    Q = build_left(spec_from_exponents(K, galois_subgroup(K, 1), phi))
    q = Q.q
    # a non-commutative coordinate quasi-field is no field: non-Desarguesian
    assert any(Q.mul(a, b) != Q.mul(b, a) for a in range(q) for b in range(q))
    T = to_ternary(Q)
    P = plane_from_ternary(T, check=True)
    classes = parallel_classes(P)
    assert len(classes) == q + 1
    assert all(len(c) == q for c in classes)
    assert coordinatize(P, canonical_frame(P)).ring.table == T.table
    cert = translation_candidate(P, 0, q + 1)
    assert cert is not None and cert.fixed_point_free


def test_double_counting(andre9_plane):
    total = sum(len(line) for line in andre9_plane.lines)
    assert total == 81 * 10


def test_intersection(p3):
    assert intersection(p3, p3.lines.index((0, 1, 2)),
                        p3.lines.index((0, 3, 6))) == 0
    with pytest.raises(InputError):
        diag = line_through(p3, 0, 4)
        intersection(p3, diag, parallel_through(p3, diag, 1))


# ---------------------------------------------------------------------------
# coordinatization

def test_round_trip_suite():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        T = to_ternary(from_field(make_field(p, n)))
        P = plane_from_ternary(T)
        coord = coordinatize(P, canonical_frame(P))
        assert coord.ring.table == T.table


def test_round_trip_andre9(andre9_ring, andre9_plane):
    coord = coordinatize(andre9_plane, canonical_frame(andre9_plane))
    assert coord.ring.table == andre9_ring.table


def test_diagonal_slope_is_one(p3):
    coord = coordinatize(p3, canonical_frame(p3))
    diag = line_through(p3, coord.origin, canonical_frame(p3).z)
    assert coord.line_slopes[diag] == 1


def test_coordinatize_satisfies_t2(andre9_plane):
    frame = CoordinateFrame(canonical_frame(andre9_plane).l,
                            canonical_frame(andre9_plane).m, 2 * 9 + 5)
    coord = coordinatize(andre9_plane, frame)
    T = coord.ring
    for a in range(9):
        for b in range(9):
            assert T.at(a, 0, b) == b
            assert T.at(0, a, b) == b


def test_frame_validation(p3):
    frame = canonical_frame(p3)
    with pytest.raises(InputError):
        coordinatize(p3, CoordinateFrame(frame.l, frame.l, frame.z))
    with pytest.raises(InputError):
        coordinatize(p3, CoordinateFrame(frame.l, frame.m, 0))
    with pytest.raises(InputError):
        vert0 = p3.lines.index((0, 1, 2))
        vert1 = p3.lines.index((3, 4, 5))
        coordinatize(p3, CoordinateFrame(vert0, vert1, 8))


def test_equal_slopes_iff_parallel(andre9_plane):
    coord = coordinatize(andre9_plane, canonical_frame(andre9_plane))
    slopes = coord.line_slopes
    for li, s1 in slopes.items():
        for mi, s2 in slopes.items():
            parallel = (li == mi or
                        not set(andre9_plane.lines[li])
                        & set(andre9_plane.lines[mi]))
            assert (s1 == s2) == parallel or li == mi


def test_isotopism_from_frames(andre9_plane):
    frame1 = canonical_frame(andre9_plane)
    frame2 = CoordinateFrame(frame1.l, frame1.m, 1 * 9 + 2)
    iso = isotopism_from_frames(andre9_plane, frame1, frame2)
    c1 = coordinatize(andre9_plane, frame1)
    c2 = coordinatize(andre9_plane, frame2)
    assert is_isotopism(c1.ring, c2.ring, iso)
    assert iso.f[0] == 0 and iso.g[0] == 0 and iso.h[0] == 0


def test_isotopism_from_equal_frames_is_identity(p3):
    frame = canonical_frame(p3)
    iso = isotopism_from_frames(p3, frame, frame)
    ident = tuple(range(3))
    assert (iso.f, iso.g, iso.h) == (ident, ident, ident)


def test_isotopism_from_frames_requires_shared_axes(p3):
    frame = canonical_frame(p3)
    other = CoordinateFrame(line_through(p3, 0, 4), frame.m, 5)
    with pytest.raises(InputError):
        isotopism_from_frames(p3, frame, other)


def test_rebuilt_plane_matches(andre9_plane):
    """Building a plane from a coordinatization's ring gives the original
    plane back up to the recorded point labeling."""
    coord = coordinatize(andre9_plane, canonical_frame(andre9_plane))
    rebuilt = plane_from_ternary(coord.ring, check=False)
    mapped = {tuple(sorted(coord.point_of[p] for p in line))
              for line in rebuilt.lines}
    assert mapped == set(andre9_plane.lines)
