import pytest

from affplane import (AffinePlane, CoordinateFrame, build_left,
                      canonical_frame, check_plane_axioms, coordinatize,
                      from_field, galois_subgroup, intersection, is_isotopism,
                      isotopism_from_frames, line_through, make_field,
                      parallel_classes, parallel_through, plane_from_ternary,
                      spec_from_exponents, to_ternary, translation_candidate,
                      validate)
from affplane import plane
from affplane.errors import InputError
from affplane.ternary import TernaryRing
from test_witnesses import _plane_mutants
from tests_support import table_plane


def field_plane(p, n):
    return plane_from_ternary(to_ternary(from_field(make_field(p, n))))


def test_counts_gf3(p3):
    assert p3.n == 9
    assert len(p3.lines) == 12
    assert all(len(line) == 3 for line in p3.lines)
    assert all(lines.bit_count() == 4 for lines in p3.through)


def test_counts_andre9(andre9_plane):
    assert andre9_plane.n == 81
    assert len(andre9_plane.lines) == 90
    assert all(len(line) == 9 for line in andre9_plane.lines)


@pytest.mark.parametrize("lines,message", [
    ([(0, 1), (2, 2)], "repeated"),
    ([(0, 3), (1, 1)], "out-of-range"),
    ([(0, 0), (1, 3)], "repeated"),
    ([(1, 3), (0, 0)], "repeated"),
    ([(0, -1)], "out-of-range"),
])
def test_from_lines_names_the_first_bad_line(lines, message):
    """Lines are sorted first; the first bad line's fault is raised, an
    out-of-range point before a repeated one."""
    with pytest.raises(InputError, match=f"^line contains an? {message} point$"):
        AffinePlane.from_lines(3, lines)


@pytest.mark.parametrize("n", [0, -1, -4])
def test_from_lines_rejects_fewer_than_one_point(n):
    with pytest.raises(InputError, match=f"^a plane needs n >= 1 points, got {n}$"):
        AffinePlane.from_lines(n, [])


def test_requires_validated_ring(t3):
    unvalidated = TernaryRing(t3.q, t3.table)
    with pytest.raises(InputError, match="^ternary ring must be validated first$"):
        plane_from_ternary(unvalidated)


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
    broken = table_plane(TernaryRing(3, tuple(table)))
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


def test_parallel_is_equal_or_disjoint(p3, andre9_plane):
    """Per line, the lines that share no point with it, and itself, on
    planes and on line sets with lines of no, one and two points."""
    for P in (p3, andre9_plane, AffinePlane.from_lines(5, [(), (3,), (0, 1), (1, 2, 4), (3,)]),
              *(AffinePlane.from_lines(P.n, lines) for P in (p3, andre9_plane)
                for lines in _plane_mutants(P, 0).values())):
        assert P.parallel == tuple(
            sum(1 << j for j, other in enumerate(P.lines) if j == i or not set(line) & set(other))
            for i, line in enumerate(P.lines))


def test_a_plane_builds_its_masks_on_first_use(tmp_path, andre9_ring):
    """A plane that is only written builds no bitmask; its first query
    builds the ones it reads."""
    from affplane import formats
    P = plane_from_ternary(andre9_ring)
    formats.write_plane(tmp_path / "p.aplane", P)
    assert {"masks", "through", "parallel"}.isdisjoint(vars(P))
    line_through(P, 0, 1)
    assert "through" in vars(P) and "masks" not in vars(P)
    assert P.masks[0] == sum(1 << p for p in P.lines[0])


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
    P = plane_from_ternary(T)
    assert check_plane_axioms(P).all_pass
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
    """The diagonal, through the origin and the unit point, is the graph
    of slope 1 through (0, 0): {point_of[x*q + <1x+0>]}."""
    coord = coordinatize(p3, canonical_frame(p3))
    diag = line_through(p3, coord.point_of[0], canonical_frame(p3).z)
    graph = {coord.point_of[x * 3 + coord.ring.at(1, x, 0)] for x in range(3)}
    assert set(p3.lines[diag]) == graph


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
    for z in (-1, 9):
        with pytest.raises(InputError, match="^frame unit point out of range$"):
            coordinatize(p3, CoordinateFrame(frame.l, frame.m, z))
    with pytest.raises(InputError):
        vert0 = p3.lines.index((0, 1, 2))
        vert1 = p3.lines.index((3, 4, 5))
        coordinatize(p3, CoordinateFrame(vert0, vert1, 8))


def test_canonical_frame_needs_the_axes(p3):
    """A plane on a non-square number of points, or without the lines
    y = 0 and x = 0 on the points x*q + y, has no canonical frame."""
    shifted = [[(p + 1) % 9 for p in line] for line in p3.lines]  # no x = 0
    for P in (AffinePlane.from_lines(9, shifted),
              AffinePlane.from_lines(8, [(0, 1), (2, 3)]),
              AffinePlane.from_lines(1, [(0,)])):
        with pytest.raises(InputError):
            canonical_frame(P)


def test_equal_slopes_iff_parallel(andre9_plane):
    """The graphs {point_of[x*q + <ax+b>]} are the non-vertical lines,
    and two of them are parallel exactly when they share a."""
    coord = coordinatize(andre9_plane, canonical_frame(andre9_plane))
    point_of, T = coord.point_of, coord.ring
    graphs = {(a, b): frozenset(point_of[x * 9 + T.at(a, x, b)] for x in range(9))
              for a in range(9) for b in range(9)}
    verticals = {frozenset(point_of[x * 9:(x + 1) * 9]) for x in range(9)}
    assert set(graphs.values()) | verticals == set(map(frozenset, andre9_plane.lines))
    for (a, _), g in graphs.items():
        for (a2, _), g2 in graphs.items():
            parallel = g == g2 or not g & g2
            assert (a == a2) == parallel


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
    rebuilt = plane_from_ternary(coord.ring)
    mapped = {tuple(sorted(coord.point_of[p] for p in line))
              for line in rebuilt.lines}
    assert mapped == set(andre9_plane.lines)


# ---------------------------------------------------------------------------
# certification: an affine plane passes by count, with no sweep

SWEEPS = ("_a1_sweep", "_a2_sweep", "_a3_sweep", "_parallel_sweep")


def _counted_sweeps(monkeypatch):
    """The names of the A1, A2, A3 and parallel sweeps, one per run."""
    calls = []
    for name in SWEEPS:
        def counted(P, sweep=getattr(plane, name), name=name):
            calls.append(name)
            return sweep(P)

        monkeypatch.setattr(plane, name, counted)
    return calls


def _frames(P, count):
    """The first `count` frames: axis pairs in index order, each with the
    first point off both axes."""
    out = []
    for l in range(len(P.lines)):
        for m in range(len(P.lines)):
            if l != m and P.masks[l] & P.masks[m]:
                z = next(z for z in range(P.n)
                         if not (P.masks[l] | P.masks[m]) >> z & 1)
                out.append(CoordinateFrame(l, m, z))
                if len(out) == count:
                    return out
    return out


def _certify_everywhere(P):
    """Coordinatize P at 5 frames, read an isotopism off two frames that
    share both axes, look for a translation and check the axioms; the
    rings come back validated."""
    frames = _frames(P, 5)
    rings = [coordinatize(P, frame).ring for frame in frames]
    l, m = frames[0].l, frames[0].m
    z2 = next(z for z in range(frames[0].z + 1, P.n)
              if not (P.masks[l] | P.masks[m]) >> z & 1)
    isotopism_from_frames(P, frames[0], CoordinateFrame(l, m, z2))
    translation_candidate(P, 0, 1)
    assert check_plane_axioms(P).all_pass
    assert all(ring.validated for ring in rings)


def test_a_read_plane_is_never_swept(monkeypatch, andre9_plane):
    calls = _counted_sweeps(monkeypatch)
    P = AffinePlane.from_lines(andre9_plane.n, andre9_plane.lines)
    _certify_everywhere(P)
    assert calls == []
    # the hooks see a sweep: a plane with a line deleted runs all four
    check_plane_axioms(AffinePlane.from_lines(P.n, P.lines[1:]))
    assert calls == list(SWEEPS)


def test_a_built_plane_is_never_swept(monkeypatch, andre9_ring):
    calls = _counted_sweeps(monkeypatch)
    _certify_everywhere(plane_from_ternary(andre9_ring))
    assert calls == []


@pytest.mark.parametrize("seed", range(4))
def test_mutants_name_their_failing_axioms(seed, p3, andre9_plane, andre16):
    """Every deleted, duplicated and swapped mutant is rejected at a valid
    frame with exactly the axioms `check_plane_axioms` fails."""
    for P in (p3, andre9_plane, plane_from_ternary(to_ternary(andre16))):
        for kind, lines in _plane_mutants(P, seed).items():
            M = AffinePlane.from_lines(P.n, lines)
            failing = [k for k, ok in check_plane_axioms(M).flags().items() if not ok]
            assert failing, kind
            for frame in _frames(M, 2):
                with pytest.raises(InputError) as exc:
                    coordinatize(M, frame)
                assert str(exc.value) == f"plane axioms fail: {', '.join(failing)}"
