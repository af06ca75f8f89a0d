"""Coordinatization and translations read off the parallel classes agree
with the point-by-point versions in `plane_reference`.

`coordinatize` must return an equal `Coordinatization` or raise the same
`InputError` text, and `translation_candidate` and `is_translation` must
return equal `TranslationCertificate`s (or None), on every frame of the
order-3 plane, every axis pair of the order-9 near-field plane and one
frame per axis of its transposed plane, every point pair of
the order-9 near-field plane, the canonical and seeded frames of the
order-16 planes, and planes with two points swapped between two lines.
On such a broken plane `coordinatize` at a valid frame raises with the
axioms `check_plane_axioms` fails instead, and translations still agree
query for query.  Every ring `coordinatize` returns here, except under
the `table_only` stub, passes the full T1-T5 sweep.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plane_reference as ref
from affplane import (AffinePlane, CoordinateFrame, build_left,
                      canonical_frame, check_plane_axioms,
                      check_ternary_axioms, coordinatize, enumerate_phi,
                      galois_subgroup, is_translation, make_field, opposite,
                      plane, plane_from_ternary, to_ternary,
                      translation_candidate)
from affplane.collineation import shift_map, swap_map
from affplane.errors import InputError
from affplane.ternary import validate


def _outcome(fn, *args, **kwargs):
    try:
        return "returns", fn(*args, **kwargs)
    except InputError as exc:
        return "raises", str(exc)


def assert_coordinatize_agrees(P, frame):
    new = _outcome(coordinatize, P, frame)
    failing = [k for k, ok in check_plane_axioms(P).flags().items() if not ok]
    if failing and _outcome(plane._validate_frame, P, frame)[0] == "returns":
        assert new == ("raises", f"plane axioms fail: {', '.join(failing)}")
        return new
    assert new == _outcome(ref.coordinatize, P, frame)
    if new[0] == "returns" and ref.validate is validate:
        assert check_ternary_axioms(new[1].ring).all_pass
    return new


def assert_translation_agrees(P, z, z2):
    new = _outcome(translation_candidate, P, z, z2)
    assert new == _outcome(ref.translation_candidate, P, z, z2)
    return new


@pytest.fixture
def table_only(monkeypatch):
    """The reference's `validate` marks its table validated without
    sweeping it, and `assert_coordinatize_agrees` skips the T1-T5 sweep
    of the returned ring, for the thousands of order-9 frames."""
    monkeypatch.setattr(ref, "validate", lambda T: replace(T, validated=True))


def _meeting_pairs(P):
    return [(l, m) for l in range(len(P.lines)) for m in range(len(P.lines))
            if l != m and P.masks[l] & P.masks[m]]


def _off_axes(P, l, m):
    on = P.masks[l] | P.masks[m]
    return [z for z in range(P.n) if not on >> z & 1]


def test_every_frame_of_the_order_3_plane(p3):
    outcomes = set()
    for l, m in _meeting_pairs(p3):
        for z in range(p3.n):
            outcomes.add(assert_coordinatize_agrees(p3, CoordinateFrame(l, m, z))[0])
    assert outcomes == {"returns", "raises"}


@pytest.fixture(scope="module")
def transposed9_plane(andre9):
    return plane_from_ternary(to_ternary(opposite(andre9)))


def test_every_axis_pair_of_the_order_9_near_field_plane(andre9_plane, table_only):
    """Every pair of meeting axes, in alternating order, with the unit
    point stepping through the points off them, so that every point
    serves as unit point."""
    P = andre9_plane
    pairs = [(l, m) for l, m in _meeting_pairs(P) if l < m]
    for i, (l, m) in enumerate(pairs):
        off = _off_axes(P, l, m)
        frame = CoordinateFrame(*((l, m) if i % 2 else (m, l)), off[i % len(off)])
        assert assert_coordinatize_agrees(P, frame)[0] == "returns"


def test_one_frame_per_axis_of_the_transposed_plane(transposed9_plane, table_only):
    P = transposed9_plane
    pairs = _meeting_pairs(P)
    for l in range(len(P.lines)):
        m = next(m for l2, m in pairs[l * 7 % len(pairs):] + pairs if l2 == l)
        off = _off_axes(P, l, m)
        frame = CoordinateFrame(l, m, off[l % len(off)])
        assert assert_coordinatize_agrees(P, frame)[0] == "returns"


def test_every_unit_point_of_the_canonical_axes(andre9_plane, transposed9_plane):
    """The same frames with the real `validate`, linear and non-linear rings."""
    for P in (andre9_plane, transposed9_plane):
        frame = canonical_frame(P)
        for z in _off_axes(P, frame.l, frame.m):
            assert_coordinatize_agrees(P, CoordinateFrame(frame.l, frame.m, z))


@pytest.fixture(scope="module")
def planes16():
    K = make_field(2, 4)
    out = []
    for spec in enumerate_phi(K, galois_subgroup(K, 2)):
        Q = build_left(spec)
        out += [plane_from_ternary(to_ternary(R)) for R in (Q, opposite(Q))]
    return out


def test_order_16_planes(planes16):
    rng = random.Random(16)
    for P in planes16:
        frame = canonical_frame(P)
        frames = [frame]
        while len(frames) < 4:
            l, m = rng.sample(range(len(P.lines)), 2)
            off = _off_axes(P, l, m)
            if P.masks[l] & P.masks[m]:
                frames.append(CoordinateFrame(l, m, rng.choice(off)))
        for fr in frames:
            assert assert_coordinatize_agrees(P, fr)[0] == "returns"
        for _ in range(6):
            assert_translation_agrees(P, *rng.sample(range(P.n), 2))


def test_every_point_pair_of_the_order_9_near_field_plane(andre9_plane):
    P = andre9_plane
    for z in range(P.n):
        for z2 in range(P.n):
            if z != z2:
                kind, cert = assert_translation_agrees(P, z, z2)
                assert kind == "returns" and cert is not None


def test_point_pairs_of_the_transposed_plane(transposed9_plane):
    """Translations from three points: some targets have one, some none."""
    P = transposed9_plane
    found = set()
    for z in (0, 10, 44):
        for z2 in range(P.n):
            if z != z2:
                found.add(assert_translation_agrees(P, z, z2)[1] is None)
    assert found == {True, False}


def test_is_translation_on_collineations_and_others(p3, k3, andre9_plane):
    rng = random.Random(3)
    perms = [tuple(range(9)), swap_map(k3), shift_map(k3, 1, 2), (0,) * 9]
    perms += [tuple(rng.sample(range(9), 9)) for _ in range(20)]
    for perm in perms:
        assert is_translation(p3, perm) == ref.is_translation(p3, perm)
    for z2 in (1, 5, 40):
        perm = ref.translation_candidate(andre9_plane, 0, z2).collineation.perm
        moved = perm[1:] + perm[:1]
        for candidate in (perm, moved):
            assert (is_translation(andre9_plane, candidate)
                    == ref.is_translation(andre9_plane, candidate))


def test_aux_and_failing_queries(p3):
    new = translation_candidate(p3, 0, 4)
    trace = p3.masks[plane.line_through(p3, 0, 4)]
    for aux in range(p3.n):
        if not trace >> aux & 1:
            assert new == ref.translation_candidate(p3, 0, 4, aux=aux)
    one_line = AffinePlane.from_lines(3, [(0, 1, 2)])
    assert_translation_agrees(one_line, 0, 1)
    assert_translation_agrees(p3, 4, 4)
    # a second line through 0 and 1 holds no point off the trace line 012
    chord = AffinePlane.from_lines(9, [*p3.lines, (0, 1)])
    for z2 in range(1, 9):
        assert_translation_agrees(chord, 0, z2)


# ---------------------------------------------------------------------------
# two points swapped between two lines: coordinatize names the failing
# axioms, and translations agree with the reference query for query

@st.composite
def swapped_planes(draw, P):
    """P after one to three exchanges of a point of one line with a point
    of another, and the index in the result of the first line drawn last."""
    lines = [list(line) for line in P.lines]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.sampled_from(range(len(lines))), min_size=2,
                             max_size=2, unique=True))
        only_i = sorted(set(lines[i]) - set(lines[j]))
        only_j = sorted(set(lines[j]) - set(lines[i]))
        if not (only_i and only_j):
            continue
        a, b = draw(st.sampled_from(only_i)), draw(st.sampled_from(only_j))
        lines[i][lines[i].index(a)] = b
        lines[j][lines[j].index(b)] = a
    mutant = AffinePlane.from_lines(P.n, lines)
    return mutant, mutant.lines.index(tuple(sorted(lines[i])))


def _frame_near(draw, P, line):
    """A frame with one axis on or parallel to the swapped line, or drawn
    at large."""
    m_lines = range(len(P.lines))
    l = draw(st.sampled_from([line, *plane._bits(P.parallel[line])][:4] + list(m_lines)))
    m = draw(st.sampled_from(m_lines))
    z = draw(st.integers(0, P.n - 1))
    order = draw(st.booleans())
    return CoordinateFrame(l, m, z) if order else CoordinateFrame(m, l, z)


def _check_mutant(draw, P):
    mutant, line = draw(swapped_planes(P))
    for _ in range(3):
        assert_coordinatize_agrees(mutant, _frame_near(draw, mutant, line))
    z, z2 = draw(st.lists(st.integers(0, P.n - 1), min_size=2, max_size=2, unique=True))
    assert_translation_agrees(mutant, z, z2)
    point = draw(st.sampled_from(mutant.lines[line]))
    assert_translation_agrees(mutant, point, z2 if z2 != point else z)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_swapped_order_3_planes(p3, data):
    _check_mutant(data.draw, p3)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_swapped_order_9_planes(andre9_plane, data):
    _check_mutant(data.draw, andre9_plane)
