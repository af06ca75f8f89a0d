"""The bitmask plane layer agrees with the set-based reference loops.

Every axiom flag and witness, the verdict of the plane count
(`_counts_hold`, which passes exactly the planes the full sweep passes),
the full witness sequences of the A2 cover
and the parallel sweep, the point-to-line index `through`, every parallel
partition and every return value or raised `InputError` of
`line_through`, `parallel_through` and `intersection`, on every argument,
must match `plane_reference`.  The report and the plane count are also
compared on re-read corpus planes up to order 16, which pass by count,
and on their deleted, duplicated, moved-point and swapped mutants and on
structures whose point count is not a square, which the sweeps reject.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plane_reference as ref
from affplane import (AffinePlane, build_left, check_plane_axioms,
                      enumerate_phi, from_field, galois_subgroup,
                      intersection, line_through, make_field, opposite,
                      parallel_classes, parallel_through, plane_from_ternary,
                      to_ternary)
from affplane import plane
from affplane.errors import InputError
from test_witnesses import _plane_mutants, cases
from tests_support import moved_line_at_infinity


def _outcome(fn, *args):
    try:
        return "returns", fn(*args)
    except InputError as exc:
        return "raises", str(exc)


def assert_sweep_agrees(P):
    """The report and the plane count against the full sweep; returns
    the reference report."""
    new, old = check_plane_axioms(P), ref.check_plane_axioms(P)
    assert new.flags() == old.flags()
    assert new.witnesses == old.witnesses
    assert plane._counts_hold(P) == old.all_pass
    return old


def assert_agrees(P):
    assert_sweep_agrees(P)
    sets = ref._sets(P)
    assert P.through == tuple(sum(1 << li for li in lines)
                              for lines in ref.point_lines(P))
    assert (list(plane._a2_sweep(P))
            == list(ref._a2_sweep(P.n, sets, ref.point_lines(P))))
    assert list(plane._parallel_sweep(P)) == list(ref._parallel_sweep(sets))
    assert _outcome(parallel_classes, P) == _outcome(ref.parallel_classes, P)
    points, lines = range(P.n), range(len(P.lines))
    for p1 in points:
        for p2 in points:
            assert (_outcome(line_through, P, p1, p2)
                    == _outcome(ref.line_through, P, p1, p2))
    for l in lines:
        for p in points:
            assert (_outcome(parallel_through, P, l, p)
                    == _outcome(ref.parallel_through, P, l, p))
        for l2 in lines:
            assert (_outcome(intersection, P, l, l2)
                    == _outcome(ref.intersection, P, l, l2))


def test_fixture_planes(p3, andre9_plane):
    assert_agrees(p3)
    assert_agrees(andre9_plane)


PLANE_CASES = {name: P for name, (_, P) in cases().items()
               if name.startswith("plane/")}


@pytest.mark.parametrize("name", list(PLANE_CASES))
def test_witness_mutants(name):
    assert_agrees(PLANE_CASES[name])


@st.composite
def incidence_structures(draw):
    """Up to 10 points and arbitrary lines, empty and repeated ones included."""
    n = draw(st.integers(1, 10))
    lines = draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=14))
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=3))
    return AffinePlane.from_lines(n, lines)


@settings(max_examples=300, deadline=None)
@given(incidence_structures())
def test_random_incidence_structures(P):
    assert_agrees(P)


@st.composite
def linear_spaces(draw):
    """Up to 12 points where every pair lies on exactly one line: seeded
    lines that pairwise share at most one point, then each pair still
    uncovered as a line of two.  Half are then broken by dropping a line,
    repeating one or adding a point to one."""
    n = draw(st.integers(2, 12))
    lines = []
    for line in draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=2),
                              max_size=8)):
        if all(len(line & other) <= 1 for other in lines):
            lines.append(line)
    covered = {pair for line in lines for pair in itertools.combinations(sorted(line), 2)}
    lines += [frozenset(pair) for pair in itertools.combinations(range(n), 2)
              if pair not in covered]
    fault = draw(st.sampled_from((None, "drop", "repeat", "grow")))
    i = draw(st.integers(0, len(lines) - 1))
    if fault == "drop":
        del lines[i]
    elif fault == "repeat":
        lines.append(lines[i])
    elif fault == "grow":
        lines[i] = lines[i] | {draw(st.integers(0, n - 1))}
    return AffinePlane.from_lines(n, lines)


@settings(max_examples=300, deadline=None)
@given(linear_spaces())
def test_linear_spaces_and_their_broken_copies(P):
    """Linear spaces, which pass A1, and broken copies, whose A1 sweep
    names the reference's witness."""
    assert_agrees(P)


# ---------------------------------------------------------------------------
# the plane count: it passes the corpus planes without a sweep, and every
# mutant falls back to the sweeps with the reference's witnesses

def _corpus_planes():
    """Field planes of orders 2 to 9 and 16, the André planes of order 9
    and one of order 16 and their transposes, and an order-9 Hall plane
    with another line at infinity, each re-read from its lines."""
    planes = [plane_from_ternary(to_ternary(from_field(make_field(p, n))))
              for p, n in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                           (3, 2), (2, 4))]
    for p, n, d in ((3, 2, 1), (2, 4, 2)):
        K = make_field(p, n)
        for spec in enumerate_phi(K, galois_subgroup(K, d))[-2:]:
            Q = build_left(spec)
            planes += [plane_from_ternary(to_ternary(R)) for R in (Q, opposite(Q))]
    planes.append(moved_line_at_infinity(planes[6], 0))
    return [AffinePlane.from_lines(P.n, P.lines) for P in planes]


def _swapped(P, rng):
    """P with a point of one line exchanged for a point of a line parallel
    to it: every line keeps its size and every point its degree.  At
    order 2 the new lines repeat two others."""
    i = rng.randrange(len(P.lines))
    j = rng.choice([j for j in plane._bits(P.parallel[i]) if j != i])
    a, b = rng.choice(P.lines[i]), rng.choice(P.lines[j])
    lines = list(map(set, P.lines))
    lines[i] = lines[i] - {a} | {b}
    lines[j] = lines[j] - {b} | {a}
    return AffinePlane.from_lines(P.n, lines)


def test_corpus_planes_pass_by_count():
    for P in _corpus_planes():
        assert assert_sweep_agrees(P).all_pass


def test_mutants_fall_back_to_the_sweeps():
    """Deleted, duplicated and moved-point lines, and two points swapped
    between two lines, which only the parallel count rejects."""
    rng = random.Random(22)
    for seed, P in enumerate(_corpus_planes()):
        q = len(P.lines[0])
        if q == 16:
            continue  # one reference sweep at order 16 takes about 0.6 s
        for lines in _plane_mutants(P, seed).values():
            assert not assert_sweep_agrees(AffinePlane.from_lines(P.n, lines)).all_pass
        for _ in range(3):
            M = _swapped(P, rng)
            assert all(len(line) == q for line in M.lines)
            assert all(mask.bit_count() == q + 1 for mask in M.through)
            assert any(par.bit_count() != q for par in M.parallel)
            assert not assert_sweep_agrees(M).all_pass


def test_non_square_point_counts_fall_back_to_the_sweeps():
    """The Fano plane (7 points, 3 on each line, 3 lines through each
    point), the projective plane of order 3 on 13 points, and the
    order-3 affine plane with an isolated point or a line removed."""
    fano = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    pg3 = [tuple((i + d) % 13 for d in (0, 1, 3, 9)) for i in range(13)]
    p3 = plane_from_ternary(to_ternary(from_field(make_field(3, 1))))
    for n, lines in ((7, fano), (13, pg3), (10, p3.lines), (9, p3.lines[1:])):
        assert not assert_sweep_agrees(AffinePlane.from_lines(n, lines)).all_pass
