"""The bitmask plane layer agrees with the set-based reference loops.

Every axiom flag and witness, the verdict of the A1 count certificate,
the full witness sequences of the A2 cover
and the parallel sweep, the point-to-line index `through`, every parallel
partition and every return value or raised `InputError` of
`line_through`, `parallel_through` and `intersection`, on every argument,
must match `plane_reference`.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plane_reference as ref
from affplane import (AffinePlane, check_plane_axioms, intersection,
                      line_through, parallel_classes, parallel_through)
from affplane import plane
from affplane.errors import InputError
from test_witnesses import cases


def _outcome(fn, *args):
    try:
        return "returns", fn(*args)
    except InputError as exc:
        return "raises", str(exc)


def assert_agrees(P):
    new, old = check_plane_axioms(P), ref.check_plane_axioms(P)
    assert new.flags() == old.flags()
    assert new.witnesses == old.witnesses
    assert plane._a1_holds(P) == old.passes("A1")
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
def test_a1_certificate_on_linear_spaces(P):
    """The certificate accepts every linear space, so the A1 sweep never
    runs on one, and rejects each broken copy with its sweep's witness."""
    assert_agrees(P)
