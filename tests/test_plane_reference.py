"""The bitmask plane layer agrees with the set-based reference loops.

Every axiom flag and witness, every parallel partition and every return
value or raised `InputError` of `line_through`, `parallel_through` and
`intersection`, on every argument, must match `plane_reference`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plane_reference as ref
from affplane import (AffinePlane, check_plane_axioms, intersection,
                      line_through, parallel_classes, parallel_through)
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
