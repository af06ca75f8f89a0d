"""The forcing isomorphism search agrees with the backtracking reference.

`find_isomorphism` must return the same map (or None) as
`isomorphism_reference.find_isomorphism` on every ordered pair of rings
of order <= 16 built here: field rings, left André rings over every
proper subfield, their transposes and seeded relabellings of each, found
and absent.  It must also agree on single-entry corruptions of those
rings, which only the checks can reject, and on Hypothesis tables of
order <= 5.  Its leaf checks are counted, with no timing: a
classification of an order-16 ring verifies at most one full map.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isomorphism_reference as ref
from affplane import (TernaryRing, build_left, classify_ternary,
                      enumerate_phi, find_isomorphism, from_field,
                      galois_subgroup, make_field, opposite, to_ternary)
from affplane import ternary
from tests_support import relabel_ring

ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
          (11, 1), (13, 1), (2, 4)]


def _relabelling(q, rng):
    rest = list(range(2, q))
    rng.shuffle(rest)
    return [0, 1] + rest


def base_rings(p, n):
    """The distinct rings of the field of order p^n, of every left André
    quasi-field over each proper subfield, and of their transposes."""
    K = make_field(p, n)
    sources = [from_field(K)]
    for d in range(1, n):
        if n % d == 0:
            sources += [build_left(spec) for spec in enumerate_phi(K, galois_subgroup(K, d))]
    rings = [to_ternary(R) for Q in sources for R in (Q, opposite(Q))]
    return list({T.table: T for T in rings}.values())


def rings_with_relabellings(p, n):
    rng = random.Random(p ** n)
    rings = base_rings(p, n)
    return rings + [relabel_ring(T, _relabelling(T.q, rng)) for T in rings]


def _corrupt(T, i, rng):
    table = list(T.table)
    table[i] = (table[i] + rng.randrange(1, T.q)) % T.q
    return TernaryRing(T.q, tuple(table))


def assert_agrees(T, U):
    found = find_isomorphism(T, U)
    assert found == ref.find_isomorphism(T, U)
    return found


@pytest.mark.parametrize("p, n", ORDERS)
def test_every_pair_of_rings_matches_the_reference(p, n):
    rings = rings_with_relabellings(p, n)
    results = [assert_agrees(T, U) for T, U in itertools.product(rings, repeat=2)]
    assert all(r is not None for r in results[::len(rings) + 1])  # T with itself
    # the order-9 and order-16 André rings are not field rings
    assert (None in results) == (p ** n in (9, 16))


@pytest.mark.parametrize("p, n", ORDERS)
def test_single_entry_corruptions_match_the_reference(p, n):
    """Each base ring T against a relabelling U with one entry of U
    changed, both ways round, at seeded entries."""
    rng = random.Random(p ** n + 1)
    for T in base_rings(p, n):
        U = relabel_ring(T, _relabelling(T.q, rng))
        for i in rng.sample(range(T.q ** 3), min(T.q ** 3, 12)):
            V = _corrupt(U, i, rng)
            assert_agrees(T, V)
            assert_agrees(V, T)


def test_corruptions_forcing_misses_are_rejected_at_the_leaf(monkeypatch):
    """A corrupted copy of a relabelled GF(16) ring is isomorphic to no
    ring; where forcing assigns every element before it reads the
    corrupted entry, the leaf check rejects the full map."""
    T = to_ternary(from_field(make_field(2, 4)))
    rng = random.Random(16)
    U = relabel_ring(T, _relabelling(16, rng))
    failures = []
    failure = ternary.isomorphism_failure

    def record(*args):
        failures.append(failure(*args))
        return failures[-1]

    monkeypatch.setattr(ternary, "isomorphism_failure", record)
    at_leaf = 0
    for i in rng.sample(range(16 ** 3), 60):
        del failures[:]
        assert find_isomorphism(T, _corrupt(U, i, rng)) is None
        at_leaf += any(f is not None for f in failures)
    assert at_leaf > 0


def _andre16_rings():
    K = make_field(2, 4)
    for spec in enumerate_phi(K, galois_subgroup(K, 2)):
        Q = build_left(spec)
        yield to_ternary(Q)
        yield to_ternary(opposite(Q))


def test_order16_classifications_verify_at_most_one_map(monkeypatch):
    """The 8 order-16 André rings, left and transposed, and seeded
    relabellings of the GF(16) ring: forcing leaves at most one full map
    to verify in each classification."""
    field16 = to_ternary(from_field(make_field(2, 4)))
    rng = random.Random(2)
    rings = list(_andre16_rings())
    rings += [relabel_ring(field16, _relabelling(16, rng)) for _ in range(8)]
    assert len(rings) == 16
    calls = []
    failure = ternary.isomorphism_failure

    def count(*args):
        calls.append(args)
        return failure(*args)

    monkeypatch.setattr(ternary, "isomorphism_failure", count)
    for T in rings:
        del calls[:]
        result = classify_ternary(T)
        assert len(calls) <= 1
        assert len(calls) == (result.isomorphism is not None)


@st.composite
def tables(draw, q):
    """Arbitrary entries; half of the tables are made to satisfy T1 and T2."""
    table = draw(st.lists(st.integers(0, q - 1), min_size=q ** 3, max_size=q ** 3))
    if draw(st.booleans()):
        def index(a, x, b):
            return (a * q + x) * q + b
        for a in range(q):
            table[index(1, a, 0)] = table[index(a, 1, 0)] = a
            for b in range(q):
                table[index(a, 0, b)] = table[index(0, a, b)] = b
    return TernaryRing(q, tuple(table))


@st.composite
def table_pairs(draw):
    """(T, U): two drawn tables, T with itself, T and its transport along
    a permutation fixing 0 and 1, or that transport with one entry
    changed."""
    q = draw(st.integers(2, 5))
    T = draw(tables(q))
    kind = draw(st.sampled_from(("independent", "same", "transported", "corrupted")))
    if kind == "independent":
        return T, draw(tables(q))
    if kind == "same":
        return T, T
    U = relabel_ring(T, [0, 1] + draw(st.permutations(list(range(2, q)))))
    if kind == "corrupted":
        table = list(U.table)
        i = draw(st.integers(0, q ** 3 - 1))
        table[i] = (table[i] + draw(st.integers(1, q - 1))) % q
        U = TernaryRing(q, tuple(table))
    return T, U


@given(table_pairs())
@settings(max_examples=400, deadline=None)
def test_hypothesis_tables_match_reference(pair):
    assert_agrees(*pair)
