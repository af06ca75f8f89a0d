"""The forcing isomorphism search agrees with the backtracking reference.

`find_isomorphism` must return the same map (or None) as
`isomorphism_reference.find_isomorphism` on every ordered pair of rings
of order <= 16 built here: field rings, left André rings over every
proper subfield, their transposes and seeded relabellings of each, found
and absent.  It must also agree on single-entry corruptions of those
rings, which only the checks can reject, and on Hypothesis tables of
order <= 5.  Its leaf checks are counted, with no timing: a
classification of an order-16 ring verifies at most one full map.

The left power orders that prune the search must move with every
relabelling that fixes 0 and 1 (Hypothesis), and be the multiplicative
orders on a field.  With them, the search must still agree with the
reference on relabelled field rings up to order 27 and on the André rings
of orders 16 and 25; it must verify fewer full maps in GF(27)
classifications, and read no table entry when the order lists differ.

The leaf check `ternary.isotopism_failure`, with F = G = H = the map,
must return the same triple (or None) as
`isomorphism_reference.isomorphism_failure` on random
tables, relabelled and corrupted field rings and non-linear coordinate
rings of the order-9 Hall and dual Hall planes, under isomorphisms and
failing maps.  `TernaryRing.row_kinds` must name a row of equal content
for every row, and its pull-backs are counted: each kind at most once
per map, with the field ring's index built once.
"""

import itertools
import random
from functools import cache, cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isomorphism_reference as ref
from affplane import (ClassificationResult, CoordinateFrame, TernaryRing,
                      build_left, classify_ternary, coordinatize, enumerate_phi,
                      find_isomorphism, from_field, galois_subgroup,
                      make_field, opposite, plane_from_ternary,
                      spec_from_exponents, to_ternary)
from affplane import collineation, ternary
from tests_support import moved_line_at_infinity, relabel_ring

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
    failure = ternary.isotopism_failure

    def record(*args):
        failures.append(failure(*args))
        return failures[-1]

    monkeypatch.setattr(ternary, "isotopism_failure", record)
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


def _order16_rings():
    """The 8 order-16 André rings and 8 seeded relabellings of GF(16)'s."""
    field16 = to_ternary(from_field(make_field(2, 4)))
    rng = random.Random(2)
    rings = list(_andre16_rings())
    return rings + [relabel_ring(field16, _relabelling(16, rng)) for _ in range(8)]


def test_order16_classifications_verify_at_most_one_map(monkeypatch):
    """The 8 order-16 André rings, left and transposed, and seeded
    relabellings of the GF(16) ring: forcing leaves at most one full map
    to verify in each classification."""
    rings = _order16_rings()
    assert len(rings) == 16
    calls = []
    failure = ternary.isotopism_failure

    def count(*args):
        calls.append(args)
        return failure(*args)

    monkeypatch.setattr(ternary, "isotopism_failure", count)
    for T in rings:
        del calls[:]
        result = classify_ternary(T)
        assert len(calls) <= 1
        assert len(calls) == (result.isomorphism is not None)


# ---------------------------------------------------------------------------
# the left power orders: an isomorphism invariant that prunes the search

@cache
def _order_rings():
    """Field rings of orders 4 to 27, and the left and transposed
    non-field André rings of orders 9, 16 and 25."""
    rings = [to_ternary(from_field(make_field(p, n)))
             for p, n in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))]
    for p, n, d in ((3, 2, 1), (2, 4, 2), (5, 2, 1)):
        K = make_field(p, n)
        for spec in enumerate_phi(K, galois_subgroup(K, d)):
            if any(spec.phi):
                Q = build_left(spec)
                rings += [to_ternary(Q), to_ternary(opposite(Q))]
    return rings


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_left_power_orders_move_with_a_relabelling(data):
    """ord(e) in T is ord(perm(e)) in T relabelled along perm, for any
    perm that fixes 0 and 1."""
    T = data.draw(st.sampled_from(_order_rings()))
    perm = [0, 1] + data.draw(st.permutations(range(2, T.q)))
    orders = ternary._left_orders(T)
    moved = ternary._left_orders(relabel_ring(T, perm))
    assert [moved[perm[e]] for e in range(T.q)] == orders


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_left_power_orders_of_a_field_ring_are_multiplicative_orders(p, n):
    K = make_field(p, n)

    def order(e):
        k, x = 1, e
        while x != 1:
            k, x = k + 1, K.mul(x, e)
        return k

    orders = ternary._left_orders(to_ternary(from_field(K)))
    assert orders == [0] + [order(e) for e in range(1, K.q)]


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_order_pruned_search_matches_the_reference(p, n, monkeypatch):
    """Every ordered pair of the field ring and three seeded relabellings
    of it, and at orders 16 and 25 also of the André rings over every
    proper subfield and a relabelling of two of them: the same map or
    None as the backtracking reference, run here up to order 27."""
    monkeypatch.setattr(ref, "SEARCH_BOUND", 27)
    field = to_ternary(from_field(make_field(p, n)))
    rng = random.Random(p ** n + 2)
    rings = [field] + [relabel_ring(field, _relabelling(field.q, rng)) for _ in range(3)]
    if p ** n in (16, 25):
        andre = [T for T in base_rings(p, n) if T.table != field.table]
        rings += andre + [relabel_ring(T, _relabelling(T.q, rng)) for T in andre[:2]]
    results = {(i, j): assert_agrees(T, U)
               for (i, T), (j, U) in itertools.product(enumerate(rings), repeat=2)}
    assert all(results[i, j] is not None for i in range(4) for j in range(4))
    assert (None in results.values()) == (p ** n in (16, 25))


def test_order_filter_cuts_the_full_maps_of_gf27_classifications(monkeypatch):
    """Five seeded relabellings of the GF(27) ring: a branch element tries
    only images of its own left power order, so forcing leaves 2, 3, 3, 2
    and 8 full maps to verify, where trying every unassigned image leaves
    3, 5, 5, 4 and 19."""
    field = to_ternary(from_field(make_field(3, 3)))
    rng = random.Random(27)
    calls = []
    failure = ternary.isotopism_failure

    def count(*args):
        calls.append(args)
        return failure(*args)

    monkeypatch.setattr(ternary, "isotopism_failure", count)
    leaves = []
    for _ in range(5):
        U = relabel_ring(field, _relabelling(27, rng))
        del calls[:]
        assert classify_ternary(U).verdict == "desarguesian"
        leaves.append(len(calls))
    assert leaves == [2, 3, 3, 2, 8]


def test_left_andre16_rings_are_absent_before_the_search(monkeypatch):
    """The three non-field left André rings of order 16 have other left
    power orders than GF(16): the search reads no single entry of either
    table, and the classification verifies no map and keeps its reason."""
    reads = []

    class CountedTable(tuple):
        def __getitem__(self, i):
            if not isinstance(i, slice):
                reads.append(i)
            return tuple.__getitem__(self, i)

    calls = []
    failure = ternary.isotopism_failure

    def count(*args):
        calls.append(args)
        return failure(*args)

    monkeypatch.setattr(ternary, "isotopism_failure", count)
    K = make_field(2, 4)
    field = to_ternary(from_field(K))
    counted_field = TernaryRing(16, CountedTable(field.table))
    rings = [to_ternary(build_left(spec)) for spec in enumerate_phi(K, galois_subgroup(K, 2))
             if any(spec.phi)]
    assert len(rings) == 3
    for T in rings:
        assert find_isomorphism(TernaryRing(16, CountedTable(T.table)), counted_field) is None
        assert classify_ternary(T) == ClassificationResult(
            "non-desarguesian", None, "search-exhausted")
    assert not reads and not calls


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


# ---------------------------------------------------------------------------
# the leaf check: U's rows pulled back through the map, one kind at a time

def assert_failure_agrees(T, U, perm):
    found = ternary.isotopism_failure(T, U, perm, perm, perm)
    assert found == ref.isomorphism_failure(T, U, perm)
    return found


def _failing_maps(q, rng, count):
    return [[0, 1] + rng.sample(range(2, q), q - 2) for _ in range(count)]


def test_leaf_check_on_random_tables_matches_the_reference():
    """Random tables at q = 2..5 against their transports, corrupted
    transports and independent tables, under the transporting map and
    under random maps."""
    rng = random.Random(5)
    outcomes = set()
    for q in (2, 3, 4, 5):
        for _ in range(60):
            T = TernaryRing(q, tuple(rng.randrange(q) for _ in range(q ** 3)))
            perm = _relabelling(q, rng)
            U = relabel_ring(T, perm)
            others = [U, _corrupt(U, rng.randrange(q ** 3), rng),
                      TernaryRing(q, tuple(rng.randrange(q) for _ in range(q ** 3)))]
            for V in others:
                for sigma in [perm] + _failing_maps(q, rng, 2):
                    outcomes.add(assert_failure_agrees(T, V, sigma) is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3)])
def test_leaf_check_on_field_rings_matches_the_reference(p, n):
    """Relabelled GF(16) and GF(27) rings, whole and with entries changed,
    under the relabelling and under other maps."""
    T = to_ternary(from_field(make_field(p, n)))
    q = T.q
    rng = random.Random(q)
    for _ in range(6):
        perm = _relabelling(q, rng)
        U = relabel_ring(T, perm)
        assert assert_failure_agrees(T, U, perm) is None
        for i in rng.sample(range(q ** 3), 8):
            assert assert_failure_agrees(T, _corrupt(U, i, rng), perm) is not None
        for sigma in _failing_maps(q, rng, 4):
            assert_failure_agrees(T, U, sigma)
            assert_failure_agrees(U, T, sigma)


def _nonlinear_hall_rings():
    """Non-linear coordinate rings of the order-9 Hall plane and of its
    dual.  The plane of the near-field is the Hall plane, a translation
    plane, so every coordinate ring of it is a quasi-field's, and linear;
    its projective completion with line 0 removed instead of the line at
    infinity is a Hall plane too, without that property.  The plane of
    the near-field's opposite is the dual Hall plane."""
    K = make_field(3, 2)
    near = build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1)))
    planes = [moved_line_at_infinity(plane_from_ternary(to_ternary(near)), 0),
              plane_from_ternary(to_ternary(opposite(near)))]
    rings = []
    for P in planes:
        for l in range(0, 90, 18):
            m = next(m % 90 for m in range(l + 45, l + 135)
                     if m % 90 != l and P.masks[l] & P.masks[m % 90])
            on = P.masks[l] | P.masks[m]
            z = max(z for z in range(P.n) if not on >> z & 1)
            T = coordinatize(P, CoordinateFrame(l, m, z)).ring
            if not ternary._is_linear(T):
                rings.append(T)
    return rings


def test_leaf_check_on_nonlinear_hall_rings_matches_the_reference():
    rings = _nonlinear_hall_rings()
    assert len(rings) >= 8
    rng = random.Random(9)
    for T in rings:
        perm = _relabelling(9, rng)
        U = relabel_ring(T, perm)
        assert assert_failure_agrees(T, U, perm) is None
        assert assert_failure_agrees(T, _corrupt(U, rng.randrange(729), rng), perm)
        for V in rng.sample(rings, 3):
            for sigma in [perm] + _failing_maps(9, rng, 2):
                assert_failure_agrees(T, V, sigma)


def _assert_kinds(T):
    q, kinds = T.q, T.row_kinds
    rows = ternary._b_rows(T)
    assert len(kinds) == q * q
    for j, k in enumerate(kinds):
        assert rows[k] == rows[j]
        assert k == j or k == q + T.table[j * q]
    return kinds


def test_row_kinds_name_equal_rows():
    """On random tables, on linear rings (field and André, and their
    relabellings) and on coordinatized rings, linear or not."""
    rng = random.Random(11)
    for q in (2, 3, 4, 5):
        for _ in range(20):
            _assert_kinds(TernaryRing(q, tuple(rng.randrange(q) for _ in range(q ** 3))))
    for p, n in ((2, 2), (3, 2), (2, 4), (3, 3)):
        field = to_ternary(from_field(make_field(p, n)))
        assert len(set(_assert_kinds(field))) == field.q
        assert len(set(_assert_kinds(relabel_ring(field, _relabelling(field.q, rng))))) == field.q
    for T in list(_andre16_rings()) + _nonlinear_hall_rings():
        kinds = _assert_kinds(T)
        assert (len(set(kinds)) == T.q) == ternary._is_linear(T)


def test_classifications_pull_each_kind_back_once_per_map(monkeypatch):
    """Over the order-16 classifications, the field ring's `row_kinds` is
    built once, and each leaf check pulls each of its kinds back at most
    once."""
    rings = _order16_rings()
    builds = []
    build = TernaryRing.row_kinds.func

    def counted_build(T):
        builds.append(T)
        return build(T)

    kinds = cached_property(counted_build)
    kinds.__set_name__(TernaryRing, "row_kinds")
    monkeypatch.setattr(TernaryRing, "row_kinds", kinds)
    pulls = []
    pull_back = ternary._pull_back
    failure = ternary.isotopism_failure

    def counted_pull(u, q, k, gather, unpull):
        pulls[-1].append(k)
        return pull_back(u, q, k, gather, unpull)

    def leaf(*args):
        pulls.append([])
        return failure(*args)

    monkeypatch.setattr(ternary, "_pull_back", counted_pull)
    monkeypatch.setattr(ternary, "isotopism_failure", leaf)
    collineation._field_ring.cache_clear()
    found = [classify_ternary(T).isomorphism is not None for T in rings]
    assert sum(found) >= 8 and len(pulls) == sum(found)
    assert len(builds) == 1 and builds[0] is collineation._field_ring(16)
    assert all(len(ks) == len(set(ks)) <= 16 for ks in pulls)
