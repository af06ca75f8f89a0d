import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affplane import (Isotopism, TernaryRing, check_ternary_axioms,
                      complete_isotopism, compose_isotopisms, find_isomorphism,
                      find_isotopism, from_field, is_isomorphism, is_isotopism,
                      make_field, opposite, to_ternary, validate)
from affplane.errors import InputError, SearchBoundExceeded


def mutate(T, a, x, b, value):
    table = list(T.table)
    table[(a * T.q + x) * T.q + b] = value
    return TernaryRing(T.q, tuple(table))


def test_field_rings_pass_axioms():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        T = to_ternary(from_field(make_field(p, n)))
        assert check_ternary_axioms(T).all_pass


def test_validate_round_trip(t3):
    assert t3.validated
    assert validate(t3) is t3


def test_eval_checks_range(t3):
    assert t3.eval(1, 2, 0) == 2
    with pytest.raises(InputError):
        t3.eval(3, 0, 0)


def test_constructor_rejects_bad_tables():
    with pytest.raises(InputError):
        TernaryRing(3, (0,) * 26)
    with pytest.raises(InputError):
        TernaryRing(3, (0,) * 26 + (3,))
    with pytest.raises(InputError):
        TernaryRing(1, (0,))


def test_mutations_trip_axioms_with_witnesses(t3):
    # break T1 at <1,1,0>
    bad = mutate(t3, 1, 1, 0, 0)
    report = check_ternary_axioms(bad)
    assert not report.passes("T1")
    assert report.witnesses["T1"] == (1,)
    # break T2 at <2,0,1>
    bad = mutate(t3, 2, 0, 1, 0)
    report = check_ternary_axioms(bad)
    assert not report.passes("T2")
    assert report.witnesses["T2"] == (2, 1)
    with pytest.raises(InputError):
        validate(bad)


def test_mutation_breaks_t3_uniqueness(t3):
    # duplicate a value within the b-row of (a, x) = (1, 1)
    value = t3.at(1, 1, 0)
    bad = mutate(t3, 1, 1, 1, value)
    report = check_ternary_axioms(bad)
    assert not report.passes("T3")
    assert report.witnesses["T3"][0:2] == (1, 1)


def test_t3_t4_imply_t5_over_mutation_sweep(t3):
    """Finite-case implication: any table where T3 and T4 hold also
    passes T5, checked across a sweep of single-entry corruptions."""
    for a, x, b in itertools.product(range(3), repeat=3):
        for v in range(3):
            report = check_ternary_axioms(mutate(t3, a, x, b, v))
            if report.passes("T3", "T4"):
                assert report.passes("T5")


# ---------------------------------------------------------------------------
# isomorphisms

def relabel(T, perm):
    inv = [0] * T.q
    for i, v in enumerate(perm):
        inv[v] = i
    table = [0] * T.q ** 3
    for a in range(T.q):
        for x in range(T.q):
            for b in range(T.q):
                table[(perm[a] * T.q + perm[x]) * T.q + perm[b]] = \
                    perm[T.at(a, x, b)]
    return TernaryRing(T.q, tuple(table))


def test_identity_is_isomorphism(t3):
    assert is_isomorphism(t3, t3, (0, 1, 2))
    assert find_isomorphism(t3, t3) == (0, 1, 2)


def test_isomorphism_must_fix_zero_one(t3):
    assert not is_isomorphism(t3, t3, (1, 0, 2))
    assert not is_isomorphism(t3, t3, (0, 2, 1))
    assert not is_isomorphism(t3, t3, (0, 1, 1))


def test_find_isomorphism_recovers_relabeling():
    T = to_ternary(from_field(make_field(2, 2)))
    perm = (0, 1, 3, 2)
    U = relabel(T, perm)
    found = find_isomorphism(T, U)
    assert found is not None
    assert is_isomorphism(T, U, found)


def test_find_isomorphism_returns_lexicographically_first():
    """GF(4) has two automorphisms (identity and squaring); the search
    must return the identity, which is lexicographically first."""
    T = to_ternary(from_field(make_field(2, 2)))
    assert find_isomorphism(T, T) == (0, 1, 2, 3)
    K = make_field(2, 2)
    frob = tuple(K.mul(x, x) for x in range(4))
    assert frob != (0, 1, 2, 3)
    assert is_isomorphism(T, T, frob)


def test_find_isomorphism_absent(t3, andre9_ring):
    T9 = to_ternary(from_field(make_field(3, 2)))
    assert find_isomorphism(andre9_ring, T9) is None
    with pytest.raises(InputError):
        find_isomorphism(t3, T9)


def test_isomorphism_bound():
    T = to_ternary(from_field(make_field(5, 2)))
    with pytest.raises(SearchBoundExceeded):
        find_isomorphism(T, T)


# ---------------------------------------------------------------------------
# isotopisms

def test_identity_isotopism(t3):
    ident = Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert is_isotopism(t3, t3, ident)


def test_isotopism_requires_h_fixing_zero(t3):
    assert not is_isotopism(t3, t3, Isotopism((0, 1, 2), (0, 1, 2), (1, 0, 2)))
    assert not is_isotopism(t3, t3, Isotopism((0, 1, 1), (0, 1, 2), (0, 1, 2)))


def test_find_isotopism_identity_first(t3):
    iso = find_isotopism(t3, t3)
    assert iso == Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))


def test_find_isotopism_on_relabeled_ring():
    T = to_ternary(from_field(make_field(5, 1)))
    U = relabel(T, (0, 1, 3, 2, 4))
    iso = find_isotopism(T, U)
    assert iso is not None
    assert is_isotopism(T, U, iso)


def test_complete_isotopism_reconstruction(t3):
    K = make_field(3, 1)
    # scale the carrier by 2: an isotopism of the field ring with itself
    F = tuple(K.mul(2, a) for a in range(3))
    H = F
    G = (0, 1, 2)
    iso = Isotopism(F, G, H)
    assert is_isotopism(t3, t3, iso)
    rebuilt = complete_isotopism(t3, t3, H, F.index(1), G.index(1))
    assert rebuilt == iso


def test_complete_isotopism_rejects_bad_h(t3):
    with pytest.raises(InputError):
        complete_isotopism(t3, t3, (1, 0, 2), 0, 0)


def test_find_isotopism_absent_between_order_9_planes(k9, andre9):
    """The Desarguesian, Hall and dual Hall planes of order 9 are pairwise
    non-isomorphic, so no two of their coordinate rings are isotopic."""
    rings = (to_ternary(from_field(k9)), to_ternary(andre9),
             to_ternary(opposite(andre9)))
    for T, U in itertools.combinations(rings, 2):
        assert find_isotopism(T, U) is None


def test_isotopism_bound():
    T = to_ternary(from_field(make_field(2, 4)))
    with pytest.raises(SearchBoundExceeded):
        find_isotopism(T, T)


def test_compose_isotopisms(t3):
    K = make_field(3, 1)
    F = tuple(K.mul(2, a) for a in range(3))
    iso = Isotopism(F, (0, 1, 2), F)
    twice = compose_isotopisms(iso, iso)
    assert is_isotopism(t3, t3, twice)
    assert twice == Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))


@given(st.permutations(list(range(1, 3))))
@settings(max_examples=10, deadline=None)
def test_h_permutation_isotopism_verification_matches_definition(rest):
    """Any verified triple satisfies the defining identity on every
    triple, re-checked directly."""
    T = to_ternary(from_field(make_field(3, 1)))
    H = (0,) + tuple(rest)
    iso = complete_isotopism(T, T, H, 0, 0)
    if iso is not None:
        for a in range(3):
            for x in range(3):
                for b in range(3):
                    assert iso.h[T.at(a, x, b)] == \
                        T.at(iso.f[a], iso.g[x], iso.h[b])
