from dataclasses import replace

import pytest

from affplane import (LEFT_AXIOMS, RIGHT_AXIOMS, AndreSpec, build_left, build_right,
                      check_vw, enumerate_phi, fixed_field, galois_subgroup,
                      make_field, make_spec, norm, norm_image, opposite,
                      predicts_associative, predicts_right_distributive,
                      right_divide, spec_from_exponents)
from affplane import andre
from affplane.errors import InputError, SearchBoundExceeded
from tests_support import swept_associativity_witness, swept_report

SUITE = [(3, 2, 1, 2), (2, 4, 2, 4), (5, 2, 1, 8), (3, 3, 1, 3)]


@pytest.mark.parametrize("p,n,d,count", SUITE)
def test_enumeration_counts(p, n, d, count):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    specs = enumerate_phi(K, G)
    assert len(specs) == count
    assert G.order ** (len(specs[0].image) - 1) == count


def test_enumeration_bound(k9, monkeypatch):
    monkeypatch.setattr(andre, "DEFAULT_ENUM_BOUND", 1)
    G = galois_subgroup(k9, 1)
    with pytest.raises(SearchBoundExceeded):
        enumerate_phi(k9, G)


def test_spec_validation(k9):
    G = galois_subgroup(k9, 1)
    with pytest.raises(InputError):
        spec_from_exponents(k9, G, (1, 0))  # phi(1) must be identity
    with pytest.raises(InputError):
        spec_from_exponents(k9, G, (0,))  # wrong length
    with pytest.raises(InputError):
        spec_from_exponents(k9, G, (0, 2))  # exponent out of range


def test_trivial_phi_rebuilds_the_field(k9):
    G = galois_subgroup(k9, 1)
    spec = spec_from_exponents(k9, G, (0, 0))
    Q = build_left(spec)
    assert Q.mul_table == k9.mul_table
    assert Q.add_table == k9.add_table


def test_andre9_frozen_values(andre9_spec, andre9):
    assert andre9_spec.image == (1, 2)
    assert andre9_spec.fixed == (0, 1, 2)
    # norm(4) = 2 picks the Frobenius branch: 4 (*) 3 = 4 * 3^3
    k9 = andre9_spec.field
    assert andre9.mul(4, 3) == k9.mul(4, k9.pow(3, 3))
    assert andre9.mul(4, 3) == 7


@pytest.mark.parametrize("p,n,d,count", SUITE)
def test_every_spec_builds_a_left_quasifield(p, n, d, count):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    for spec in enumerate_phi(K, G):
        report = swept_report(build_left(spec))
        assert report.passes(*LEFT_AXIOMS)


def test_build_right_is_opposite_of_left(andre9_spec):
    right = build_right(andre9_spec)
    left = build_left(andre9_spec)
    assert right.mul_table == opposite(left).mul_table
    report = check_vw(right)
    assert report.passes(*RIGHT_AXIOMS)


def test_right_divide_matches_exhaustive_search(andre9_spec, andre16_spec):
    for spec in (andre9_spec, andre16_spec):
        Q = build_left(spec)
        for a in range(1, Q.q):
            for b in range(Q.q):
                x = right_divide(spec, a, b)
                assert Q.mul(x, a) == b
                assert [y for y in range(Q.q) if Q.mul(y, a) == b] == [x]


@pytest.mark.parametrize("p,n,d,count", SUITE)
def test_right_divide_agrees_with_every_build(p, n, d, count):
    """`right_divide` reads the spec's alpha, which the spec derives from
    its phi, so on every spec it inverts its left build's multiplication,
    on one whose phi `replace` changed too."""
    K = make_field(p, n)
    specs = enumerate_phi(K, galois_subgroup(K, d))
    for spec in specs + [replace(specs[0], phi=other.phi) for other in specs[1:]]:
        Q = build_left(spec)
        assert all(Q.mul(right_divide(spec, a, b), a) == b
                   for a in range(1, K.q) for b in range(K.q))


def test_a_spec_derives_its_norm_data(k9):
    """`AndreSpec(K, G, phi)` is the spec `spec_from_exponents` returns,
    and phi is checked with the same messages in the same order."""
    G = galois_subgroup(k9, 1)
    spec = AndreSpec(k9, G, [0, 1])
    assert spec == spec_from_exponents(k9, G, (0, 1)) and spec.phi == (0, 1)
    assert (spec.fixed, spec.image) == make_spec(k9, G)
    for phi, message in (((1, 0, 0), "phi needs 2 entries"), ((1, 2), "must lie in 0..1"),
                         ((1, 0), "the first phi entry must be 0")):
        with pytest.raises(InputError, match=message):
            AndreSpec(k9, G, phi)


def test_a_group_of_another_field_is_rejected(k9, k16):
    G = galois_subgroup(k16, 2)
    for make in (AndreSpec, spec_from_exponents):
        with pytest.raises(InputError, match="^the group acts on another field$"):
            make(k9, G, (0, 0, 1))


def test_the_galois_helpers_reject_a_group_of_another_field(k4, k9, k16):
    """Each of these pairs ended in an IndexError, or, for `norm_image`,
    in (0, 1, 2, 3, 7, 8), which holds 0, while the checks were missing."""
    for call in (lambda: enumerate_phi(k16, galois_subgroup(k9, 1)),
                 lambda: enumerate_phi(k4, galois_subgroup(k16, 1)),
                 lambda: norm_image(k9, galois_subgroup(k16, 2)),
                 lambda: fixed_field(k9, galois_subgroup(k16, 2))):
        with pytest.raises(InputError, match="^the group acts on another field$"):
            call()


def test_right_divide_rejects_bad_operands(andre9_spec):
    with pytest.raises(InputError):
        right_divide(andre9_spec, 0, 3)
    with pytest.raises(InputError):
        right_divide(andre9_spec, 9, 0)


@pytest.mark.parametrize("p,n,d,count", SUITE)
def test_associativity_prediction_matches_scan(p, n, d, count):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    for spec in enumerate_phi(K, G):
        Q = build_left(spec)
        assert predicts_associative(spec) == (swept_associativity_witness(Q) is None)


@pytest.mark.parametrize("p,n,d,count", SUITE)
def test_right_distributivity_prediction_matches_scan(p, n, d, count):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    for spec in enumerate_phi(K, G):
        report = check_vw(build_left(spec))
        assert predicts_right_distributive(spec) == report.flags()["VW4-r"]


def test_alpha_constant_on_norm_classes(andre9_spec):
    K = andre9_spec.field
    G = andre9_spec.group
    for x in range(1, 9):
        for y in range(1, 9):
            if norm(K, G, x) == norm(K, G, y):
                assert andre9_spec.alpha[x] == andre9_spec.alpha[y]


def test_make_spec_shared_data(k9):
    G = galois_subgroup(k9, 1)
    fixed, image = make_spec(k9, G)
    assert fixed == (0, 1, 2)
    assert image == (1, 2)
