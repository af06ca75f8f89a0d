import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affplane import gf
from affplane.errors import InputError, InternalCheckError
from affplane.gf import (FiniteField, fixed_field, galois_subgroup,
                         is_irreducible, make_field, norm, norm_image,
                         smallest_irreducible, verify_field_tables)

FIELD_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (2, 4), (5, 2), (3, 3)]


def brute_force_irreducible(poly, p):
    """Oracle: a polynomial is reducible iff it has a monic factor of any
    degree between 1 and deg-1, found by exhaustive trial division."""
    poly = list(poly)
    deg = len(poly) - 1
    for d in range(1, deg):
        for tail in itertools.product(range(p), repeat=d):
            cand = list(tail) + [1]
            rem = _poly_mod(poly, cand, p)
            if not rem:
                return False
    return True


def _poly_mod(num, den, p):
    num = list(num)
    deg = len(den) - 1
    while len(num) - 1 >= deg and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) - 1 < deg:
            break
        shift = len(num) - 1 - deg
        factor = (num[-1] * pow(den[-1], -1, p)) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
    while num and num[-1] == 0:
        num.pop()
    return num


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_smallest_irreducible_matches_oracle(p, n):
    found = smallest_irreducible(p, n)
    assert brute_force_irreducible(found, p)
    for tail in itertools.product(range(p), repeat=n):
        poly = list(tail) + [1]
        if tuple(poly) == found:
            break
        assert not brute_force_irreducible(poly, p)


def test_frozen_moduli():
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 4).modulus == (1, 0, 0, 1, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_is_irreducible_rejects_products():
    # (t+1)^2 = t^2 + 2t + 1 over GF(3)
    assert not is_irreducible([1, 2, 1], 3)
    assert is_irreducible([1, 1], 3)
    assert not is_irreducible([5], 7)


@pytest.mark.parametrize("p,n", FIELD_ORDERS)
def test_field_tables_verify(p, n):
    K = make_field(p, n)
    assert K.q == p ** n
    verify_field_tables(K)


def test_frozen_gf9_arithmetic(k9):
    # element 3 encodes t, element 4 encodes t+1; modulus t^2+1
    assert k9.mul(3, 3) == 2
    assert k9.inv(3) == 6
    # (t+1)^2 = t^2 + 2t + 1 = 2t since t^2 = -1 = 2; 2t encodes 6
    assert k9.mul(4, 4) == 6


def test_make_field_rejects_bad_input():
    with pytest.raises(InputError):
        make_field(6, 1)
    with pytest.raises(InputError):
        make_field(2, 0)
    with pytest.raises(InputError):
        make_field(2, 13)  # 8192 > default bound


def test_order_above_the_bound_is_rejected_before_any_build(monkeypatch):
    def no_build(*args):
        raise AssertionError("make_field built a field above its bound")

    monkeypatch.setattr(gf, "smallest_irreducible", no_build)
    monkeypatch.setattr(gf, "_digit_blocks", no_build)
    assert gf.DEFAULT_MAX_ORDER == 2048
    with pytest.raises(InputError, match="order 4096 exceeds the configured bound 2048"):
        make_field(2, 12)


@pytest.mark.parametrize("p, n, order", [
    (2, 100000, "2^100000"),  # 30,103 digits: more than `str` gives
    (3, 3000, "3^3000"),
    (10 ** 18 + 3, 1, str(10 ** 18 + 3)),  # a prime that trial division takes long on
    (4, 7, "16384"),
])
def test_order_bound_comes_before_the_prime_test(monkeypatch, p, n, order):
    def no_test(p):
        raise AssertionError("make_field tested a p above its bound")

    monkeypatch.setattr(gf, "_is_prime", no_test)
    with pytest.raises(InputError) as exc:
        make_field(p, n)
    assert str(exc.value) == f"order {order} exceeds the configured bound 2048"


def test_generator_spans_nonzero(k9):
    assert sorted(k9.exp_table) == list(range(1, 9))
    assert k9.log_table[0] == -1
    for i, v in enumerate(k9.exp_table):
        assert k9.log_table[v] == i


@pytest.mark.parametrize("p, n, modulus", [(2, 2, (0, 0, 1)), (2, 3, (1, 0, 0, 1)),
                                            (3, 2, (2, 0, 1))])
def test_a_reducible_modulus_has_no_generator(p, n, modulus):
    """X^2, X^3 + 1 = (X + 1)(X^2 + X + 1) and X^2 - 1 = (X - 1)(X + 1):
    their rings have zero divisors, whose powers never come back to 1,
    and no unit of order q - 1."""
    assert not is_irreducible(modulus, p)
    with pytest.raises(InternalCheckError, match="^no multiplicative generator found$"):
        gf._find_generator(p, n, modulus)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_gf9_field_laws_hypothesis(a, b, c):
    K = make_field(3, 2)
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.sub(a, a) == 0


# ---------------------------------------------------------------------------
# Galois machinery

def test_galois_subgroup_rejects_nondivisor(k9):
    with pytest.raises(InputError):
        galois_subgroup(k9, 3)


def test_galois_group_structure(k16):
    G = galois_subgroup(k16, 2)
    assert G.order == 2
    # the nontrivial element is x -> x^4
    assert all(G.perms[1][x] == k16.pow(x, 4) for x in range(16))
    F = fixed_field(k16, G)
    assert len(F) == 4


def test_fixed_field_gf9(k9):
    G = galois_subgroup(k9, 1)
    assert fixed_field(k9, G) == (0, 1, 2)


def test_frozen_norms(k9):
    G = galois_subgroup(k9, 1)
    assert norm(k9, G, 3) == 1
    assert norm(k9, G, 4) == 2
    assert norm(k9, G, 0) == 0
    assert norm_image(k9, G) == (1, 2)


def test_norm_exhaustive_oracle(k9):
    """Oracle: N(x) = x^(1+3) in GF(9) for the order-2 group."""
    G = galois_subgroup(k9, 1)
    for x in range(9):
        assert norm(k9, G, x) == k9.pow(x, 4)


@pytest.mark.parametrize("p,n,d", [(3, 2, 1), (2, 4, 2), (2, 4, 1),
                                   (5, 2, 1), (3, 3, 1)])
def test_norm_multiplicative_and_invariant(p, n, d):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    fixed = set(fixed_field(K, G))
    for x in range(K.q):
        nx = norm(K, G, x)
        assert nx in fixed or (x == 0 and nx == 0)
        for g in G.perms:
            assert norm(K, G, g[x]) == nx
        for y in range(K.q):
            assert norm(K, G, K.mul(x, y)) == K.mul(nx, norm(K, G, y))


def test_norm_rejects_out_of_range(k9):
    G = galois_subgroup(k9, 1)
    with pytest.raises(InputError):
        norm(k9, G, 9)


def test_norm_rejects_a_group_of_another_field(k9):
    """A group of GF(27) or GF(4) is no group of GF(9); one made from an
    equal copy of GF(9) is."""
    for K in (make_field(3, 3), make_field(2, 2)):
        with pytest.raises(InputError, match="^the group acts on another field$"):
            norm(k9, galois_subgroup(K, 1), 5)
    assert norm(k9, galois_subgroup(make_field(3, 2), 1), 5) == norm(k9, galois_subgroup(k9, 1), 5)
