"""The O(n q^2) field and automorphism certificates against the old sweeps,
and the row-level field build and certificate against the per-pair ones.

`field_reference` keeps the checks the certificates replaced: a sweep of
all q^3 triples (q^2 pairs for an automorphism) up to q = 64 and a
deterministic sample above it.  Where the sweeps are exhaustive, both
versions must accept every field and Galois permutation and reject the
same corruptions; above q = 64 the certificates must also reject what
the sample let through.

It also keeps the per-pair polynomial build of `make_field` and the
certificate as it was entry by entry.  The row-level build must give the
same tables, generator and modulus at every prime power up to 256, and
the row-level certificate the same error on every single-entry
corruption of the add, mul, neg, inv and exp tables at q <= 16.

And it keeps the Galois-layer functions as they were when they checked
at run time what is now derived by theorem.  At every (p, n, d) with
d | n and q <= 256, their checks must all pass and their values must
equal the derived ones.
"""

import dataclasses
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import field_reference as ref
from affplane.errors import InternalCheckError
from affplane.andre import spec_from_exponents
from affplane.gf import (_is_automorphism, _is_prime, fixed_field,
                         galois_subgroup, is_irreducible, make_field,
                         norm_image, verify_field_tables)
from test_gf import FIELD_ORDERS

PRIME_POWERS = [(p, n) for p in range(2, 257) if _is_prime(p)
                for n in range(1, 9) if p ** n <= 256]

field = functools.cache(make_field)


def _accepts(verify, K):
    try:
        verify(K)
    except InternalCheckError:
        return False
    return True


def _corrupt(K, table, changes):
    entries = list(getattr(K, table))
    for i, v in changes:
        entries[i] = v
    return dataclasses.replace(K, **{table: tuple(entries)})


def _swap(perm, x, y):
    out = list(perm)
    out[x], out[y] = perm[y], perm[x]
    return tuple(out)


@pytest.mark.parametrize("p,n", FIELD_ORDERS)
def test_both_accept_every_field_and_galois_permutation(p, n):
    K = field(p, n)
    verify_field_tables(K)
    ref.verify_field_tables(K)
    for perm in galois_subgroup(K, 1).perms:
        assert _is_automorphism(K, perm)
        assert ref._is_automorphism(K, perm, True)


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
@pytest.mark.parametrize("p,n", [(2, 2), (5, 1), (2, 3), (3, 2)])
def test_both_reject_every_single_entry_corruption(p, n, table):
    K = field(p, n)
    for i, v in enumerate(getattr(K, table)):
        if (table, i) == ("inv_table", 0):
            continue  # the 0 sentinel, which neither certificate reads
        for w in range(K.q):
            if w != v:
                bad = _corrupt(K, table, [(i, w)])
                assert not _accepts(verify_field_tables, bad)
                assert not _accepts(ref.verify_field_tables, bad)


@given(st.sampled_from([(2, 4), (5, 2), (3, 3)]),
       st.sampled_from(["add_table", "mul_table", "neg_table", "inv_table"]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_both_agree_on_random_corruptions(pn, table, data):
    K = field(*pn)
    size = len(getattr(K, table))
    changes = data.draw(st.lists(
        st.tuples(st.integers(0, size - 1), st.integers(0, K.q - 1)),
        min_size=1, max_size=3))
    bad = _corrupt(K, table, changes)
    assert _accepts(verify_field_tables, bad) == _accepts(ref.verify_field_tables, bad)


def _cyclic_product(K, exp):
    """K with its product and inverses rebuilt from the powers in exp."""
    q, m = K.q, K.q - 1
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    mul = [0] * (q * q)
    for a, b in itertools.product(range(1, q), repeat=2):
        mul[a * q + b] = exp[(log[a] + log[b]) % m]
    inv = [0] + [exp[-log[a] % m] for a in range(1, q)]
    return dataclasses.replace(K, mul_table=tuple(mul), inv_table=tuple(inv),
                               exp_table=tuple(exp), log_table=tuple(log))


def _zero_row_is_identity(K):
    return _corrupt(K, "mul_table", [(b, b) for b in range(K.q)])


def _left_projection(K):
    q = K.q
    bad = _corrupt(K, "mul_table", [(a * q + b, b) for a in range(1, q)
                                    for b in range(q)])
    return _corrupt(bad, "inv_table", [(a, 1) for a in range(1, q)])


def _powers_of_another_generator(K):
    m = K.q - 1
    return _cyclic_product(K, [K.exp_table[3 * i % m] for i in range(m)])


def _log_shifted_by_half(K):
    m = K.q - 1
    return _corrupt(K, "log_table", [(v, (K.log_table[v] + m // 2) % m)
                                     for v in range(1, K.q)])


def _two_powers_swapped(K):
    exp = list(K.exp_table)
    exp[2], exp[3] = exp[3], exp[2]
    return _cyclic_product(K, exp)


@pytest.mark.parametrize("corrupt,sample_sees", [
    (_zero_row_is_identity, True),         # only 0x = 0 fails
    (_left_projection, True),              # only ab = exp[log a + log b]
    (_powers_of_another_generator, False),  # only exp[1] = generator
    (_log_shifted_by_half, False),         # only log = exp^-1
    (_two_powers_swapped, True),           # only distributivity
])
def test_each_premise_of_the_certificate_rejects_alone(corrupt, sample_sees):
    # the old sweep never reads exp_table, log_table or generator
    bad = corrupt(field(3, 2))
    assert not _accepts(verify_field_tables, bad)
    assert _accepts(ref.verify_field_tables, bad) != sample_sees


def test_automorphism_check_rejects_ring_map_failures():
    K = field(3, 2)
    zero = (0,) * K.q  # multiplicative, not additive
    # a + bt -> (a + b) + bt is additive and fixes 1, but t^2 = 2 and
    # (t + 1)^2 = 2t
    shear = tuple(K.add(x % 3, 4 * (x // 3)) for x in range(K.q))
    for perm in (zero, shear):
        assert not _is_automorphism(K, perm)
        assert not ref._is_automorphism(K, perm, True)
    bad = _corrupt(K, "add_table", [(3 * K.q + 1, 5)])
    with pytest.raises(InternalCheckError, match="not a field automorphism"):
        galois_subgroup(bad, 1)


@pytest.mark.parametrize("p,n", FIELD_ORDERS)
def test_both_reject_every_image_transposition(p, n):
    K = field(p, n)
    perms = galois_subgroup(K, 1).perms
    for perm in perms:
        for x, y in itertools.combinations(range(K.q), 2):
            swapped = _swap(perm, x, y)
            # in GF(4) the Frobenius map swaps 2 and 3 and fixes 0 and 1
            expected = swapped in perms
            assert _is_automorphism(K, swapped) == expected
            assert ref._is_automorphism(K, swapped, True) == expected


@pytest.mark.parametrize("p,n", [(2, 7), (2, 8), (3, 5)])
def test_certificates_accept_fields_above_the_old_bound(p, n):
    K = field(p, n)
    verify_field_tables(K)
    assert all(_is_automorphism(K, perm) for perm in galois_subgroup(K, 1).perms)


def test_noncommutative_gf128_addition_is_rejected():
    K = field(2, 7)
    q = K.q
    bad = _corrupt(K, "add_table", [(29 * q + 5, K.add(29, 6)),
                                    (29 * q + 6, K.add(29, 5))])
    assert bad.add(29, 5) != bad.add(5, 29)
    ref.verify_field_tables(bad)  # row 29 lies off the sample range(0, 128, 9)
    with pytest.raises(InternalCheckError):
        verify_field_tables(bad)


@pytest.mark.parametrize("p,n,x,y,sample_accepts", [
    (2, 7, 5, 6, False),  # off range(0, 128, 4), but products of it reach both
    (2, 8, 3, 6, True),   # no sum or product of range(0, 256, 8) is 3 or 6
    (3, 5, 18, 37, True),  # nor of range(0, 243, 8) 18 or 37
])
def test_off_sample_image_swaps_are_rejected(p, n, x, y, sample_accepts):
    K = field(p, n)
    swapped = _swap(galois_subgroup(K, 1).perms[1], x, y)
    assert ref._is_automorphism(K, swapped, False) == sample_accepts
    assert not _is_automorphism(K, swapped)


@pytest.mark.parametrize("p,n", PRIME_POWERS)
def test_rows_build_the_reference_tables(p, n):
    # dataclass equality: p, n, q, modulus, generator and all six tables
    assert make_field(p, n) == ref.make_field(p, n)


@pytest.mark.parametrize("p, degree", [(2, 8), (3, 5), (5, 4), (7, 3), (11, 2)])
def test_roots_and_trial_division_agree_on_irreducibility(p, degree):
    """`is_irreducible` reads factors of degree 1 off the roots; the
    reference trial-divides by them.  Every polynomial of degree 0 to
    `degree` over GF(p), leading coefficient 1 or p - 1."""
    for deg in range(degree + 1):
        for tail in itertools.product(range(p), repeat=deg):
            for lead in {1, p - 1}:
                poly = list(tail) + [lead]
                assert is_irreducible(poly, p) == ref.is_irreducible(poly, p), poly


def _error(verify, K):
    try:
        verify(K)
    except InternalCheckError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("table", ["add_table", "mul_table", "neg_table",
                                   "inv_table", "exp_table"])
@pytest.mark.parametrize("p,n", [pn for pn in PRIME_POWERS if pn[0] ** pn[1] <= 16])
def test_rows_and_entries_name_the_same_failure(p, n, table):
    K = field(p, n)
    for i, v in enumerate(getattr(K, table)):
        if (table, i) == ("inv_table", 0):
            continue  # the 0 sentinel, which neither certificate reads
        for w in range(K.q):
            if w != v:
                bad = _corrupt(K, table, [(i, w)])
                error = _error(verify_field_tables, bad)
                assert error is not None
                assert error == _error(ref.verify_field_tables_by_entry, bad)


@pytest.mark.parametrize("corrupt", [_zero_row_is_identity, _left_projection,
                                     _powers_of_another_generator,
                                     _log_shifted_by_half, _two_powers_swapped])
@pytest.mark.parametrize("p,n", [(3, 2), (2, 4), (5, 2)])
def test_rows_and_entries_name_the_same_failing_premise(p, n, corrupt):
    bad = corrupt(field(p, n))
    error = _error(verify_field_tables, bad)
    assert error is not None
    assert error == _error(ref.verify_field_tables_by_entry, bad)


GALOIS_DEGREES = [(p, n, d) for p, n in PRIME_POWERS
                  for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize("p,n,d", GALOIS_DEGREES)
def test_derived_structures_match_the_checked_references(p, n, d):
    """The group, fixed field, norm image and spec that `gf` and `andre`
    derive by theorem equal those of the references, whose run-time
    checks of the same facts all pass (d = n included)."""
    K = field(p, n)
    G = galois_subgroup(K, d)
    assert G == ref.galois_subgroup(K, d)
    fixed = fixed_field(K, G)
    assert fixed == ref.fixed_field(K, G)
    image = norm_image(K, G)
    assert image == ref.norm_image(K, G)
    rng = random.Random(K.q * 16 + d)
    for rest in ((0,) * (len(image) - 1),
                 tuple(rng.randrange(G.order) for _ in image[1:])):
        spec = spec_from_exponents(K, G, (0, *rest))
        assert ((spec.fixed, spec.image, spec.phi, spec.alpha)
                == ref.spec_from_exponents(K, G, (0, *rest), fixed, image))
