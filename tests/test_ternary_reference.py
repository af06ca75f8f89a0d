"""The row-level T3-T5 sweeps against the entry-by-entry ones.

`ternary_reference` keeps the T3, T4 and T5 sweeps as they were before
`check_ternary_axioms` decided whole rows at once.  Both versions must
yield the same witnesses in the same order, in full, on the rings of
every field and left André quasi-field of order <= 27 and their
transposes, on seeded non-linear coordinatizations at orders 9 and 16,
on every single-entry change and every swap of two entries within a
b-row of the field rings of order 3 to 5, and on Hypothesis tables.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ternary_reference as ref
from affplane import (CoordinateFrame, TernaryRing, build_left, coordinatize,
                      enumerate_phi, from_field, galois_subgroup, make_field,
                      opposite, plane_from_ternary, spec_from_exponents,
                      to_ternary)
from affplane import ternary

field = functools.cache(make_field)


def _sequences(T):
    """axiom -> every witness of the row-level sweep, and the same from
    the reference sweep."""
    q = T.q
    rows = [T.table[i:i + q] for i in range(0, q ** 3, q)]
    new = {"T3": ternary._t3_sweep(q, rows), "T4": ternary._t4_sweep(q, rows),
           "T5": ternary._t5_sweep(q, rows)}
    old = {"T3": ref._t3_sweep(q, T.at), "T4": ref._t4_sweep(q, T.at),
           "T5": ref._t5_sweep(q, T.at)}
    return ({k: list(v) for k, v in d.items()} for d in (new, old))


def assert_agree(T):
    new, old = _sequences(T)
    assert new == old
    witnesses = {k: v[0] for k, v in old.items() if v}
    report = ternary.check_ternary_axioms(T)
    assert {k: w for k, w in report.witnesses.items() if k in old} == witnesses


def linear_ring(add, mul, q):
    """The unvalidated table <ax+b> = ax + b."""
    return TernaryRing(q, tuple(add[mul[a * q + x] * q + b] for a in range(q)
                                for x in range(q) for b in range(q)))


def _rings(max_q):
    """(name, ring): every field and left André quasi-field ring of order
    <= max_q, and the ring of its transposed multiplication."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for n in range(1, 6):
            if p ** n > max_q:
                break
            K = field(p, n)
            quasifields = [("field", from_field(K))]
            for d in range(1, n):
                if n % d == 0:
                    quasifields += [(f"{d}/{spec.phi}", build_left(spec))
                                    for spec in enumerate_phi(K, galois_subgroup(K, d))]
            for name, Q in quasifields:
                for side, R in (("left", Q), ("transposed", opposite(Q))):
                    yield f"GF({p}^{n})/{name}/{side}", linear_ring(
                        R.add_table, R.mul_table, R.q)


RINGS = dict(_rings(27))


@pytest.mark.parametrize("name", list(RINGS))
def test_quasifield_rings_agree(name):
    assert_agree(RINGS[name])


def _seeded_frame(rng, P):
    while True:
        l, m = rng.sample(range(len(P.lines)), 2)
        if P.masks[l] & P.masks[m]:
            off = [p for p in range(P.n) if not (P.masks[l] | P.masks[m]) >> p & 1]
            return CoordinateFrame(l, m, rng.choice(off))


@pytest.mark.parametrize("p,n,d,phi", [(3, 2, 1, (0, 1)), (2, 4, 2, (0, 0, 1))])
def test_seeded_coordinatizations_agree(p, n, d, phi):
    K = field(p, n)
    Q = opposite(build_left(spec_from_exponents(K, galois_subgroup(K, d), phi)))
    P = plane_from_ternary(to_ternary(Q))
    rng = random.Random(p ** n)
    nonlinear = 0
    for _ in range(4):
        T = coordinatize(P, _seeded_frame(rng, P)).ring
        nonlinear += not ternary._is_linear(T)
        assert_agree(T)
    assert nonlinear


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1)])
def test_every_single_entry_change_agrees(p, n):
    T = to_ternary(from_field(field(p, n)))
    q = T.q
    for i in range(q ** 3):
        for value in range(q):
            if value != T.table[i]:
                table = list(T.table)
                table[i] = value
                assert_agree(TernaryRing(q, tuple(table)))


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1)])
def test_every_transposition_within_a_row_agrees(p, n):
    """Swapping two entries of one b-row keeps every b-row a permutation,
    so T4 and T5 are decided from whole rows, and a pair that fails may
    have a single repeated cell."""
    T = to_ternary(from_field(field(p, n)))
    q = T.q
    for i in range(0, q ** 3, q):
        for b, b2 in itertools.combinations(range(q), 2):
            table = list(T.table)
            table[i + b], table[i + b2] = table[i + b2], table[i + b]
            assert_agree(TernaryRing(q, tuple(table)))


BASES = [to_ternary(from_field(field(p, n))) for p, n in ((3, 1), (2, 2), (5, 1), (3, 2))]


@st.composite
def tables(draw):
    """A field ring of order 3, 4, 5 or 9 with up to three entries changed
    and two b-rows swapped, or an arbitrary table of order 2 or 3."""
    if draw(st.booleans()):
        q = draw(st.sampled_from([2, 3]))
        return TernaryRing(q, tuple(draw(st.lists(st.integers(0, q - 1),
                                                  min_size=q ** 3, max_size=q ** 3))))
    T = draw(st.sampled_from(BASES))
    q = T.q
    table = list(T.table)
    for _ in range(draw(st.integers(0, 3))):
        table[draw(st.integers(0, q ** 3 - 1))] = draw(st.integers(0, q - 1))
    r, s = (draw(st.integers(0, q * q - 1)) * q for _ in range(2))
    table[r:r + q], table[s:s + q] = table[s:s + q], table[r:r + q]
    return TernaryRing(q, tuple(table))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_hypothesis_tables_agree(T):
    assert_agree(T)
