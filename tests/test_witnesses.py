"""Exact flags and witnesses of the three axiom checkers on seeded mutants.

Each case is a single-entry corruption of the order-3 or order-9 field or
near-field tables, or a mutant of their planes (a deleted line, a
duplicated line, a line with one point swapped for another), plus a
single line holding every point.  The expected values pin every flag and
every lexicographically minimal witness, so a change to a sweep's order
or exit shows up here.
"""

import random

import pytest

from affplane import (AffinePlane, QuasiField, TernaryRing, build_left,
                      check_plane_axioms, check_ternary_axioms, check_vw,
                      from_field, galois_subgroup, make_field,
                      plane_from_ternary, spec_from_exponents, to_ternary)

TERNARY_MUTANTS = 6
MUL_MUTANTS = 4
ADD_MUTANTS = 2


def _pick(rng, n):
    # random() is the one method whose stream is stable across Pythons
    return int(rng.random() * n)


def _corrupt(table, q, seed):
    """The table with one seeded entry moved to a different value."""
    rng = random.Random(seed)
    table = list(table)
    i = _pick(rng, len(table))
    table[i] = (table[i] + 1 + _pick(rng, q - 1)) % q
    return tuple(table)


def _bases():
    K3, K9 = make_field(3, 1), make_field(3, 2)
    near9 = build_left(spec_from_exponents(K9, galois_subgroup(K9, 1), (0, 1)))
    return {"field3": from_field(K3), "field9": from_field(K9), "near9": near9}


def _plane_mutants(P, seed):
    rng = random.Random(seed)
    lines = list(P.lines)
    gone = _pick(rng, len(lines))
    deleted = lines[:gone] + lines[gone + 1:]
    duplicated = lines + [lines[_pick(rng, len(lines))]]
    li = _pick(rng, len(lines))
    line = list(lines[li])
    off = [p for p in range(P.n) if p not in line]
    line[_pick(rng, len(line))] = off[_pick(rng, len(off))]
    swapped = lines[:li] + [tuple(line)] + lines[li + 1:]
    return {"deleted": deleted, "duplicated": duplicated, "swapped": swapped}


def cases():
    """case id -> (checker, input), in a fixed order."""
    out = {}
    for seed, (name, Q) in enumerate(_bases().items()):
        q = Q.q
        T = to_ternary(Q)
        out[f"ternary/{name}"] = (check_ternary_axioms, T)
        for i in range(TERNARY_MUTANTS):
            out[f"ternary/{name}/{i}"] = (
                check_ternary_axioms,
                TernaryRing(q, _corrupt(T.table, q, 100 * seed + i)))
        out[f"vw/{name}"] = (check_vw, Q)
        for i in range(MUL_MUTANTS):
            out[f"vw/{name}/mul{i}"] = (check_vw, QuasiField(
                q, Q.add_table, _corrupt(Q.mul_table, q, 200 * seed + i)))
        for i in range(ADD_MUTANTS):
            out[f"vw/{name}/add{i}"] = (check_vw, QuasiField(
                q, _corrupt(Q.add_table, q, 300 * seed + i), Q.mul_table))
        P = plane_from_ternary(T)
        out[f"plane/{name}"] = (check_plane_axioms, P)
        for kind, lines in _plane_mutants(P, 400 + seed).items():
            out[f"plane/{name}/{kind}"] = (
                check_plane_axioms, AffinePlane.from_lines(P.n, lines))
    out["plane/one-line"] = (check_plane_axioms,
                             AffinePlane.from_lines(3, [(0, 1, 2)]))
    return out


# case id -> (flags(), witnesses)
EXPECTED = {
    'ternary/field3': (
        {'T1': True, 'T2': True, 'T3': True, 'T4': True, 'T5': True},
        {}),
    'ternary/field3/0': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (2, 1, 0), 'T4': (0, 2, 0, 1), 'T5': (0, 1, 1, 0)}),
    'ternary/field3/1': (
        {'T1': False, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T1': (0,), 'T2': (1, 0), 'T3': (0, 1, 0), 'T4': (0, 1, 0, 1), 'T5': (0, 1, 0, 0)}),
    'ternary/field3/2': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (2, 2, 1), 'T4': (0, 2, 1, 1), 'T5': (0, 2, 1, 1)}),
    'ternary/field3/3': (
        {'T1': True, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T2': (2, 0), 'T3': (0, 2, 0), 'T4': (0, 1, 0, 0), 'T5': (0, 2, 0, 0)}),
    'ternary/field3/4': (
        {'T1': True, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T2': (2, 0), 'T3': (0, 2, 0), 'T4': (0, 1, 0, 1), 'T5': (0, 2, 0, 0)}),
    'ternary/field3/5': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (1, 2, 0), 'T4': (0, 1, 0, 1), 'T5': (0, 2, 1, 0)}),
    'vw/field3': (
        {'VW1': True, 'VW2': True, 'VW3': True, 'VW4': True, 'VW5': True, 'VW4-r': True, 'VW5-r': True},
        {}),
    'vw/field3/mul0': (
        {'VW1': True, 'VW2': False, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (2,), 'VW2': (1,), 'VW4': (2, 1, 1), 'VW4-r': (1, 1, 1), 'VW5': (0, 2), 'VW5-r': (0, 1)}),
    'vw/field3/mul1': (
        {'VW1': True, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (0,), 'VW4': (0, 1, 1), 'VW4-r': (0, 0, 1), 'VW5': (0, 1), 'VW5-r': (0, 1)}),
    'vw/field3/mul2': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (2,), 'VW4': (2, 1, 1), 'VW4-r': (1, 1, 2), 'VW5': (0, 2), 'VW5-r': (0, 2)}),
    'vw/field3/mul3': (
        {'VW1': True, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (2,), 'VW4': (0, 1, 1), 'VW4-r': (0, 0, 2), 'VW5': (0, 1), 'VW5-r': (0, 2)}),
    'vw/field3/add0': (
        {'VW1': False, 'VW2': True, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (2,), 'VW4': (2, 1, 2), 'VW4-r': (1, 2, 2)}),
    'vw/field3/add1': (
        {'VW1': False, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (1,), 'VW3': (1,), 'VW4': (2, 0, 1), 'VW4-r': (0, 1, 2)}),
    'plane/field3': (
        {'A1': True, 'A2': True, 'A3': True, 'parallel-transitive': True},
        {}),
    'plane/field3/deleted': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': True},
        {'A1': (0, 5), 'A2': (3, 0)}),
    'plane/field3/duplicated': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (0, 5), 'A2': (5, 0), 'parallel-transitive': (3, 5)}),
    'plane/field3/swapped': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (2, 4), 'A2': (1, 4), 'parallel-transitive': (0, 11)}),
    'ternary/field9': (
        {'T1': True, 'T2': True, 'T3': True, 'T4': True, 'T5': True},
        {}),
    'ternary/field9/0': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (1, 2, 1), 'T4': (0, 1, 1, 7), 'T5': (0, 2, 7, 1)}),
    'ternary/field9/1': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (5, 2, 0), 'T4': (0, 5, 0, 0), 'T5': (0, 2, 0, 0)}),
    'ternary/field9/2': (
        {'T1': False, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T1': (3,), 'T3': (1, 3, 3), 'T4': (0, 1, 3, 0), 'T5': (0, 3, 0, 3)}),
    'ternary/field9/3': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (8, 7, 0), 'T4': (0, 8, 0, 2), 'T5': (0, 7, 2, 0)}),
    'ternary/field9/4': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (8, 5, 6), 'T4': (0, 8, 6, 6), 'T5': (0, 5, 6, 6)}),
    'ternary/field9/5': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (7, 8, 2), 'T4': (0, 7, 2, 1), 'T5': (0, 8, 1, 2)}),
    'vw/field9': (
        {'VW1': True, 'VW2': True, 'VW3': True, 'VW4': True, 'VW5': True, 'VW4-r': True, 'VW5-r': True},
        {}),
    'vw/field9/mul0': (
        {'VW1': True, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (3,), 'VW4': (0, 1, 3), 'VW4-r': (0, 0, 3), 'VW5': (0, 1), 'VW5-r': (0, 3)}),
    'vw/field9/mul1': (
        {'VW1': True, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (5,), 'VW4': (0, 1, 4), 'VW4-r': (0, 0, 5), 'VW5': (0, 1), 'VW5-r': (0, 5)}),
    'vw/field9/mul2': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (6,), 'VW4': (6, 1, 6), 'VW4-r': (1, 6, 7), 'VW5': (0, 6), 'VW5-r': (0, 7)}),
    'vw/field9/mul3': (
        {'VW1': True, 'VW2': True, 'VW3': False, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW3': (7,), 'VW4': (0, 1, 6), 'VW4-r': (0, 0, 7), 'VW5': (0, 1), 'VW5-r': (0, 7)}),
    'vw/field9/add0': (
        {'VW1': False, 'VW2': True, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (1, 4, 3), 'VW4': (2, 5, 3), 'VW4-r': (1, 5, 5)}),
    'vw/field9/add1': (
        {'VW1': False, 'VW2': True, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (1, 3, 5), 'VW4': (2, 3, 5), 'VW4-r': (1, 4, 3)}),
    'plane/field9': (
        {'A1': True, 'A2': True, 'A3': True, 'parallel-transitive': True},
        {}),
    'plane/field9/deleted': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': True},
        {'A1': (4, 16), 'A2': (4, 4)}),
    'plane/field9/duplicated': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (4, 10), 'A2': (7, 4), 'parallel-transitive': (7, 38)}),
    'plane/field9/swapped': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (8, 64), 'A2': (3, 8), 'parallel-transitive': (1, 51)}),
    'ternary/near9': (
        {'T1': True, 'T2': True, 'T3': True, 'T4': True, 'T5': True},
        {}),
    'ternary/near9/0': (
        {'T1': True, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T2': (3, 6), 'T3': (0, 3, 6), 'T4': (0, 1, 6, 3), 'T5': (0, 3, 6, 6)}),
    'ternary/near9/1': (
        {'T1': True, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T2': (5, 3), 'T3': (0, 5, 3), 'T4': (0, 1, 3, 1), 'T5': (0, 5, 3, 3)}),
    'ternary/near9/2': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (6, 7, 0), 'T4': (0, 6, 0, 7), 'T5': (0, 7, 7, 0)}),
    'ternary/near9/3': (
        {'T1': True, 'T2': False, 'T3': False, 'T4': False, 'T5': False},
        {'T2': (7, 3), 'T3': (0, 7, 1), 'T4': (0, 1, 3, 3), 'T5': (0, 7, 3, 1)}),
    'ternary/near9/4': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (3, 5, 6), 'T4': (0, 3, 6, 1), 'T5': (0, 5, 1, 6)}),
    'ternary/near9/5': (
        {'T1': True, 'T2': True, 'T3': False, 'T4': False, 'T5': False},
        {'T3': (3, 8, 5), 'T4': (0, 3, 5, 1), 'T5': (0, 8, 1, 5)}),
    'vw/near9': (
        {'VW1': True, 'VW2': True, 'VW3': True, 'VW4': True, 'VW5': True, 'VW4-r': False, 'VW5-r': True},
        {'VW4-r': (1, 3, 3)}),
    'vw/near9/mul0': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (2,), 'VW4': (2, 1, 6), 'VW4-r': (1, 1, 6), 'VW5': (0, 2), 'VW5-r': (0, 6)}),
    'vw/near9/mul1': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (4,), 'VW4': (4, 1, 3), 'VW4-r': (1, 3, 3), 'VW5': (0, 4), 'VW5-r': (0, 4)}),
    'vw/near9/mul2': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (3,), 'VW4': (7, 1, 3), 'VW4-r': (1, 3, 3), 'VW5': (0, 7), 'VW5-r': (0, 3)}),
    'vw/near9/mul3': (
        {'VW1': True, 'VW2': False, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW2': (2,), 'VW4': (2, 1, 1), 'VW4-r': (1, 1, 2), 'VW5': (0, 2), 'VW5-r': (0, 2)}),
    'vw/near9/add0': (
        {'VW1': False, 'VW2': True, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (8,), 'VW4': (2, 4, 8), 'VW4-r': (1, 2, 8)}),
    'vw/near9/add1': (
        {'VW1': False, 'VW2': True, 'VW3': True, 'VW4': False, 'VW5': False, 'VW4-r': False, 'VW5-r': False},
        {'VW1': (1, 1, 6), 'VW4': (2, 1, 6), 'VW4-r': (1, 3, 3)}),
    'plane/near9': (
        {'A1': True, 'A2': True, 'A3': True, 'parallel-transitive': True},
        {}),
    'plane/near9/deleted': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': True},
        {'A1': (8, 9), 'A2': (5, 8)}),
    'plane/near9/duplicated': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (0, 16), 'A2': (19, 0), 'parallel-transitive': (8, 19)}),
    'plane/near9/swapped': (
        {'A1': False, 'A2': False, 'A3': True, 'parallel-transitive': False},
        {'A1': (6, 33), 'A2': (6, 33), 'parallel-transitive': (0, 85)}),
    'plane/one-line': (
        {'A1': True, 'A2': True, 'A3': False, 'parallel-transitive': True},
        {'A3': ()}),
}


@pytest.fixture(scope="module")
def all_cases():
    return cases()


def test_every_case_is_pinned(all_cases):
    assert list(all_cases) == list(EXPECTED)


@pytest.mark.parametrize("case", list(EXPECTED))
def test_flags_and_witnesses(all_cases, case):
    check, subject = all_cases[case]
    report = check(subject)
    flags, witnesses = EXPECTED[case]
    assert report.flags() == flags
    assert report.witnesses == witnesses
