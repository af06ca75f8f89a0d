import pytest

from affplane import (LEFT_AXIOMS, LINEAR_RING_AXIOMS, RIGHT_AXIOMS,
                      QuasiField, associativity_witness, build_right,
                      check_vector_space, check_vw, from_field, from_ternary,
                      galois_subgroup, make_field, opposite,
                      spec_from_exponents, to_ternary)
from affplane.errors import InputError
from affplane.ternary import TernaryRing
from test_quasifield_reference import BUILDS
from tests_support import swept_report


def test_fields_pass_all_seven_flags():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        Q = from_field(make_field(p, n))
        report = check_vw(Q)
        assert report.passes(*LEFT_AXIOMS) and report.passes(*RIGHT_AXIOMS)
        assert all(report.flags().values())


def test_constructor_rejects_bad_tables():
    with pytest.raises(InputError):
        QuasiField(2, (0, 1, 1), (0, 0, 0, 1))
    for add, mul in (((0, 1, 1, 0), (0, 0, 0, 2)), ((0, 1, -1, 0), (0, 0, 0, 1))):
        with pytest.raises(InputError, match="table entry out of range"):
            QuasiField(2, add, mul)
    with pytest.raises(InputError):
        QuasiField(1, (0,), (0,))


def test_andre9_flags_and_witness(andre9):
    report = check_vw(andre9)
    assert report.passes(*LEFT_AXIOMS)
    assert not report.passes(*RIGHT_AXIOMS)
    assert not report.passes("VW4-r") and report.passes("VW5-r")
    assert report.witnesses["VW4-r"] == (1, 3, 3)
    assert andre9.mul(4, 3) == 7


def test_andre9_is_near_field(andre9):
    assert associativity_witness(andre9) is None


def test_andre16_not_associative(andre16):
    witness = associativity_witness(andre16)
    assert witness is not None
    x, y, z = witness
    assert andre16.mul(andre16.mul(x, y), z) != \
        andre16.mul(x, andre16.mul(y, z))


def test_opposite_transposes(andre9):
    op = opposite(andre9)
    assert op.mul(3, 4) == 7
    for a in range(9):
        for b in range(9):
            assert op.mul(a, b) == andre9.mul(b, a)
    # double opposite is the original
    assert opposite(op).mul_table == andre9.mul_table


def test_opposite_swaps_axiom_sides(andre9):
    report = check_vw(opposite(andre9))
    assert report.passes(*RIGHT_AXIOMS)
    assert not report.passes(*LEFT_AXIOMS)


def test_to_ternary_linearity(andre9):
    T = to_ternary(andre9)
    assert T.validated
    for a in range(9):
        for x in range(9):
            for b in range(9):
                assert T.at(a, x, b) == andre9.add(andre9.mul(a, x), b)


def test_to_ternary_rejects_nonquasifield():
    # constant multiplication violates VW2
    q = 3
    add = tuple((a + b) % 3 for a in range(3) for b in range(3))
    mul = tuple(0 if 0 in (a, b) else 1 for a in range(3) for b in range(3))
    with pytest.raises(InputError):
        to_ternary(QuasiField(q, add, mul))


def test_from_ternary_round_trip(andre9):
    T = to_ternary(andre9)
    back = from_ternary(T)
    assert back is not None
    assert back.add_table == andre9.add_table
    assert back.mul_table == andre9.mul_table


def test_from_ternary_returns_none_for_nonlinear(t3):
    table = list(t3.table)
    # corrupt an entry not touched by the a=1 row or b=0 column reads
    table[(2 * 3 + 2) * 3 + 1] = (table[(2 * 3 + 2) * 3 + 1] + 1) % 3
    assert from_ternary(TernaryRing(3, tuple(table))) is None


def test_vw1_witness_on_broken_addition():
    add = (0, 1, 1, 0)  # 1+0 = 1 but 0+1 = 1, 1+1 = 0: fine; break below
    bad_add = (0, 1, 1, 1)  # 1 has no additive inverse
    mul = (0, 0, 0, 1)
    report = check_vw(QuasiField(2, bad_add, mul))
    assert not report.passes("VW1")
    assert not report.passes("VW5") and not report.passes("VW5-r")
    report = check_vw(QuasiField(2, add, mul))
    assert report.passes("VW1")


def test_prop3_vw1_to_vw4_imply_vw5(andre9, andre16):
    """Finite-case implication: whenever the first four left axioms hold,
    the fifth does too, across every table in the suite."""
    for Q in (andre9, andre16, from_field(make_field(3, 1)),
              from_field(make_field(2, 2)), opposite(andre9)):
        report = swept_report(Q)
        if report.passes("VW1", "VW2", "VW3", "VW4"):
            assert report.passes("VW5")


def test_either_axiom_set_implies_the_linear_ring_axioms():
    """`to_ternary` marks its ring validated from the kept report, since
    the left and the right axiom set each imply LINEAR_RING_AXIOMS: on
    every field and André build of order <= 27 and its opposite."""
    passing = 0
    for Q, _ in BUILDS.values():
        for R in (Q, opposite(Q)):
            report = check_vw(R)
            if report.passes(*LEFT_AXIOMS) or report.passes(*RIGHT_AXIOMS):
                assert report.passes(*LINEAR_RING_AXIOMS)
                passing += 1
    assert len(BUILDS) == 75 and passing == 150


def test_vector_space_over_fixed_subfield(andre9):
    assert check_vector_space(andre9, (0, 1, 2))
    with pytest.raises(InputError):
        check_vector_space(andre9, (0, 1, 3))  # not closed
    with pytest.raises(InputError):
        check_vector_space(andre9, (1, 2))  # missing 0


def test_vector_space_rejects_scalars_out_of_range(andre9):
    """9 is no element of GF(9), and -1, though as a row index it is the
    last one, 8."""
    for F in ((0, 1, 9), (0, 1, -1)):
        with pytest.raises(InputError, match=r"^F must lie in 0\.\.8$"):
            check_vector_space(andre9, F)


def test_vector_space_scalars_may_be_an_iterator():
    """F is read once, so an iterator over it gives F's verdict and not a
    vacuous True; here a right build over GF(25)/GF(5) that is not a
    vector space, with and without its kept proof."""
    K = make_field(5, 2)
    spec = spec_from_exponents(K, galois_subgroup(K, 1), (0, 0, 0, 1))
    Q = build_right(spec)
    for R in (Q, QuasiField(Q.q, Q.add_table, Q.mul_table)):
        assert check_vector_space(R, iter(spec.fixed)) is False
    with pytest.raises(InputError, match="not closed"):
        check_vector_space(Q, iter((0, 1, 7)))
