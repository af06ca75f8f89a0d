import pytest

from affplane import (build_left, from_field, galois_subgroup, make_field,
                      plane_from_ternary, spec_from_exponents, to_ternary)


@pytest.fixture(scope="session")
def k3():
    return make_field(3, 1)


@pytest.fixture(scope="session")
def k4():
    return make_field(2, 2)


@pytest.fixture(scope="session")
def k9():
    return make_field(3, 2)


@pytest.fixture(scope="session")
def k16():
    return make_field(2, 4)


@pytest.fixture(scope="session")
def andre9_spec(k9):
    """The order-9 twisted spec with the nontrivial automorphism choice."""
    return spec_from_exponents(k9, galois_subgroup(k9, 1), (0, 1))


@pytest.fixture(scope="session")
def andre9(andre9_spec):
    return build_left(andre9_spec)


@pytest.fixture(scope="session")
def andre16_spec(k16):
    """An order-16 spec whose phi is not a homomorphism."""
    return spec_from_exponents(k16, galois_subgroup(k16, 2), (0, 0, 1))


@pytest.fixture(scope="session")
def andre16(andre16_spec):
    return build_left(andre16_spec)


@pytest.fixture(scope="session")
def t3(k3):
    return to_ternary(from_field(k3))


@pytest.fixture(scope="session")
def p3(t3):
    return plane_from_ternary(t3)


@pytest.fixture(scope="session")
def andre9_ring(andre9):
    return to_ternary(andre9)


@pytest.fixture(scope="session")
def andre9_plane(andre9_ring):
    return plane_from_ternary(andre9_ring)
