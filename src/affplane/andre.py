"""Twisted-multiplication quasi-fields built from a finite field, a Galois
group, and a norm-indexed choice of automorphisms.

Given the field K, the automorphism group G, and a map phi from the norm
image into G with phi(1) = identity, the left multiplication is
x (*) y = x * alpha_x(y) with alpha_x = phi(N(x)); the right version uses
x (*) y = alpha_y(x) * y.  Build-time verification of the axiom sets is
unconditional: a failure signals a bug, never bad input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalCheckError, SearchBoundExceeded
from .gf import fixed_field, norm, norm_image
from .quasifield import LEFT_AXIOMS, RIGHT_AXIOMS, QuasiField, check_vw

DEFAULT_ENUM_BOUND = 4096


@dataclass(frozen=True)
class AndreSpec:
    """A (field, group, phi) triple with its cached norm data.

    phi is stored as a tuple of generator exponents aligned with the
    norm-image elements in increasing encoding order; alpha maps every
    carrier element to the exponent of its automorphism (identity at 0).
    """

    field: object
    group: object
    fixed: tuple
    image: tuple  # norm image, ascending
    phi: tuple    # exponent per image element
    alpha: tuple  # length q, automorphism exponent per carrier element

    def __repr__(self):
        return (f"AndreSpec(q={self.field.q}, group_order={self.group.order}, "
                f"phi={self.phi})")


def make_spec(K, G):
    """Shared norm data for building specs over (K, G)."""
    return fixed_field(K, G), norm_image(K, G)


def spec_from_exponents(K, G, exponents, fixed=None, image=None):
    """Build a spec from the exponent sequence of phi.

    exponents[i] is the generator exponent assigned to the i-th norm-image
    element (ascending encoding); the first entry must be 0 so that
    phi(1) is the identity automorphism.

    alpha_x = phi(N(x)) is constant on the G-orbits, with no check
    needed: N(gx) = prod_h hg(x) = N(x), because h -> hg permutes G.
    """
    if fixed is None or image is None:
        fixed, image = make_spec(K, G)
    exponents = tuple(exponents)
    if len(exponents) != len(image):
        raise InputError(
            f"phi needs {len(image)} entries (one per norm-image element), "
            f"got {len(exponents)}")
    if any(not 0 <= e < G.order for e in exponents):
        raise InputError(f"phi exponents must lie in 0..{G.order - 1}")
    if exponents[0] != 0:
        raise InputError("the first phi entry must be 0: phi(1) is the identity")
    index = {v: i for i, v in enumerate(image)}
    alpha = [0] * K.q
    for x in range(1, K.q):
        alpha[x] = exponents[index[norm(K, G, x)]]
    return AndreSpec(K, G, tuple(fixed), tuple(image), exponents, tuple(alpha))


def enumerate_phi(K, G):
    """All |G|^(|image|-1) specs with phi(1) = identity, in lexicographic
    order over the remaining norm-image elements sorted by encoding."""
    fixed, image = make_spec(K, G)
    count = G.order ** (len(image) - 1)
    if count > DEFAULT_ENUM_BOUND:
        raise SearchBoundExceeded(
            f"{count} phi maps exceed the configured bound {DEFAULT_ENUM_BOUND}")
    specs = []
    for rest in itertools.product(range(G.order), repeat=len(image) - 1):
        specs.append(spec_from_exponents(K, G, (0,) + rest, fixed, image))
    return specs


def build_left(spec):
    """The left quasi-field with x (*) y = x * alpha_x(y); fully verified."""
    K = spec.field
    perms = spec.group.perms
    q = K.q
    mul = tuple(K.mul(x, perms[spec.alpha[x]][y])
                for x in range(q) for y in range(q))
    Q = QuasiField(q, K.add_table, mul)
    report = check_vw(Q)
    if not report.passes(*LEFT_AXIOMS):
        raise InternalCheckError(
            f"left build failed verification: {report.flags()}")
    return Q


def build_right(spec):
    """The right quasi-field with x (*) y = alpha_y(x) * y; fully verified."""
    K = spec.field
    perms = spec.group.perms
    q = K.q
    mul = tuple(K.mul(perms[spec.alpha[y]][x], y)
                for x in range(q) for y in range(q))
    Q = QuasiField(q, K.add_table, mul)
    report = check_vw(Q)
    if not report.passes(*RIGHT_AXIOMS):
        raise InternalCheckError(
            f"right build failed verification: {report.flags()}")
    return Q


def right_divide(spec, a, b):
    """The unique x with x (*) a = b in the left build, by closed formula:
    x = b * (alpha_{a^-1 b}(a))^-1.  Callers cross-check against search."""
    K = spec.field
    if a == 0:
        raise InputError("division by 0")
    if not (0 <= a < K.q and 0 <= b < K.q):
        raise InputError("operand out of range")
    c = K.mul(K.inv(a), b)
    g = spec.group.perms[spec.alpha[c]]
    return K.mul(b, K.inv(g[a]))


def predicts_associative(spec):
    """True iff phi is multiplicative on the norm image, which is exactly
    when the twisted multiplication is associative."""
    K = spec.field
    order = spec.group.order
    index = {v: i for i, v in enumerate(spec.image)}
    for u in spec.image:
        for v in spec.image:
            w = K.mul(u, v)
            lhs = (spec.phi[index[u]] + spec.phi[index[v]]) % order
            if lhs != spec.phi[index[w]]:
                return False
    return True


def predicts_right_distributive(spec):
    """True iff phi is constantly the identity, which is exactly when the
    twisted multiplication is right distributive (and equals the field's)."""
    return all(e == 0 for e in spec.phi)
