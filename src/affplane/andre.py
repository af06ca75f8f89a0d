"""Twisted-multiplication quasi-fields built from a finite field, a Galois
group, and a norm-indexed choice of automorphisms.

Given the field K, the automorphism group G, and a map phi from the norm
image into G with phi(1) = identity, the left multiplication is
x (*) y = x * alpha_x(y) with alpha_x = phi(N(x)); the right version uses
x (*) y = alpha_y(x) * y, the left one transposed.

The builds are certified by André's theorem from the certified K and G
(`gf`), not by sweeping the axioms.  For the left build, VW1 is K's
addition; VW3 holds because alpha_1 = phi(1) = id and each alpha_x fixes
0 and 1; VW4 because each alpha_x is additive.  N is multiplicative and
N(g v) = N(v) for g in G, so u * alpha_u(v) = u' * alpha_u'(v) with
v != 0 gives N(u) = N(u'), so alpha_u = alpha_u' and u = u'.  With u, u'
the row indices that is VW2 for the columns (the rows are bijections
already), and with v = x it says that the additive map
x -> a (*) x - a' (*) x has a trivial kernel for a != a', so it is a
bijection: VW5.  VW5-r follows from VW5 under VW1 (`quasifield` module
docstring).  Transposing keeps VW1-VW3 and swaps VW4 with VW4-r and VW5
with VW5-r, so the right build is proved the same way.  Only the other
distributive law (VW4-r for a left build, VW4 for a right one) is swept,
to its first witness, so the kept report is the one `check_vw` would
compute.  The proof needs the spec's alpha, image and fixed field to be
those of its field, group and phi; `AndreSpec` derives them from those
three when it is made, so every spec has them and a build checks nothing.

Each build also keeps a `BuildProof` from its spec.  Over the fixed field
F: in the left build each alpha_x fixes F, so x (*) a = x * a for a in
F; then (x (*) y) (*) a = x * alpha_x(y) * a = x (*) (y (*) a) and
(x + y) (*) a = x (*) a + y (*) a, so Q is a vector space over F.  In the
right build, (x + y) (*) a = alpha_a(x + y) * a = x (*) a + y (*) a, and
for y, a != 0, (x (*) y) (*) a = x (*) (y (*) a) for all x exactly when
alpha_a alpha_y = alpha_{y (*) a}, as G acts faithfully.  Since
N(y (*) a) = N(y) N(a) and N(a) = a^|G|, that is phi(v w) = phi(v) + phi(w)
(mod |G|) for v in the norm image and w in {a^|G| : a in F*}.  Likewise
(x (*) y) (*) z = x * alpha_x(y) * alpha_{x (*) y}(z) and x (*) (y (*) z) =
x * alpha_x(y) * alpha_x(alpha_y(z)), so the left build is associative
exactly when phi is multiplicative on the image (`predicts_associative`);
the right build is its opposite ring, associative exactly when it is.
"""

from __future__ import annotations

import dataclasses
import itertools

from .errors import InputError, SearchBoundExceeded
from .gf import fixed_field, norm, norm_image
from .quasifield import BuildProof, QuasiField, keep_proved_report

DEFAULT_ENUM_BOUND = 4096


@dataclasses.dataclass(frozen=True)
class AndreSpec:
    """A (field, group, phi) triple with the norm data derived from it.

    phi is a tuple of generator exponents aligned with the norm-image
    elements in increasing encoding order; phi(1) must be the identity, so
    its first entry is 0.  fixed, image and alpha are derived when the
    spec is made and cannot be given: alpha maps every carrier element to
    the exponent of its automorphism (identity at 0).

    alpha_x = phi(N(x)) is constant on the G-orbits, with no check
    needed: N(gx) = prod_h hg(x) = N(x), because h -> hg permutes G.
    """

    field: object
    group: object
    phi: tuple    # exponent per image element
    fixed: tuple = dataclasses.field(init=False)
    image: tuple = dataclasses.field(init=False)  # norm image, ascending
    alpha: tuple = dataclasses.field(init=False)  # length q, exponent per element

    def __post_init__(self):
        K, G, phi = self.field, self.group, tuple(self.phi)
        fixed = fixed_field(K, G)  # raises when G acts on another field
        norms = [norm(K, G, x) for x in range(1, K.q)]
        image = tuple(sorted(set(norms)))
        if len(phi) != len(image):
            raise InputError(
                f"phi needs {len(image)} entries (one per norm-image element), "
                f"got {len(phi)}")
        if any(not 0 <= e < G.order for e in phi):
            raise InputError(f"phi exponents must lie in 0..{G.order - 1}")
        if phi[0] != 0:
            raise InputError("the first phi entry must be 0: phi(1) is the identity")
        index = {v: i for i, v in enumerate(image)}
        for name, value in (("phi", phi), ("fixed", fixed), ("image", image),
                            ("alpha", (0, *(phi[index[v]] for v in norms)))):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return (f"AndreSpec(q={self.field.q}, group_order={self.group.order}, "
                f"phi={self.phi})")


def make_spec(K, G):
    """Shared norm data for building specs over (K, G)."""
    return fixed_field(K, G), norm_image(K, G)


def spec_from_exponents(K, G, exponents, fixed=None, image=None):
    """`AndreSpec(K, G, exponents)`: exponents[i] is the generator exponent
    assigned to the i-th norm-image element (ascending encoding).

    A given fixed field or norm image (`make_spec`'s) is compared with the
    derived one, and one that differs is rejected.
    """
    spec = AndreSpec(K, G, exponents)
    if (fixed is not None and tuple(fixed) != spec.fixed
            or image is not None and tuple(image) != spec.image):
        raise InputError("spec does not follow from its field, group and phi")
    return spec


def enumerate_phi(K, G):
    """All |G|^(|image|-1) specs with phi(1) = identity, in lexicographic
    order over the remaining norm-image elements sorted by encoding."""
    free = len(norm_image(K, G)) - 1
    count = G.order ** free
    if count > DEFAULT_ENUM_BOUND:
        raise SearchBoundExceeded(
            f"{count} phi maps exceed the configured bound {DEFAULT_ENUM_BOUND}")
    return [spec_from_exponents(K, G, (0,) + rest)
            for rest in itertools.product(range(G.order), repeat=free)]


def _left_rows(spec):
    """K and the rows of the left multiplication: row x is K's row x
    read through alpha_x."""
    K, perms, q = spec.field, spec.group.perms, spec.field.q
    return K, [tuple(map(K.mul_table[x * q:(x + 1) * q].__getitem__, perms[e]))
               for x, e in enumerate(spec.alpha)]


def build_left(spec):
    """The left quasi-field with x (*) y = x * alpha_x(y), certified by
    André's theorem; only VW4-r is swept (module docstring)."""
    K, rows = _left_rows(spec)
    return keep_proved_report(
        QuasiField(K.q, K.add_table, tuple(itertools.chain.from_iterable(rows))), "VW4-r",
        BuildProof(spec.fixed, True, predicts_associative(spec)))


def build_right(spec):
    """The right quasi-field with x (*) y = alpha_y(x) * y = y (*) x of the
    left one, certified by André's theorem; only VW4 is swept (module
    docstring)."""
    K, rows = _left_rows(spec)
    scalars = {K.pow(a, spec.group.order) for a in spec.fixed if a}
    return keep_proved_report(
        QuasiField(K.q, K.add_table, tuple(itertools.chain.from_iterable(zip(*rows)))), "VW4",
        BuildProof(spec.fixed, _phi_multiplicative(spec, scalars), predicts_associative(spec)))


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


def _phi_multiplicative(spec, factors):
    """True iff phi(u v) = phi(u) + phi(v) (mod |G|) for every u in the
    norm image and every v in `factors`, a subset of it."""
    K, phi, order = spec.field, spec.phi, spec.group.order
    index = {v: i for i, v in enumerate(spec.image)}
    return all((phi[index[u]] + phi[index[v]] - phi[index[K.mul(u, v)]]) % order == 0
               for u in spec.image for v in factors)


def predicts_associative(spec):
    """True iff phi is multiplicative on the norm image, which is exactly
    when the twisted multiplication is associative (module docstring).
    The builds keep it as their certificate of associativity, and
    `associativity_witness` then sweeps nothing."""
    return _phi_multiplicative(spec, spec.image)


def predicts_right_distributive(spec):
    """True iff phi is constantly the identity, which is exactly when the
    twisted multiplication is right distributive (and equals the field's)."""
    return all(e == 0 for e in spec.phi)
