"""Reference versions of the field build and the field and automorphism
checks.

`verify_field_tables` and `_is_automorphism` are the checks `gf` used
before the O(n q^2) structural certificate: a sweep of the field axioms
over all q^3 triples (all q^2 pairs for an automorphism) up to
EXHAUSTIVE_CHECK_BOUND, and over a deterministic sample above it.  They
are kept only so that the tests can require the certificate to agree
with them where they are exhaustive, and show what the sample missed
where they are not.

`make_field` is the build `gf` used before it built its tables by rows:
one polynomial product and remainder per pair, and neg, inv and the
generator read off the tables, the generator by trying every element
from 1 up.  Its modulus comes from `smallest_irreducible` here, which
trial-divides by every monic polynomial of degree 1..n/2, as `gf` did
before it read degree 1 off the roots.  `verify_field_tables_by_entry` is the
O(n q^2) certificate as it was before it compared whole rows: the same
premises in the same order, entry by entry.  They are kept so that the
tests can require the same tables and the same error messages.

`galois_subgroup`, `fixed_field`, `norm_image` and `spec_from_exponents`
are the versions that re-checked, at run time, what `gf` and `andre` now
derive from the field and Frobenius certificates: that the group closes,
that the fixed points form a subfield of order p^d, that the norm image
is a subgroup of its multiplicative group, and that alpha is constant on
orbits.  They are kept so that the tests can require the same values and
that none of these checks ever fails.
"""

import itertools

from affplane.errors import InputError, InternalCheckError
from affplane.gf import (FiniteField, GaloisGroup, _decode, _encode,
                         _is_automorphism as _is_certified_automorphism,
                         _poly_mul, _poly_rem, norm)

# full q^3 sweeps over the axioms stay cheap up to this order; bigger
# fields get structural checks plus a deterministic sample instead
EXHAUSTIVE_CHECK_BOUND = 64


def verify_field_tables(K):
    """Check the field axioms on the stored tables.

    Exhaustive (all q^3 triples) for q <= EXHAUSTIVE_CHECK_BOUND; above
    that, structural bijectivity checks plus a deterministic sample.
    """
    q = K.q
    if K.add(0, 0) != 0 or K.mul(1, 1) != 1:
        raise InternalCheckError("0/1 encoding broken")
    for a in range(q):
        if K.add(a, 0) != a or K.add(0, a) != a:
            raise InternalCheckError(f"0 is not an additive identity at {a}")
        if K.mul(a, 1) != a or K.mul(1, a) != a:
            raise InternalCheckError(f"1 is not a multiplicative identity at {a}")
        if K.mul(a, 0) != 0 or K.mul(0, a) != 0:
            raise InternalCheckError(f"0 does not annihilate at {a}")
        if K.add(a, K.neg(a)) != 0:
            raise InternalCheckError(f"missing additive inverse for {a}")
        if a and K.mul(a, K.inv_table[a]) != 1:
            raise InternalCheckError(f"missing multiplicative inverse for {a}")
    for a in range(q):
        if sorted(K.add(a, b) for b in range(q)) != list(range(q)):
            raise InternalCheckError(f"addition row {a} is not a permutation")
        if a and sorted(K.mul(a, b) for b in range(1, q)) != list(range(1, q)):
            raise InternalCheckError(f"multiplication row {a} is not a permutation")
    if q <= EXHAUSTIVE_CHECK_BOUND:
        triples = itertools.product(range(q), repeat=3)
    else:
        step = max(1, q // 13)
        sample = range(0, q, step)
        triples = itertools.product(sample, repeat=3)
    for a, b, c in triples:
        if K.add(a, b) != K.add(b, a) or K.mul(a, b) != K.mul(b, a):
            raise InternalCheckError(f"commutativity fails at ({a},{b})")
        if K.add(K.add(a, b), c) != K.add(a, K.add(b, c)):
            raise InternalCheckError(f"additive associativity fails at ({a},{b},{c})")
        if K.mul(K.mul(a, b), c) != K.mul(a, K.mul(b, c)):
            raise InternalCheckError(f"multiplicative associativity fails at ({a},{b},{c})")
        if K.mul(a, K.add(b, c)) != K.add(K.mul(a, b), K.mul(a, c)):
            raise InternalCheckError(f"distributivity fails at ({a},{b},{c})")


def _is_automorphism(K, perm, exhaustive):
    if perm[0] != 0 or perm[1] != 1:
        return False
    q = K.q
    if exhaustive:
        pairs = itertools.product(range(q), repeat=2)
    else:
        step = max(1, q // 29)
        pairs = itertools.product(range(0, q, step), repeat=2)
    for x, y in pairs:
        if perm[K.add(x, y)] != K.add(perm[x], perm[y]):
            return False
        if perm[K.mul(x, y)] != K.mul(perm[x], perm[y]):
            return False
    return True


def is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_rem(poly, list(tail) + [1], p):
                return False
    return True


def smallest_irreducible(p, n):
    """The first monic irreducible of degree n over GF(p), coefficient
    sequences compared low-degree-first."""
    return next(tuple(tail) + (1,) for tail in itertools.product(range(p), repeat=n)
                if is_irreducible(list(tail) + [1], p))


def make_field(p, n):
    """GF(p^n) with one polynomial product per unordered pair; unverified."""
    q = p ** n
    modulus = smallest_irreducible(p, n)
    polys = [_decode(e, p) for e in range(q)]
    add = [0] * (q * q)
    mul = [0] * (q * q)
    for a in range(q):
        pa = polys[a]
        for b in range(a, q):
            pb = polys[b]
            s = [0] * max(len(pa), len(pb))
            for i, c in enumerate(pa):
                s[i] = c
            for i, c in enumerate(pb):
                s[i] = (s[i] + c) % p
            v = _encode(s, p)
            add[a * q + b] = v
            add[b * q + a] = v
            m = _encode(_poly_rem(_poly_mul(pa, pb, p), modulus, p), p)
            mul[a * q + b] = m
            mul[b * q + a] = m
    neg = [0] * q
    inv = [0] * q
    for a in range(q):
        for b in range(q):
            if add[a * q + b] == 0:
                neg[a] = b
            if a and mul[a * q + b] == 1:
                inv[a] = b
    generator, exp = _find_generator(q, mul)
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    return FiniteField(p, n, q, modulus, tuple(add), tuple(mul), tuple(neg),
                       tuple(inv), generator, tuple(exp), tuple(log))


def _find_generator(q, mul):
    for g in range(1, q):
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = mul[x * q + g]
        if len(powers) == q - 1:
            return g, powers
    raise InternalCheckError("no multiplicative generator found")


def verify_field_tables_by_entry(K):
    """The O(n q^2) field certificate, one entry at a time."""
    q, p, m = K.q, K.p, K.q - 1
    add, mul, exp, log = K.add_table, K.mul_table, K.exp_table, K.log_table
    if K.add(0, 0) != 0 or K.mul(1, 1) != 1:
        raise InternalCheckError("0/1 encoding broken")
    for a in range(q):
        if K.mul(a, 0) != 0 or K.mul(0, a) != 0:
            raise InternalCheckError(f"0 does not annihilate at {a}")
        if K.add(a, K.neg(a)) != 0:
            raise InternalCheckError(f"missing additive inverse for {a}")
        if a and K.mul(a, K.inv_table[a]) != 1:
            raise InternalCheckError(f"missing multiplicative inverse for {a}")
    digits = [(_decode(e, p) + [0] * K.n)[:K.n] for e in range(q)]
    for a in range(q):
        for b in range(q):
            s = [(x + y) % p for x, y in zip(digits[a], digits[b])]
            if add[a * q + b] != _encode(s, p):
                raise InternalCheckError(f"addition is not digitwise at ({a},{b})")
    if (sorted(exp) != list(range(1, q)) or exp[1 % m] != K.generator
            or any(log[v] != i for i, v in enumerate(exp))):
        raise InternalCheckError("exp/log tables are not a generator's powers")
    for a in range(1, q):
        for b in range(1, q):
            if mul[a * q + b] != exp[(log[a] + log[b]) % m]:
                raise InternalCheckError(f"multiplication leaves exp/log at ({a},{b})")
    for a in range(q):
        row = mul[a * q:(a + 1) * q]
        for x in range(q):
            if row[add[x * q + 1]] != add[row[x] * q + row[1]]:
                raise InternalCheckError(f"distributivity fails at ({a},{x},1)")


def galois_subgroup(K, d):
    """The cyclic automorphism group generated by x -> x^(p^d).

    Only the generator is certified: its powers are automorphisms, and
    frob^order = id closes them into a group."""
    if d < 1 or K.n % d != 0:
        raise InputError(f"{d} does not divide the extension degree {K.n}")
    order = K.n // d
    identity = tuple(range(K.q))
    frob = tuple(K.pow(x, K.p ** d) for x in range(K.q))
    if not _is_certified_automorphism(K, frob):
        raise InternalCheckError("stored permutation is not a field automorphism")
    perms = [identity]
    cur = identity
    for _ in range(1, order):
        cur = tuple(frob[cur[x]] for x in range(K.q))
        perms.append(cur)
    if tuple(frob[cur[x]] for x in range(K.q)) != identity:
        raise InternalCheckError("automorphism set not closed under composition")
    return GaloisGroup(K, d, order, tuple(perms))


def fixed_field(K, G):
    """Elements fixed by every automorphism in G; verified to be a subfield."""
    fixed = tuple(x for x in range(K.q)
                  if all(g[x] == x for g in G.perms))
    expected = K.p ** G.d
    if len(fixed) != expected:
        raise InternalCheckError(
            f"fixed field has {len(fixed)} elements, expected {expected}")
    members = set(fixed)
    for x in fixed:
        if K.neg(x) not in members:
            raise InternalCheckError("fixed field not closed under negation")
        if x and K.inv(x) not in members:
            raise InternalCheckError("fixed field not closed under inversion")
        for y in fixed:
            if K.add(x, y) not in members or K.mul(x, y) not in members:
                raise InternalCheckError("fixed field not closed under +/*")
    return fixed


def norm_image(K, G):
    """The image of the nonzero elements under the norm map, sorted.

    Verified to be a subgroup of the multiplicative group of the fixed
    field.
    """
    image = sorted({norm(K, G, x) for x in range(1, K.q)})
    members = set(image)
    if 1 not in members or 0 in members:
        raise InternalCheckError("norm image is not a subgroup of F*")
    for u in image:
        if K.inv(u) not in members:
            raise InternalCheckError("norm image not closed under inversion")
        for v in image:
            if K.mul(u, v) not in members:
                raise InternalCheckError("norm image not closed under products")
    fixed = set(fixed_field(K, G))
    if not members <= fixed:
        raise InternalCheckError("norm image leaves the fixed field")
    return tuple(image)


def make_spec(K, G):
    """Shared norm data for building specs over (K, G)."""
    return fixed_field(K, G), norm_image(K, G)


def spec_from_exponents(K, G, exponents, fixed=None, image=None):
    """The (fixed, image, phi, alpha) of the spec with the exponent
    sequence phi.

    exponents[i] is the generator exponent assigned to the i-th norm-image
    element (ascending encoding); the first entry must be 0 so that
    phi(1) is the identity automorphism.
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
    for x in range(K.q):
        for g in G.perms:
            if alpha[g[x]] != alpha[x]:
                raise InternalCheckError("alpha is not constant on orbits")
    return tuple(fixed), tuple(image), exponents, tuple(alpha)
