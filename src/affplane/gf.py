"""Table-based arithmetic for small finite fields GF(p^n).

Elements are encoded as integers: the polynomial sum(a_i t^i) corresponds
to the integer sum(a_i p^i), so 0 encodes 0 and 1 encodes 1.  All
operations are precomputed lookup tables, which keeps automorphism and
norm computations pure table work and makes cross-run output byte-stable.

The tables are built by rows, with no polynomial product per pair: the
addition digitwise, one low digit at a time, and the product from the
exp/log tables of the least primitive element, which is found with one
polynomial product per power.

Each structure is certified either by an exhaustive check or by a
theorem from a certified structure.  The tables and the generator of
each Galois group are checked in full at every order, in O(n q^2) and
O(q), not by sampling; the field certificate compares whole rows.  The
group's other elements, its fixed field and the norm image follow from
those two certificates by theorems, each proved in the docstring of the
function that returns it, and are not checked again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, InternalCheckError

# measured with a capped address space on a 2-vCPU host (Python 3.11):
# make_field takes 0.6 s and 32 MB peak RSS at q = 1024, and 2.5 s and
# 88 MB at q = 2048 (16 MB of it the interpreter, about 67 MB the two
# flat tables); q = 4096 would take about four times both
DEFAULT_MAX_ORDER = 2048


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, low-degree-first)

def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_rem(num, den, p):
    num = _trim(num)
    den = _trim(den)
    deg = len(den) - 1
    lead_inv = pow(den[-1], -1, p)
    while num and len(num) - 1 >= deg:
        shift = len(num) - 1 - deg
        factor = (num[-1] * lead_inv) % p
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - factor * c) % p
        num = _trim(num)
    return num


def _monic_polys(p, deg):
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def _has_root(poly, p):
    # Horner's rule at each r in GF(p)
    for r in range(p):
        v = 0
        for c in reversed(poly):
            v = (v * r + c) % p
        if v == 0:
            return True
    return False


def is_irreducible(poly, p):
    """No factor of degree 1 to deg/2: a root decides degree 1, since
    X - r divides f exactly when f(r) = 0, and trial division by every
    monic polynomial decides degrees 2..deg/2."""
    poly = _trim(poly)
    deg = len(poly) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    if _has_root(poly, p):
        return False
    for d in range(2, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _poly_rem(poly, cand, p):
                return False
    return True


def smallest_irreducible(p, n):
    """Lexicographically smallest monic irreducible of degree n over GF(p).

    Coefficient sequences are compared low-degree-first, which makes the
    choice deterministic without any external polynomial tables.
    """
    for tail in itertools.product(range(p), repeat=n):
        poly = list(tail) + [1]
        if is_irreducible(poly, p):
            return tuple(poly)
    raise InternalCheckError(f"no irreducible polynomial of degree {n} over GF({p})")


def _decode(e, p):
    coeffs = []
    while e:
        e, r = divmod(e, p)
        coeffs.append(r)
    return coeffs


def _encode(coeffs, p):
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteField:
    """GF(p^n) with fully materialized operation tables."""

    p: int
    n: int
    q: int
    modulus: tuple  # length n+1, low-degree-first, monic
    add_table: tuple  # flat q*q, index a*q+b
    mul_table: tuple
    neg_table: tuple
    inv_table: tuple  # inv_table[0] is a 0 sentinel, guarded by inv()
    generator: int
    exp_table: tuple  # generator powers, length q-1
    log_table: tuple  # log_table[0] == -1 sentinel

    def add(self, a, b):
        return self.add_table[a * self.q + b]

    def mul(self, a, b):
        return self.mul_table[a * self.q + b]

    def neg(self, a):
        return self.neg_table[a]

    def sub(self, a, b):
        return self.add_table[a * self.q + self.neg_table[b]]

    def inv(self, a):
        if a == 0:
            raise InputError("inverse of 0 is undefined")
        return self.inv_table[a]

    def pow(self, a, k):
        r = 1
        while k > 0:
            k, bit = divmod(k, 2)
            if bit:
                r = self.mul(r, a)
            a = self.mul(a, a)
        return r

    def __repr__(self):
        return f"FiniteField(p={self.p}, n={self.n}, q={self.q})"


def make_field(p, n):
    """Build GF(p^n) with the lexicographically smallest irreducible modulus.

    The tables are built by rows, with no product per pair.  The addition
    row of a = a0 + p a' is read off the row of a' < a, one low digit at
    a time (`_digit_row`).  The generator is the least element of order
    q - 1, found by polynomial products, one per power (`_find_generator`),
    and the product row of a != 0 is its exp table rotated by log a, read
    at log b.  Each table is flattened as its rows are made, so no list
    of all its rows is kept next to the flat tables.  neg comes from the
    addition table and inv from the logs.  `verify_field_tables` then certifies every table in
    full.
    """
    if n < 1:
        raise InputError(f"extension degree must be >= 1, got {n}")
    # the bound before the prime test, which takes long on a huge p, and
    # p^n built only below 2^24: p^n >= 2^(n(b - 1)) for p of b >= 2 bits,
    # and 2^bit_length > the bound; an order of over 64 bits prints as p^n
    if p > 1 and (n * (p.bit_length() - 1) >= DEFAULT_MAX_ORDER.bit_length()
                  or p ** n > DEFAULT_MAX_ORDER):
        order = p ** n if n * p.bit_length() <= 64 else f"{p}^{n}"
        raise InputError(f"order {order} exceeds the configured bound {DEFAULT_MAX_ORDER}")
    if not _is_prime(p):
        raise InputError(f"p must be prime, got {p}")
    q = p ** n

    modulus = smallest_irreducible(p, n)
    add = tuple(itertools.chain.from_iterable(_addition_rows(p, q)))
    neg = [add.index(0, i, i + q) - i for i in range(0, q * q, q)]

    m = q - 1
    generator, exp = _find_generator(p, n, modulus)
    log = [-1] * q
    for i, v in enumerate(exp):
        log[v] = i
    exp2 = exp + exp
    logs = log[1:]
    # row a != 0: 0, then exp[log a + log b] over b != 0
    mul = tuple(itertools.chain((0,) * q, itertools.chain.from_iterable(
        (0, *map(exp2[i:i + m].__getitem__, logs)) for i in logs)))
    inv = [0] + [exp[-i % m] for i in logs]

    K = FiniteField(p, n, q, modulus, add, mul, tuple(neg), tuple(inv),
                    generator, tuple(exp), tuple(log))
    verify_field_tables(K)
    return K


def _digit_blocks(p, q):
    # blocks[a0][h] lists (a0 + b0 mod p) + p h over the low digit b0:
    # the sums of a = a0 + p a' and b = b0 + p b' with a' + b' = h
    return [[[(a0 + b0) % p + p * h for b0 in range(p)] for h in range(q // p)]
            for a0 in range(p)]


def _addition_rows(p, q):
    # the rows of the addition in turn: 0..q-1, then for a = a0 + p a' the
    # `_digit_row` of row a'; a later row reads only the first q/p entries
    # of a row below q/p, so only those are kept
    blocks, head = _digit_blocks(p, q), q // p
    heads = []
    for a in range(q):
        row = _digit_row(blocks, a, heads[a // p]) if a else list(range(q))
        if a < head:
            heads.append(row[:head])
        yield row


def _digit_row(blocks, a, row):
    # the addition row of a = a0 + p a' over b = b0 + p b', given `row`,
    # the row of a': its entries a' + b' for b' < q/p, each spread over b0
    p = len(blocks)
    return list(itertools.chain.from_iterable(
        map(blocks[a % p].__getitem__, row[:len(blocks[0])])))


def _find_generator(p, n, modulus):
    # the least element of order q - 1 and its powers, by one polynomial
    # product per power; when n > 1 the search starts at p, since the
    # elements 0..p-1 of GF(p) have orders dividing p - 1 < q - 1
    q = p ** n
    for g in range(p if n > 1 else 1, q):
        pg = _decode(g, p)
        powers, x = [1], pg
        while x != [1]:
            powers.append(_encode(x, p))
            x = _poly_rem(_poly_mul(x, pg, p), modulus, p)
        if len(powers) == q - 1:
            return g, powers
    raise InternalCheckError("no multiplicative generator found")


def verify_field_tables(K):
    """Certify the tables as a field of order p^n, in full, in O(n q^2).

    Checks: the 0/1 encoding, each stored negation and inverse, 0x = 0,
    digitwise addition mod p on all pairs, exp/log as inverse bijections
    0..q-2 <-> K* with exp[1] = generator, ab = exp[log a + log b] on K*,
    and a(x + 1) = ax + a for every a and x.
    Proof: (K, +) is (Z/p)^n.  K* is cyclic with identity 1 (1 1 = 1
    forces log 1 = 0) and 0 annihilates, so the product is commutative
    and associative.  For y != 0, a(x + y) = ay(x/y + 1) = ax + ay, so
    K is a field; its identities and row permutations follow.

    Each pairwise check compares whole rows, and reads single entries
    only inside a row that fails, to name its first pair.  Row 0 of the
    addition must be 0..q-1, and the row of a = a0 + p a' >= 1 must be
    `_digit_row` of the stored row of a' < a: by induction on a, that is
    digitwise addition on every pair.  The product row of a != 0, read
    at exp[0], ..., exp[q-2], must be exp rotated by log a.  And per a,
    over x, a(x + 1) is the product row read at the x + 1, and ax + a is
    the addition column of a*1 = a read at the ax.
    """
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
    blocks = _digit_blocks(p, q)
    for a in range(q):
        row = list(add[a * q:(a + 1) * q])
        a1 = a // p
        expected = _digit_row(blocks, a, add[a1 * q:(a1 + 1) * q]) if a else list(range(q))
        if row != expected:
            b = next(b for b in range(q) if row[b] != expected[b])
            raise InternalCheckError(f"addition is not digitwise at ({a},{b})")
    if (sorted(exp) != list(range(1, q)) or exp[1 % m] != K.generator
            or any(log[v] != i for i, v in enumerate(exp))):
        raise InternalCheckError("exp/log tables are not a generator's powers")
    exp2 = list(exp) * 2
    for a in range(1, q):
        row, i = mul[a * q:(a + 1) * q], log[a]
        if list(map(row.__getitem__, exp)) != exp2[i:i + m]:
            b = next(b for b in range(1, q) if row[b] != exp[(i + log[b]) % m])
            raise InternalCheckError(f"multiplication leaves exp/log at ({a},{b})")
    succ = add[1::q]  # x + 1 over x
    for a in range(q):
        row = mul[a * q:(a + 1) * q]
        plus_a = add[row[1]::q]  # u + a over u
        if list(map(row.__getitem__, succ)) != list(map(plus_a.__getitem__, row)):
            x = next(x for x in range(q) if row[succ[x]] != plus_a[row[x]])
            raise InternalCheckError(f"distributivity fails at ({a},{x},1)")


# ---------------------------------------------------------------------------
# Galois groups, fixed fields, norms

@dataclass(frozen=True)
class GaloisGroup:
    """Cyclic group of automorphisms x -> x^(p^(d*j)) stored as permutations."""

    field: FiniteField
    d: int
    order: int
    perms: tuple  # perms[j] is the permutation table of x -> x^(p^(d*j))

    def __repr__(self):
        return f"GaloisGroup(q={self.field.q}, d={self.d}, order={self.order})"


def _is_automorphism(K, perm):
    """True iff perm is an automorphism of the certified field K, in O(q).

    perm(gx) = perm(g) perm(x) for the generator g gives perm(g^k x) =
    perm(g)^k perm(x), so perm is multiplicative; then perm(x + 1) =
    perm(x) + 1 gives perm(x + y) = perm(y) perm(x/y + 1) = perm(x) +
    perm(y) for y != 0.  A ring map that fixes 1 is injective.
    """
    if perm[0] != 0 or perm[1] != 1:
        return False
    q, g = K.q, K.generator
    return (all(perm[K.mul(g, x)] == K.mul(perm[g], perm[x]) for x in range(q))
            and all(perm[K.add(x, 1)] == K.add(perm[x], 1) for x in range(q)))


def galois_subgroup(K, d):
    """The cyclic automorphism group generated by frob: x -> x^(p^d).

    Only the generator is certified (`_is_automorphism`); the rest follows.
    Its powers are automorphisms.  In a field of order p^n, x^(p^n) = x
    (K* has order p^n - 1), so frob^(n/d) = id and the n/d powers close
    into a group.  They are distinct: frob^j = id for 0 < j < n/d would
    make all q elements roots of X^(p^(dj)) - X, which has at most
    p^(dj) < q roots.
    """
    if d < 1 or K.n % d != 0:
        raise InputError(f"{d} does not divide the extension degree {K.n}")
    order = K.n // d
    identity = tuple(range(K.q))
    frob = tuple(K.pow(x, K.p ** d) for x in range(K.q))
    if not _is_automorphism(K, frob):
        raise InternalCheckError("stored permutation is not a field automorphism")
    perms = [identity]
    cur = identity
    for _ in range(1, order):
        cur = tuple(frob[cur[x]] for x in range(K.q))
        perms.append(cur)
    return GaloisGroup(K, d, order, tuple(perms))


def fixed_field(K, G):
    """The elements fixed by every automorphism in G, in increasing order.

    They form the subfield GF(p^d), with no check needed.  The fixed set
    of a group of automorphisms is closed under +, -, * and inversion,
    since each automorphism respects them, so it is a subfield.  Fixed by
    G means fixed by its generator, that is, a root of X^(p^d) - X; that
    polynomial divides X^(p^n) - X (d | n), which is the product of
    X - a over all a in K, so it has exactly p^d roots in K.
    """
    if G.field != K:
        raise InputError("the group acts on another field")
    return tuple(x for x in range(K.q) if all(g[x] == x for g in G.perms))


def norm(K, G, x):
    """Product of g(x) over all g in G; lands in the fixed field."""
    if not 0 <= x < K.q:
        raise InputError(f"element {x} out of range for GF({K.q})")
    r = 1
    for g in G.perms:
        r = K.mul(r, g[x])
    return r


def norm_image(K, G):
    """The image of the nonzero elements under the norm map, sorted.

    It is a subgroup of the multiplicative group of the fixed field, with
    no check needed.  N(x) = prod_g g(x) is a homomorphism K* -> K*,
    since each g is multiplicative and K is commutative.  For h in G,
    h(N(x)) = prod_g hg(x) = N(x), because g -> hg permutes G; so N
    lands in Fix(G)*, and its image, the image of a group under a
    homomorphism, is a subgroup.
    """
    if G.field != K:
        raise InputError("the group acts on another field")
    return tuple(sorted({norm(K, G, x) for x in range(1, K.q)}))
