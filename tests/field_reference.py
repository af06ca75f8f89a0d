"""Reference versions of the field and automorphism checks.

These are the checks `gf` used before the O(n q^2) structural
certificate: a sweep of the field axioms over all q^3 triples (all q^2
pairs for an automorphism) up to EXHAUSTIVE_CHECK_BOUND, and over a
deterministic sample above it.  They are kept only so that the tests can
require the certificate to agree with them where they are exhaustive, and
show what the sample missed where they are not.
"""

import itertools

from affplane.errors import InternalCheckError

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
