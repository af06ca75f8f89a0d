"""Helpers shared by several test modules."""

from affplane.ternary import TernaryRing


def relabel_ring(T, perm):
    """Transport T's operation along a carrier permutation fixing 0: an
    isotope of T under F = G = H = perm, and isomorphic to T when perm
    also fixes 1."""
    assert perm[0] == 0
    q = T.q
    table = [0] * q ** 3
    for a in range(q):
        for x in range(q):
            for b in range(q):
                table[(perm[a] * q + perm[x]) * q + perm[b]] = \
                    perm[T.at(a, x, b)]
    return TernaryRing(q, tuple(table))
