"""Helpers shared by several test modules."""

from affplane.plane import AffinePlane
from affplane.quasifield import QuasiField, associativity_witness, check_vw
from affplane.ternary import TernaryRing


def swept_report(Q):
    """`check_vw` of a fresh copy of Q's tables: every axiom swept, where
    an André build keeps a report its builder proved."""
    return check_vw(QuasiField(Q.q, Q.add_table, Q.mul_table))


def swept_associativity_witness(Q):
    """`associativity_witness` of a fresh copy of Q's tables: swept, where
    an André build answers from the proof it keeps."""
    return associativity_witness(QuasiField(Q.q, Q.add_table, Q.mul_table))


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


def table_plane(T):
    """The verticals and graphs of T's table as a plane, whether or not T
    satisfies T1-T5: `plane_from_ternary` takes validated rings only."""
    q = T.q
    lines = {tuple(range(x * q, (x + 1) * q)) for x in range(q)}
    lines.update(tuple(x * q + T.at(a, x, b) for x in range(q))
                 for a in range(q) for b in range(q))
    return AffinePlane.from_lines(q * q, lines)


def moved_line_at_infinity(P, l0):
    """The affine plane left when the projective completion of P loses
    its line l0 instead of the line at infinity: each parallel class adds
    a point at infinity to its lines, and the line at infinity holds
    those points."""
    ends = {par: P.n + i for i, par in enumerate(dict.fromkeys(P.parallel))}
    lines = [{*line, ends[par]} for line, par in zip(P.lines, P.parallel)]
    lines.append(set(ends.values()))
    removed = lines.pop(l0)
    index = {p: i for i, p in enumerate(sorted(set(range(P.n + len(ends))) - removed))}
    return AffinePlane.from_lines(len(index), [sorted(map(index.get, line - removed))
                                               for line in lines])
