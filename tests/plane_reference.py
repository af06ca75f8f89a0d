"""Reference versions of the plane-layer incidence queries.

These are the set-based loops the plane layer used before lines were held
as point bitmasks.  They recompute every incidence fact from the line
tuples, one frozenset at a time, and are kept only so that the tests can
require the bitmask versions to agree with them on every argument.
"""

from affplane.errors import InputError
from affplane.plane import PLANE_AXIOMS
from affplane.ternary import AxiomReport


def _sets(P):
    return [frozenset(line) for line in P.lines]


def _a1_sweep(n, lines):
    # A1: every point pair on exactly one line
    counts = {}
    for line in lines:
        for i, p in enumerate(line):
            for p2 in line[i + 1:]:
                counts[(p, p2)] = counts.get((p, p2), 0) + 1
    for p in range(n):
        for p2 in range(p + 1, n):
            if counts.get((p, p2), 0) != 1:
                yield (p, p2)


def _a2_sweep(n, sets, point_lines):
    # A2: unique parallel through an external point
    for li, lset in enumerate(sets):
        for p in range(n):
            if p in lset:
                continue
            through = [mi for mi in point_lines[p] if not sets[mi] & lset]
            if len(through) != 1:
                yield (li, p)


def _a3_sweep(n, sets, point_lines):
    # A3: three non-collinear points exist
    for p in range(n):
        for q2 in range(p + 1, n):
            joins = [li for li in point_lines[p] if q2 in sets[li]]
            on_join = set().union(*(sets[li] for li in joins)) if joins else {p, q2}
            if len(on_join) < n:
                return
    yield ()


def _parallel_sweep(sets):
    # parallelism (equal or disjoint) must be an equivalence relation
    m = len(sets)
    par = [set() for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if i == j or not sets[i] & sets[j]:
                par[i].add(j)
    for i in range(m):
        for j in sorted(par[i]):
            if par[j] != par[i]:
                yield (i, j)


def check_plane_axioms(P):
    n, sets = P.n, _sets(P)
    report = AxiomReport(PLANE_AXIOMS)
    report.record("A1", _a1_sweep(n, P.lines))
    report.record("A2", _a2_sweep(n, sets, P.point_lines))
    report.record("A3", _a3_sweep(n, sets, P.point_lines))
    report.record("parallel-transitive", _parallel_sweep(sets))
    return report


def line_through(P, p1, p2):
    if p1 == p2:
        raise InputError("points must be distinct")
    hits = [li for li in P.point_lines[p1] if p2 in set(P.lines[li])]
    if len(hits) != 1:
        raise InputError(f"points {p1},{p2} lie on {len(hits)} common lines")
    return hits[0]


def parallel_through(P, l, p):
    lset = frozenset(P.lines[l])
    if p in lset:
        return l
    hits = [mi for mi in P.point_lines[p] if not frozenset(P.lines[mi]) & lset]
    if len(hits) != 1:
        raise InputError(f"parallel axiom violated at line {l}, point {p}")
    return hits[0]


def intersection(P, l1, l2):
    common = set(P.lines[l1]) & set(P.lines[l2])
    if len(common) != 1:
        raise InputError(f"lines {l1},{l2} meet in {len(common)} points")
    return common.pop()


def parallel_classes(P):
    sets = _sets(P)
    m = len(P.lines)
    seen = [False] * m
    classes = []
    for i in range(m):
        if seen[i]:
            continue
        cls = [j for j in range(m) if j == i or not sets[i] & sets[j]]
        for j in cls:
            if seen[j]:
                raise InputError("parallelism is not transitive")
            seen[j] = True
        for j in cls:
            peers = {k for k in range(m) if k == j or not sets[j] & sets[k]}
            if peers != set(cls):
                raise InputError("parallelism is not transitive")
        classes.append(tuple(cls))
    return tuple(classes)
