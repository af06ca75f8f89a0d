"""Reference versions of the plane-layer incidence queries, of
coordinatization and of translation candidates.

The incidence queries are the set-based loops the plane layer used before
lines were held as point bitmasks.  They recompute every incidence fact
from the line tuples, one frozenset at a time.  `coordinatize` and
`translation_candidate` are the point-by-point versions that called the
incidence queries once per point before the plane layer read coordinates
and translations off whole parallel classes; this `coordinatize` ends in
`validate` and, on a broken plane, raises at the first failing query.
All are kept only so that the tests can require the faster versions to
agree with them on every argument (on every certified plane, for
`coordinatize`).  The reference translation certifies its plane with
the full sweep, once per plane, before it builds a candidate.
"""

import functools

from affplane import plane
from affplane.collineation import Collineation, TranslationCertificate
from affplane.errors import InputError
from affplane.plane import PLANE_AXIOMS
from affplane.ternary import AxiomReport, TernaryRing, validate


def _sets(P):
    return [frozenset(line) for line in P.lines]


def point_lines(P):
    """Per point, the indices of the lines holding it, in increasing order."""
    return _point_lines(P.n, P.lines)


@functools.lru_cache(maxsize=4)
def _point_lines(n, lines):
    return tuple(tuple(li for li, line in enumerate(lines) if p in line)
                 for p in range(n))


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
    report.record("A2", _a2_sweep(n, sets, point_lines(P)))
    report.record("A3", _a3_sweep(n, sets, point_lines(P)))
    report.record("parallel-transitive", _parallel_sweep(sets))
    return report


def line_through(P, p1, p2):
    if p1 == p2:
        raise InputError("points must be distinct")
    hits = [li for li in point_lines(P)[p1] if p2 in set(P.lines[li])]
    if len(hits) != 1:
        raise InputError(f"points {p1},{p2} lie on {len(hits)} common lines")
    return hits[0]


def parallel_through(P, l, p):
    lset = frozenset(P.lines[l])
    if p in lset:
        return l
    hits = [mi for mi in point_lines(P)[p] if not frozenset(P.lines[mi]) & lset]
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


# ---------------------------------------------------------------------------
# coordinatization and translations, point by point

def coordinatize(P, frame):
    """`plane.coordinatize` as it read every coordinate: two
    `parallel_through` and two `intersection` calls per point, one more
    pair per line for the slopes, and one `parallel_through` call per
    table line, with each point's coordinates looked up one at a time."""
    plane._validate_frame(P, frame)
    l, m = frame.l, frame.m
    origin = plane.intersection(P, l, m)
    q = len(P.lines[l])
    if any(len(line) != q for line in P.lines):
        raise InputError("plane lines have unequal sizes")

    unit_foot = plane.intersection(P, plane.parallel_through(P, m, frame.z), l)
    rest = sorted(p for p in P.lines[l] if p not in (origin, unit_foot))
    axis1_points = (origin, unit_foot, *rest)
    axis1_label = {p: i for i, p in enumerate(axis1_points)}

    diagonal = plane.line_through(P, origin, frame.z)

    axis2_points = []
    for t in range(q):
        zt = plane.intersection(P, plane.parallel_through(P, m, axis1_points[t]),
                                diagonal)
        axis2_points.append(plane.intersection(P, plane.parallel_through(P, l, zt), m))
    if sorted(axis2_points) != sorted(P.lines[m]):
        raise InputError("axis transfer is not a bijection")
    axis2_points = tuple(axis2_points)
    axis2_label = {p: t for t, p in enumerate(axis2_points)}

    point_of = [None] * (q * q)
    coord_of = {}
    for p in range(P.n):
        x = axis1_label[plane.intersection(P, plane.parallel_through(P, m, p), l)]
        y = axis2_label[plane.intersection(P, plane.parallel_through(P, l, p), m)]
        if point_of[x * q + y] is not None:
            raise InputError("coordinate assignment is not a bijection")
        point_of[x * q + y] = p
        coord_of[p] = (x, y)

    unit_vertical = plane.parallel_through(P, m, axis1_points[1])
    line_slopes = {}
    for li in range(len(P.lines)):
        if P.parallel[m] >> li & 1:
            continue
        through_origin = plane.parallel_through(P, li, origin)
        hit = plane.intersection(P, through_origin, unit_vertical)
        line_slopes[li] = coord_of[hit][1]

    origin_line_of_slope = {}
    for li in plane._bits(P.through[origin]):
        if li == m:
            continue
        origin_line_of_slope[line_slopes[li]] = li
    if sorted(origin_line_of_slope) != list(range(q)):
        raise InputError("slopes through the origin do not cover the carrier")

    table = [0] * (q ** 3)
    for a in range(q):
        base = origin_line_of_slope[a]
        for b in range(q):
            L = plane.parallel_through(P, base, axis2_points[b])
            for p in P.lines[L]:
                x, y = coord_of[p]
                table[(a * q + x) * q + b] = y

    ring = validate(TernaryRing(q, tuple(table)))
    return plane.Coordinatization(ring, tuple(point_of))


def _induced_line_map(P, perm):
    """The line map with one generator step per incidence."""
    if sorted(perm) != list(range(P.n)):
        return None
    index = {mask: i for i, mask in enumerate(P.masks)}
    line_map = [index.get(sum(1 << perm[p] for p in line)) for line in P.lines]
    if None in line_map or sorted(line_map) != list(range(len(P.lines))):
        return None
    return tuple(line_map)


def _parallel_classes(P):
    # the classes as `plane.parallel_classes` computed them on every call
    if next(plane._parallel_sweep(P), None) is not None:
        raise InputError("parallelism is not transitive")
    return tuple(tuple(plane._bits(par)) for par in dict.fromkeys(P.parallel))


def is_translation(P, perm):
    """`collineation.is_translation`, with the parallel classes swept
    anew for every candidate and every line's image checked one by one."""
    line_map = _induced_line_map(P, perm)
    if line_map is None:
        return None
    classes = _parallel_classes(P)
    if any(not P.parallel[li] >> mi & 1 for li, mi in enumerate(line_map)):
        return None
    traces = tuple(ci for ci, cls in enumerate(classes)
                   if all(line_map[li] == li for li in cls))
    if not traces:
        return None
    fixed_free = all(perm[p] != p for p in range(P.n))
    return TranslationCertificate(Collineation(tuple(perm), line_map),
                                  traces, fixed_free)


@functools.lru_cache(maxsize=4)
def _failing_axioms(P):
    """The axioms the full sweep fails on P, swept once per plane."""
    return [k for k, ok in check_plane_axioms(P).flags().items() if not ok]


def translation_candidate(P, z, z2, aux=None):
    """`collineation.translation_candidate` built point by point from the
    incidence queries, any `InputError` among them meaning "absent".  P
    is certified first by the full sweep of `check_plane_axioms` above,
    and rejected with its failing axioms, since "absent" is a
    certificate only on an affine plane."""
    if z == z2:
        raise InputError("source and target must differ")
    failing = _failing_axioms(P)
    if failing:
        raise InputError(f"plane axioms fail: {', '.join(failing)}")
    L = plane.line_through(P, z, z2)
    on_L = P.masks[L]
    if aux is None:
        aux = next((p for p in range(P.n) if not on_L >> p & 1), None)
        if aux is None:
            raise InputError("every point lies on the trace line")
    elif on_L >> aux & 1:
        raise InputError("auxiliary point must lie off the trace line")

    def off_line_image(p):
        through = plane.line_through(P, z, p)
        return plane.intersection(P, plane.parallel_through(P, through, z2),
                                  plane.parallel_through(P, L, p))

    perm = [None] * P.n
    perm[z] = z2
    try:
        for p in range(P.n):
            if not on_L >> p & 1:
                perm[p] = off_line_image(p)
        aux_image = perm[aux]
        for p in P.lines[L]:
            if p == z:
                continue
            through = plane.line_through(P, aux, p)
            perm[p] = plane.intersection(
                P, plane.parallel_through(P, through, aux_image), L)
    except InputError:
        return None
    return is_translation(P, perm)
