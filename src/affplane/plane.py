"""Finite affine planes as incidence structures.

Points are integers 0..n-1; lines are strictly increasing tuples of point
indices, and the line list is sorted lexicographically so serialization
is canonical.  Each line is also held as an int bitmask of its points
(`masks`), and each point as the bitmask of the line indices through it
(`through`), both built once in `from_lines`.  The parallel relation is
built once per plane from them, and every incidence query reads these
masks.  Planes built from a ternary ring of order q encode the point
(x, y) as x*q + y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import or_

from .errors import InputError
from .ternary import AxiomReport, Isotopism, TernaryRing, validate

_BIT = (1).__lshift__  # p -> the bitmask 1 << p


@dataclass(frozen=True)
class AffinePlane:
    n: int
    lines: tuple  # tuple of sorted point tuples, lexicographically sorted
    masks: tuple  # per line, the int bitmask of its points
    through: tuple  # per point, the int bitmask of its line indices
    order: int = None  # q, when built from a ternary ring
    source: TernaryRing = None

    @classmethod
    def from_lines(cls, n, lines, order=None, source=None):
        lines = tuple(sorted(map(tuple, map(sorted, lines))))
        points = list(chain.from_iterable(lines))
        masks = ()
        if not points or (min(points) >= 0 and max(points) < n):
            masks = tuple(map(sum, map(map, repeat(_BIT), lines)))
        # a sum of distinct powers of two has one bit per term; a repeated
        # point carries, and leaves fewer bits than points
        if list(map(int.bit_count, masks)) != list(map(len, lines)):
            for line in lines:  # name the fault of the first bad line
                if any(not 0 <= p < n for p in line):
                    raise InputError("line contains an out-of-range point")
                if len(set(line)) != len(line):
                    raise InputError("line contains a repeated point")
        through = [0] * n
        for i, line in enumerate(lines):
            bit = 1 << i
            for p in line:
                through[p] |= bit
        return cls(n, lines, masks, tuple(through), order, source)

    @cached_property
    def parallel(self):
        """Per line, the bitmask of the line indices equal or disjoint to it."""
        every = (1 << len(self.lines)) - 1
        out = []
        for i, line in enumerate(self.lines):
            meets = reduce(or_, map(self.through.__getitem__, line), 0)
            out.append(every & ~meets | 1 << i)
        return tuple(out)

    def __repr__(self):
        return f"AffinePlane(n={self.n}, lines={len(self.lines)})"


def plane_from_ternary(T, check=True):
    """The plane on q^2 points with verticals x = x0 and graphs y = <ax+b>."""
    if check and not T.validated:
        raise InputError("ternary ring must be validated first")
    q = T.q
    lines = {tuple(x0 * q + y for y in range(q)) for x0 in range(q)}
    for a in range(q):
        for b in range(q):
            lines.add(tuple(sorted(x * q + T.at(a, x, b) for x in range(q))))
    P = AffinePlane.from_lines(q * q, lines, order=q, source=T)
    if check:
        report = check_plane_axioms(P)
        if not report.all_pass:
            raise InputError(f"constructed plane fails axioms: {report.flags()}")
    return P


PLANE_AXIOMS = ("A1", "A2", "A3", "parallel-transitive")


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _a1_sweep(P):
    # A1: every point pair on exactly one line
    every = (1 << P.n) - 1
    for p in range(P.n):
        once = twice = 0
        for li in _bits(P.through[p]):
            twice |= once & P.masks[li]
            once |= P.masks[li]
        for p2 in _bits((every & ~once | twice) >> p + 1):
            yield (p, p + 1 + p2)


def _a2_sweep(P):
    # A2: unique parallel through an external point, that is, the lines
    # parallel to li cover each point off li exactly once.  The cover
    # depends only on the parallel mask (li itself covers only its own
    # points), so each parallel class is covered once
    every = (1 << P.n) - 1
    uncovered = {}
    for li, (mask, par) in enumerate(zip(P.masks, P.parallel)):
        if par not in uncovered:
            once = twice = 0
            for mi in _bits(par):
                twice |= once & P.masks[mi]
                once |= P.masks[mi]
            uncovered[par] = every & ~once | twice
        for p in _bits(uncovered[par] & ~mask):
            yield (li, p)


def _a3_sweep(P):
    # A3: three non-collinear points exist
    every = (1 << P.n) - 1
    for p in range(P.n):
        for q2 in range(p + 1, P.n):
            on_join = 1 << p | 1 << q2
            for li in _bits(P.through[p] & P.through[q2]):
                on_join |= P.masks[li]
            if on_join != every:
                return
    yield ()


def _parallel_sweep(P):
    # parallelism (equal or disjoint) must be an equivalence relation: each
    # line parallel to i must have i's parallel mask
    members = {}  # parallel mask -> the lines that have it
    for j, par in enumerate(P.parallel):
        members[par] = members.get(par, 0) | 1 << j
    for i, par in enumerate(P.parallel):
        for j in _bits(par & ~members[par]):
            yield (i, j)


def check_plane_axioms(P):
    """Exhaustive check of the three plane axioms plus transitivity of the
    parallel relation; witnesses are lexicographically minimal."""
    report = AxiomReport(PLANE_AXIOMS)
    report.record("A1", _a1_sweep(P))
    report.record("A2", _a2_sweep(P))
    report.record("A3", _a3_sweep(P))
    report.record("parallel-transitive", _parallel_sweep(P))
    return report


def line_through(P, p1, p2):
    """Index of the unique line through two distinct points."""
    if p1 == p2:
        raise InputError("points must be distinct")
    hits = P.through[p1] & P.through[p2]
    if hits.bit_count() != 1:
        raise InputError(f"points {p1},{p2} lie on {hits.bit_count()} common lines")
    return hits.bit_length() - 1


def parallel_through(P, l, p):
    """Index of the unique line through p parallel to l (l itself if p in l)."""
    if P.masks[l] >> p & 1:
        return l
    hits = P.parallel[l] & P.through[p]
    if hits.bit_count() != 1:
        raise InputError(f"parallel axiom violated at line {l}, point {p}")
    return hits.bit_length() - 1


def intersection(P, l1, l2):
    """The unique common point of two non-parallel lines."""
    common = P.masks[l1] & P.masks[l2]
    if common.bit_count() != 1:
        raise InputError(f"lines {l1},{l2} meet in {common.bit_count()} points")
    return common.bit_length() - 1


def parallel_classes(P):
    """Partition of the line indices by the parallel relation."""
    if next(_parallel_sweep(P), None) is not None:
        raise InputError("parallelism is not transitive")
    return tuple(tuple(_bits(par)) for par in dict.fromkeys(P.parallel))


# ---------------------------------------------------------------------------
# coordinatization

@dataclass(frozen=True)
class CoordinateFrame:
    """Two non-parallel axes plus a unit point off both."""

    l: int  # first axis (line index)
    m: int  # second axis (line index)
    z: int  # unit point, not on either axis


def canonical_frame(P):
    """The frame that reproduces the source ternary ring of a built plane:
    first axis y = 0, second axis x = 0, unit point (1, 1)."""
    if P.order is None:
        raise InputError("plane has no order provenance")
    q = P.order
    horiz = tuple(sorted(x * q for x in range(q)))
    vert = tuple(range(q))
    return CoordinateFrame(P.lines.index(horiz), P.lines.index(vert), q + 1)


@dataclass(frozen=True)
class Coordinatization:
    """A ternary ring together with the point labeling that produced it."""

    ring: TernaryRing
    frame: CoordinateFrame
    origin: int
    axis1_points: tuple  # label -> point on the first axis
    axis2_points: tuple  # label -> point on the second axis
    point_of: tuple      # coordinate x*q+y -> plane point
    coord_of: dict       # plane point -> (x, y)
    line_slopes: dict    # line index -> slope label; verticals absent


def _validate_frame(P, frame):
    if not (0 <= frame.l < len(P.lines) and 0 <= frame.m < len(P.lines)):
        raise InputError("frame line index out of range")
    if frame.l == frame.m:
        raise InputError("frame axes must be distinct")
    if not 0 <= frame.z < P.n:
        raise InputError("frame unit point out of range")
    if not P.masks[frame.l] & P.masks[frame.m]:
        raise InputError("frame axes are parallel")
    if (P.masks[frame.l] | P.masks[frame.m]) >> frame.z & 1:
        raise InputError("frame unit point lies on an axis")


def coordinatize(P, frame):
    """Coordinatize the plane over the given frame.

    The carrier is the set of points of the first axis: the origin gets
    label 0, the point under the unit point gets label 1, and the rest
    are labeled in increasing point-index order (the choice is free; a
    fixed convention keeps output deterministic).  The returned ring is
    validated against the five ternary axioms.
    """
    _validate_frame(P, frame)
    l, m = frame.l, frame.m
    origin = intersection(P, l, m)
    q = len(P.lines[l])
    if any(len(line) != q for line in P.lines):
        raise InputError("plane lines have unequal sizes")

    unit_foot = intersection(P, parallel_through(P, m, frame.z), l)
    rest = sorted(p for p in P.lines[l] if p not in (origin, unit_foot))
    axis1_points = (origin, unit_foot, *rest)
    axis1_label = {p: i for i, p in enumerate(axis1_points)}

    diagonal = line_through(P, origin, frame.z)

    # transfer the labeling to the second axis through the diagonal
    axis2_points = []
    for t in range(q):
        zt = intersection(P, parallel_through(P, m, axis1_points[t]), diagonal)
        axis2_points.append(intersection(P, parallel_through(P, l, zt), m))
    if sorted(axis2_points) != sorted(P.lines[m]):
        raise InputError("axis transfer is not a bijection")
    axis2_points = tuple(axis2_points)
    axis2_label = {p: t for t, p in enumerate(axis2_points)}

    point_of = [None] * (q * q)
    coord_of = {}
    for p in range(P.n):
        x = axis1_label[intersection(P, parallel_through(P, m, p), l)]
        y = axis2_label[intersection(P, parallel_through(P, l, p), m)]
        if point_of[x * q + y] is not None:
            raise InputError("coordinate assignment is not a bijection")
        point_of[x * q + y] = p
        coord_of[p] = (x, y)

    # slopes: intersect the parallel through the origin with the vertical
    # line over the carrier point labeled 1
    unit_vertical = parallel_through(P, m, axis1_points[1])
    line_slopes = {}
    for li in range(len(P.lines)):
        if P.parallel[m] >> li & 1:
            continue  # vertical: slope is infinite
        through_origin = parallel_through(P, li, origin)
        hit = intersection(P, through_origin, unit_vertical)
        line_slopes[li] = coord_of[hit][1]

    origin_line_of_slope = {}
    for li in _bits(P.through[origin]):
        if li == m:
            continue
        origin_line_of_slope[line_slopes[li]] = li
    if sorted(origin_line_of_slope) != list(range(q)):
        raise InputError("slopes through the origin do not cover the carrier")

    table = [0] * (q ** 3)
    for a in range(q):
        base = origin_line_of_slope[a]
        for b in range(q):
            L = parallel_through(P, base, axis2_points[b])
            for p in P.lines[L]:
                x, y = coord_of[p]
                table[(a * q + x) * q + b] = y

    ring = validate(TernaryRing(q, tuple(table)))
    return Coordinatization(ring, frame, origin, axis1_points, axis2_points,
                            tuple(point_of), coord_of, line_slopes)


def isotopism_from_frames(P, frame1, frame2):
    """The isotopism between the coordinate rings of two frames sharing
    both axes: G and H are the axis relabelings, F is the slope map."""
    if frame1.l != frame2.l or frame1.m != frame2.m:
        raise InputError("frames must share both axes")
    c1 = coordinatize(P, frame1)
    c2 = coordinatize(P, frame2)
    q = c1.ring.q
    label2_axis1 = {p: i for i, p in enumerate(c2.axis1_points)}
    label2_axis2 = {p: i for i, p in enumerate(c2.axis2_points)}
    G = tuple(label2_axis1[c1.axis1_points[x]] for x in range(q))
    H = tuple(label2_axis2[c1.axis2_points[y]] for y in range(q))
    F = [None] * q
    for li in _bits(P.through[c1.origin]):
        if li == frame1.m:
            continue
        F[c1.line_slopes[li]] = c2.line_slopes[li]
    return Isotopism(tuple(F), G, H)
