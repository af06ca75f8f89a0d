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
from operator import add, or_, xor

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
        return cls.from_sorted_lines(
            n, tuple(sorted(map(tuple, map(sorted, lines)))), order, source)

    @classmethod
    def from_sorted_lines(cls, n, lines, order=None, source=None):
        """`from_lines` for lines already in canonical order: each line a
        sorted tuple, and the tuple of lines sorted.  `read_plane` and
        `plane_from_ternary` produce that order, so nothing is sorted
        again."""
        points = list(chain.from_iterable(lines))
        masks = ()
        if not points or (min(points) >= 0 and max(points) < n):
            bits = list(map(_BIT, range(n)))
            masks = tuple(map(sum, map(map, repeat(bits.__getitem__), lines)))
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
        """Per line, the bitmask of the line indices equal or disjoint to it:
        the lines through none of its points, and itself."""
        m = len(self.lines)
        # the lines through a point of each line; each is among all m, so
        # the xor with all of them leaves the rest
        meets = map(reduce, repeat(or_), map(map, repeat(self.through.__getitem__), self.lines),
                    repeat(0))
        return tuple(map(or_, map(xor, meets, repeat((1 << m) - 1)), map(_BIT, range(m))))

    @cached_property
    def classes(self):
        """The partition of the line indices by the parallel relation, each
        class in increasing order and the classes by their first line; None
        when parallelism is not transitive."""
        if next(_parallel_sweep(self), None) is not None:
            return None
        return tuple(tuple(_bits(par)) for par in dict.fromkeys(self.parallel))

    def __repr__(self):
        return f"AffinePlane(n={self.n}, lines={len(self.lines)})"


def plane_from_ternary(T, check=True):
    """The plane on q^2 points with verticals x = x0 and graphs y = <ax+b>."""
    if check and not T.validated:
        raise InputError("ternary ring must be validated first")
    q = T.q
    qq = q * q
    # the vertical x = x0, and the graph of (a, b): the column of b in the
    # block of a, x*q + <ax+b> over x, already increasing
    xq = range(0, qq, q)
    lines = {tuple(range(x0, x0 + q)) for x0 in xq}
    lines.update(tuple(map(add, xq, T.table[block + b:block + qq:q]))
                 for block in range(0, q * qq, qq) for b in range(q))
    P = AffinePlane.from_sorted_lines(qq, tuple(sorted(lines)), order=q, source=T)
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
    if P.classes is None:
        raise InputError("parallelism is not transitive")
    return P.classes


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


def _class_coordinates(P, k, axis, value):
    """Per point p, value[the point where the line through p parallel to
    k meets axis], read off k's parallel mask; None unless the lines of
    that mask partition the points and each meets axis in one point, so
    that `parallel_through` and `intersection` would answer the same."""
    out = [None] * P.n
    covered = 0
    for li in _bits(P.parallel[k]):
        mask = P.masks[li]
        foot = mask & P.masks[axis]
        if covered & mask or foot.bit_count() != 1:
            return None
        covered |= mask
        v = value[foot.bit_length() - 1]
        for p in P.lines[li]:
            out[p] = v
    return out if covered == (1 << P.n) - 1 else None


def _point_coordinates(P, l, m, x_value, y_value):
    """Per point, x*q + y from the incidence queries, point by point, with
    the first failing query or repeated coordinate raised."""
    coords, seen = [], set()
    for p in range(P.n):
        c = (x_value[intersection(P, parallel_through(P, m, p), l)]
             + y_value[intersection(P, parallel_through(P, l, p), m)])
        if c in seen:
            raise InputError("coordinate assignment is not a bijection")
        seen.add(c)
        coords.append(c)
    return coords


def coordinatize(P, frame):
    """Coordinatize the plane over the given frame.

    The carrier is the set of points of the first axis: the origin gets
    label 0, the point under the unit point gets label 1, and the rest
    are labeled in increasing point-index order (the choice is free; a
    fixed convention keeps output deterministic).  The returned ring is
    validated against the five ternary axioms.

    A point's x is read off the line of the second axis's parallel class
    through it, and its y off the first axis's class, and slopes are
    taken once per parallel mask.  Where a class does not partition the
    points, or coordinates repeat, the coordinates come from the
    incidence queries point by point, so a broken plane raises the same
    error at the same step.
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

    diagonal = line_through(P, origin, frame.z)

    # transfer the labeling to the second axis through the diagonal
    axis2_points = []
    for t in range(q):
        zt = intersection(P, parallel_through(P, m, axis1_points[t]), diagonal)
        axis2_points.append(intersection(P, parallel_through(P, l, zt), m))
    if sorted(axis2_points) != sorted(P.lines[m]):
        raise InputError("axis transfer is not a bijection")
    axis2_points = tuple(axis2_points)

    # coords[p] = x*q + y
    x_value = {p: i * q for i, p in enumerate(axis1_points)}
    y_value = {p: t for t, p in enumerate(axis2_points)}
    xs = _class_coordinates(P, m, l, x_value)
    ys = xs and _class_coordinates(P, l, m, y_value)
    coords = ys and list(map(add, xs, ys))
    if not coords or len(set(coords)) != P.n:
        coords = _point_coordinates(P, l, m, x_value, y_value)
    point_of = [None] * (q * q)
    for p, c in enumerate(coords):
        point_of[c] = p
    coord_of = dict(zip(range(P.n), map(divmod, coords, repeat(q))))

    # slopes: intersect the parallel through the origin with the vertical
    # line over the carrier point labeled 1.  When `parallel_through`
    # answers for li, its parallel mask holds exactly one line through the
    # origin (li itself, if it passes there), and that is its answer for
    # every line with the same mask: the slope is taken once per mask
    unit_vertical = parallel_through(P, m, axis1_points[1])
    line_slopes = {}
    slope_of = {}  # parallel mask -> the slope of its lines
    for li, par in enumerate(P.parallel):
        if P.parallel[m] >> li & 1:
            continue  # vertical: slope is infinite
        if par not in slope_of:
            through_origin = parallel_through(P, li, origin)
            slope_of[par] = coords[intersection(P, through_origin, unit_vertical)] % q
        line_slopes[li] = slope_of[par]

    origin_line_of_slope = {}
    for li in _bits(P.through[origin]):
        if li == m:
            continue
        origin_line_of_slope[line_slopes[li]] = li
    if sorted(origin_line_of_slope) != list(range(q)):
        raise InputError("slopes through the origin do not cover the carrier")

    # the line of slope a through (0, b) holds y = <ax+b> at each of its
    # points (x, y); a later point over the same x overwrites an earlier one
    x_cell = [c - c % q for c in coords]  # x*q, the point's row in a block
    y_of = [c % q for c in coords]
    table = []
    for a in range(q):
        base = origin_line_of_slope[a]
        block = [0] * (q * q)
        for b in range(q):
            for p in P.lines[parallel_through(P, base, axis2_points[b])]:
                block[x_cell[p] + b] = y_of[p]
        table += block

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
