"""Finite affine planes as incidence structures.

Points are integers 0..n-1; lines are strictly increasing tuples of point
indices, and the line list is sorted lexicographically so serialization
is canonical.  `AffinePlane(n, lines)` trusts its lines: `from_lines`
validates any, and `read_plane` and `plane_from_ternary` prove theirs.
Each line is also held as an int bitmask of its points (`masks`), and
each point as the bitmask of the line indices through it (`through`);
these, and the parallel relation built from them, are built once per
plane, on first use, so a plane that is only written builds none of
them.  Every incidence query reads these masks, and `parallel_classes`
groups the lines by their parallel masks on each call, keeping nothing.
Planes built from a ternary ring of order q encode the point (x, y) as
x*q + y.

A plane is certified by `check_plane_axioms` on every call, and nothing
of the verdict is kept on the plane.  `certify`, which every
`coordinatize` and `collineation.translation_candidate` call makes,
runs it and raises with the failing axioms when the plane is broken.
It passes a plane whose line sizes, point degrees and parallel counts
are those of an affine plane of order q without a sweep, since those
counts prove every axiom (`_counts_hold`, about 35 us at q = 16), and
sweeps every other plane to name its witnesses; the A1 and A2 sweeps
share one cover count (`_not_once`).  The plane
`plane_from_ternary` builds from a validated ring is affine (proof in
its docstring), so it passes by count.  The ring that `coordinatize`
reads off a certified plane is validated without a sweep, because an
affine plane's coordinate ring satisfies T1-T5 (proof in its
docstring).  A coordinatization keeps the ring and the point labeling
only: the slopes are the ring's, and `isotopism_from_frames` reads the
slope map between two frames off their rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat
from math import isqrt
from operator import add, itemgetter, or_, xor

from .errors import InputError
from .ternary import AxiomReport, Isotopism, TernaryRing, _f_slice

_BIT = (1).__lshift__  # p -> the bitmask 1 << p


@dataclass(frozen=True)
class AffinePlane:
    """The plane of lines in canonical order, unchecked: each a strictly
    increasing tuple of points in 0..n-1, and the lines sorted.  Callers
    prove it.  `from_lines` sorts, then rejects bad points.  Both parse
    paths of `read_plane` take the tokens 0..n-1 only, each line strictly
    increasing, then reject unsorted lines.  `plane_from_ternary` sorts
    its lines, x*q + y over increasing x with y in 0..q-1."""

    n: int
    lines: tuple  # tuple of sorted point tuples, lexicographically sorted

    @classmethod
    def from_lines(cls, n, lines):
        """The plane of any lines on 0..n-1, n >= 1; the first bad line is
        named."""
        if n < 1:
            raise InputError(f"a plane needs n >= 1 points, got {n}")
        lines = tuple(sorted(map(tuple, map(sorted, lines))))
        for line in lines:
            if line and (line[0] < 0 or line[-1] >= n):  # sorted
                raise InputError("line contains an out-of-range point")
            if len(set(line)) != len(line):
                raise InputError("line contains a repeated point")
        return cls(n, lines)

    @cached_property
    def masks(self):
        """Per line, the int bitmask of its points.  The table of the n
        point bits, which holds about n^2/16 bytes, is built only when it
        costs no more than the incidences it serves, as in
        `formats._point_block`; otherwise each incidence is shifted."""
        n, lines = self.n, self.lines
        point_bit = (list(map(_BIT, range(n))).__getitem__ if n <= sum(map(len, lines))
                     else _BIT)
        return tuple(map(sum, map(map, repeat(point_bit), lines)))

    @cached_property
    def through(self):
        """Per point, the bitmask of the line indices through it."""
        through = [0] * self.n
        for i, line in enumerate(self.lines):
            bit = 1 << i
            for p in line:
                through[p] |= bit
        return tuple(through)

    @cached_property
    def parallel(self):
        """Per line, the bitmask of the line indices equal or disjoint to it:
        the lines through none of its points, and itself."""
        m = len(self.lines)
        # the lines through a point of each line; each is among all m, so
        # the xor with all of them leaves the rest
        meets = (reduce(or_, _gather(line)(self.through), 0) for line in self.lines)
        return tuple(map(or_, map(xor, meets, repeat((1 << m) - 1)), map(_BIT, range(m))))

    def __repr__(self):
        return f"AffinePlane(n={self.n}, lines={len(self.lines)})"


def _gather(line):
    """The map s -> (s[p] for p in line) as a tuple, in one C call for a
    line of two points or more (`itemgetter` returns one index's item
    bare)."""
    if len(line) > 1:
        return itemgetter(*line)
    return lambda s: tuple(map(s.__getitem__, line))


def plane_from_ternary(T):
    """The plane on q^2 points with verticals x = x0 and graphs y = <ax+b>,
    which `check_plane_axioms` passes by count.

    T must be validated, and T3-T5 make the plane affine (T1 and T2 are
    not needed):
    - The lines are distinct, so the list repeats none: graphs with a != a'
      meet at one x only (T4, and q >= 2), with a = a', b != b' at none (T3).
    - A1: two points over the same x lie on that vertical and on no graph,
      which has one point over each x; two over x != x' lie on no common
      vertical and on the graph of exactly one (a, b) (T5).
    - Parallelism: verticals are pairwise disjoint and meet every graph;
      graphs with a = a' are disjoint (T3), and with a != a' meet (T4).
      So two lines are parallel exactly when both are vertical or they
      share a, which is an equivalence relation.
    - A2: through a point (x, y) off a line, the one parallel is the
      vertical over x when the line is vertical, and otherwise the graph
      of (a, b') for the unique b' with <ax+b'> = y (T3).
    - A3: (0, 0), (0, 1) and (1, 0) are not collinear, since the one line
      through the first two is the vertical x = 0.
    """
    if not T.validated:
        raise InputError("ternary ring must be validated first")
    q = T.q
    qq = q * q
    # the vertical x = x0, and the graph of (a, b): the column of b in the
    # block of a, x*q + <ax+b> over x, already increasing
    xq = range(0, qq, q)
    lines = [tuple(range(x0, x0 + q)) for x0 in xq]
    lines += (tuple(map(add, xq, T.table[block + b:block + qq:q]))
              for block in range(0, q * qq, qq) for b in range(q))
    return AffinePlane(qq, tuple(sorted(lines)))


PLANE_AXIOMS = ("A1", "A2", "A3", "parallel-transitive")


def _bits(mask):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _not_once(P, lines):
    """The bitmask of the points that the lines (indices) cover other
    than exactly once."""
    once = twice = 0
    for li in lines:
        twice |= once & P.masks[li]
        once |= P.masks[li]
    return ((1 << P.n) - 1) & ~once | twice


def _a1_sweep(P):
    # A1: every point pair on exactly one line
    for p in range(P.n):
        for p2 in _bits(_not_once(P, _bits(P.through[p])) >> p + 1):
            yield (p, p + 1 + p2)


def _a2_sweep(P):
    # A2: unique parallel through an external point, that is, the lines
    # parallel to li cover each point off li exactly once.  The cover
    # depends only on the parallel mask (li itself covers only its own
    # points), so each parallel class is covered once
    uncovered = {}
    for li, (mask, par) in enumerate(zip(P.masks, P.parallel)):
        if par not in uncovered:
            uncovered[par] = _not_once(P, _bits(par))
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


def _members(P):
    """Per parallel mask, by first line, the lines that have it, in order."""
    members = {}
    for j, par in enumerate(P.parallel):
        members.setdefault(par, []).append(j)
    return members


def _parallel_sweep(P):
    # parallelism (equal or disjoint) must be an equivalence relation: each
    # line parallel to i must have i's parallel mask
    members = {par: sum(map(_BIT, lines)) for par, lines in _members(P).items()}
    for i, par in enumerate(P.parallel):
        for j in _bits(par & ~members[par]):
            yield (i, j)


def _counts_hold(P):
    """True iff n = q^2 for some q >= 2, every line has q points, every
    point lies on q + 1 lines and every parallel mask holds q lines.

    These counts make P an affine plane with transitive parallelism.
    Counting incidences, the lines number m = n(q + 1)/q = q^2 + q.  Fix
    a line l.  Its parallel mask holds l and q - 1 lines disjoint from
    it, so m - q = q^2 lines meet l.  The incidences of a point of l
    with a line other than l number q * q = q^2, and each of the q^2
    lines that meet l has at least one, so each has exactly one: every
    other line meets l in exactly one point (a repeated line, which would
    meet l in q >= 2, is ruled out too).  Then:
    - A1: two lines share at most one point, so the q + 1 lines through
      a point p hold (q + 1)(q - 1) = n - 1 points other than p, each
      once: every other point is joined to p by exactly one line.
    - A2: for p off l, the q points of l are joined to p by q distinct
      lines (two of them would meet l twice), so exactly one of the
      q + 1 lines through p misses l.
    - Transitivity: if l and k are both parallel to a line h and meet
      at p, then p is off h (unless l or k is h) and l, k are two
      parallels to h through p, against A2.
    - A3: two points of a line (q >= 2) and a point off it (q < n) are
      not collinear, since by A1 the line is the only one through the
      first two.
    """
    q = isqrt(P.n)
    return (q >= 2 and q * q == P.n
            and set(map(len, P.lines)) <= {q}
            and set(map(int.bit_count, P.through)) <= {q + 1}
            and set(map(int.bit_count, P.parallel)) <= {q})


def check_plane_axioms(P):
    """Exhaustive check of the three plane axioms plus transitivity of the
    parallel relation; witnesses are lexicographically minimal.  A plane
    whose counts hold (`_counts_hold`, which proves every axiom) passes
    without a sweep; any other plane is swept."""
    report = AxiomReport(PLANE_AXIOMS)
    if _counts_hold(P):
        return report
    report.record("A1", _a1_sweep(P))
    report.record("A2", _a2_sweep(P))
    report.record("A3", _a3_sweep(P))
    report.record("parallel-transitive", _parallel_sweep(P))
    return report


def certify(P):
    """Raise with the failing axioms unless `check_plane_axioms` passes P."""
    report = check_plane_axioms(P)
    if not report.all_pass:
        failing = [k for k, ok in report.flags().items() if not ok]
        raise InputError(f"plane axioms fail: {', '.join(failing)}")


def _points_in_range(P, *points):
    """Raise unless each point index lies in 0..n-1."""
    if not all(0 <= p < P.n for p in points):
        raise InputError("point index out of range")


def _lines_in_range(P, *lines):
    """Raise unless each line index lies in 0..m-1, for the m lines."""
    if not all(0 <= li < len(P.lines) for li in lines):
        raise InputError("line index out of range")


def line_through(P, p1, p2):
    """Index of the unique line through two distinct points."""
    _points_in_range(P, p1, p2)
    if p1 == p2:
        raise InputError("points must be distinct")
    hits = P.through[p1] & P.through[p2]
    if hits.bit_count() != 1:
        raise InputError(f"points {p1},{p2} lie on {hits.bit_count()} common lines")
    return hits.bit_length() - 1


def parallel_through(P, l, p):
    """Index of the unique line through p parallel to l (l itself if p in l)."""
    _lines_in_range(P, l)
    _points_in_range(P, p)
    if P.masks[l] >> p & 1:
        return l
    hits = P.parallel[l] & P.through[p]
    if hits.bit_count() != 1:
        raise InputError(f"parallel axiom violated at line {l}, point {p}")
    return hits.bit_length() - 1


def intersection(P, l1, l2):
    """The unique common point of two non-parallel lines."""
    _lines_in_range(P, l1, l2)
    common = P.masks[l1] & P.masks[l2]
    if common.bit_count() != 1:
        raise InputError(f"lines {l1},{l2} meet in {common.bit_count()} points")
    return common.bit_length() - 1


def parallel_classes(P):
    """Partition of the line indices by the parallel relation, each class
    in increasing order and the classes by their first line, computed on
    every call from the kept parallel masks."""
    members = _members(P)
    # the lines with a mask lie in it, and fill it unless `_parallel_sweep` yields
    if any(par.bit_count() != len(lines) for par, lines in members.items()):
        raise InputError("parallelism is not transitive")
    return tuple(map(tuple, members.values()))


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
    first axis y = 0, second axis x = 0, unit point (1, 1), with the point
    (x, y) at x*q + y and q the square root of the number of points."""
    q = isqrt(P.n)
    if q < 2 or q * q != P.n:
        raise InputError(f"{P.n} points are not q^2 points for an order q >= 2")
    horiz, vert = tuple(range(0, P.n, q)), tuple(range(q))  # y = 0, x = 0
    if horiz not in P.lines or vert not in P.lines:
        raise InputError("plane has no line y = 0 or x = 0 on the points x*q + y")
    return CoordinateFrame(P.lines.index(horiz), P.lines.index(vert), q + 1)


@dataclass(frozen=True)
class Coordinatization:
    """A ternary ring together with the point labeling that produced it.
    The origin is `point_of[0]`, the first axis `point_of[::q]` (label x
    at (x, 0)) and the second axis `point_of[:q]` (label y at (0, y)).
    The slopes are the ring's: the line of slope a through (0, b) is
    {point_of[x*q + <ax+b>]} over x, and the verticals are the lines
    {point_of[x*q + y]} over y, one per x."""

    ring: TernaryRing
    point_of: tuple  # coordinate x*q+y -> plane point


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
    """Per point p, value[the point where the line of k's parallel class
    through p meets axis]; on a certified plane the class partitions the
    points and each of its lines meets axis once, when k and axis meet."""
    out = [None] * P.n
    for li in _bits(P.parallel[k]):
        v = value[(P.masks[li] & P.masks[axis]).bit_length() - 1]
        for p in P.lines[li]:
            out[p] = v
    return out


def coordinatize(P, frame):
    """Coordinatize the plane over the given frame.

    The carrier is the set of points of the first axis: the origin gets
    label 0, the point under the unit point gets label 1, and the rest
    are labeled in increasing point-index order (the choice is free; a
    fixed convention keeps output deterministic).  A point's x is read
    off the line of the second axis's parallel class through it, and its
    y off the first axis's class, and slopes are taken once per parallel
    mask.

    The plane is checked by `certify`, and rejected with the failing
    axioms; the count that passes an affine plane costs O(incidences).
    The ring of a certified plane is
    returned validated, without a sweep, because it satisfies T1-T5.
    Proof: by A1, distinct lines share at most one point, so two lines
    that are not parallel (equal or disjoint) meet in exactly one point.
    By A2 and transitivity each parallel class holds exactly one line
    through each point.  Call the lines of the second axis's class
    verticals and those of the first axis's class horizontals; each
    vertical meets each horizontal once.  So the axes meet in the origin,
    x and y are well defined, and (x, y) is a bijection from the points
    to the pairs of labels: the diagonal (origin to unit point) is
    parallel to neither axis, so carrying the labels of the first axis
    along the verticals to the diagonal and along the horizontals to the
    second axis is a bijection, and it puts (t, t) on the diagonal.  Each
    point (1, a) of the unit vertical x = 1 lies on one line through the
    origin, not the second axis, which the unit vertical misses; a is the
    slope of that line and of its class.  Two lines through the origin
    cannot meet x = 1 in one point, since the origin is not on it, so the
    slopes name the q non-vertical classes once each.  A non-vertical
    line meets each vertical once, so <ax+b>, the y over x of the line of
    slope a through (0, b), is defined for all a, x, b.  Then:
    - T1: <1x+0> = x on the diagonal, and <x1+0> = x by the slope of x.
    - T2: <a0+b> = b at (0, b), and the slope-0 lines are the
      horizontals, so <0x+b> = b.
    - T3: through (x, y) there is one line of slope a, and it meets the
      second axis in one (0, b).
    - T4: lines of slopes a != a' are not parallel, so the lines through
      (0, b) and (0, b') meet over exactly one x.
    - T5: for x != x', the points (x, y) and (x', y') lie on one line,
      which is not vertical and so has one slope a and one (0, b).
    """
    _validate_frame(P, frame)
    certify(P)
    l, m = frame.l, frame.m
    origin = intersection(P, l, m)
    q = len(P.lines[l])

    unit_foot = intersection(P, parallel_through(P, m, frame.z), l)
    rest = sorted(p for p in P.lines[l] if p not in (origin, unit_foot))

    # per point x*q, and its foot on the second axis along the first
    # axis's class; the diagonal's point with x = t has y = t, which
    # carries the labels to the second axis
    xqs = _class_coordinates(P, m, l, {p: x * q for x, p
                                       in enumerate((origin, unit_foot, *rest))})
    feet = _class_coordinates(P, l, m, range(P.n))
    y_of_foot = {feet[p]: xqs[p] // q for p in P.lines[line_through(P, origin, frame.z)]}
    ys = list(map(y_of_foot.__getitem__, feet))
    point_of = [None] * (q * q)
    for p, c in enumerate(map(add, xqs, ys)):  # x*q + y
        point_of[c] = p

    # slopes: the y where a line through the origin meets the vertical
    # x = 1, shared by every line of its parallel mask; the line of slope
    # a through (0, b) holds y = <ax+b> at each of its points (x, y)
    unit_vertical = P.masks[parallel_through(P, m, unit_foot)]
    table = [0] * (q * q * q)
    for li in _bits(P.through[origin] & ~(1 << m)):
        a = ys[(P.masks[li] & unit_vertical).bit_length() - 1]
        for lj in _bits(P.parallel[li]):
            cell = a * q * q + ys[(P.masks[lj] & P.masks[m]).bit_length() - 1]  # <a0+b>
            for p in P.lines[lj]:
                table[cell + xqs[p]] = ys[p]

    ring = TernaryRing(q, tuple(table), validated=True)
    return Coordinatization(ring, tuple(point_of))


def isotopism_from_frames(P, frame1, frame2):
    """The isotopism (F, G, H) between the coordinate rings of two frames
    sharing both axes: G and H are the axis relabelings, read off the
    two labelings, and F is the slope map.

    F is read off the rings.  The isotopism identity H(<ax+b>_1) =
    <F(a)G(x)+H(b)>_2 holds at (a, g1, 0), g1 = G⁻¹(1), where it reads
    H(<a g1+0>_1) = <F(a)1+0>_2, and the right side is F(a) by T1 in
    frame 2's ring.  So F(a) = H(<a g1+0>_1), the formula of
    `ternary.complete_isotopism`."""
    if frame1.l != frame2.l or frame1.m != frame2.m:
        raise InputError("frames must share both axes")
    c1 = coordinatize(P, frame1)
    c2 = coordinatize(P, frame2)
    q = c1.ring.q
    coord2 = {p: c for c, p in enumerate(c2.point_of)}  # x*q + y in frame 2
    G = tuple(coord2[p] // q for p in c1.point_of[::q])
    H = tuple(coord2[p] % q for p in c1.point_of[:q])
    return Isotopism(tuple(map(H.__getitem__, _f_slice(c1.ring, G.index(1)))), G, H)
