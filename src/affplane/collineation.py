"""Plane automorphisms: verification, translations with certificates,
explicit automorphism families of field and near-field planes, and the
classifier separating field planes from the rest.

Every coordinate map, of the field plane or of a quasi-field's plane,
is one affine formula (x, y) -> p0 + u x + w y with the scalars on the
left (`_affine_perm`).  `translation_from_shift`, `diag_automorphism`
and `frame_mover` verify the map they return; the other field-plane
maps return the bare permutation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
from operator import eq

from .errors import InputError
from .gf import make_field
from .plane import (_BIT, _bits, _lines_in_range, _points_in_range, certify,
                    intersection, line_through, parallel_classes, plane_from_ternary)
from .quasifield import (LEFT_AXIOMS, associativity_witness, check_vw,
                         from_field, to_ternary)
from .ternary import find_isomorphism, validate


@dataclass(frozen=True)
class Collineation:
    """A point permutation taking lines to lines, with the induced
    permutation of line indices."""

    perm: tuple
    line_map: tuple

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.perm))


def _induced_line_map(P, perm):
    """Line-index permutation induced by a point permutation, or None when
    perm is not a point bijection taking lines to lines."""
    if sorted(perm) != list(range(P.n)):
        return None
    index = {mask: i for i, mask in enumerate(P.masks)}
    bits = list(map(_BIT, perm))  # bits[p]: the bit of p's image
    line_map = list(map(index.get, map(sum, map(map, repeat(bits.__getitem__), P.lines))))
    if None in line_map or sorted(line_map) != list(range(len(P.lines))):
        return None
    return tuple(line_map)


def is_collineation(P, perm):
    """True iff perm is a point bijection whose line images are all lines."""
    return _induced_line_map(P, perm) is not None


def as_collineation(P, perm):
    """Package a verified point permutation, or raise."""
    line_map = _induced_line_map(P, perm)
    if line_map is None:
        if sorted(perm) != list(range(P.n)):
            raise InputError("not a bijection on points")
        raise InputError("permutation does not take lines to lines")
    return Collineation(tuple(perm), line_map)


# ---------------------------------------------------------------------------
# translations

@dataclass(frozen=True)
class TranslationCertificate:
    """A collineation mapping every line to a parallel line together with
    the parallel classes it fixes linewise (all of them for the identity)."""

    collineation: Collineation
    trace_classes: tuple  # indices into parallel_classes(P)
    fixed_point_free: bool


def is_translation(P, perm):
    """Certificate if perm is a collineation sending each line to a
    parallel line and fixing at least one parallel class linewise.

    Once parallelism is known to be transitive (`parallel_classes`), two
    lines are parallel exactly when their parallel masks are equal, so
    the images are checked by comparing masks."""
    line_map = _induced_line_map(P, perm)
    if line_map is None:
        return None
    classes = parallel_classes(P)
    if tuple(map(P.parallel.__getitem__, line_map)) != P.parallel:
        return None
    traces = tuple(ci for ci, cls in enumerate(classes)
                   if all(map(eq, map(line_map.__getitem__, cls), cls)))
    if not traces:
        return None
    fixed_free = not any(map(eq, perm, range(P.n)))
    return TranslationCertificate(Collineation(tuple(perm), line_map),
                                  traces, fixed_free)


def no_fixed_points(cert):
    """True iff the certificate is the identity or moves every point."""
    if cert.collineation.is_identity():
        return True
    return cert.fixed_point_free


@functools.lru_cache(maxsize=8)
def _left_plane(Q):
    """The plane of Q, after checking that Q satisfies the left axiom set;
    memoized, since the plane depends only on Q's tables."""
    if not check_vw(Q).passes(*LEFT_AXIOMS):
        raise InputError("tables fail the left quasi-field axioms")
    return plane_from_ternary(to_ternary(Q))


def translation_from_shift(Q, c, d):
    """The shift (x, y) -> (x+c, y+d) on the plane of a left quasi-field,
    verified as a translation.

    The expected trace is the vertical class when c = 0, otherwise the
    class of slope e where d = ec; verification failure means Q does not
    satisfy the left axiom set.  The map is `shift_map(Q, c, d)`, (x, y)
    -> (c + x, d + y), which is the shift once `_left_plane` has checked
    VW1 (addition commutes) and VW3 (1x = x, 0x = 0, x + 0 = x).
    """
    cert = is_translation(_left_plane(Q), shift_map(Q, c, d))
    if cert is None:
        raise InputError("shift failed translation verification")
    return cert


def _place_images(P, perm, c, c2, L, todo):
    """Fill perm at each point p of the mask todo with the meet of the
    parallel to line cp through c2 and the parallel to L through p (L
    itself when p is on L), line by line through c.  P is certified, so
    every point but c lies on exactly one line through c, and each
    parallel and meet is unique."""
    through, masks, parallel = P.through, P.masks, P.parallel
    along = parallel[L]
    for li in _bits(through[c]):
        points = masks[li] & todo
        if points:
            # the parallel to li through c2: li itself when c2 is on it
            image = masks[(parallel[li] & through[c2]).bit_length() - 1]
            for p in _bits(points):
                meet = image & masks[(along & through[p]).bit_length() - 1]
                perm[p] = meet.bit_length() - 1


def translation_candidate(P, z, z2):
    """The unique candidate translation taking z to z2, verified.

    P is certified first (`plane.certify`), and rejected with its failing
    axioms when it is no affine plane.  On an affine plane there is at
    most one translation with a given point image, so a verification
    failure of the constructed map certifies that no such translation
    exists.  Points off the trace line L = zz2 map through a
    parallelogram on z; points on L map the same way through the
    smallest point off L, aux, and its image (the result never depends
    on which point off L is used).
    """
    _points_in_range(P, z, z2)
    if z == z2:
        raise InputError("source and target must differ")
    certify(P)
    L = line_through(P, z, z2)
    off_L = (1 << P.n) - 1 & ~P.masks[L]
    aux = (off_L & -off_L).bit_length() - 1  # A3: some point is off L

    perm = [None] * P.n
    perm[z] = z2
    _place_images(P, perm, z, z2, L, off_L)
    _place_images(P, perm, aux, perm[aux], L, P.masks[L] & ~(1 << z))
    return is_translation(P, perm)


# ---------------------------------------------------------------------------
# automorphism families of coordinate planes

def diag_automorphism(Q, u, v):
    """The map (x, y) -> (ux, vy) on the plane of a near-field, verified.

    It is `_affine_perm(Q, (0, 0), (u, 0), (0, v))`, which gives
    (0 + (ux + 0y), 0 + (0x + vy)) = (ux, vy) under VW3, checked by
    `_left_plane` first."""
    P = _left_plane(Q)
    if associativity_witness(Q) is not None:
        raise InputError("multiplication is not associative")
    if not (0 <= u < Q.q and 0 <= v < Q.q):
        raise InputError("scaling factors out of range")
    if u == 0 or v == 0:
        raise InputError("scaling factors must be nonzero")
    return as_collineation(P, _affine_perm(Q, (0, 0), (u, 0), (0, v)))


def _affine_perm(K, p0, u, w):
    """The point permutation of (x, y) -> p0 + u x + w y, for p0, u and
    w pairs over K: the point (c0 + (u1 x + w1 y), d0 + (u2 x + w2 y)).

    The scalars multiply on the left, as in the plane of a left
    quasi-field, so the map also serves `translation_from_shift` and
    `diag_automorphism`; on a field plane the order does not matter."""
    q, add, mul = K.q, K.add, K.mul
    (c0, d0), (u1, u2), (w1, w2) = p0, u, w
    return tuple(add(c0, add(mul(u1, x), mul(w1, y))) * q
                 + add(d0, add(mul(u2, x), mul(w2, y)))
                 for x in range(q) for y in range(q))


def swap_map(K):
    """(x, y) -> (y, x) on the field plane."""
    return _affine_perm(K, (0, 0), (0, 1), (1, 0))


def shift_map(K, c, d):
    """(x, y) -> (c+x, d+y) on the field plane, or on the plane of a
    quasi-field whose addition commutes (`translation_from_shift`)."""
    if not (0 <= c < K.q and 0 <= d < K.q):
        raise InputError("shift components out of range")
    return _affine_perm(K, (c, d), (1, 0), (0, 1))


def _shear_factor(K, c):
    """-c, for a shear factor c of K."""
    if not 0 <= c < K.q:
        raise InputError("shear factor out of range")
    return K.neg(c)


def shear_vertical_map(K, c):
    """(x, y) -> (x, y - cx): takes the slope-c line through 0 to the
    first axis, fixing verticals."""
    return _affine_perm(K, (0, 0), (1, _shear_factor(K, c)), (0, 1))


def shear_horizontal_map(K, c):
    """(x, y) -> (x - cy, y): fixes the first axis."""
    return _affine_perm(K, (0, 0), (1, 0), (_shear_factor(K, c), 1))


def frame_mover(K, l2, m2):
    """A verified collineation of the field plane taking the first axis
    (y = 0) to line l2 and the second axis (x = 0) to line m2.

    It is the affine map (x, y) -> p0 + u x + w y, where p0 is the meet
    of l2 and m2 and u and w are their directions: (0, 1) for a vertical
    line, and (1, a) for a line of slope a.  It takes (x, 0) to the point
    p0 + u x of l2 and (0, y) to the point p0 + w y of m2, so the axes go
    to l2 and m2.  u and w are independent, since l2 and m2 are not
    parallel, so the map is an affine bijection of K^2;
    `as_collineation` verifies that it takes lines to lines.
    """
    P = _left_plane(from_field(K))
    q = K.q
    _lines_in_range(P, l2, m2)
    if l2 == m2 or not P.masks[l2] & P.masks[m2]:
        raise InputError("target lines must be distinct and non-parallel")

    def direction(line):
        # a graph has one point over each x, so its two smallest points lie
        # over x = 0 and x = 1, and their y differ by the slope
        (x0, y0), (x1, y1) = divmod(line[0], q), divmod(line[1], q)
        return (0, 1) if x0 == x1 else (1, K.sub(y1, y0))

    p0 = divmod(intersection(P, l2, m2), q)
    return as_collineation(P, _affine_perm(K, p0, direction(P.lines[l2]),
                                           direction(P.lines[m2])))


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class ClassificationResult:
    verdict: str  # "desarguesian" or "non-desarguesian"
    isomorphism: tuple = None  # certificate when desarguesian
    reason: str = ""  # "isomorphism-found", "search-exhausted", "non-associative"


@functools.lru_cache(maxsize=8)
def _field_ring(q):
    """The validated ternary ring of GF(q), built and checked on first
    use of each order; the ring is immutable, so callers share it.  q is
    p^n for its least divisor p > 1, or no prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    n = 1
    while p ** n < q:
        n += 1
    if p ** n != q:
        raise InputError(f"{q} is not a prime power")
    return to_ternary(from_field(make_field(p, n)))


def classify_ternary(T):
    """Compare T against the ternary ring of the field of the same order.

    A finite plane is a field plane exactly when its coordinate ring is
    isomorphic to the field's, so the exhausted forcing search is a
    conclusive certificate of either verdict for a ternary ring.  Before
    "non-desarguesian", T is certified (`validate`, at once for a
    validated ring), so a table that is no ternary ring gets an
    `InputError`, not a verdict.  A found isomorphism σ needs no such
    check: it is verified on every triple, σ(<ax+b>) = <σa σx σb>, and
    fixes 0 and 1, a bijection of the carrier; each of T1-T5 speaks of
    the operation, 0 and 1 alone, so each carries over through σ from
    the validated field ring to T.
    """
    perm = find_isomorphism(T, _field_ring(T.q))
    if perm is not None:
        return ClassificationResult("desarguesian", perm, "isomorphism-found")
    validate(T)
    return ClassificationResult("non-desarguesian", None, "search-exhausted")


def classify(Q, T=None):
    """Classify the plane of a quasi-field.

    Q is certified first, by its ternary ring T: `to_ternary(Q)` raises
    `InputError` on tables that are no quasi-field.  A caller that has
    certified Q's linear ring itself (`validate`) passes it as T.
    Non-associative multiplication then rules out a field plane
    (anything isomorphic to a field's coordinate ring inherits
    associativity); otherwise the isomorphism search decides.
    """
    T = to_ternary(Q) if T is None else T
    if associativity_witness(Q) is not None:
        return ClassificationResult("non-desarguesian", None, "non-associative")
    return classify_ternary(T)
