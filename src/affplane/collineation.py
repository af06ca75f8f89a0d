"""Plane automorphisms: verification, translations with certificates,
explicit automorphism families of field and near-field planes, and the
classifier separating field planes from the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .gf import make_field
from .plane import (canonical_frame, intersection, line_through,
                    parallel_classes, parallel_through, plane_from_ternary)
from .quasifield import (LEFT_AXIOMS, associativity_witness, check_vw,
                         from_field, to_ternary)
from .ternary import find_isomorphism


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
    line_map = [index.get(sum(1 << perm[p] for p in line)) for line in P.lines]
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
    parallel line and fixing at least one parallel class linewise."""
    line_map = _induced_line_map(P, perm)
    if line_map is None:
        return None
    classes = parallel_classes(P)
    if any(not P.parallel[li] >> mi & 1 for li, mi in enumerate(line_map)):
        return None
    traces = tuple(ci for ci, cls in enumerate(classes)
                   if all(line_map[li] == li for li in cls))
    if not traces:
        return None
    fixed_free = all(perm[p] != p for p in range(P.n))
    return TranslationCertificate(Collineation(tuple(perm), line_map),
                                  traces, fixed_free)


def no_fixed_points(cert):
    """True iff the certificate is the identity or moves every point."""
    if cert.collineation.is_identity():
        return True
    return cert.fixed_point_free


def _left_plane(Q):
    """The plane of Q, after checking that Q satisfies the left axiom set."""
    report = check_vw(Q)
    if not report.passes(*LEFT_AXIOMS):
        raise InputError("tables fail the left quasi-field axioms")
    return plane_from_ternary(to_ternary(Q, report), check=False)


def translation_from_shift(Q, c, d):
    """The shift (x, y) -> (x+c, y+d) on the plane of a left quasi-field,
    verified as a translation.

    The expected trace is the vertical class when c = 0, otherwise the
    class of slope e where d = ec; verification failure means Q does not
    satisfy the left axiom set.
    """
    P = _left_plane(Q)
    q = Q.q
    if not (0 <= c < q and 0 <= d < q):
        raise InputError("shift components out of range")
    perm = tuple(Q.add(x, c) * q + Q.add(y, d)
                 for x in range(q) for y in range(q))
    cert = is_translation(P, perm)
    if cert is None:
        raise InputError("shift failed translation verification")
    return cert


def translation_candidate(P, z, z2, aux=None):
    """The unique candidate translation taking z to z2, verified.

    There is at most one translation with a given point image, so a
    verification failure of the constructed map certifies that no such
    translation exists.  Points off the trace line map through a
    parallelogram; points on it route through an auxiliary off-line
    point (smallest index by default; the result never depends on it).
    """
    if z == z2:
        raise InputError("source and target must differ")
    L = line_through(P, z, z2)
    on_L = P.masks[L]
    if aux is None:
        aux = next((p for p in range(P.n) if not on_L >> p & 1), None)
        if aux is None:
            raise InputError("every point lies on the trace line")
    elif on_L >> aux & 1:
        raise InputError("auxiliary point must lie off the trace line")

    def off_line_image(p):
        through = line_through(P, z, p)
        return intersection(P, parallel_through(P, through, z2),
                            parallel_through(P, L, p))

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
            through = line_through(P, aux, p)
            perm[p] = intersection(P, parallel_through(P, through, aux_image), L)
    except InputError:
        return None
    return is_translation(P, perm)


# ---------------------------------------------------------------------------
# automorphism families of coordinate planes

def diag_automorphism(Q, u, v):
    """The map (x, y) -> (ux, vy) on the plane of a near-field, verified."""
    P = _left_plane(Q)
    if associativity_witness(Q) is not None:
        raise InputError("multiplication is not associative")
    if u == 0 or v == 0:
        raise InputError("scaling factors must be nonzero")
    q = Q.q
    perm = tuple(Q.mul(u, x) * q + Q.mul(v, y)
                 for x in range(q) for y in range(q))
    return as_collineation(P, perm)


def _field_perm(K, point_fn):
    q = K.q
    return tuple(point_fn(x, y)
                 for x in range(q) for y in range(q))


def swap_map(K):
    """(x, y) -> (y, x) on the field plane."""
    return _field_perm(K, lambda x, y: y * K.q + x)


def shift_map(K, c, d):
    """(x, y) -> (x+c, y+d) on the field plane."""
    return _field_perm(K, lambda x, y: K.add(x, c) * K.q + K.add(y, d))


def shear_vertical_map(K, c):
    """(x, y) -> (x, y - cx): takes the slope-c line through 0 to the
    first axis, fixing verticals."""
    return _field_perm(K, lambda x, y: x * K.q + K.sub(y, K.mul(c, x)))


def shear_horizontal_map(K, c):
    """(x, y) -> (x - cy, y): fixes the first axis."""
    return _field_perm(K, lambda x, y: K.sub(x, K.mul(c, y)) * K.q + y)


def _compose_perms(first, second):
    return tuple(second[v] for v in first)


def _invert_perm(perm):
    out = [0] * len(perm)
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def _line_shape(K, line):
    """(None, x0) for the vertical x = x0, else (slope, intercept)."""
    q = K.q
    x1, y1 = divmod(line[0], q)
    x2, y2 = divmod(line[1], q)
    if x1 == x2:
        return None, x1
    a = K.mul(K.sub(y2, y1), K.inv(K.sub(x2, x1)))
    return a, K.sub(y1, K.mul(a, x1))


def frame_mover(K, l2, m2):
    """A verified collineation of the field plane taking the first axis
    to line l2 and the second axis to line m2.

    Built by composing a shift, an axis swap, and the two shear maps so
    that the target lines move onto the axes, then inverting.
    """
    T = to_ternary(from_field(K))
    P = plane_from_ternary(T, check=False)
    q = K.q
    if not (0 <= l2 < len(P.lines) and 0 <= m2 < len(P.lines)):
        raise InputError("line index out of range")
    if l2 == m2 or not P.masks[l2] & P.masks[m2]:
        raise InputError("target lines must be distinct and non-parallel")

    # move l2 and m2 onto the axes, tracking their shapes as we go
    p0 = intersection(P, l2, m2)
    c0, d0 = divmod(p0, q)
    perm = shift_map(K, K.neg(c0), K.neg(d0))

    def shape_after(line_index):
        return _line_shape(K, sorted(perm[p] for p in P.lines[line_index]))

    a_l, _ = shape_after(l2)
    if a_l is None:
        perm = _compose_perms(perm, swap_map(K))
        a_l, _ = shape_after(l2)
    if a_l != 0:
        perm = _compose_perms(perm, shear_vertical_map(K, a_l))
    a_m, _ = shape_after(m2)
    if a_m is not None:
        if a_m == 0:
            raise InputError("target lines collapsed to parallels")
        perm = _compose_perms(perm, shear_horizontal_map(K, K.inv(a_m)))

    mover = as_collineation(P, _invert_perm(perm))

    axes = canonical_frame(P)
    if mover.line_map[axes.l] != l2 or mover.line_map[axes.m] != m2:
        raise InputError("frame mover failed to hit the target lines")
    return mover


# ---------------------------------------------------------------------------
# classification

def _factor_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            n = 0
            m = q
            while m % p == 0:
                m //= p
                n += 1
            if m != 1:
                raise InputError(f"{q} is not a prime power")
            return p, n
    raise InputError(f"{q} is not a prime power")


@dataclass(frozen=True)
class ClassificationResult:
    verdict: str  # "desarguesian" or "non-desarguesian"
    isomorphism: tuple = None  # certificate when desarguesian
    reason: str = ""  # "isomorphism-found", "search-exhausted", "non-associative"


def classify_ternary(T):
    """Compare T against the ternary ring of the field of the same order.

    A finite plane is a field plane exactly when its coordinate ring is
    isomorphic to the field's, so the exhausted backtracking search is a
    conclusive certificate of either verdict.
    """
    p, n = _factor_prime_power(T.q)
    reference = to_ternary(from_field(make_field(p, n)))
    perm = find_isomorphism(T, reference)
    if perm is not None:
        return ClassificationResult("desarguesian", perm, "isomorphism-found")
    return ClassificationResult("non-desarguesian", None, "search-exhausted")


def classify(Q):
    """Classify the plane of a quasi-field.

    Non-associative multiplication rules out a field plane immediately
    (anything isomorphic to a field's coordinate ring inherits
    associativity); otherwise the isomorphism search decides.
    """
    if associativity_witness(Q) is not None:
        return ClassificationResult("non-desarguesian", None, "non-associative")
    return classify_ternary(to_ternary(Q))
