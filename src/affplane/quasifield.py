"""Two-operation structures (quasi-fields), their axiom reports, and the
adapters to and from ternary rings.

Addition and multiplication are flat q*q tables indexed a*q+b.  The seven
axiom flags cover the left set (VW1-VW5) and the right variants (VW4-r,
VW5-r); witnesses are lexicographically smallest in quantification order.

The O(q^3) sweeps compare whole table rows, by tuple comparison, by an
`itemgetter` gather or by the size of a set of q differences, and look
at single entries only inside a row that differs; so they yield the same
witnesses, in the same order, as a sweep entry by entry.  `check_vw`
computes one report per `QuasiField` and keeps it on the quasi-field:
later calls and `to_ternary` reuse it.  `build_left`/`build_right` keep
one that is proved, with one law swept (`keep_proved_report`), and a
`BuildProof` that `check_vector_space` and `associativity_witness` read.

Under VW1, where addition is an abelian group, VW5 and VW5-r pass or
fail together.  VW5 fails exactly when ax - a'x = ax' - a'x' for some
a != a' and x != x'; adding a'x - ax' to both sides turns that into
ax - ax' = a'x - a'x', a failure of VW5-r at (x, x'), and back.  So
`check_vw` sweeps the columns for VW5-r only when VW5 has a witness, and
only to name VW5-r's.  Each sweep also checks each unordered pair once:
a'x - ax = -(ax - a'x) and negation is a bijection, so (a, a') fails
exactly when (a', a) does.

That report is also the certificate of the linear ternary ring
<ax+b> = ax + b: the ring satisfies T1-T5 exactly when the report passes
`LINEAR_RING_AXIOMS` (proof at `ternary.validate`, which reads the
report of `from_ternary(T)` for a linear ring T).  The left set implies
them, since VW4 and VW2 make a -> ax - ax' = a(x - x') a bijection for
x != x' (VW5-r); so does the right set, since VW4-r and VW2 make
x -> ax - a'x = (a - a')x a bijection for a != a' (VW5).  `to_ternary`
therefore marks the ring validated from the kept report alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import chain
from operator import getitem, itemgetter
from typing import NamedTuple

from .errors import InputError
from .ternary import AxiomReport, TernaryRing, _is_linear


@dataclass(frozen=True)
class QuasiField:
    """Carrier {0..q-1} with addition and multiplication tables."""

    q: int
    add_table: tuple  # flat q*q, index a*q+b
    mul_table: tuple
    # per element a, the first b with a + b = 0, or None if there is none
    neg_table: tuple = field(init=False, repr=False, compare=False)
    # the `check_vw` report, computed on first use and kept
    vw_report: object = field(init=False, default=None, repr=False, compare=False)
    # the `BuildProof` of a builder, or None
    proof: object = field(init=False, default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.q < 2:
            raise InputError(f"carrier size must be >= 2, got {self.q}")
        if len(self.add_table) != self.q * self.q or len(self.mul_table) != self.q * self.q:
            raise InputError("table length does not match q^2")
        if (min(min(self.add_table), min(self.mul_table)) < 0
                or max(max(self.add_table), max(self.mul_table)) >= self.q):
            raise InputError("table entry out of range")
        object.__setattr__(self, "neg_table", tuple(
            row.index(0) if 0 in row else None for row in _rows(self.add_table, self.q)))

    def add(self, a, b):
        return self.add_table[a * self.q + b]

    def mul(self, a, b):
        return self.mul_table[a * self.q + b]

    def neg(self, a):
        b = self.neg_table[a]
        if b is None:
            raise InputError(f"no additive inverse for {a}")
        return b

    def __repr__(self):
        return f"QuasiField(q={self.q})"


def from_field(K):
    """View a finite field as a quasi-field on the same tables."""
    return QuasiField(K.q, K.add_table, K.mul_table)


VW_AXIOMS = ("VW1", "VW2", "VW3", "VW4", "VW5", "VW4-r", "VW5-r")
LEFT_AXIOMS = ("VW1", "VW2", "VW3", "VW4", "VW5")
RIGHT_AXIOMS = ("VW1", "VW2", "VW3", "VW4-r", "VW5-r")
# what the linear ternary ring of a quasi-field needs for T1-T5, the
# rule `ternary.validate` applies; both LEFT_AXIOMS and RIGHT_AXIOMS imply it
LINEAR_RING_AXIOMS = ("VW1", "VW3", "VW5", "VW5-r")


def _rows(table, q):
    """The rows of a flat q*q table: rows[a][b] = table[a*q+b]."""
    return [table[i:i + q] for i in range(0, q * q, q)]


def _mismatches(prefix, left, right):
    # prefix + (k,) for each position k at which two rows differ
    return (prefix + (k,) for k, (u, v) in enumerate(zip(left, right)) if u != v)


def _vw1_sweep(rows):
    # VW1: abelian group under addition with identity 0; identity, then
    # inverses, then per (x, y) commutativity and associativity.  A pair
    # (x, y) sorts before the triples (x, y, z), so the merge keeps that
    # loop order.
    for x, row in enumerate(rows):
        if row[0] != x or rows[0][x] != x:
            yield (x,)
    for x, row in enumerate(rows):
        if 0 not in row:
            yield (x,)
    yield from heapq.merge(_commutativity_sweep(rows), _associativity_sweep(rows))


def _commutativity_sweep(rows):
    # each (x, y) with xy != yx
    for x, (row, col) in enumerate(zip(rows, zip(*rows))):
        if row != col:
            yield from _mismatches((x,), row, col)


def _associativity_sweep(rows):
    # each (x, y, z) with (xy)z != x(yz): over z, (xy)z is the row of xy,
    # and x(yz) is row x gathered at the entries of row y
    gather = [itemgetter(*row) for row in rows]
    for x, row in enumerate(rows):
        for y, xy in enumerate(row):
            left, right = rows[xy], gather[y](row)
            if left != right:
                yield from _mismatches((x, y), left, right)


def _vw2_sweep(rows, cols):
    # VW2: for a, b != 0 the equations ax = b and xa = b have unique
    # nonzero solutions, and there are no zero divisors
    nonzero = set(range(1, len(rows)))
    for a in range(1, len(rows)):
        if set(rows[a][1:]) != nonzero or set(cols[a][1:]) != nonzero:
            yield (a,)


def _vw3_sweep(add, mul):
    # VW3: 1x = x1 = x, 0x = x0 = 0, x+0 = 0+x = x
    for x in range(len(add)):
        if (mul[1][x] != x or mul[x][1] != x or mul[0][x] != 0
                or mul[x][0] != 0 or add[x][0] != x or add[0][x] != x):
            yield (x,)


def _vw4_sweep(add, mul):
    # VW4: a(x+y) = ax + ay; over y, a(x+y) is row a gathered at row x of
    # the addition, and ax + ay is the addition row of ax gathered at row a
    gather_add = [itemgetter(*row) for row in add]
    for a, row in enumerate(mul):
        gather_mul = itemgetter(*row)
        for x, ax in enumerate(row):
            left, right = gather_add[x](row), gather_mul(add[ax])
            if left != right:
                yield from _mismatches((a, x), left, right)


def _vw4r_sweep(add, mul):
    # VW4-r: (x+y)a = xa + ya; over a, (x+y)a is the row of x+y, and
    # xa + ya is the addition row of xa read at ya.  Rows are compared as
    # lists: a tuple built from a map is resized, and freeing it fills the
    # interpreter's free list for its final size when that is below 20.
    mul_lists = [list(row) for row in mul]
    for x, (sums, mul_x) in enumerate(zip(add, mul)):
        sums_x = list(map(add.__getitem__, mul_x))  # sums_x[a] = xa + (.)
        for y, xy in enumerate(sums):
            left = mul_lists[xy]
            right = list(map(getitem, sums_x, mul[y]))
            if left != right:
                yield from _mismatches((x, y), left, right)


def _vw5_sweep(add, rows, neg):
    # VW5: for a != a', x -> ax - a'x is a bijection; VW5-r is the same
    # sweep over the columns of the multiplication.  Under VW1 the pair
    # (a, a') fails exactly when (a', a) does (module docstring), so only
    # a < a' is swept, and each failing (a, a') is yielded again as
    # (a', a) when row a' comes up.
    q = len(rows)
    negated = [list(map(neg.__getitem__, row)) for row in rows]
    below = [[] for _ in rows]  # below[a']: each a < a' with (a, a') failing
    for a, row in enumerate(rows):
        for a2 in below[a]:
            yield (a, a2)
        sums_a = list(map(add.__getitem__, row))  # sums_a[x] = ax + (.)
        for a2 in range(a + 1, q):
            if len(set(map(getitem, sums_a, negated[a2]))) != q:
                below[a2].append(a)
                yield (a, a2)


def _vw_report(Q):
    q = Q.q
    add, mul = _rows(Q.add_table, q), _rows(Q.mul_table, q)
    cols = list(zip(*mul))  # cols[a][x] = xa
    report = AxiomReport(VW_AXIOMS)
    report.record("VW1", _vw1_sweep(add))
    report.record("VW2", _vw2_sweep(mul, cols))
    report.record("VW3", _vw3_sweep(add, mul))
    report.record("VW4", _vw4_sweep(add, mul))
    report.record("VW4-r", _vw4r_sweep(add, mul))
    # VW5 / VW5-r need subtraction, hence VW1; under VW1 they pass or fail
    # together (module docstring), so the columns are swept only to name
    # VW5-r's witness
    if report.passes("VW1"):
        report.record("VW5", _vw5_sweep(add, mul, Q.neg_table))
        if not report.passes("VW5"):
            report.record("VW5-r", _vw5_sweep(add, cols, Q.neg_table))
    else:
        report.unchecked = ("VW5", "VW5-r")
    return report


def check_vw(Q):
    """Exhaustive evaluation of all seven quasi-field axiom flags.

    The report is computed on the first call for Q and kept on Q; every
    later call returns that same report, which callers must not mutate.
    """
    if Q.vw_report is None:
        object.__setattr__(Q, "vw_report", _vw_report(Q))
    return Q.vw_report


class BuildProof(NamedTuple):
    """What a builder proved of its quasi-field: the `check_vector_space`
    verdict over the subfield `fixed`, and whether it is associative."""

    fixed: tuple
    vector_space: bool
    associative: bool


def keep_proved_report(Q, law, proof):
    """Keep on Q, and return Q, the `check_vw` report of a quasi-field
    whose builder has proved VW1, VW2, VW3, the distributive law other
    than `law` ("VW4" or "VW4-r"), and VW5 or VW5-r, which give each
    other under VW1, and the builder's `BuildProof`.  Only `law` is
    swept, to the first witness `check_vw` would name."""
    add, mul = _rows(Q.add_table, Q.q), _rows(Q.mul_table, Q.q)
    report = AxiomReport(VW_AXIOMS)
    report.record(law, (_vw4_sweep if law == "VW4" else _vw4r_sweep)(add, mul))
    object.__setattr__(Q, "vw_report", report)
    object.__setattr__(Q, "proof", proof)
    return Q


def opposite(Q):
    """Same addition, transposed multiplication."""
    q = Q.q
    mul = tuple(Q.mul_table[b * q + a] for a in range(q) for b in range(q))
    return QuasiField(q, Q.add_table, mul)


def _linear_table(q, add_table, mul_table):
    # the q^3 table of <ax+b> = ax + b: the b-row of (a, x) is the
    # addition row of ax
    return tuple(chain.from_iterable(map(_rows(add_table, q).__getitem__, mul_table)))


def to_ternary(Q, report=None):
    """The validated linear ternary ring <ax+b> = ax + b of a (left or
    right) quasi-field.

    Q's own kept `check_vw` report certifies the ring (module docstring),
    so no axiom is swept again.  `report` is ignored: a report passed in
    by the caller certifies nothing.
    """
    report = check_vw(Q)
    if not (report.passes(*LEFT_AXIOMS) or report.passes(*RIGHT_AXIOMS)):
        raise InputError("tables pass neither the left nor the right axiom set")
    return TernaryRing(Q.q, _linear_table(Q.q, Q.add_table, Q.mul_table),
                       validated=True)


def from_ternary(T):
    """Recover a quasi-field from a linear ternary ring, or None.

    Addition and multiplication are read off as a+b = <1a+b> and
    ab = <ab+0>; the quasi-field is returned exactly when T is linear
    (`ternary._is_linear`: <ax+b> = <1<ax+0>+b> and <1y+0> = y, read
    from T's cached `row_kinds`), that is, when these tables reproduce T
    and 1 is a left identity of the product.  A table that is linear
    but for <1y+0> = y gets None, where its quasi-field would fail VW3;
    `validate` sends both to the same T1-T5 sweeps.
    """
    q, t = T.q, T.table
    return QuasiField(q, t[q * q:2 * q * q], t[::q]) if _is_linear(T) else None


def associativity_witness(Q):
    """Lexicographically first (x, y, z) with (xy)z != x(yz), or None:
    at once when Q's `BuildProof` says Q is associative."""
    if Q.proof is not None and Q.proof.associative:
        return None
    return next(_associativity_sweep(_rows(Q.mul_table, Q.q)), None)


def check_vector_space(Q, F):
    """Check the two scalar identities that make Q a right vector space
    over the subfield F: (xy)a = x(ya) and (x+y)a = xa + ya for a in F.
    When F is, in order, the fixed field of Q's `BuildProof`, the proved
    verdict is returned with no sweep.  Any other F is checked to be a
    subfield first, its elements in 0..q-1 before any is read."""
    F = tuple(F)
    if Q.proof is not None and F == Q.proof.fixed:
        return Q.proof.vector_space
    if not all(0 <= a < Q.q for a in F):
        raise InputError(f"F must lie in 0..{Q.q - 1}")
    members = set(F)
    if 0 not in members or 1 not in members:
        raise InputError("F must contain 0 and 1")
    for a in F:
        if Q.neg(a) not in members:
            raise InputError("F not closed under negation")
        for b in F:
            if Q.add(a, b) not in members or Q.mul(a, b) not in members:
                raise InputError("F not closed under the operations")
            if Q.mul(a, b) != Q.mul(b, a):
                raise InputError("F is not commutative")
            for c in F:
                if Q.mul(Q.mul(a, b), c) != Q.mul(a, Q.mul(b, c)):
                    raise InputError("F is not associative")
    for a in F:
        if a and not any(Q.mul(a, b) == 1 for b in F):
            raise InputError("F not closed under inversion")
    # per a, over all (x, y) at once: col[v] = va
    q = Q.q
    add, mul = _rows(Q.add_table, q), _rows(Q.mul_table, q)
    for a in F:
        col = tuple(row[a] for row in mul)
        gather = itemgetter(*col)
        if (tuple(map(col.__getitem__, Q.mul_table))
                != tuple(chain.from_iterable(map(gather, mul)))):
            return False
        if (tuple(map(col.__getitem__, Q.add_table))
                != tuple(chain.from_iterable(gather(add[xa]) for xa in col))):
            return False
    return True
