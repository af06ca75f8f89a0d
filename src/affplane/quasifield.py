"""Two-operation structures (quasi-fields), their axiom reports, and the
adapters to and from ternary rings.

Addition and multiplication are flat q*q tables indexed a*q+b.  The seven
axiom flags cover the left set (VW1-VW5) and the right variants (VW4-r,
VW5-r); witnesses are lexicographically smallest in quantification order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError
from .ternary import AxiomReport, TernaryRing, validate


@dataclass(frozen=True)
class QuasiField:
    """Carrier {0..q-1} with addition and multiplication tables."""

    q: int
    add_table: tuple  # flat q*q, index a*q+b
    mul_table: tuple
    # per element a, the first b with a + b = 0, or None if there is none
    neg_table: tuple = field(init=False, repr=False, compare=False)

    zero = 0
    one = 1

    def __post_init__(self):
        if self.q < 2:
            raise InputError(f"carrier size must be >= 2, got {self.q}")
        if len(self.add_table) != self.q * self.q or len(self.mul_table) != self.q * self.q:
            raise InputError("table length does not match q^2")
        if any(not 0 <= v < self.q for v in self.add_table + self.mul_table):
            raise InputError("table entry out of range")
        q = self.q
        rows = (self.add_table[a * q:(a + 1) * q] for a in range(q))
        object.__setattr__(self, "neg_table", tuple(
            row.index(0) if 0 in row else None for row in rows))

    def add(self, a, b):
        return self.add_table[a * self.q + b]

    def mul(self, a, b):
        return self.mul_table[a * self.q + b]

    def neg(self, a):
        b = self.neg_table[a]
        if b is None:
            raise InputError(f"no additive inverse for {a}")
        return b

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def __repr__(self):
        return f"QuasiField(q={self.q})"


def from_field(K):
    """View a finite field as a quasi-field on the same tables."""
    return QuasiField(K.q, K.add_table, K.mul_table)


VW_AXIOMS = ("VW1", "VW2", "VW3", "VW4", "VW5", "VW4-r", "VW5-r")
LEFT_AXIOMS = ("VW1", "VW2", "VW3", "VW4", "VW5")
RIGHT_AXIOMS = ("VW1", "VW2", "VW3", "VW4-r", "VW5-r")


def _vw1_sweep(q, add):
    # VW1: abelian group under addition with identity 0; identity, then
    # inverses, then commutativity and associativity
    for x in range(q):
        if add(x, 0) != x or add(0, x) != x:
            yield (x,)
    for x in range(q):
        if all(add(x, y) != 0 for y in range(q)):
            yield (x,)
    for x in range(q):
        for y in range(q):
            if add(x, y) != add(y, x):
                yield (x, y)
            for z in range(q):
                if add(add(x, y), z) != add(x, add(y, z)):
                    yield (x, y, z)


def _vw2_sweep(q, mul):
    # VW2: for a, b != 0 the equations ax = b and xa = b have unique
    # nonzero solutions, and there are no zero divisors
    nonzero = list(range(1, q))
    for a in nonzero:
        row = [mul(a, x) for x in nonzero]
        col = [mul(x, a) for x in nonzero]
        if 0 in row or 0 in col or sorted(row) != nonzero or sorted(col) != nonzero:
            yield (a,)


def _vw3_sweep(q, add, mul):
    # VW3: 1x = x1 = x, 0x = x0 = 0, x+0 = 0+x = x
    for x in range(q):
        if (mul(1, x) != x or mul(x, 1) != x or mul(0, x) != 0
                or mul(x, 0) != 0 or add(x, 0) != x or add(0, x) != x):
            yield (x,)


def _vw4_sweep(q, add, mul):
    # VW4: a(x+y) = ax + ay
    for a in range(q):
        for x in range(q):
            for y in range(q):
                if mul(a, add(x, y)) != add(mul(a, x), mul(a, y)):
                    yield (a, x, y)


def _vw4r_sweep(q, add, mul):
    # VW4-r: (x+y)a = xa + ya
    for x in range(q):
        for y in range(q):
            for a in range(q):
                if mul(add(x, y), a) != add(mul(x, a), mul(y, a)):
                    yield (x, y, a)


def _vw5_sweep(q, add, mul, neg):
    # VW5: for a != a', x -> ax - a'x is a bijection; VW5-r is VW5 of the
    # transposed multiplication
    full = list(range(q))
    for a in range(q):
        for a2 in range(q):
            if a2 == a:
                continue
            diffs = sorted(add(mul(a, x), neg[mul(a2, x)]) for x in range(q))
            if diffs != full:
                yield (a, a2)


def check_vw(Q):
    """Exhaustive evaluation of all seven quasi-field axiom flags."""
    q, add, mul = Q.q, Q.add, Q.mul
    report = AxiomReport(VW_AXIOMS)
    report.record("VW1", _vw1_sweep(q, add))
    report.record("VW2", _vw2_sweep(q, mul))
    report.record("VW3", _vw3_sweep(q, add, mul))
    report.record("VW4", _vw4_sweep(q, add, mul))
    report.record("VW4-r", _vw4r_sweep(q, add, mul))
    # VW5 / VW5-r need subtraction, hence VW1
    if report.passes("VW1"):
        neg = Q.neg_table
        report.record("VW5", _vw5_sweep(q, add, mul, neg))
        report.record("VW5-r", _vw5_sweep(q, add, opposite(Q).mul, neg))
    else:
        report.unchecked = ("VW5", "VW5-r")
    return report


def opposite(Q):
    """Same addition, transposed multiplication."""
    q = Q.q
    mul = tuple(Q.mul_table[b * q + a] for a in range(q) for b in range(q))
    return QuasiField(q, Q.add_table, mul)


def to_ternary(Q, report=None):
    """The linear ternary ring <ax+b> = ax + b of a (left or right) quasi-field."""
    if report is None:
        report = check_vw(Q)
    if not (report.passes(*LEFT_AXIOMS) or report.passes(*RIGHT_AXIOMS)):
        raise InputError("tables pass neither the left nor the right axiom set")
    q = Q.q
    table = tuple(Q.add(Q.mul(a, x), b)
                  for a in range(q) for x in range(q) for b in range(q))
    return validate(TernaryRing(q, table))


def from_ternary(T):
    """Recover a quasi-field from a linear ternary ring, or None.

    Addition and multiplication are read off as a+b = <1a+b> and
    ab = <ab+0>; the quasi-field is returned only when these tables
    reproduce T exactly (the linear case).
    """
    q = T.q
    add = tuple(T.at(1, a, b) for a in range(q) for b in range(q))
    mul = tuple(T.at(a, b, 0) for a in range(q) for b in range(q))
    for a in range(q):
        for x in range(q):
            ax = mul[a * q + x]
            for b in range(q):
                if T.at(a, x, b) != add[ax * q + b]:
                    return None
    return QuasiField(q, add, mul)


def associativity_witness(Q):
    """Lexicographically first (x, y, z) with (xy)z != x(yz), or None."""
    q = Q.q
    mul = Q.mul
    for x in range(q):
        for y in range(q):
            xy = mul(x, y)
            for z in range(q):
                if mul(xy, z) != mul(x, mul(y, z)):
                    return (x, y, z)
    return None


def check_vector_space(Q, F):
    """Check the two scalar identities that make Q a right vector space
    over the subfield F: (xy)a = x(ya) and (x+y)a = xa + ya for a in F."""
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
        if a and not any(b in members and Q.mul(a, b) == 1 for b in F):
            raise InputError("F not closed under inversion")
    for x in range(Q.q):
        for y in range(Q.q):
            for a in F:
                if Q.mul(Q.mul(x, y), a) != Q.mul(x, Q.mul(y, a)):
                    return False
                if Q.mul(Q.add(x, y), a) != Q.add(Q.mul(x, a), Q.mul(y, a)):
                    return False
    return True
