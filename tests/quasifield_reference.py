"""Reference versions of the quasi-field sweeps.

These are the O(q^3) checks `quasifield` used before its sweeps compared
whole table rows: one bound-method call (`Q.add`, `Q.mul`) per entry, and
VW5-r run as VW5 of `opposite(Q)`.  They are kept only so that the tests
can require the row-level sweeps to yield the same witnesses in the same
order, and `to_ternary` to build the same table.
"""

from affplane.errors import InputError
from affplane.quasifield import LEFT_AXIOMS, RIGHT_AXIOMS, VW_AXIOMS, QuasiField
from affplane.ternary import AxiomReport, TernaryRing, validate


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
