"""Ternary rings as flat operation tables, with complete axiom checks,
isomorphism search, and isotopism machinery.

The ternary operation <ax+b> is stored as a flat table of q^3 values at
index ((a*q)+x)*q+b.  Every failed check reports the lexicographically
smallest counterexample (in the order the variables are quantified), so
test expectations are deterministic.  Each axiom is swept by a generator
that yields its counterexamples in that order, and `AxiomReport.record`
keeps the first; the quasi-field and plane checkers use the same idiom.

`validate` certifies a linear ring <ax+b> = ax + b (with y + b = <1y+b>
and ax = <ax+0>) through the quasi-field `from_ternary` reads off it:
when its addition is an abelian group, the ring satisfies T1-T5 exactly
when that quasi-field passes VW1, VW3, VW5 and VW5-r
(`quasifield.LINEAR_RING_AXIOMS`), which its VW1, VW3 and VW5 sweeps
decide in O(q^3).  Any other ring (a linear
ring whose addition is a non-abelian group, if one exists, among them),
and any ring that report rejects, goes to the O(q^4) sweeps of
`check_ternary_axioms`, so error messages come from those alone; T5 is
swept there only when T1-T4 do not all pass, since T3 and T4 imply it.
Those sweeps decide T3 per b-row and T4 and T5 per pair of rows or
columns, comparing whole rows, and count entry by entry only in a row or
pair that fails, to name its witnesses.

`isotopism_failure` checks a map (F, G, H) by comparing T with U's rows
pulled back through H, once per kind of row (`TernaryRing.row_kinds`).
`is_isomorphism`, `is_isotopism` and `complete_isotopism` verify through
it, and so does `find_isomorphism`, which forces a map's values, at each
full map.  `find_isomorphism` first compares the left power orders of
the two rings (`_left_orders`, an isomorphism invariant): different
multisets answer None at once, and a branch element tries only images
of its own order.

`find_isotopism` certifies both rings with `validate` and answers at
once when `collineation.classify_ternary` tells their planes apart (the
Desarguesian shortcut), or when two linear non-Desarguesian rings differ
in one of the two distributive laws (an isotopism invariant); otherwise
it verifies only the candidates that pass a filter implied by the
isotopism identity.  Between linear rings a candidate is tested on the
q^2 products <ax+0> alone, one lookup each, since its H is additive;
any other pair is tested b-row by b-row on all q^3 triples.  Both
invariants are computed on every call and kept nowhere.  The search
docstrings have the proofs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain, repeat
from operator import add, eq, itemgetter

from .errors import InputError, SearchBoundExceeded

ISOTOPISM_SEARCH_BOUND = 9


@dataclass(frozen=True)
class TernaryRing:
    """Carrier {0..q-1} with distinguished 0, 1 and a q^3 operation table."""

    q: int
    table: tuple  # flat, index ((a*q)+x)*q+b
    validated: bool = False

    def __post_init__(self):
        if self.q < 2:
            raise InputError(f"carrier size must be >= 2, got {self.q}")
        if len(self.table) != self.q ** 3:
            raise InputError("table length does not match q^3")
        # a validated table comes from a certified structure, so its
        # entries are in range
        if not self.validated and (min(self.table) < 0 or max(self.table) >= self.q):
            raise InputError("table entry out of range")

    def eval(self, a, x, b):
        q = self.q
        if not (0 <= a < q and 0 <= x < q and 0 <= b < q):
            raise InputError(f"arguments out of range for order {q}")
        return self.table[(a * q + x) * q + b]

    def at(self, a, x, b):
        """Unchecked lookup for hot loops."""
        return self.table[(a * self.q + x) * self.q + b]

    @cached_property
    def row_kinds(self):
        """Per b-row j = a*q + x, the index of the row (1, <ax+0>) when
        the two rows are equal, and j otherwise; row j and row
        row_kinds[j] hold the same q values.  A linear ring's rows all
        have one of the q kinds q..2q-1.  Each row is sliced, compared
        and dropped in turn, so no more than one of the q^2 slices is
        alive at a time."""
        q, t = self.q, self.table
        n = q ** 3
        heads = t[::q]  # <ax+0> per row j
        ones = [t[i:i + q] for i in range(q * q, 2 * q * q, q)]  # the rows (1, y)
        rows = map(t.__getitem__, map(slice, range(0, n, q), range(q, n + q, q)))
        same = map(eq, rows, map(ones.__getitem__, heads))
        return tuple([q + y if s else j for j, y, s in zip(range(q * q), heads, same)])

    def __repr__(self):
        return f"TernaryRing(q={self.q}, validated={self.validated})"


@dataclass
class AxiomReport:
    """Outcome of a complete axiom check: the axiom names in check
    order and the lexicographically first witness of each failed axiom.

    An axiom in `unchecked` fails without a witness, because a prerequisite
    failed (VW5 needs the subtraction that VW1 provides).
    """

    names: tuple
    witnesses: dict = field(default_factory=dict)
    unchecked: tuple = ()

    def record(self, name, sweep):
        """Keep the first witness that `sweep` yields for `name`, if any."""
        witness = next(sweep, None)
        if witness is not None:
            self.witnesses[name] = witness

    def flags(self):
        return {name: name not in self.witnesses and name not in self.unchecked
                for name in self.names}

    def passes(self, *names):
        """True iff every named axiom holds (all of them when none is named)."""
        flags = self.flags()
        return all(flags[name] for name in names or self.names)

    @property
    def all_pass(self):
        return self.passes()


TERNARY_AXIOMS = ("T1", "T2", "T3", "T4", "T5")


def _b_rows(T):
    """T's b-rows: rows[a*q + x] = (<ax+0>, ..., <ax+(q-1)>)."""
    q = T.q
    return [T.table[i:i + q] for i in range(0, q ** 3, q)]


def _t1_sweep(q, at):
    # T1: <1x+0> = <x1+0> = x
    for x in range(q):
        if at(1, x, 0) != x or at(x, 1, 0) != x:
            yield (x,)


def _t2_sweep(q, at):
    # T2: <a0+b> = <0a+b> = b
    for a in range(q):
        for b in range(q):
            if at(a, 0, b) != b or at(0, a, b) != b:
                yield (a, b)


def _t3_sweep(q, rows):
    # T3: for each (a, x, y) a unique b with <ax+b> = y, that is, every
    # b-row is a permutation; only a row that is not gets counted
    for i, row in enumerate(rows):
        if len(set(row)) != q:
            counts = [0] * q
            for y in row:
                counts[y] += 1
            a, x = divmod(i, q)
            yield from ((a, x, y) for y in range(q) if counts[y] != 1)


def _miscounted(q, cells, *prefix):
    """prefix + (i // q, i % q) for each i < q^2 that `cells` does not
    hold exactly once, in increasing i."""
    counts = [0] * (q * q)
    for i in cells:
        counts[i] += 1
    for i, count in enumerate(counts):
        if count != 1:
            yield (*prefix, i // q, i % q)


def _t4_cells(q, rows, a, a2):
    # b*q + b' once for each x with <ax+b> = <a'x+b'>
    for x in range(q):
        solve_b = [[] for _ in range(q)]
        for b2, y in enumerate(rows[a2 * q + x]):
            solve_b[y].append(b2)
        for b, y in enumerate(rows[a * q + x]):
            for b2 in solve_b[y]:
                yield b * q + b2


def _t4_sweep(q, rows):
    # T4: for a != a', each (b, b') admits a unique solution x of
    # <ax+b> = <a'x+b'>.  When the b-rows of a and a' are permutations,
    # the solutions at x are the pairs (b, b') = (row(a,x)^-1[y],
    # row(a',x)^-1[y]) over y, so T4 holds for the pair iff the q^2 cells
    # b*q + b' over (x, y) are distinct; only a pair that fails is
    # counted, for its witnesses
    preimages = []  # per a, the inverses of its b-rows end to end, or None
    for a in range(q):
        a_rows = rows[a * q:(a + 1) * q]
        inverses = (sorted(range(q), key=row.__getitem__) for row in a_rows)
        permuting = all(len(set(row)) == q for row in a_rows)
        preimages.append(tuple(chain.from_iterable(inverses)) if permuting else None)
    scaled = [pre and tuple(b * q for b in pre) for pre in preimages]
    for a in range(q):
        for a2 in range(q):
            if a2 == a:
                continue
            if (preimages[a] and preimages[a2]
                    and len(set(map(add, scaled[a], preimages[a2]))) == q * q):
                continue
            yield from _miscounted(q, _t4_cells(q, rows, a, a2), a, a2)


def _t5_sweep(q, rows):
    # T5: for x != x', each (y, y') comes from a unique pair (a, b), that
    # is, the q^2 cells <ax+b>*q + <ax'+b> over (a, b) are distinct
    cols = [tuple(chain.from_iterable(rows[x::q])) for x in range(q)]
    scaled = [tuple(y * q for y in col) for col in cols]
    for x in range(q):
        for x2 in range(q):
            if x2 != x and len(set(map(add, scaled[x], cols[x2]))) != q * q:
                yield from _miscounted(q, map(add, scaled[x], cols[x2]), x, x2)


def check_ternary_axioms(T):
    """Exhaustive check of the five ternary-ring axioms.

    Every axiom is always swept in full on any table: linear rings get no
    shortcut here, so the witnesses are those of the generic sweeps.  T3
    is decided per b-row, T4 per pair a != a' and T5 per pair x != x',
    each from whole rows in O(q^2), so T4 and T5 cost O(q^4) steps at C
    speed; only a row or pair that fails is counted entry by entry, to
    name its witnesses in lexicographic order.  T5 is checked even when
    T3 and T4 hold, so the finite-case implication (T3 and T4 => T5) can
    be cross-validated by callers.
    """
    report, rows = _t1_to_t4_report(T)
    report.record("T5", _t5_sweep(T.q, rows))
    return report


def _t1_to_t4_report(T):
    """The report of the T1-T4 sweeps, with T5 not yet swept, and T's
    b-rows for the T5 sweep."""
    q, at = T.q, T.at
    rows = _b_rows(T)
    report = AxiomReport(TERNARY_AXIOMS)
    report.record("T1", _t1_sweep(q, at))
    report.record("T2", _t2_sweep(q, at))
    report.record("T3", _t3_sweep(q, rows))
    report.record("T4", _t4_sweep(q, rows))
    return report, rows


def _is_linear(T):
    """True iff <ax+b> = <1<ax+0>+b> on all triples and <1y+0> = y."""
    q, t = T.q, T.table
    # the b-row of (a, x) must be the b-row of (1, <ax+0>)
    return (t[q * q:2 * q * q:q] == tuple(range(q))
            and T.row_kinds == tuple(map(add, t[::q], repeat(q))))


def validate(T):
    """Return a validated copy of T, or raise with the failing axioms.

    A linear ring (<ax+b> = <1<ax+0>+b>) whose addition y + b = <1y+b>
    is an abelian group satisfies T1-T5 exactly when the quasi-field
    Q = `from_ternary(T)` (a + b = <1a+b>, ab = <ab+0>) passes VW1, VW3,
    VW5 and VW5-r:
    - T1 and T2 are the identities 1x = x1 = x, 0x = x0 = 0 and
      x + 0 = 0 + x = x of VW3 (0 + b = <1*0+b> = b is T2 at a = 1).
    - T3 holds because b -> ax + b is a bijection of the group.
    - <ax+b> = <a'x+b'> iff ax - a'x = b' - b, so T4 holds iff
      x -> ax - a'x is a bijection for every a != a': that is VW5.
    - <ax+b> = y and <ax'+b> = y' iff b = y - ax and ax - ax' = y - y',
      so T5 holds iff a -> ax - ax' is a bijection for every x != x':
      that is VW5-r.
    Under VW1, VW5 and VW5-r pass or fail together (`quasifield` module
    docstring), so T1-T5 need only VW1, VW3 and VW5 of a linear ring, and
    those three sweeps are all that run: VW2, VW4 and VW4-r, which only
    the left and right axiom sets need, are not swept.
    Every other ring goes through the sweeps of `check_ternary_axioms`:
    a non-linear ring, one whose addition is not an abelian group (a
    linear ring with a non-abelian additive group, if one exists, among
    them), and one that fails VW3 or VW5.  T5 is swept only when T1-T4
    do not all pass, to name the failing axioms as that report does:
    T3 and T4 imply T5 for a finite ring.  For x != x', the q^2 pairs
    (a, b) map to the q^2 pairs (<ax+b>, <ax'+b>), and no two pairs
    (a, b) != (a', b') share an image: with a = a' that would be two b
    for one (a, x, y), against T3, and with a != a' two solutions x, x'
    of <ax+b> = <a'x+b'>, against T4.  So the map is a bijection, which
    is T5.
    """
    if T.validated:
        return T
    # imported here, not at the top: quasifield imports this module
    from .quasifield import from_ternary, passes_linear_ring_axioms
    Q = from_ternary(T)
    if Q is None or not passes_linear_ring_axioms(Q):
        report, rows = _t1_to_t4_report(T)
        if not report.all_pass:
            report.record("T5", _t5_sweep(T.q, rows))
            failing = [k for k, ok in report.flags().items() if not ok]
            raise InputError(f"ternary axioms fail: {', '.join(failing)}")
    return replace(T, validated=True)


# ---------------------------------------------------------------------------
# isomorphisms

def _pull_back(u, q, k, gather, unpull):
    """Row k of the table u pulled back through H: H⁻¹ ∘ row ∘ H, with
    gather = itemgetter(*H) and unpull the lookup of H⁻¹."""
    return tuple(map(unpull, gather(u[k * q:(k + 1) * q])))


def isotopism_failure(T, U, F, G, H):
    """First failing triple of the isotopism identity H(<ax+b>_T) =
    <F(a)G(x)+H(b)>_U, or None; an isomorphism σ is the case F = G = H = σ.

    F, G and H are bijections of the carrier.  The identity holds for all
    b exactly when T's b-row at (a, x) equals U's b-row at (F(a), G(x))
    pulled back through H, that is, H⁻¹ ∘ row ∘ H: apply H⁻¹ to both
    sides.  The two sides also differ at the same b, so the first entry
    where T and the pull-back differ is the first failing triple.  Rows
    with equal content have equal pull-backs, so each of U's `row_kinds`
    is pulled back at most once, when it is first needed, and a linear U
    (a field ring among them) costs q pull-backs of q entries.  Each
    a-block of q^2 entries of T is compared at once with the pulled rows
    of U at (F(a), G(x)) over x, end to end, and single entries are read
    only in a block that differs; a map that fails in its first block
    costs O(q^2) of the q^3.
    """
    q, t, u = T.q, T.table, U.table
    qq = q * q
    kinds = U.row_kinds
    gather, column = itemgetter(*H), itemgetter(*G)
    inv = [0] * q
    for v, w in enumerate(H):
        inv[w] = v
    unpull = inv.__getitem__
    pulled = {}  # kind -> its row pulled back through H
    for a, fa in enumerate(F):
        ks = column(kinds[fa * q:(fa + 1) * q])
        for k in set(ks).difference(pulled):
            pulled[k] = _pull_back(u, q, k, gather, unpull)
        left = t[a * qq:(a + 1) * qq]
        right = tuple(chain.from_iterable(map(pulled.__getitem__, ks)))
        if left != right:
            i = next(i for i in range(qq) if left[i] != right[i])
            return (a, i // q, i % q)
    return None


def is_isomorphism(T, U, perm):
    """True iff perm fixes 0 and 1 and commutes with the ternary operation."""
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    if len(perm) != T.q or sorted(perm) != list(range(T.q)):
        return False
    if perm[0] != 0 or perm[1] != 1:
        return False
    return isotopism_failure(T, U, perm, perm, perm) is None


def _left_orders(T):
    """Per element e, the left power order of e: the least k in 1..q with
    L_e^k(1) = 1, where L_e(x) = <ex+0>, or 0 when there is none.

    On a field ring it is the multiplicative order of e.  The values
    L_e^k(1) for k = 0..q are q + 1 values in a set of q, so two of them
    are equal and from there the sequence runs round one cycle of at most
    q values; if 1 ever recurs it lies on that cycle, the sequence is
    periodic from k = 0, and 1 recurs within q steps.  So q steps decide
    it, and the whole list costs O(q^2) lookups.
    """
    q = T.q
    heads = T.table[::q]  # heads[e*q + x] = <ex+0>
    steps = range(1, q + 1)
    orders = []
    for e in range(q):
        row, x = heads[e * q:(e + 1) * q], 1
        for k in steps:
            x = row[x]
            if x == 1:
                orders.append(k)
                break
        else:
            orders.append(0)
    return orders


def find_isomorphism(T, U):
    """The lexicographically least isomorphism T -> U, or None.

    A forcing search, pruned by the left power orders (`_left_orders`).
    An isomorphism σ fixes 0 and 1 and sends <ax+b> to <σa σx σb>, so
    σ(<ex+0>) = <σe σx+0>, that is σ∘L_e = L_σe∘σ, and σ(L_e^k(1)) =
    L_σe^k(1).  As σ is a bijection fixing 1, L_e^k(1) = 1 exactly when
    L_σe^k(1) = 1, so ord_T(e) = ord_U(σe) for every e.  Hence:
    - when the sorted order lists of T and U differ there is no
      isomorphism, and the answer is None at once;
    - a branch element e tries only the images w with ord_U(w) = ord_T(e).
    Each triple over the assigned elements is read once, when the last of
    them is assigned, and its value is assigned in turn; a clash (two
    images for one element, or one image for two) ends the node.  At the
    fixpoint it branches on the least unassigned element, images in
    increasing order, and verifies full maps with `isotopism_failure`,
    which pulls each of U's `row_kinds` back through the map at most
    once (q pull-backs when U is a field ring, whose index is built once
    per ring) and compares T with the pulled rows one a-block at a time.
    - Forcing and the order filter drop no extension: an isomorphism
      agreeing with a node's choices has each value they force, gives each
      branch element an image of its own order, meets no clash and
      reaches its own leaf, which passes; an exhausted tree, or a
      mismatch of the order lists, certifies "absent".
    - The first leaf that passes is the least isomorphism: two leaves
      part at a node's branch element e, the least unassigned element
      there, agreeing below e (assigned there), and the one visited
      first has the smaller image of e.  The filter only drops images,
      so it keeps the order in which the remaining leaves are visited.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q, t, u = T.q, T.table, U.table
    ord_t, ord_u = _left_orders(T), _left_orders(U)
    if sorted(ord_t) != sorted(ord_u):
        return None
    sigma, inv, order = [0, 1] + [-1] * (q - 2), [0, 1] + [-1] * (q - 2), [0, 1]

    def search(k):
        while k < len(order) < q:  # force from the k-th assigned element on
            e, done = order[k], order[:k + 1]
            for a in done:
                for x in done:
                    i, j = (a * q + x) * q, (sigma[a] * q + sigma[x]) * q
                    for b in (done if e in (a, x) else (e,)):
                        v, w = t[i + b], u[j + sigma[b]]
                        if sigma[v] != w:
                            if sigma[v] >= 0 or inv[w] >= 0:
                                return False
                            sigma[v], inv[w] = w, v
                            order.append(v)
            k += 1
        if len(order) == q:
            return isotopism_failure(T, U, sigma, sigma, sigma) is None
        e, k = sigma.index(-1), len(order)
        for img in [w for w in range(q) if inv[w] < 0 and ord_u[w] == ord_t[e]]:
            sigma[e], inv[img] = img, e
            order.append(e)
            if search(k):
                return True
            for v in order[k:]:
                inv[sigma[v]] = sigma[v] = -1
            del order[k:]
        return False

    found = search(0)
    del search  # its closure refers to it: free it now, not at a later GC
    return tuple(sigma) if found else None


# ---------------------------------------------------------------------------
# isotopisms

@dataclass(frozen=True)
class Isotopism:
    """Triple (F, G, H) of carrier bijections with H(0) = 0."""

    f: tuple
    g: tuple
    h: tuple


def _is_bijection(seq, q):
    return len(seq) == q and sorted(seq) == list(range(q))


def _times(T):
    """T's product rows: times[a][x] = <ax+0>."""
    q, t = T.q, T.table
    qq = q * q
    return [t[i:i + qq:q] for i in range(0, q * qq, qq)]


def _product_entries(T):
    """(a, x, <ax+0>) for a, x in 1..q-1: T's products, in the order in
    which `find_isotopism` tests them between linear rings.

    They are taken by the classes of (a + x) mod (q - 1), a increasing
    within a class; each class meets every a and every x once, so
    consecutive entries differ in both.  A candidate built from (f1, g1)
    that passes the filter <c c+0> = c holds on every entry with a = f1
    or x = g1 when the rings are linear and H is additive, and in
    lexicographic order it would pass the whole run of entries with a =
    f1 before failing: over the nine searches among the order-9 field,
    near-field and transposed rings, with the classifier stubbed to one
    verdict so that neither shortcut answers, this order tests 5,744
    entries, against 19,200 in (a, x) order.  The shortcuts answer six
    of those searches, and in the other three the first candidate
    verified is the isotopism, all 64 entries of it.
    """
    q, heads = T.q, T.table[::T.q]  # heads[a*q + x] = <ax+0>
    entries = []
    for s in range(q - 1):
        for a in range(1, q):
            x = (s - a) % (q - 1) or q - 1  # the x in 1..q-1 with a + x = s mod (q - 1)
            entries.append((a, x, heads[a * q + x]))
    return entries


def _products_hold(entries, times, F, G, H):
    """True iff H(<ax+0>_T) = <F(a)G(x)+0>_U for every entry (a, x,
    <ax+0>_T) of `entries` (`_product_entries(T)`), one lookup each, in
    their order; `times` is `_times(U)`.

    This is `find_isotopism`'s candidate test between linear rings, where
    it decides the identity on all q^3 triples (its docstring has the
    proof).  Between the order-9 Hall and dual Hall rings, with both
    shortcuts stubbed off (the distributive laws tell these rings apart
    before any candidate), the 384 candidates that pass the (f1, g1)
    filter, all rejected, take 0.08-0.12 ms here, against 0.42-0.66 ms
    b-row by b-row (`_identity_holds`) and 8.2 ms through
    `isotopism_failure` (best of 5 timeit runs in each of two processes,
    Python 3.11, 2-vCPU host)."""
    for a, x, y in entries:
        if H[y] != times[F[a]][G[x]]:
            return False
    return True


def _row_checks(T):
    """Per b-row of T, (a, x, itemgetter of the row): applied to H, it
    gives the row mapped through H.  The rows with a, x != 0 come first,
    in the order of `_product_entries`: on ternary rings the rows with
    a = 0 or x = 0 hold automatically, so bad candidates die fast in the
    others."""
    q, rows = T.q, _b_rows(T)
    order = [(a, x) for a, x, _ in _product_entries(T)]
    order += [(a, x) for a in range(q) for x in range(q) if not (a and x)]
    return [(a, x, itemgetter(*rows[a * q + x])) for a, x in order]


def _identity_holds(checks, urows, F, G, H):
    """True iff H(<ax+b>) = <F(a)G(x)+H(b)> on all triples: per (a, x),
    the b-row of T mapped through H must equal U's b-row at (F(a), G(x))
    gathered at H.  `checks` is `_row_checks(T)` and `urows` is
    `_b_rows(U)`.

    This, not `isotopism_failure`, is `find_isotopism`'s candidate test
    when T or U is not linear: its checks and rows are built once per
    search and most candidates fail in their first few rows, while the
    pull-back builds H⁻¹ and compares whole a-blocks."""
    q, gather = len(H), itemgetter(*H)
    for a, x, image in checks:
        if image(H) != gather(urows[F[a] * q + G[x]]):
            return False
    return True


def is_isotopism(T, U, iso):
    """True iff H(0)=0 and H(<ax+b>) = <F(a)G(x)+H(b)> on all triples."""
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q = T.q
    F, G, H = iso.f, iso.g, iso.h
    if not (_is_bijection(F, q) and _is_bijection(G, q) and _is_bijection(H, q)):
        return False
    if H[0] != 0:
        return False
    return isotopism_failure(T, U, F, G, H) is None


def _g_slice(T, f1):
    """<f1 x + 0> over x, a strided slice of T's table."""
    qq = T.q * T.q
    return T.table[f1 * qq:(f1 + 1) * qq:T.q]


def _f_slice(T, g1):
    """<a g1 + 0> over a, a strided slice of T's table."""
    return T.table[g1 * T.q::T.q * T.q]


def complete_isotopism(T, U, H, f_inv1, g_inv1):
    """Reconstruct (F, G, H) from H and the preimages of 1 under F and G.

    F(a) = H(<a g1 + 0>) and G(a) = H(<f1 a + 0>) where f1, g1 are the
    stated preimages; returns the verified triple, or None when F, G or
    H is no bijection or the identity fails.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    if not _is_bijection(H, T.q):
        return None
    if H[0] != 0:
        raise InputError("H must fix 0")
    F = tuple(map(H.__getitem__, _f_slice(T, g_inv1)))
    G = tuple(map(H.__getitem__, _g_slice(T, f_inv1)))
    if (_is_bijection(F, T.q) and _is_bijection(G, T.q)
            and isotopism_failure(T, U, F, G, H) is None):
        return Isotopism(F, G, H)
    return None


def _h_candidates(T, U, linear=None):
    """Every H with H(0) = 0 that an isotopism T -> U can have, in
    lexicographic order.  `linear` says whether T and U are both linear,
    when the caller has decided it already.

    H(1), H(2), ... are assigned in carrier order, images tried in
    increasing order.  When T and U are both linear, every isotopism has
    an additive H: with y + b = <1y+b>, setting b = 0 in the identity
    gives H(<ax+0>) = <F(a)G(x)+0>, so H(<ax+b>) = H(<ax+0>) + H(b), and
    every y is the product <1y+0>.  A partial H is then dropped as soon
    as it breaks H(y + b) = H(y) + H(b) on its assigned elements, and
    when e = y + b for some y, b < e, the image H(y) + H(b) that this
    forces is the only one tried for e: every other image breaks that
    sum, so the sequence is the same.  Any other pair is not pruned, and
    every H is yielded.
    """
    q = T.q
    qq = q * q
    if linear is None:
        linear = _is_linear(T) and _is_linear(U)
    # each sum y + b = v is checked when the last of y, b, v gets its
    # image; y + 0 = y holds in both linear rings and is left out
    sums = [[] for _ in range(q)]
    forced = [None] * q  # per e, one sum y + b = e with y, b < e
    if linear:
        t_plus = T.table[qq:2 * qq]  # t_plus[y*q + b] = <1y+b> in T
        for y in range(q):
            for b in range(1, q):
                v, last = t_plus[y * q + b], y if y > b else b
                if v > last:
                    last = v
                    if forced[v] is None:
                        forced[v] = (y, b)
                sums[last].append((y, b, v))
    plus = [U.table[i:i + q] for i in range(qq, 2 * qq, q)]  # plus[y][b] = <1y+b>
    H = [0] * q
    used = [True] + [False] * (q - 1)  # 0 is H(0)'s, and never an image of e > 0
    every = range(1, q)
    # a depth-first walk: untried[e - 1] holds the images still to try
    # at e, the deepest element assigned; `used` marks H(1), ..., H(e - 1)
    untried = [iter(every)]  # no sum forces 1
    while untried:
        e = len(untried)
        for img in untried[-1]:
            if used[img]:
                continue
            H[e] = img
            for y, b, v in sums[e]:
                if H[v] != plus[H[y]][H[b]]:
                    break
            else:
                break
        else:
            untried.pop()
            if e > 1:
                used[H[e - 1]] = False
            continue
        if e == q - 1:
            yield tuple(H)
        else:
            used[img] = True
            pair = forced[e + 1]
            untried.append(iter(every if pair is None else (plus[H[pair[0]]][H[pair[1]]],)))


def _distributive_laws(T):
    """(left, right) for a linear T: whether a(x+y) = ax + ay, and whether
    (x+y)a = xa + ya, on all of the carrier, with y + b = <1y+b> and
    ax = <ax+0>.

    Each law is swept by the quasi-field's VW4 (VW4-r) sweep on T's
    addition rows <1y+b> and product rows <ax+0>, up to its first
    witness only.
    """
    # imported here, not at the top: quasifield imports this module
    from .quasifield import _vw4_sweep, _vw4r_sweep
    q, t = T.q, T.table
    plus = [t[i:i + q] for i in range(q * q, 2 * q * q, q)]  # plus[y][b] = <1y+b>
    times = _times(T)
    return (next(_vw4_sweep(plus, times), None) is None,
            next(_vw4r_sweep(plus, times), None) is None)


def find_isotopism(T, U):
    """Isotopism search in lexicographic (H, f1, g1) order.

    Both rings are certified first (`validate`, at once for a validated
    ring), so a table that is no ternary ring raises `InputError` with
    its failing axioms.  Then:
    - **Desarguesian shortcut.**  When `collineation.classify_ternary`
      gives T and U different verdicts, the answer is None at once.
      Proof: an isotopism (F, G, H) maps the plane of T onto the plane
      of U by (x, y) -> (G(x), H(y)), since it takes the vertical x = x0
      to x = G(x0) and the graph y = <ax+b> to y = <F(a)x+H(b)>.  So
      isotopic rings coordinatize isomorphic planes.  A certified ring
      coordinatizes its own plane (at `canonical_frame`), and a plane is
      Desarguesian exactly when its coordinate rings are isomorphic to
      the field's ring, which the classifier decides: a coordinate ring
      of a Desarguesian plane is the linear ring of a skew field (Hall),
      a field since it is finite (Wedderburn), and there is one field of
      each order.  So an isotopism makes the two verdicts equal.
    - **Distributive laws.**  When both verdicts are "non-desarguesian"
      and both rings are linear, the answer is None at once unless T and
      U agree on each of the laws a(x+y) = ax + ay and (x+y)a = xa + ya
      (`_distributive_laws`).  Proof: let (F, G, H) be an isotopism.  H
      is additive (`_h_candidates`), and F(0) = G(0) = 0: the identity
      at (0, x, b) gives H(b) = F(0)G(x) + H(b) for every x, so
      F(0)G(x) = 0, and at G(x) = 1 that is F(0) = 0; likewise G(0) =
      0.  The identity at (1, x, 0) gives H = L_F(1)∘G and at (a, 1, 0)
      it gives H = R_G(1)∘F, where L_c: y -> cy and R_c: y -> yc in U
      are bijections for c != 0 (by T4 with a' = 0, and by T5 with x' =
      0 and y' = 0).  If U is left distributive, every L_c is additive,
      so G = L_F(1)⁻¹∘H is additive, and H(a(x+y)) = F(a)(G(x) + G(y))
      = H(ax) + H(ay) = H(ax + ay); H is injective, so T is left
      distributive.  The right law follows in the same way from F =
      R_G(1)⁻¹∘H, and the inverse (F⁻¹, G⁻¹, H⁻¹) is an isotopism U ->
      T, so each law holds in T exactly when it holds in U.  A
      Desarguesian pair is not compared: a field satisfies both laws.
    - **Candidates.**  The candidate H are those of `_h_candidates`: the
      additive bijections when both rings are linear
      (`<ax+b> = <1<ax+0>+b>` and `<1y+0> = y`), which every isotopism
      between such rings has, and all H with H(0) = 0 otherwise.  Each H
      determines G from f1, as G(x) = H(<f1 x+0>), and F from g1, as
      F(a) = H(<a g1+0>).  Since H is a bijection, G (F) is one exactly
      when its slice of T's table is, which on a ternary ring is exactly
      when f1 != 0 (g1 != 0): by T4 with a' = 0, each b' is <f1 x+0>
      for a unique x, as <0x+b'> = b' (T2); by T5 with x' = 0 and
      y' = 0, each y is <a g1+0> for a unique a, as <a0+b> = 0 forces
      b = 0 (T2); and by T2 both slices are constant 0 at f1 = 0 and
      g1 = 0.  So f1 and g1 run over 1..q-1.
    - **(f1, g1) filter.**  With c = H(<f1 g1+0>), which is F(f1) and
      G(g1) by the two definitions, the identity at (f1, g1, 0) reads
      c = <c c+0> in U (H(0) = 0).  A pair that breaks this fails the
      identity, so it is skipped unverified; no axiom is used.
    - **Candidate test.**  Every other candidate is verified, by a test
      chosen once per call.  When both rings are linear it is
      `_products_hold`: H(<ax+0>_T) = <F(a)G(x)+0>_U for a, x in
      1..q-1, one lookup per (a, x), in the order of `_product_entries`.
      Proof that this is the identity on all q^3 triples: the candidate
      H are additive (`_h_candidates`), H(y + b) = H(y) + H(b) with the
      additions <1y+b> of T and U.  Both rings are linear, so
      H(<ax+b>) = H(<ax+0> + b) = H(<ax+0>) + H(b) and <F(a)G(x)+H(b)>
      = <F(a)G(x)+0> + H(b); y -> y + c is a bijection of U (T4 with
      a = 1 and a' = 0, as <0y+c'> = c' by T2), so the identity at (a,
      x, b) holds exactly when it holds at (a, x, 0).  The entries with
      a = 0 or x = 0 hold: F(0) = H(<0 g1+0>) = H(0) = 0 and G(0) =
      H(<f1 0+0>) = 0 by T2, so both sides are 0 by T2.  Otherwise the
      test is `_identity_holds`, b-row by b-row on all q^3 triples.
      Both tests are exact and the candidates come in the same order, so
      the answer is the lexicographically first isotopism either way.
    "Absent" rests on the exhausted candidate space, or, when a shortcut
    answers, on its proof above.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q = T.q
    if q > ISOTOPISM_SEARCH_BOUND:
        raise SearchBoundExceeded(
            f"isotopism search supports q <= {ISOTOPISM_SEARCH_BOUND}")
    T, U = validate(T), validate(U)
    # imported here, not at the top: collineation imports this module
    from .collineation import classify_ternary
    verdict = classify_ternary(T).verdict
    if verdict != classify_ternary(U).verdict:
        return None
    linear = _is_linear(T) and _is_linear(U)
    if (verdict == "non-desarguesian" and linear
            and _distributive_laws(T) != _distributive_laws(U)):
        return None
    # the candidate test, chosen once: the q^2 products between linear
    # rings, the q^3 triples b-row by b-row otherwise
    if linear:
        holds = partial(_products_hold, _product_entries(T), _times(U))
    else:
        holds = partial(_identity_holds, _row_checks(T), _b_rows(U))
    # per f1 (g1), the map H -> G (F)
    g_picks = [(f1, itemgetter(*_g_slice(T, f1))) for f1 in range(1, q)]
    f_picks = [itemgetter(*_f_slice(T, g1)) for g1 in range(1, q)]
    u = U.table
    idempotent = [u[(c * q + c) * q] == c for c in range(q)]  # <c c+0> = c in U
    for H in _h_candidates(T, U, linear):
        Fs = [pick(H) for pick in f_picks]
        for f1, pick in g_picks:
            G = pick(H)
            for F in Fs:
                if idempotent[F[f1]] and holds(F, G, H):
                    return Isotopism(F, G, H)
    return None
