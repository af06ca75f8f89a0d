"""The pruned isotopism search agrees with the exhaustive references.

`find_isotopism` must return the same `Isotopism` (or None) as
`isotopism_reference.find_isotopism`, which tries every H with H(0) = 0.
The inputs are the found order-9 pairs, seeded relabellings of the field
rings of orders 2 to 8 and Hypothesis pairs of order 3 and 4: validated
rings and their transports, linear tables (pruned search) and arbitrary
tables (unpruned search).  A pair of tables that both satisfy T1-T5 must
get the reference's result, and any other pair `InputError` with the
failing axioms.  The absent order-9 pairs are left out there: that
reference needs about 7 s for each.  They are compared with
`isotopism_reference.additive_find_isotopism`, the search without the
Desarguesian shortcut and the (f1, g1) filter: every pair of validated
rings of order <= 9 that the constructions below give, found and absent.
With the classifier stubbed to one verdict, so that no shortcut can
answer, the search must still find each absent pair absent.  The
distributive laws that `find_isotopism` compares between non-Desarguesian
linear rings must be the quasi-field's VW4 and VW4-r flags, and the
comparison must answer exactly where the proof allows: every ordered pair
of order-9 coordinate rings gets the additive search's answer, and the
Hall against dual Hall pair verifies no candidate.  Each candidate is
tested by `_candidate_holds` on the entry list of `_candidate_entries`:
between linear rings the products <ax+0> with a, x != 0 alone, and that
list must pass or fail with the reference identity test
(`isotopism_reference._identity_holds`, all q^3 triples) on every
candidate the search reaches, over the order-9 coordinate rings and the
André rings of orders 16, 25 and 27 (the bound raised); a non-linear
pair is tested on all q entries of each b-row with a, x != 0.
"""

import functools
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import isotopism_reference as ref
from affplane import (ClassificationResult, CoordinateFrame, InputError,
                      TernaryRing, build_left, build_right, canonical_frame,
                      check_ternary_axioms, coordinatize, enumerate_phi,
                      find_isotopism, from_field, from_ternary, galois_subgroup,
                      make_field, opposite, plane_from_ternary,
                      spec_from_exponents, to_ternary)
from affplane import collineation, ternary
from affplane.ternary import _h_candidates
from tests_support import relabel_ring, swept_report

ORDER9 = ("field", "near-field", "transposed")


def _is_linear(T):
    q, at = T.q, T.at
    return all(at(1, y, 0) == y for y in range(q)) and all(
        at(a, x, b) == at(1, at(a, x, 0), b)
        for a, x, b in itertools.product(range(q), repeat=3))


def _is_additive(T, U, H):
    q = T.q
    return all(H[T.at(1, y, b)] == U.at(1, H[y], H[b])
               for y in range(q) for b in range(q))


def assert_agrees(T, U):
    """Equal results; a found H between linear rings is additive."""
    iso = find_isotopism(T, U)
    assert iso == ref.find_isotopism(T, U)
    if iso is not None and _is_linear(T) and _is_linear(U):
        assert _is_additive(T, U, iso.h)
    return iso


def assert_agrees_or_rejects(T, U):
    """Equal results when both tables satisfy T1-T5; otherwise
    `InputError` naming the failing axioms of the first table that fails."""
    reports = [check_ternary_axioms(R) for R in (T, U)]
    if all(report.all_pass for report in reports):
        assert_agrees(T, U)
        return
    flags = next(report.flags() for report in reports if not report.all_pass)
    failing = ", ".join(name for name, ok in flags.items() if not ok)
    with pytest.raises(InputError, match=f"^ternary axioms fail: {failing}$"):
        find_isotopism(T, U)


def _same_verdict(T):
    """A stub for `collineation.classify_ternary`: one verdict for every
    ring, "desarguesian", so that neither the Desarguesian shortcut nor
    the distributive-law comparison answers."""
    return ClassificationResult("desarguesian")


def _calls(monkeypatch, *names):
    """Record the arguments of each call of each named function of
    `ternary`: calls[name] lists them, one tuple per call."""
    calls = {name: [] for name in names}
    for name in names:
        def recorded(*args, _f=getattr(ternary, name), _args=calls[name]):
            _args.append(args)
            return _f(*args)
        monkeypatch.setattr(ternary, name, recorded)
    return calls


def _order9_coordinate_rings(count, seed):
    """Coordinate rings of the order-9 field, near-field and transposed
    near-field planes at `count` seeded unit points each, by plane."""
    K = make_field(3, 2)
    near = build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1)))
    sources = (from_field(K), near, opposite(near))
    rng = random.Random(seed)
    off_axes = [x * 9 + y for x in range(1, 9) for y in range(1, 9)]
    rings = {}
    for name, Q in zip(ORDER9, sources):
        P = plane_from_ternary(to_ternary(Q))
        frame = canonical_frame(P)
        rings[name] = [coordinatize(P, CoordinateFrame(frame.l, frame.m, z)).ring
                       for z in rng.sample(off_axes, count)]
    return rings


@pytest.fixture(scope="module")
def order9_rings():
    """The order-9 coordinate rings at two seeded unit points each."""
    return _order9_coordinate_rings(2, 9)


@pytest.fixture(scope="module")
def order9_named_rings():
    """(plane, ring) for the order-9 coordinate rings at three seeded unit
    points each."""
    return [(name, T) for name, rings in _order9_coordinate_rings(3, 10).items()
            for T in rings]


@pytest.mark.parametrize("name", ORDER9)
def test_found_order9_pairs_match_reference(order9_rings, name):
    T, U = order9_rings[name]
    assert _is_linear(T) and _is_linear(U)
    assert assert_agrees(T, U) is not None


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3)])
def test_relabelled_field_rings_match_reference(p, n):
    T = to_ternary(from_field(make_field(p, n)))
    rng = random.Random(p * 10 + n)
    for _ in range(2):
        rest = list(range(2, T.q))
        rng.shuffle(rest)
        U = relabel_ring(T, [0, 1] + rest)
        assert assert_agrees(T, U) is not None
        assert assert_agrees(U, T) is not None


@pytest.mark.parametrize("a, b", [(a, a) for a in ORDER9]
                         + list(itertools.combinations(ORDER9, 2)))
def test_pruned_candidates_are_the_additive_bijections(order9_rings, a, b):
    T, U = order9_rings[a][0], order9_rings[b][1]
    additive = [H for H in ((0,) + rest
                            for rest in itertools.permutations(range(1, 9)))
                if _is_additive(T, U, H)]
    assert len(additive) == 48  # |GL(2, 3)|
    assert list(_h_candidates(T, U, _is_linear(T) and _is_linear(U))) == additive


@st.composite
def arbitrary_tables(draw, q):
    """Arbitrary entries; half of the tables are made to satisfy T1 and T2."""
    entries = st.integers(0, q - 1)
    table = draw(st.lists(entries, min_size=q ** 3, max_size=q ** 3))
    if draw(st.booleans()):
        def index(a, x, b):
            return (a * q + x) * q + b
        for a in range(q):
            table[index(1, a, 0)] = table[index(a, 1, 0)] = a
            for b in range(q):
                table[index(a, 0, b)] = table[index(0, a, b)] = b
    return TernaryRing(q, tuple(table))


@st.composite
def linear_tables(draw, q):
    """<ax+b> = A(M(a, x), b) with arbitrary A and M, except that
    A(y, 0) = y and M(1, y) = y; half of the tables are made to satisfy
    T1 and T2 through A(0, b) = b, M(y, 1) = y and M(0, y) = M(y, 0) = 0."""
    entries = st.integers(0, q - 1)
    A = [draw(st.lists(entries, min_size=q, max_size=q)) for _ in range(q)]
    M = [draw(st.lists(entries, min_size=q, max_size=q)) for _ in range(q)]
    unital = draw(st.booleans())
    for y in range(q):
        A[y][0] = M[1][y] = y
        if unital:
            A[0][y] = M[y][1] = y
            M[0][y] = M[y][0] = 0
    return TernaryRing(q, tuple(A[M[a][x]][b] for a in range(q)
                                for x in range(q) for b in range(q)))


@functools.cache
def _field_plane(q):
    """The plane of GF(q), q = 3 or 4, built once."""
    p, n = {3: (3, 1), 4: (2, 2)}[q]
    return plane_from_ternary(to_ternary(from_field(make_field(p, n))))


@st.composite
def validated_tables(draw, q):
    """The plane of GF(q), q = 3 or 4, coordinatized at a drawn frame:
    every plane of these orders is that plane, so each drawn ring is a
    relabelling of the field's ring (Hall)."""
    P = _field_plane(q)
    l = draw(st.integers(0, len(P.lines) - 1))
    m = draw(st.sampled_from([li for li in range(len(P.lines))
                              if li != l and P.masks[l] & P.masks[li]]))
    off = P.masks[l] | P.masks[m]
    z = draw(st.sampled_from([p for p in range(P.n) if not off >> p & 1]))
    return coordinatize(P, CoordinateFrame(l, m, z)).ring


@st.composite
def ring_pairs(draw, tables):
    """(T, U): two drawn tables, T with itself, or T and its transport
    along a permutation fixing 0 (an isotope, linear or not when the
    permutation moves 1)."""
    q = draw(st.integers(3, 4))
    T = draw(tables(q))
    kind = draw(st.sampled_from(("independent", "same", "transported")))
    if kind == "independent":
        return T, draw(tables(q))
    if kind == "same":
        return T, T
    rest = draw(st.permutations(list(range(1, q))))
    return T, relabel_ring(T, [0] + rest)


@given(ring_pairs(validated_tables))
@settings(max_examples=200, deadline=None)
def test_validated_rings_and_their_transports_match_reference(pair):
    """A transport along a permutation that fixes 1 is a ring isomorphic
    to T; one that moves 1 breaks T1."""
    assert pair[0].validated
    assert_agrees_or_rejects(*pair)


@given(ring_pairs(arbitrary_tables))
@settings(max_examples=200, deadline=None)
def test_arbitrary_tables_match_reference(pair):
    assert_agrees_or_rejects(*pair)


@given(ring_pairs(linear_tables))
@settings(max_examples=200, deadline=None)
def test_linear_tables_match_reference(pair):
    assert _is_linear(pair[0])
    assert_agrees_or_rejects(*pair)


@st.composite
def product_tables(draw, q):
    """<ax+b> = A(M(a, x), b) with A(y, 0) = y and M arbitrary: linear in
    the row sense exactly where M(1, .) fixes the values of M, and then
    <1y+0> = M(1, y) may still differ from y."""
    entries = st.integers(0, q - 1)
    A = [draw(st.lists(entries, min_size=q, max_size=q)) for _ in range(q)]
    M = [draw(st.lists(entries, min_size=q, max_size=q)) for _ in range(q)]
    for y in range(q):
        A[y][0] = y
    return TernaryRing(q, tuple(A[M[a][x]][b] for a in range(q)
                                for x in range(q) for b in range(q)))


@given(st.integers(2, 4).flatmap(lambda q: st.one_of(
    linear_tables(q), arbitrary_tables(q), product_tables(q))))
@example(TernaryRing(2, (0, 1) * 4))
@settings(max_examples=200, deadline=None)
def test_from_ternary_answers_exactly_the_linear_tables(T):
    """`from_ternary` returns a quasi-field exactly when T is linear as the
    reference defines it, <1y+0> = y included: the q = 2 table whose
    b-rows are all (0, 1) has every row equal to the row (1, <ax+0>), but
    <1*1+0> = 0."""
    assert (from_ternary(T) is not None) == ref._is_linear(T)


@given(st.one_of(ring_pairs(linear_tables), ring_pairs(arbitrary_tables)))
@settings(max_examples=200, deadline=None)
def test_candidates_are_the_additive_bijections_or_all(pair):
    """The additive H in lexicographic order when both tables are linear,
    every H with H(0) = 0 otherwise."""
    T, U = pair
    linear = _is_linear(T) and _is_linear(U)
    every = [(0,) + rest for rest in itertools.permutations(range(1, T.q))]
    if linear:
        every = [H for H in every if _is_additive(T, U, H)]
    assert list(_h_candidates(T, U, linear)) == every


ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def _random_frame(P, rng, keep_axes):
    """A seeded frame: the canonical axes, or two seeded lines that meet,
    and a seeded unit point off both."""
    if keep_axes:
        frame = canonical_frame(P)
        l, m = frame.l, frame.m
    else:
        l = rng.randrange(len(P.lines))
        m = rng.choice([li for li in range(len(P.lines)) if P.masks[l] & P.masks[li]
                        and li != l])
    off = P.masks[l] | P.masks[m]
    return CoordinateFrame(l, m, rng.choice([p for p in range(P.n) if not off >> p & 1]))


def validated_rings(p, n):
    """The distinct validated rings of order p^n from: the field, every
    left and right André quasi-field over GF(p) and their transposes, and
    each of their planes coordinatized at two seeded frames.  At order 9
    the frames keep the canonical axes, so that every ring is linear: the
    additive search over a non-linear ring tries all 8! maps H."""
    K = make_field(p, n)
    sources = [from_field(K)]
    if n > 1:
        for spec in enumerate_phi(K, galois_subgroup(K, 1)):
            sources += [build_left(spec), build_right(spec)]
    rings = [to_ternary(R) for Q in sources for R in (Q, opposite(Q))]
    rng = random.Random(p ** n)
    for T in list(rings):
        P = plane_from_ternary(T)
        rings += [coordinatize(P, _random_frame(P, rng, p ** n == 9)).ring
                  for _ in range(2)]
    assert all(T.validated for T in rings)
    return list({T.table: T for T in rings}.values())


@pytest.mark.parametrize("p, n", ORDERS)
def test_every_pair_of_validated_rings_matches_the_additive_search(p, n, monkeypatch):
    rings = validated_rings(p, n)
    absent = []
    for T, U in itertools.product(rings, repeat=2):
        iso = find_isotopism(T, U)
        assert iso == ref.additive_find_isotopism(T, U)
        if iso is None:
            absent.append((T, U))
    # every plane of order <= 8 is Desarguesian; of order 9 three are built
    assert bool(absent) == (p ** n == 9)
    monkeypatch.setattr(collineation, "classify_ternary", _same_verdict)
    for T, U in absent:
        assert find_isotopism(T, U) is None


def test_shortcut_answers_between_the_field_and_the_near_field(monkeypatch):
    """The order-9 field ring and near-field ring get None with no
    candidate verified, validated or not; with the classifier stubbed to
    one verdict, the search verifies candidates."""
    K = make_field(3, 2)
    T = to_ternary(from_field(K))
    U = to_ternary(build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1))))
    verified = _calls(monkeypatch, "_candidate_holds")["_candidate_holds"]
    T2, U2 = replace(T, validated=False), replace(U, validated=False)
    for pair in ((T, U), (U, T), (T2, U), (T, U2), (U2, T2)):
        assert find_isotopism(*pair) is None
    assert not verified
    monkeypatch.setattr(collineation, "classify_ternary", _same_verdict)
    assert find_isotopism(T, U) is None
    assert verified


def test_hall_against_dual_hall_verifies_at_most_8_candidates_per_h(monkeypatch):
    """The (f1, g1) filter leaves at most q - 1 = 8 pairs of the 64 whose
    F and G are bijections, for each of the 48 additive H.  The classifier
    is stubbed to one verdict, so that neither shortcut answers."""
    K = make_field(3, 2)
    near = build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1)))
    T, U = to_ternary(near), to_ternary(opposite(near))
    calls = _calls(monkeypatch, "_candidate_holds")
    monkeypatch.setattr(collineation, "classify_ternary", _same_verdict)
    assert find_isotopism(T, U) is None
    verified = Counter(H for *_, H in calls["_candidate_holds"])
    assert len(list(_h_candidates(T, U, True))) == len(verified) == 48
    assert max(verified.values()) <= 8
    assert sum(verified.values()) <= 384


# ---------------------------------------------------------------------------
# the distributive laws: an isotopism invariant of linear rings

def test_every_pair_of_order9_coordinate_rings_matches_the_additive_search(
        order9_named_rings):
    """Every ordered pair of the field, near-field and transposed
    coordinate rings, found and absent: the answer of the search with no
    shortcut, and an isotopism exactly within one plane."""
    for (a, T), (b, U) in itertools.product(order9_named_rings, repeat=2):
        iso = find_isotopism(T, U)
        assert iso == ref.additive_find_isotopism(T, U)
        assert (iso is not None) == (a == b)


def test_distributive_laws_are_the_quasi_fields_vw4_flags(order9_named_rings):
    """(a(x+y) = ax + ay, (x+y)a = xa + ya) is the pair of VW4 and VW4-r
    flags of the quasi-field read off the ring, on the order-9 coordinate
    rings and the field and André rings of orders 16, 25 and 27."""
    rings = [T for _, T in order9_named_rings]
    for p, n, d in ((2, 4, 2), (5, 2, 1), (3, 3, 1)):
        K = make_field(p, n)
        for spec in enumerate_phi(K, galois_subgroup(K, d)):
            Q = build_left(spec)
            rings += [to_ternary(Q), to_ternary(opposite(Q))]
    seen = set()
    for T in rings:
        flags = swept_report(from_ternary(T)).flags()
        laws = ternary._distributive_laws(T)
        assert laws == (flags["VW4"], flags["VW4-r"])
        seen.add(laws)
    assert seen == {(True, True), (True, False), (False, True)}


def test_laws_are_compared_only_between_non_desarguesian_rings(
        order9_named_rings, monkeypatch):
    """Over every ordered pair of the order-9 coordinate rings, the laws
    are swept only when neither ring is a field plane's, and a near-field
    ring against a transposed one differs in both laws and gets None with
    no candidate verified."""
    distributive_laws = ternary._distributive_laws
    calls = _calls(monkeypatch, "_distributive_laws", "_candidate_holds")
    for (a, T), (b, U) in itertools.product(order9_named_rings, repeat=2):
        for recorded in calls.values():
            recorded.clear()
        iso = find_isotopism(T, U)
        laws = [distributive_laws(*args) for args in calls["_distributive_laws"]]
        compared = "field" not in (a, b)
        assert len(laws) == 2 * compared
        if compared and a != b:
            assert iso is None and not calls["_candidate_holds"]
            assert laws[0] != laws[1] and laws[0] == laws[1][::-1]


def test_hall_against_dual_hall_verifies_no_candidate(monkeypatch):
    """The near-field ring satisfies the left law only and its transpose
    the right law only, so neither search verifies a candidate."""
    K = make_field(3, 2)
    near = build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1)))
    T, U = to_ternary(near), to_ternary(opposite(near))
    calls = _calls(monkeypatch, "_candidate_holds")
    assert find_isotopism(T, U) is None and find_isotopism(U, T) is None
    assert not calls["_candidate_holds"]


def test_a_difference_in_either_law_answers_none(order9_rings, monkeypatch):
    """Two isotopic near-field rings, with `_distributive_laws` stubbed to
    tell them apart by the right law alone, then by the left law alone."""
    T, U = order9_rings["near-field"]
    assert find_isotopism(T, U) is not None
    for laws in (lambda R: (True, R is U), lambda R: (R is U, True)):
        monkeypatch.setattr(ternary, "_distributive_laws", laws)
        assert find_isotopism(T, U) is None


# ---------------------------------------------------------------------------
# the candidate test: one entry list per search

ANDRE_FIELDS = [(2, 4, 2), (5, 2, 1), (3, 3, 1)]  # orders 16, 25 and 27


def _andre_rings(p, n, d):
    """The rings of the left André quasi-fields of GF(p^n) over the field
    fixed by its Galois subgroup of order d (the field among them), and
    the rings of their transposes."""
    K = make_field(p, n)
    quasi_fields = [build_left(spec) for spec in enumerate_phi(K, galois_subgroup(K, d))]
    return [to_ternary(R) for Q in quasi_fields for R in (Q, opposite(Q))]


@pytest.mark.parametrize("p, n", ORDERS + [(2, 4)])
def test_products_and_rows_are_taken_by_classes_of_a_plus_x(p, n):
    """The entries (a, x, b, <ax+b>) with a, x != 0 come by (a + x) mod
    (q - 1), then a, then b: the products (b = 0) for a linear pair, all
    q entries of each b-row otherwise."""
    T = to_ternary(from_field(make_field(p, n)))
    q = T.q
    pairs = sorted(itertools.product(range(1, q), repeat=2),
                   key=lambda ax: ((ax[0] + ax[1]) % (q - 1), ax[0]))
    assert ternary._candidate_entries(T, True) == [(a, x, 0, T.at(a, x, 0))
                                                   for a, x in pairs]
    assert ternary._candidate_entries(T, False) == [(a, x, b, T.at(a, x, b))
                                                    for a, x in pairs for b in range(q)]


def _search_with_both_tests(monkeypatch, pairs):
    """`find_isotopism` on each pair, every candidate that reaches
    `_candidate_holds` also tested on all q^3 triples by the reference;
    asserts that the two tests agree and that the search tests the linear
    entry list, and returns each pair's answer and number of candidates
    tested, and the (passing, failing) counts over all pairs."""
    candidate_holds, outcomes, answers = ternary._candidate_holds, Counter(), []
    for T, U in pairs:
        linear_entries = ternary._candidate_entries(T, True)
        tested = []

        def both(entries, U, F, G, H):
            # the list is built once per search: compared at its first use
            assert tested or entries == linear_entries
            holds = candidate_holds(entries, U, F, G, H)
            assert holds == ref._identity_holds(T, U, F, G, H)
            outcomes[holds] += 1
            tested.append(H)
            return holds

        monkeypatch.setattr(ternary, "_candidate_holds", both)
        answers.append((find_isotopism(T, U), len(tested)))
    monkeypatch.setattr(ternary, "_candidate_holds", candidate_holds)
    return answers, outcomes


def test_products_agree_with_the_rows_on_every_order9_candidate(
        order9_named_rings, monkeypatch):
    """Every ordered pair of the order-9 coordinate rings, with the
    classifier stubbed to one verdict so that every pair is searched:
    each candidate tested passes or fails both tests, and the answers
    are the additive search's."""
    monkeypatch.setattr(collineation, "classify_ternary", _same_verdict)
    pairs = list(itertools.product([T for _, T in order9_named_rings], repeat=2))
    answers, outcomes = _search_with_both_tests(monkeypatch, pairs)
    assert [iso for iso, _ in answers] == [ref.additive_find_isotopism(*pair)
                                          for pair in pairs]
    assert outcomes[True] == sum(iso is not None for iso, _ in answers) == 27
    assert outcomes[False] > 10 ** 4


@pytest.mark.parametrize("p, n, d", ANDRE_FIELDS)
def test_products_agree_with_the_rows_between_andre_rings(p, n, d, monkeypatch):
    """Every ordered pair of the André rings of orders 16, 25 and 27, with
    the bound raised: each candidate tested passes or fails both tests,
    and each isotopism found is the additive search's.  At 25 only the
    left rings are paired, to keep the run short: 28 of their pairs are
    absent and searched to the end, 11,520 candidates each, all rejected
    by both tests (the additive search, which tries the same H in the
    same order, takes about a second on each)."""
    monkeypatch.setattr(ternary, "ISOTOPISM_SEARCH_BOUND", p ** n)
    monkeypatch.setattr(ref, "ISOTOPISM_SEARCH_BOUND", p ** n)
    rings = _andre_rings(p, n, d)
    pairs = list(itertools.product(rings[::2] if p ** n == 25 else rings, repeat=2))
    answers, outcomes = _search_with_both_tests(monkeypatch, pairs)
    found = [(pair, iso) for pair, (iso, _) in zip(pairs, answers) if iso is not None]
    assert outcomes[True] == len(found) and outcomes[False]
    assert all(ref.additive_find_isotopism(*pair) == iso for pair, iso in found)
    # at 16 and 27 a shortcut answers every absent pair
    exhausted = [tested for iso, tested in answers if iso is None and tested]
    assert exhausted == ([11520] * 28 if p ** n == 25 else [])


def test_linear_pairs_build_no_rows(order9_named_rings, monkeypatch):
    """Every ordered pair of the order-9 coordinate rings tests its
    candidates on the (q - 1)^2 = 64 products alone, entries with b = 0,
    and builds no b-rows; candidates are tested only between rings of one
    plane, since the shortcuts answer every other pair (the Hall and dual
    Hall rings, the near-field and transposed ones, by the distributive
    laws)."""
    for (a, T), (b, U) in itertools.product(order9_named_rings, repeat=2):
        calls = _calls(monkeypatch, "_b_rows", "_candidate_holds")
        iso = find_isotopism(T, U)
        tested = calls["_candidate_holds"]
        assert (iso is not None) == (a == b) == bool(tested)
        assert all(len(entries) == 64 and {entry[2] for entry in entries} == {0}
                   for entries, *_ in tested)
        assert not calls["_b_rows"]
        monkeypatch.undo()


def test_non_linear_pairs_test_b_rows(monkeypatch):
    """A non-linear coordinate ring of the transposed near-field plane of
    order 9, searched against itself, finds the identity at its first
    candidate, tested on all q = 9 entries of each b-row with a, x != 0."""
    K = make_field(3, 2)
    near = build_left(spec_from_exponents(K, galois_subgroup(K, 1), (0, 1)))
    P = plane_from_ternary(to_ternary(opposite(near)))
    T = coordinatize(P, _random_frame(P, random.Random(0), False)).ring
    assert not _is_linear(T)
    calls = _calls(monkeypatch, "_candidate_holds")
    identity = tuple(range(9))
    assert find_isotopism(T, T) == ternary.Isotopism(identity, identity, identity)
    [(entries, *_)] = calls["_candidate_holds"]
    assert sorted(entries) == [(a, x, b, T.at(a, x, b)) for a in range(1, 9)
                               for x in range(1, 9) for b in range(9)]
