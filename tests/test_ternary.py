import fnmatch
import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affplane import (LINEAR_RING_AXIOMS, CoordinateFrame, Isotopism,
                      TernaryRing, associativity_witness, build_left,
                      check_ternary_axioms, check_vw, classify_ternary,
                      canonical_frame, complete_isotopism, coordinatize,
                      enumerate_phi, find_isomorphism, find_isotopism,
                      from_field, from_ternary, galois_subgroup,
                      is_isomorphism, is_isotopism, isotopism_from_frames,
                      make_field, opposite, plane_from_ternary,
                      spec_from_exponents, to_ternary, validate)
from affplane import quasifield, ternary
from affplane.errors import InputError, SearchBoundExceeded
from affplane.ternary import isotopism_failure
from test_witnesses import cases as witness_cases
import ternary_reference


def mutate(T, a, x, b, value):
    table = list(T.table)
    table[(a * T.q + x) * T.q + b] = value
    return TernaryRing(T.q, tuple(table))


def test_field_rings_pass_axioms():
    for p, n in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
        T = to_ternary(from_field(make_field(p, n)))
        assert check_ternary_axioms(T).all_pass


def test_validate_round_trip(t3):
    assert t3.validated
    assert validate(t3) is t3


def test_eval_checks_range(t3):
    assert t3.eval(1, 2, 0) == 2
    with pytest.raises(InputError):
        t3.eval(3, 0, 0)


def test_constructor_rejects_bad_tables():
    with pytest.raises(InputError):
        TernaryRing(3, (0,) * 26)
    with pytest.raises(InputError):
        TernaryRing(3, (0,) * 26 + (3,))
    with pytest.raises(InputError):
        TernaryRing(1, (0,))


@pytest.mark.parametrize("value", [-1, 9])
@pytest.mark.parametrize("index", [0, 364, 728])
def test_range_is_scanned_unless_validated(andre9_ring, index, value):
    """An unvalidated ring with one entry out of range is rejected; a
    validated one is taken from a certified structure, not scanned."""
    table = andre9_ring.table[:index] + (value,) + andre9_ring.table[index + 1:]
    with pytest.raises(InputError, match="out of range"):
        TernaryRing(9, table)
    assert TernaryRing(9, table, validated=True).table == table


def test_mutations_trip_axioms_with_witnesses(t3):
    # break T1 at <1,1,0>
    bad = mutate(t3, 1, 1, 0, 0)
    report = check_ternary_axioms(bad)
    assert not report.passes("T1")
    assert report.witnesses["T1"] == (1,)
    # break T2 at <2,0,1>
    bad = mutate(t3, 2, 0, 1, 0)
    report = check_ternary_axioms(bad)
    assert not report.passes("T2")
    assert report.witnesses["T2"] == (2, 1)
    with pytest.raises(InputError):
        validate(bad)


def test_mutation_breaks_t3_uniqueness(t3):
    # duplicate a value within the b-row of (a, x) = (1, 1)
    value = t3.at(1, 1, 0)
    bad = mutate(t3, 1, 1, 1, value)
    report = check_ternary_axioms(bad)
    assert not report.passes("T3")
    assert report.witnesses["T3"][0:2] == (1, 1)


def test_t3_t4_imply_t5_over_mutation_sweep(t3):
    """Finite-case implication: any table where T3 and T4 hold also
    passes T5, checked across a sweep of single-entry corruptions."""
    for a, x, b in itertools.product(range(3), repeat=3):
        for v in range(3):
            report = check_ternary_axioms(mutate(t3, a, x, b, v))
            if report.passes("T3", "T4"):
                assert report.passes("T5")


# ---------------------------------------------------------------------------
# isomorphisms

def relabel(T, perm):
    inv = [0] * T.q
    for i, v in enumerate(perm):
        inv[v] = i
    table = [0] * T.q ** 3
    for a in range(T.q):
        for x in range(T.q):
            for b in range(T.q):
                table[(perm[a] * T.q + perm[x]) * T.q + perm[b]] = \
                    perm[T.at(a, x, b)]
    return TernaryRing(T.q, tuple(table))


def test_identity_is_isomorphism(t3):
    assert is_isomorphism(t3, t3, (0, 1, 2))
    assert find_isomorphism(t3, t3) == (0, 1, 2)


def test_isomorphism_must_fix_zero_one(t3):
    assert not is_isomorphism(t3, t3, (1, 0, 2))
    assert not is_isomorphism(t3, t3, (0, 2, 1))
    assert not is_isomorphism(t3, t3, (0, 1, 1))


def test_find_isomorphism_recovers_relabeling():
    T = to_ternary(from_field(make_field(2, 2)))
    perm = (0, 1, 3, 2)
    U = relabel(T, perm)
    found = find_isomorphism(T, U)
    assert found is not None
    assert is_isomorphism(T, U, found)


def test_find_isomorphism_returns_lexicographically_first():
    """GF(4) has two automorphisms (identity and squaring); the search
    must return the identity, which is lexicographically first."""
    T = to_ternary(from_field(make_field(2, 2)))
    assert find_isomorphism(T, T) == (0, 1, 2, 3)
    K = make_field(2, 2)
    frob = tuple(K.mul(x, x) for x in range(4))
    assert frob != (0, 1, 2, 3)
    assert is_isomorphism(T, T, frob)


def test_find_isomorphism_absent(t3, andre9_ring):
    T9 = to_ternary(from_field(make_field(3, 2)))
    assert find_isomorphism(andre9_ring, T9) is None
    with pytest.raises(InputError):
        find_isomorphism(t3, T9)


def test_find_isomorphism_verifies_every_leaf():
    """Two order-q tables that differ only at <0*0+1>.  At q = 2 the
    identity is the only map and is complete before forcing reads any
    triple, so the full check must reject it; at q = 3 forcing reads
    that triple and clashes."""
    for q in (2, 3):
        T = to_ternary(from_field(make_field(q, 1)))
        U = mutate(T, 0, 0, 1, 2 % q)
        identity = tuple(range(q))
        assert find_isomorphism(T, T) == identity
        assert not is_isomorphism(T, U, identity)
        assert find_isomorphism(T, U) is None
        assert find_isomorphism(U, T) is None
        assert find_isomorphism(U, U) == identity


def test_isomorphism_failure_is_the_first_failing_triple():
    """The row-level check, with F = G = H = the map, returns the first
    (a, x, b) of the definition of an isomorphism."""
    rng = random.Random(7)
    for q in (2, 3, 4, 5):
        for _ in range(100):
            T = TernaryRing(q, tuple(rng.randrange(q) for _ in range(q ** 3)))
            perm = [0, 1] + rng.sample(range(2, q), q - 2)
            U = relabel(T, perm)
            assert isotopism_failure(T, U, perm, perm, perm) is None
            table = list(U.table)
            for _ in range(rng.randrange(1, 4)):
                table[rng.randrange(q ** 3)] = rng.randrange(q)
            U = TernaryRing(q, tuple(table))
            first = next(((a, x, b) for a in range(q) for x in range(q)
                          for b in range(q)
                          if perm[T.at(a, x, b)] != U.at(perm[a], perm[x], perm[b])),
                         None)
            assert isotopism_failure(T, U, perm, perm, perm) == first


@pytest.mark.parametrize("p, n, d, exponents", [
    (5, 2, 1, (0, 1, 0, 1)),
    (3, 3, 1, (0, 1)),
    (7, 2, 1, (0, 1, 0, 0, 0, 1)),
    (2, 6, 2, (0, 1, 0)),
], ids=["q25", "q27", "q49", "q64"])
def test_classification_above_order_16(p, n, d, exponents):
    """The isomorphism search has no order bound: at q = 25, 27, 49 and
    64 a seeded relabelling of the field ring classifies as desarguesian
    with a certificate that verifies, and the ring of a left André
    quasi-field with phi != 0 as non-desarguesian by an exhausted search."""
    K = make_field(p, n)
    field = to_ternary(from_field(K))
    rng = random.Random(K.q)
    U = relabel(field, [0, 1] + rng.sample(range(2, K.q), K.q - 2))
    result = classify_ternary(U)
    assert result.verdict == "desarguesian"
    assert is_isomorphism(U, field, result.isomorphism)
    T = to_ternary(build_left(spec_from_exponents(K, galois_subgroup(K, d), exponents)))
    result = classify_ternary(T)
    assert (result.verdict, result.reason) == ("non-desarguesian", "search-exhausted")


# ---------------------------------------------------------------------------
# isotopisms

def _first_isotopism_failure(T, U, iso):
    """The first (a, x, b) with H(<ax+b>_T) != <F(a)G(x)+H(b)>_U, by a
    scan of all q^3 triples, or None."""
    q, (F, G, H) = T.q, (iso.f, iso.g, iso.h)
    return next(((a, x, b) for a in range(q) for x in range(q) for b in range(q)
                 if H[T.at(a, x, b)] != U.at(F[a], G[x], H[b])), None)


def test_isotopism_failure_is_the_first_failing_triple_of_the_scan(k9, andre9):
    """Isotopisms with F, G and H pairwise distinct, between coordinate
    rings of the order-9 field, near-field and dual near-field planes at
    two frames that share both axes: found, and with one entry of either
    ring changed at seeded entries."""
    rng = random.Random(9)
    checked = 0
    for T in (to_ternary(from_field(k9)), to_ternary(andre9), to_ternary(opposite(andre9))):
        P = plane_from_ternary(T)
        frame = canonical_frame(P)
        on = P.masks[frame.l] | P.masks[frame.m]
        for z in range(frame.z + 1, P.n):
            if on >> z & 1:
                continue
            other = CoordinateFrame(frame.l, frame.m, z)
            iso = isotopism_from_frames(P, frame, other)
            if len({iso.f, iso.g, iso.h}) < 3:
                continue
            U = coordinatize(P, other).ring
            assert isotopism_failure(T, U, iso.f, iso.g, iso.h) is None
            assert is_isotopism(T, U, iso)
            for i in rng.sample(range(729), 6):
                shift = rng.randrange(1, 9)
                bad_t = mutate(T, *_triple(i, 9), (T.table[i] + shift) % 9)
                bad_u = mutate(U, *_triple(i, 9), (U.table[i] + shift) % 9)
                for A, B in ((bad_t, U), (T, bad_u)):
                    first = _first_isotopism_failure(A, B, iso)
                    assert first is not None
                    assert isotopism_failure(A, B, iso.f, iso.g, iso.h) == first
            checked += 1
            if checked % 4 == 0:
                break
    assert checked == 12


def _triple(i, q):
    """The (a, x, b) of flat index i."""
    return i // (q * q), i // q % q, i % q


def test_identity_isotopism(t3):
    ident = Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))
    assert is_isotopism(t3, t3, ident)


def test_isotopism_requires_h_fixing_zero(t3):
    assert not is_isotopism(t3, t3, Isotopism((0, 1, 2), (0, 1, 2), (1, 0, 2)))
    assert not is_isotopism(t3, t3, Isotopism((0, 1, 1), (0, 1, 2), (0, 1, 2)))


def test_find_isotopism_identity_first(t3):
    iso = find_isotopism(t3, t3)
    assert iso == Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))


def test_find_isotopism_on_relabeled_ring():
    T = to_ternary(from_field(make_field(5, 1)))
    U = relabel(T, (0, 1, 3, 2, 4))
    iso = find_isotopism(T, U)
    assert iso is not None
    assert is_isotopism(T, U, iso)


def test_complete_isotopism_reconstruction(t3):
    K = make_field(3, 1)
    # scale the carrier by 2: an isotopism of the field ring with itself
    F = tuple(K.mul(2, a) for a in range(3))
    H = F
    G = (0, 1, 2)
    iso = Isotopism(F, G, H)
    assert is_isotopism(t3, t3, iso)
    rebuilt = complete_isotopism(t3, t3, H, F.index(1), G.index(1))
    assert rebuilt == iso


@pytest.mark.parametrize("call", [
    lambda T, U: is_isomorphism(T, U, (0, 1, 2)),
    lambda T, U: is_isotopism(T, U, Isotopism((0, 1, 2), (0, 1, 2), (0, 1, 2))),
    lambda T, U: complete_isotopism(T, U, (0, 1, 2), 1, 1),
    lambda T, U: find_isotopism(T, U),
], ids=["is_isomorphism", "is_isotopism", "complete_isotopism", "find_isotopism"])
def test_maps_between_carriers_of_different_sizes_are_rejected(t3, k4, call):
    with pytest.raises(InputError, match="^carrier sizes differ$"):
        call(t3, to_ternary(from_field(k4)))


def test_complete_isotopism_rejects_bad_h(t3):
    with pytest.raises(InputError):
        complete_isotopism(t3, t3, (1, 0, 2), 0, 0)


@pytest.mark.parametrize("f_inv1,g_inv1", [(-2, 1), (3, 1), (1, -1), (1, 3)])
def test_complete_isotopism_rejects_preimages_out_of_range(t3, f_inv1, g_inv1):
    """A preimage of 1 outside 0..q-1 raises; -2 would read row q - 2
    from the end, and 3 would give None."""
    with pytest.raises(InputError, match=r"^preimages of 1 must lie in 0\.\.q-1$"):
        complete_isotopism(t3, t3, (0, 1, 2), f_inv1, g_inv1)


@pytest.mark.parametrize("H", [(), (0,), (0, 1), (0, 1, 2, 0), (0, 1, 1), (0, 1, 3)])
def test_complete_isotopism_returns_none_for_an_h_that_is_no_bijection(t3, H):
    assert complete_isotopism(t3, t3, H, 1, 1) is None


def test_find_isotopism_absent_between_order_9_planes(k9, andre9):
    """The Desarguesian, Hall and dual Hall planes of order 9 are pairwise
    non-isomorphic, so no two of their coordinate rings are isotopic."""
    rings = (to_ternary(from_field(k9)), to_ternary(andre9),
             to_ternary(opposite(andre9)))
    for T, U in itertools.combinations(rings, 2):
        assert find_isotopism(T, U) is None


def test_isotopism_bound():
    T = to_ternary(from_field(make_field(2, 4)))
    with pytest.raises(SearchBoundExceeded):
        find_isotopism(T, T)


def test_searches_leave_no_reference_cycles(k9, andre9):
    """With the cyclic collector off, a search frees everything it made
    by reference counting alone, found or absent."""
    field, near = to_ternary(from_field(k9)), to_ternary(andre9)
    gc.collect()
    gc.disable()
    try:
        for search, T, U in ((find_isotopism, near, near),
                             (find_isotopism, near, to_ternary(opposite(andre9))),
                             (find_isomorphism, relabel(field, (0, 1, 3, 2, 4, 5, 6, 8, 7)), field),
                             (find_isomorphism, near, field)):
            search(T, U)
            assert gc.collect() == 0, search.__name__
    finally:
        gc.enable()


@given(st.permutations(list(range(1, 3))))
@settings(max_examples=10, deadline=None)
def test_h_permutation_isotopism_verification_matches_definition(rest):
    """Any verified triple satisfies the defining identity on every
    triple, re-checked directly."""
    T = to_ternary(from_field(make_field(3, 1)))
    H = (0,) + tuple(rest)
    iso = complete_isotopism(T, T, H, 0, 0)
    if iso is not None:
        for a in range(3):
            for x in range(3):
                for b in range(3):
                    assert iso.h[T.at(a, x, b)] == \
                        T.at(iso.f[a], iso.g[x], iso.h[b])


# ---------------------------------------------------------------------------
# the O(q^3) certificate of linear rings in `validate`: the VW report of
# the quasi-field `from_ternary` reads off the ring

def linear_ring(add, mul, q):
    """The unvalidated table <ax+b> = ax + b of flat addition and
    multiplication tables."""
    return TernaryRing(q, tuple(add[mul[a * q + x] * q + b] for a in range(q)
                                for x in range(q) for b in range(q)))


def left_quasifields(max_q):
    """Every field and every left André quasi-field of order <= max_q."""
    for p in (2, 3, 5, 7, 11, 13):
        for n in itertools.count(1):
            if p ** n > max_q:
                break
            K = make_field(p, n)
            yield from_field(K)
            for d in range(1, n):
                if n % d == 0:
                    yield from (build_left(spec) for spec in
                                enumerate_phi(K, galois_subgroup(K, d)))


def vw_route(T):
    """The VW report of T's quasi-field, or None when T is not linear."""
    Q = from_ternary(T)
    return None if Q is None else check_vw(Q)


def assert_validate_agrees(T):
    """The VW route accepts only rings the full sweeps accept, and agrees
    with them whenever VW1 holds; `validate` accepts or raises exactly as
    the full sweeps dictate.  Returns the route's verdict, or None when
    it does not apply: T is not linear, or its addition is not an abelian
    group."""
    report = check_ternary_axioms(T)
    vw = vw_route(T)
    if vw is not None and vw.passes(*LINEAR_RING_AXIOMS):
        assert report.all_pass
    verdict = None
    if vw is not None and vw.passes("VW1"):
        verdict = vw.passes(*LINEAR_RING_AXIOMS)
        assert verdict == report.all_pass
    if report.all_pass:
        assert validate(T).validated
    else:
        failing = ", ".join(k for k, ok in report.flags().items() if not ok)
        with pytest.raises(InputError) as err:
            validate(T)
        assert str(err.value) == f"ternary axioms fail: {failing}"
    return verdict


def test_quasifield_rings_take_the_shortcut():
    seen = 0
    for Q in left_quasifields(16):
        for R in (Q, opposite(Q)):
            T = linear_ring(R.add_table, R.mul_table, R.q)
            assert assert_validate_agrees(T) is True
            seen += 1
    assert seen == 38


def test_seeded_ternary_mutants_agree():
    for case, (_, subject) in witness_cases().items():
        if case.startswith("ternary/"):
            assert_validate_agrees(subject)


@pytest.mark.parametrize("p", [2, 5])
def test_row_swaps_agree(p):
    """Swapping two b-rows of <ax+.> with a != 1 keeps the ring linear
    with the same addition, so the VW route applies; it accepts and
    rejects."""
    K = make_field(p, 2 if p == 2 else 1)
    q = K.q
    table = linear_ring(K.add_table, K.mul_table, q).table
    movable = [i for i in range(q * q) if i // q != 1]
    verdicts = set()
    for r, s in itertools.combinations(movable, 2):
        rows = [table[i * q:(i + 1) * q] for i in range(q * q)]
        rows[r], rows[s] = rows[s], rows[r]
        verdicts.add(assert_validate_agrees(
            TernaryRing(q, tuple(itertools.chain(*rows)))))
    assert verdicts == {True, False}


def test_zero_times_x_failure_agrees():
    """A linear ring over GF(4)'s addition whose only failing axiom is
    <0x+b> = b (0*2 = 0*3 = 1): T1, T3, T4 and T5 hold, so on the VW
    route only VW3 (0x = 0) can reject it."""
    K = make_field(2, 2)
    mul = (0, 0, 1, 1,
           0, 1, 2, 3,
           0, 2, 0, 2,
           0, 3, 3, 0)
    T = linear_ring(K.add_table, mul, 4)
    assert check_ternary_axioms(T).witnesses == {"T2": (2, 0)}
    assert assert_validate_agrees(T) is False


def test_affine_multiplications_agree():
    """<ax+b> = u(a)x + v(a) + b over GF(4), for every permutation u
    fixing 1 and every v with v(1) = 0: linear with the field's addition,
    T4 and T5 hold, and T1 or T2 fail alone for some (u, v)."""
    K = make_field(2, 2)
    q = K.q
    failing = set()
    for rest in itertools.permutations((0, 2, 3)):
        u = (rest[0], 1) + rest[1:]
        for w in itertools.product(range(q), repeat=q - 1):
            v = (w[0], 0) + w[1:]
            mul = [K.add(K.mul(u[a], x), v[a]) for a in range(q)
                   for x in range(q)]
            T = linear_ring(K.add_table, mul, q)
            assert assert_validate_agrees(T) is not None
            flags = check_ternary_axioms(T).flags()
            failing.add(tuple(k for k, ok in flags.items() if not ok))
    assert {(), ("T1",), ("T2",)} <= failing


def loops(q):
    """Every flat addition table on {0..q-1} with identity 0 whose rows
    and columns are permutations, in lexicographic order."""
    def extend(rows):
        if len(rows) == q:
            yield tuple(itertools.chain(*rows))
            return
        y = len(rows)
        for rest in itertools.permutations([v for v in range(q) if v != y]):
            row = (y,) + rest
            if all(row[c] != r[c] for r in rows for c in range(1, q)):
                yield from extend(rows + [row])
    return extend([tuple(range(q))])


def test_loop_additions_agree():
    """The field multiplication of GF(5) over each of the 56 loops of
    order 5: the VW route applies only to the 6 groups among them (every
    group of order 5 is abelian)."""
    K = make_field(5, 1)
    verdicts = [assert_validate_agrees(linear_ring(add, K.mul_table, 5))
                for add in loops(5)]
    assert len(verdicts) == 56
    assert verdicts.count(None) == 50


@st.composite
def mutated_linear_rings(draw):
    """A field ring of order 3-5 with one entry changed, two b-rows of
    <ax+.> swapped, or one entry of its addition changed."""
    K = make_field(*draw(st.sampled_from([(3, 1), (2, 2), (5, 1)])))
    q = K.q
    cell = st.integers(0, q - 1)
    kind = draw(st.sampled_from(["entry", "rows", "addition"]))
    if kind == "addition":
        add = list(K.add_table)
        add[draw(st.integers(0, q * q - 1))] = draw(cell)
        return linear_ring(add, K.mul_table, q)
    table = list(linear_ring(K.add_table, K.mul_table, q).table)
    if kind == "entry":
        table[draw(st.integers(0, q ** 3 - 1))] = draw(cell)
    else:
        r, s = (draw(st.integers(0, q * q - 1)) * q for _ in range(2))
        table[r:r + q], table[s:s + q] = table[s:s + q], table[r:r + q]
    return TernaryRing(q, tuple(table))


@given(mutated_linear_rings())
@settings(max_examples=200, deadline=None)
def test_mutated_linear_rings_agree(T):
    assert_validate_agrees(T)


def test_validate_takes_the_shortcut_and_falls_back(monkeypatch):
    K = make_field(3, 3)
    spec = enumerate_phi(K, galois_subgroup(K, 1))[-1]
    Q = build_left(spec)
    assert associativity_witness(Q) is not None
    check_vw(Q)

    def refuse(*args):
        raise AssertionError("a sweep runs")

    # to_ternary marks the ring validated from Q's kept report
    with monkeypatch.context() as m:
        for module, pattern in ((ternary, "_t*_sweep"), (quasifield, "_vw*_sweep")):
            for name in fnmatch.filter(dir(module), pattern):
                m.setattr(module, name, refuse)
        m.setattr(ternary, "check_ternary_axioms", refuse)
        assert to_ternary(Q).validated
    # validate certifies the same, unvalidated, table through the VW
    # report of its quasi-field; T3 follows from the additive group
    T = TernaryRing(Q.q, to_ternary(Q).table)
    with monkeypatch.context() as m:
        m.setattr(ternary, "check_ternary_axioms", refuse)
        m.setattr(ternary, "_t3_sweep", refuse)
        assert validate(T).validated

    # swapping the rows of <2x+.> at x = 2 and x = 3 breaks T4 and T5
    calls = []
    t1_to_t4_report = ternary._t1_to_t4_report

    def spy(T):
        calls.append(T)
        return t1_to_t4_report(T)

    monkeypatch.setattr(ternary, "_t1_to_t4_report", spy)
    K5 = make_field(5, 1)
    table = list(linear_ring(K5.add_table, K5.mul_table, 5).table)
    r, s = (2 * 5 + 2) * 5, (2 * 5 + 3) * 5
    table[r:r + 5], table[s:s + 5] = table[s:s + 5], table[r:r + 5]
    T = TernaryRing(5, tuple(table))
    vw = vw_route(T)
    assert vw.passes("VW1") and not vw.passes(*LINEAR_RING_AXIOMS)
    with pytest.raises(InputError, match=r"^ternary axioms fail: T4, T5$"):
        validate(T)
    assert calls == [T]


def test_validate_sweeps_t5_only_when_t1_to_t4_fail(monkeypatch, andre9):
    """A non-linear ring that passes T1-T4 is validated without the T5
    sweep, which T3 and T4 make redundant; one that fails T3 gets the
    message of the full report, T5 included."""
    P = plane_from_ternary(to_ternary(opposite(andre9)))
    m = next(li for li in range(1, len(P.lines)) if P.masks[0] & P.masks[li])
    ring = coordinatize(P, CoordinateFrame(0, m, 80)).ring
    T = TernaryRing(ring.q, ring.table)
    assert from_ternary(T) is None  # not linear: the generic path
    broken = mutate(T, 2, 3, 4, T.at(2, 3, 5))  # two b for one y: T3 fails
    report = check_ternary_axioms(broken)
    assert not report.passes("T3") and not report.passes("T5")
    failing = [k for k, ok in report.flags().items() if not ok]

    def refuse(*args):
        raise AssertionError("T5 swept")

    monkeypatch.setattr(ternary, "_t5_sweep", refuse)
    assert validate(T).validated
    with pytest.raises(AssertionError, match="T5 swept"):
        validate(broken)
    monkeypatch.undo()
    with pytest.raises(InputError) as raised:
        validate(broken)
    assert str(raised.value) == f"ternary axioms fail: {', '.join(failing)}"


LINEAR_RINGS_9 = [linear_ring(R.add_table, R.mul_table, R.q)
                  for Q in left_quasifields(9) for R in (Q, opposite(Q))]


def test_validate_reads_the_vw_report(monkeypatch):
    """A fresh linear ring is certified by the `check_vw` report of its
    quasi-field `from_ternary(T)` passing `LINEAR_RING_AXIOMS`, with no
    T-sweep."""
    def refuse(*args):
        raise AssertionError("a T-sweep runs")

    read = []
    check_vw = quasifield.check_vw
    monkeypatch.setattr(quasifield, "check_vw",
                        lambda Q: read.append(Q) or check_vw(Q))
    for name in fnmatch.filter(dir(ternary), "_t*_sweep"):
        monkeypatch.setattr(ternary, name, refuse)
    monkeypatch.setattr(ternary, "check_ternary_axioms", refuse)
    for T in LINEAR_RINGS_9:
        read.clear()
        assert validate(T).validated
        assert read == [from_ternary(T)]
        assert read[0].vw_report.passes(*LINEAR_RING_AXIOMS)


def _verdict(validate_fn, T):
    try:
        return validate_fn(T)
    except InputError as exc:
        return str(exc)


@given(st.sampled_from(LINEAR_RINGS_9), st.data())
@settings(max_examples=300, deadline=None)
def test_corruptions_match_the_full_report(T, data):
    """Every linear ring of order <= 9 with one entry changed, or with two
    b-rows of <ax+.> (a != 1) swapped, which keeps it linear: `validate`
    accepts, or raises the same text, exactly as the version that checked
    all seven VW axioms."""
    q = T.q
    table = list(T.table)
    if data.draw(st.booleans()):
        table[data.draw(st.integers(0, q ** 3 - 1))] = data.draw(st.integers(0, q - 1))
    else:
        rows = st.sampled_from([i for i in range(q * q) if i // q != 1])
        r, s = (data.draw(rows) * q for _ in range(2))
        table[r:r + q], table[s:s + q] = table[s:s + q], table[r:r + q]
    U = TernaryRing(q, tuple(table))
    assert _verdict(validate, U) == _verdict(ternary_reference.validate, U)
