"""The row-level quasi-field sweeps against the entry-by-entry ones.

`quasifield_reference` keeps the sweeps, `check_vw`,
`associativity_witness`, `check_vector_space` and `to_ternary` as they
were before the sweeps compared whole table rows.  Both versions must
yield the same witnesses in the same order, give the same report, the
same associativity witness and vector-space verdict, and build the same
ternary table, on every field and André build of order <= 27 (left,
right and opposite), on every single-entry change of the tables at
q <= 5, and on Hypothesis corruptions at q = 8, 9 and 16.

Under VW1, VW5 and VW5-r pass or fail together, and `check_vw` sweeps
VW5-r only when VW5 fails (`quasifield` module docstring).  So the
multiplication is also corrupted alone, over the addition of a field or
André build, by single entries and by swapped rows and columns, which
keep VW5: the VW5 sweep must find a witness over the rows exactly when
it finds one over the columns, and the report must still equal the
reference's, VW5-r witness included.

`build_left` and `build_right` keep a report proved by André's theorem,
with one distributive law swept: it must equal the reference's too.  They
also keep a proved vector-space verdict over their fixed field and
whether they are associative, which `check_vector_space` and
`associativity_witness` return without a sweep: at orders 32 to 81 these
must equal the reference sweeps as well, and any other input must be
swept.
"""

import functools
from dataclasses import replace
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quasifield_reference as ref
from affplane import (QuasiField, associativity_witness, build_left,
                      build_right, check_vector_space, check_vw,
                      enumerate_phi, fixed_field, from_field, galois_subgroup,
                      make_field, opposite, predicts_associative,
                      predicts_right_distributive, spec_from_exponents,
                      to_ternary)
from affplane import quasifield as qf
from affplane.errors import InputError
from tests_support import swept_report

field = functools.cache(make_field)


def _sequences(Q):
    """axiom -> every witness the new sweeps yield, and the same from the
    reference sweeps; VW5 and VW5-r only when VW1 holds."""
    q, add_flat = Q.q, Q.add_table
    add, mul = qf._rows(add_flat, q), qf._rows(Q.mul_table, q)
    cols = list(zip(*mul))
    new = {"VW1": qf._vw1_sweep(add), "VW2": qf._vw2_sweep(mul, cols),
           "VW3": qf._vw3_sweep(add, mul), "VW4": qf._vw4_sweep(add, mul),
           "VW4-r": qf._vw4r_sweep(add, mul)}
    old = {"VW1": ref._vw1_sweep(q, Q.add), "VW2": ref._vw2_sweep(q, Q.mul),
           "VW3": ref._vw3_sweep(q, Q.add, Q.mul),
           "VW4": ref._vw4_sweep(q, Q.add, Q.mul),
           "VW4-r": ref._vw4r_sweep(q, Q.add, Q.mul)}
    new, old = ({k: list(v) for k, v in d.items()} for d in (new, old))
    if not old["VW1"]:
        neg = Q.neg_table
        new["VW5"] = list(qf._vw5_sweep(add, mul, neg))
        new["VW5-r"] = list(qf._vw5_sweep(add, cols, neg))
        old["VW5"] = list(ref._vw5_sweep(q, Q.add, Q.mul, neg))
        old["VW5-r"] = list(ref._vw5_sweep(q, Q.add, ref.opposite(Q).mul, neg))
    return new, old


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def assert_agree(Q, F):
    """Every quasi-field result of the new code equals the reference's on
    the tables of Q, with F as the vector-space scalars."""
    new, old = _sequences(Q)
    assert new == old
    fresh = QuasiField(Q.q, Q.add_table, Q.mul_table)  # no kept report
    report, expected = check_vw(fresh), ref.check_vw(Q)
    assert (report.witnesses, report.unchecked) == (expected.witnesses, expected.unchecked)
    assert list(report.witnesses) == list(expected.witnesses)
    assert qf.associativity_witness(Q) == ref.associativity_witness(Q)
    assert _outcome(check_vector_space, Q, F) == _outcome(ref.check_vector_space, Q, F)
    table = _outcome(lambda: to_ternary(fresh).table)
    assert table == _outcome(lambda: ref.to_ternary(Q).table)


def _builds(max_q):
    """(name, quasi-field, scalars): every field of order <= max_q, and the
    left, right and opposite André builds over each of its subfields."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for n in range(1, 6):
            if p ** n > max_q:
                break
            K = field(p, n)
            yield f"GF({p}^{n})", from_field(K), fixed_field(K, galois_subgroup(K, 1))
            for d in range(1, n):
                if n % d:
                    continue
                for spec in enumerate_phi(K, galois_subgroup(K, d)):
                    left = build_left(spec)
                    for side, Q in (("left", left), ("right", build_right(spec)),
                                    ("opposite", opposite(left))):
                        yield f"GF({p}^{n})/{d}/{side}/{spec.phi}", Q, spec.fixed


BUILDS = {name: (Q, F) for name, Q, F in _builds(27)}


@pytest.mark.parametrize("name", list(BUILDS))
def test_builds_agree(name):
    assert_agree(*BUILDS[name])


def _changed(Q, table, i, value):
    entries = list(getattr(Q, table))
    entries[i] = value
    tables = {"add_table": Q.add_table, "mul_table": Q.mul_table, table: tuple(entries)}
    return QuasiField(Q.q, **tables)


@pytest.mark.parametrize("table", ["add_table", "mul_table"])
@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_every_single_entry_change_agrees(p, n, table):
    K = field(p, n)
    Q, F = from_field(K), fixed_field(K, galois_subgroup(K, 1))
    q = K.q
    for i in range(q * q):
        for value in range(q):
            if value != getattr(Q, table)[i]:
                assert_agree(_changed(Q, table, i, value), F)


def _bases():
    K8, K9, K16 = field(2, 3), field(3, 2), field(2, 4)
    near9 = spec_from_exponents(K9, galois_subgroup(K9, 1), (0, 1))
    twist16 = spec_from_exponents(K16, galois_subgroup(K16, 2), (0, 0, 1))
    return [(from_field(K8), (0, 1)), (from_field(K9), near9.fixed),
            (build_left(near9), near9.fixed), (build_right(near9), near9.fixed),
            (from_field(K16), twist16.fixed), (build_left(twist16), twist16.fixed),
            (build_right(twist16), twist16.fixed)]


BASES = _bases()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_corruptions_agree(data):
    Q, F = data.draw(st.sampled_from(BASES))
    q = Q.q
    changes = data.draw(st.lists(
        st.tuples(st.sampled_from(["add_table", "mul_table"]),
                  st.integers(0, q * q - 1), st.integers(0, q - 1)),
        min_size=1, max_size=3))
    for table, i, value in changes:
        Q = _changed(Q, table, i, value)
    assert_agree(Q, F)


def test_sweeps_run_once_per_quasifield(monkeypatch, k9):
    calls = []
    sweep = qf._vw4r_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(qf, "_vw4r_sweep", counted)
    Q = build_left(spec_from_exponents(k9, galois_subgroup(k9, 1), (0, 1)))
    report = check_vw(Q)
    to_ternary(Q)
    assert len(calls) == 1
    assert check_vw(Q) is report
    # an equal quasi-field is another object with its own report
    assert check_vw(QuasiField(Q.q, Q.add_table, Q.mul_table)) is not report
    assert len(calls) == 2


def _same_report(report, expected):
    """Equal witnesses, in the same order, and equal `unchecked`."""
    return ((report.witnesses, list(report.witnesses), report.unchecked)
            == (expected.witnesses, list(expected.witnesses), expected.unchecked))


@pytest.mark.parametrize("name", [name for name in BUILDS
                                  if "/left/" in name or "/right/" in name])
def test_builds_keep_the_swept_report(name):
    """A build's proved report is the one the reference sweeps compute."""
    Q, _ = BUILDS[name]
    assert _same_report(Q.vw_report, ref.check_vw(Q))


@pytest.mark.parametrize("p,n,d", [(7, 2, 1), (2, 6, 3), (2, 6, 2), (3, 4, 2)])
def test_larger_builds_keep_the_swept_report(p, n, d):
    """At most 40 specs spread over `enumerate_phi`, both sides: the kept
    report equals a full row-level sweep of the same tables, and the
    reference sweeps' on the last spec (about a second a quasi-field at
    q = 81, entry by entry)."""
    K = field(p, n)
    specs = enumerate_phi(K, galois_subgroup(K, d))
    specs = specs[::-(-len(specs) // 40)]
    for spec in specs:
        for build in (build_left, build_right):
            Q = build(spec)
            assert _same_report(Q.vw_report, swept_report(Q))
    assert not predicts_right_distributive(spec)
    for build in (build_left, build_right):
        Q = build(spec)
        assert _same_report(Q.vw_report, ref.check_vw(Q))


@pytest.mark.parametrize("p,n,d", [(2, 5, 1), (7, 2, 1), (2, 6, 1), (2, 6, 2),
                                   (2, 6, 3), (3, 4, 1), (3, 4, 2)])
def test_larger_builds_keep_the_swept_scalars_and_associativity(p, n, d):
    """Every subfield of GF(32), GF(49), GF(64) and GF(81), both sides: at
    most 8 specs spread over `enumerate_phi`, and every spec whose build
    is proved associative or, on the right, a vector space, where the
    reference sweeps run to the end.  The builds of order <= 27 are
    checked by `test_builds_agree`."""
    K = field(p, n)
    specs = enumerate_phi(K, galois_subgroup(K, d))
    sample = specs[::-(-len(specs) // 8)]
    sample += [spec for spec in specs if spec not in sample and (
        predicts_associative(spec) or build_right(spec).proof.vector_space)]
    for spec in sample:
        for build in (build_left, build_right):
            Q = build(spec)
            assert check_vector_space(Q, spec.fixed) == ref.check_vector_space(Q, spec.fixed)
            assert associativity_witness(Q) == ref.associativity_witness(Q)


def _count_table_reads(monkeypatch):
    """The names of the table sweeps and table reads made from now on."""
    calls = []

    def counting(name, function):
        def counted(*args):
            calls.append(name)
            return function(*args)
        return counted

    for owner, name in ((qf, "_rows"), (qf, "_associativity_sweep"),
                        (QuasiField, "add"), (QuasiField, "mul"), (QuasiField, "neg")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    return calls


@pytest.mark.parametrize("p,n,d,phi", [(3, 2, 1, (0, 1)), (2, 4, 2, (0, 0, 1)),
                                       (5, 2, 1, (0, 0, 0, 0)), (5, 2, 1, (0, 1, 0, 1)),
                                       (5, 2, 1, (0, 0, 0, 1)), (3, 3, 1, (0, 1))])
def test_a_build_answers_scalars_and_associativity_from_its_proof(monkeypatch, p, n, d, phi):
    """`check_vector_space(Q, spec.fixed)` reads no table, and
    `associativity_witness(Q)` sweeps only when the spec does not predict
    associativity, and then to the swept witness."""
    K = field(p, n)
    spec = spec_from_exponents(K, galois_subgroup(K, d), phi)
    for build in (build_left, build_right):
        Q = build(spec)
        expected = (ref.check_vector_space(Q, spec.fixed), ref.associativity_witness(Q))
        calls = _count_table_reads(monkeypatch)
        answers = (check_vector_space(Q, spec.fixed), associativity_witness(Q))
        assert calls == ([] if predicts_associative(spec) else ["_rows", "_associativity_sweep"])
        assert answers == expected
        monkeypatch.undo()


def _fallbacks(Q, spec):
    """(quasi-field, scalars) pairs that the build's proof does not cover:
    the fixed field reordered or without its last element, the prime
    field when it is smaller, and the opposite ring and a fresh copy with
    the fixed field."""
    prime = tuple(range(spec.field.p))
    pairs = [(Q, spec.fixed[::-1]), (Q, spec.fixed[:-1]),
             (opposite(Q), spec.fixed), (QuasiField(Q.q, Q.add_table, Q.mul_table), spec.fixed)]
    if prime != spec.fixed:
        pairs.append((Q, prime))
    return pairs


@pytest.mark.parametrize("p,n,d,phi", [(3, 2, 1, (0, 1)), (2, 4, 2, (0, 0, 1)),
                                       (2, 4, 2, (0, 0, 0)), (5, 2, 1, (0, 1, 0, 1)),
                                       (3, 4, 2, (0, 1, 0, 0, 0, 0, 0, 0))])
def test_other_inputs_are_swept(monkeypatch, p, n, d, phi):
    """Outside the proof, `check_vector_space` gives the reference's
    verdict or `InputError` text and `associativity_witness` its witness,
    each from a sweep of the tables."""
    K = field(p, n)
    spec = spec_from_exponents(K, galois_subgroup(K, d), phi)
    for build in (build_left, build_right):
        for Q, F in _fallbacks(build(spec), spec):
            expected = _outcome(ref.check_vector_space, Q, F)
            calls = _count_table_reads(monkeypatch)
            assert _outcome(check_vector_space, Q, F) == expected
            assert calls
            monkeypatch.undo()
            if Q.proof is None:
                expected = ref.associativity_witness(Q)
                calls = _count_table_reads(monkeypatch)
                assert associativity_witness(Q) == expected
                assert "_associativity_sweep" in calls
                monkeypatch.undo()


SWEEPS = ("_vw1_sweep", "_vw2_sweep", "_vw3_sweep", "_vw4_sweep", "_vw4r_sweep", "_vw5_sweep")


@pytest.mark.parametrize("p,n,d,phi", [(3, 2, 1, (0, 1)), (2, 4, 2, (0, 0, 1)),
                                       (3, 3, 1, (0, 0)), (3, 3, 1, (0, 1))])
def test_a_build_runs_one_sweep(monkeypatch, p, n, d, phi):
    """The other distributive law only: VW4-r for a left build and VW4
    for a right one; `check_vw` and `to_ternary` then sweep nothing."""
    K = field(p, n)
    spec = spec_from_exponents(K, galois_subgroup(K, d), phi)
    calls = []

    def counting(name, sweep):
        def counted(*args):
            calls.append(name)
            return sweep(*args)
        return counted

    for name in SWEEPS:
        monkeypatch.setattr(qf, name, counting(name, getattr(qf, name)))
    for build, law in ((build_left, "_vw4r_sweep"), (build_right, "_vw4_sweep")):
        calls.clear()
        Q = build(spec)
        check_vw(Q)
        to_ternary(Q)
        assert calls == [law]


@pytest.mark.parametrize("change", ["alpha", "phi", "image", "fixed"])
def test_builds_reject_a_spec_that_does_not_follow_from_its_phi(andre9_spec, change):
    """alpha with one entry changed, a wrong norm image or fixed field:
    `replace` cannot set a derived field.  phi alone changed gives the
    spec of that phi, alpha and all, and the builds of it."""
    wrong = {"alpha": andre9_spec.alpha[:4] + (0,) + andre9_spec.alpha[5:],
             "phi": (0, 0), "image": (1,), "fixed": (0, 1)}[change]
    assert wrong != getattr(andre9_spec, change)
    if change != "phi":
        with pytest.raises(ValueError, match="init=False"):
            replace(andre9_spec, **{change: wrong})
        return
    spec = replace(andre9_spec, phi=wrong)
    K, G = andre9_spec.field, andre9_spec.group
    assert spec == spec_from_exponents(K, G, wrong) and spec.alpha == (0,) * K.q
    for build in (build_left, build_right):
        assert build(spec).mul_table == K.mul_table


def test_spec_from_exponents_rejects_a_wrong_fixed_field_or_image(andre9_spec):
    """A fixed field or norm image given to `spec_from_exponents` that is
    not the derived one raises at once; the right ones give the spec."""
    K, G, phi = andre9_spec.field, andre9_spec.group, andre9_spec.phi
    fixed, image = andre9_spec.fixed, andre9_spec.image
    assert spec_from_exponents(K, G, phi, fixed, image) == andre9_spec
    for wrong in ([(0, 1), image], [fixed, image[::-1]], [None, image[::-1]], [(0, 1), None]):
        with pytest.raises(InputError, match="^spec does not follow from its field, "
                                             "group and phi$"):
            spec_from_exponents(K, G, phi, *wrong)


def _swapped(Q, axis, u, v):
    """Q with rows (axis 0) or columns (axis 1) u and v of its
    multiplication swapped."""
    mul = [list(row) for row in qf._rows(Q.mul_table, Q.q)]
    if axis == 0:
        mul[u], mul[v] = mul[v], mul[u]
    else:
        for row in mul:
            row[u], row[v] = row[v], row[u]
    return QuasiField(Q.q, Q.add_table, tuple(chain.from_iterable(mul)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_vw5_and_vw5r_pass_together_under_vw1(data):
    Q, _ = data.draw(st.sampled_from(BASES))
    q = Q.q
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            Q = _changed(Q, "mul_table", data.draw(st.integers(0, q * q - 1)),
                         data.draw(st.integers(0, q - 1)))
        else:
            Q = _swapped(Q, data.draw(st.integers(0, 1)),
                         data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1)))
    add, mul = qf._rows(Q.add_table, q), qf._rows(Q.mul_table, q)
    cols = list(zip(*mul))
    over_rows = next(qf._vw5_sweep(add, mul, Q.neg_table), None)
    over_cols = next(qf._vw5_sweep(add, cols, Q.neg_table), None)
    assert (over_rows is None) == (over_cols is None)
    report, expected = check_vw(QuasiField(q, Q.add_table, Q.mul_table)), ref.check_vw(Q)
    assert report.passes("VW1") and not report.unchecked
    assert report.witnesses == expected.witnesses
    assert list(report.witnesses) == list(expected.witnesses)


@pytest.mark.parametrize("change,vw5_passes", [
    (lambda Q: Q, True),
    (lambda Q: _swapped(Q, 0, 1, 2), True),
    (lambda Q: _swapped(Q, 1, 1, 2), True),
    (lambda Q: _changed(Q, "mul_table", 9 * 4 + 5, 0), False),
])
def test_vw5_sweep_runs_twice_only_when_vw5_fails(monkeypatch, andre9, change, vw5_passes):
    Q = change(andre9)
    Q = QuasiField(Q.q, Q.add_table, Q.mul_table)  # no kept report
    calls = []
    sweep = qf._vw5_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(qf, "_vw5_sweep", counted)
    report = check_vw(Q)
    assert report.passes("VW5") == report.passes("VW5-r") == vw5_passes
    assert len(calls) == (1 if vw5_passes else 2)
