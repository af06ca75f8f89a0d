import pytest

from affplane import (as_collineation, check_vw, classify, classify_ternary,
                      diag_automorphism, frame_mover, from_field,
                      is_collineation, is_translation, line_through,
                      make_field, no_fixed_points, opposite,
                      plane_from_ternary, to_ternary, translation_candidate,
                      translation_from_shift)
from affplane.collineation import (shear_horizontal_map, shear_vertical_map,
                                   shift_map, swap_map)
from affplane.errors import InputError


def test_identity_is_collineation(p3):
    ident = tuple(range(9))
    assert is_collineation(p3, ident)
    cert = is_translation(p3, ident)
    assert cert is not None
    assert cert.trace_classes == (0, 1, 2, 3)
    assert no_fixed_points(cert)


def test_swap_is_collineation_but_not_translation(p3, k3):
    perm = swap_map(k3)
    assert is_collineation(p3, perm)
    assert is_translation(p3, perm) is None


def test_two_cycle_is_not_collineation(p3):
    perm = list(range(9))
    perm[0], perm[1] = 1, 0
    assert not is_collineation(p3, tuple(perm))
    with pytest.raises(InputError):
        as_collineation(p3, tuple(perm))


def test_non_bijection_rejected(p3):
    assert not is_collineation(p3, (0,) * 9)


def test_gf3_shift(p3, k3):
    cert = translation_from_shift(from_field(k3), 1, 0)
    assert cert.fixed_point_free
    assert no_fixed_points(cert)
    # the trace is the horizontal class
    horiz = p3.lines.index((0, 3, 6))
    from affplane import parallel_classes
    classes = parallel_classes(p3)
    (trace,) = cert.trace_classes
    assert horiz in classes[trace]


def test_zero_shift_is_identity(k3):
    cert = translation_from_shift(from_field(k3), 0, 0)
    assert cert.collineation.is_identity()


def test_all_81_andre9_shifts(andre9):
    for c in range(9):
        for d in range(9):
            cert = translation_from_shift(andre9, c, d)
            if (c, d) == (0, 0):
                assert cert.collineation.is_identity()
            else:
                assert cert.fixed_point_free


def test_shift_rejects_right_quasifield(andre9):
    with pytest.raises(InputError):
        translation_from_shift(opposite(andre9), 1, 0)


def test_translation_candidate_matches_shift(p3, k3):
    cert = translation_from_shift(from_field(k3), 1, 0)
    target = cert.collineation.perm[0]
    found = translation_candidate(p3, 0, target)
    assert found is not None
    assert found.collineation.perm == cert.collineation.perm


def test_translation_candidate_aux_independent(andre9_plane):
    first = translation_candidate(andre9_plane, 0, 5)
    L = line_through(andre9_plane, 0, 5)
    off = [p for p in range(81) if p not in set(andre9_plane.lines[L])]
    for aux in off[:4]:
        again = translation_candidate(andre9_plane, 0, 5, aux=aux)
        assert again.collineation.perm == first.collineation.perm


def test_translation_candidate_rejects_equal_points(p3):
    with pytest.raises(InputError):
        translation_candidate(p3, 4, 4)


def test_translation_fixes_joining_line_class(andre9_plane):
    cert = translation_candidate(andre9_plane, 0, 5)
    L = line_through(andre9_plane, 0, 5)
    assert cert.collineation.line_map[L] == L


def test_translations_compose(andre9):
    c1 = translation_from_shift(andre9, 1, 0)
    c2 = translation_from_shift(andre9, 2, 0)
    composed = tuple(c2.collineation.perm[v] for v in c1.collineation.perm)
    P = plane_from_ternary(to_ternary(andre9), check=False)
    cert = is_translation(P, composed)
    assert cert is not None
    assert set(c1.trace_classes) & set(cert.trace_classes)


def test_transposed_plane_nonisomorphism_certificate(andre9, andre9_plane):
    """The plane of the transposed multiplication admits no translation
    from the origin to any (v, 0), while the plane of the original admits
    every target; the two planes are therefore non-isomorphic."""
    Po = plane_from_ternary(to_ternary(opposite(andre9)))
    absent = [v for v in range(1, 9)
              if translation_candidate(Po, 0, v * 9) is None]
    assert absent
    for target in range(1, 81):
        assert translation_candidate(andre9_plane, 0, target) is not None


# ---------------------------------------------------------------------------
# automorphism families

def test_diag_automorphism_identity(andre9):
    d = diag_automorphism(andre9, 1, 1)
    assert d.is_identity()


def test_diag_automorphism_frozen(andre9):
    d = diag_automorphism(andre9, 3, 4)
    assert divmod(d.perm[1 * 9 + 1], 9) == (3, 4)


def test_diag_automorphism_all_pairs(andre9):
    for u in range(1, 9):
        for v in range(1, 9):
            d = diag_automorphism(andre9, u, v)
            assert d.perm[0] == 0


def test_diag_automorphism_preconditions(andre9, andre16):
    with pytest.raises(InputError):
        diag_automorphism(andre9, 0, 1)
    with pytest.raises(InputError):
        diag_automorphism(andre16, 2, 2)  # not associative


def test_individual_frame_maps_are_collineations():
    for p, n in [(3, 1), (2, 2), (5, 1)]:
        K = make_field(p, n)
        P = plane_from_ternary(to_ternary(from_field(K)), check=False)
        assert is_collineation(P, swap_map(K))
        for c in range(K.q):
            assert is_collineation(P, shift_map(K, c, (c + 1) % K.q))
            assert is_collineation(P, shear_vertical_map(K, c))
            assert is_collineation(P, shear_horizontal_map(K, c))


def test_frame_mover_identity(p3, k3):
    horiz = p3.lines.index((0, 3, 6))
    vert = p3.lines.index((0, 1, 2))
    assert frame_mover(k3, horiz, vert).is_identity()


def test_frame_mover_to_diagonal(p3, k3):
    diag = line_through(p3, 0, 4)
    vert = p3.lines.index((0, 1, 2))
    mover = frame_mover(k3, diag, vert)
    horiz = p3.lines.index((0, 3, 6))
    assert mover.line_map[horiz] == diag
    assert mover.line_map[vert] == vert


def test_frame_mover_all_pairs(k3, p3):
    sets = p3.masks
    for l2 in range(12):
        for m2 in range(12):
            if l2 == m2 or not sets[l2] & sets[m2]:
                continue
            mover = frame_mover(k3, l2, m2)
            assert is_collineation(p3, mover.perm)


def test_frame_mover_rejects_parallel(k3, p3):
    vert0 = p3.lines.index((0, 1, 2))
    vert1 = p3.lines.index((3, 4, 5))
    with pytest.raises(InputError):
        frame_mover(k3, vert0, vert1)


# ---------------------------------------------------------------------------
# classification

@pytest.mark.parametrize("p,n", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_fields_classify_desarguesian(p, n):
    result = classify(from_field(make_field(p, n)))
    assert result.verdict == "desarguesian"
    assert result.reason == "isomorphism-found"
    assert result.isomorphism == tuple(range(p ** n))


def test_andre9_classifies_nondesarguesian(andre9):
    result = classify(andre9)
    assert result.verdict == "non-desarguesian"
    assert result.reason == "search-exhausted"
    assert result.isomorphism is None


def test_andre16_precheck_fires(andre16):
    result = classify(andre16)
    assert result.verdict == "non-desarguesian"
    assert result.reason == "non-associative"


def test_classify_invariant_under_relabeling(andre9):
    from tests_support import relabel_ring
    T = to_ternary(andre9)
    U = relabel_ring(T, (0, 1, 3, 2, 5, 4, 7, 6, 8))
    assert classify_ternary(U).verdict == "non-desarguesian"


def test_classify_rejects_non_prime_power():
    from affplane.collineation import _factor_prime_power
    with pytest.raises(InputError):
        _factor_prime_power(12)
    assert _factor_prime_power(27) == (3, 3)
