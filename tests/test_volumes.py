"""Tests for the volume functionals, barycenters, and the report builder.

Frozen values were produced by running the brute-force reference paths in
checks.py (subset sweeps, vertex enumeration) and are pinned here so the
fast paths cannot drift.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropevol.cells import enumerate_triangulation
from tropevol.core import ScaledPermutationMatrix, TropMatrix, act, min_subset_sum
from tropevol.ehrhart import log_coefficient
from tropevol.errors import CrossCheckError, ValidationError
from tropevol.fixtures import (
    alcove_simplex,
    cube,
    fix_4d,
    fix_delta2,
    fix_l,
    fix_prod,
    fix_tri,
)
from tropevol.ratlp import lp_max_min_linear, simplex_max
from tropevol.ratpoly import lagrange_interpolate
from tropevol.volumes import (
    UNIQUE_GAP,
    build_volume_report,
    cartesian_product,
    discrete_surface,
    qtvol_plus,
    simplex_dtrunk_barycenter,
    tlsurf,
    tlvol,
    tlvol_i_minus,
    tlvol_i_plus,
    tlvol_subsets,
    tlvol_triangulation,
    tropical_barycenter,
    tvol_square,
)


def _translate(m: TropMatrix, c: int) -> TropMatrix:
    return TropMatrix(tuple(tuple(e + c for e in row) for row in m.entries))


def _dilate(m: TropMatrix, k: int) -> TropMatrix:
    return TropMatrix(tuple(tuple(e * k for e in row) for row in m.entries))


def test_tlvol_l_shape_both_algorithms() -> None:
    m = fix_l(4)
    assert tlvol_subsets(m) == (2, (0, 1, 2))
    assert tlvol_triangulation(m) == (2, (0, 0))
    assert tlvol(m, method="subsets") == 2
    assert tlvol(m, method="triangulation") == 2
    assert tlvol(m, method="both") == 2


def test_tlvol_unknown_method_rejected() -> None:
    with pytest.raises(ValidationError):
        tlvol(fix_l(4), method="fastest")


def test_tlvol_cross_check_mismatch_raises(monkeypatch: pytest.MonkeyPatch) -> None:
    import tropevol.volumes as volumes

    monkeypatch.setattr(volumes, "tlvol_subsets", lambda m: (99, (0, 1, 2)))
    with pytest.raises(CrossCheckError):
        volumes.tlvol(fix_l(4), method="both")


def test_tlvol_needs_enough_columns() -> None:
    # A 2x2 matrix spans at most a segment, so no full alcove exists.
    assert tlvol_subsets(TropMatrix(((0, 2), (1, 0)))) == (None, None)
    assert tlvol(TropMatrix(((0, 2), (1, 0)))) is None


def test_tlvol_cube_vanishes() -> None:
    # The cube generators include the absorbing all-minus-inf column, which
    # the subset sweep tolerates (the triangulation path needs finite entries).
    for d in (2, 3):
        assert tlvol(cube(d)) == 0


def test_tlvol_three_dimensional_methods_agree() -> None:
    m = TropMatrix(((0, 2, 0, 1), (0, 0, 3, 1), (0, 0, 0, 2)))
    assert tlvol_subsets(m)[0] == 7
    assert tlvol_triangulation(m) == (7, (1, 2, 1))
    assert tlvol(m, method="both") == 7


def test_tlvol_dilation_and_translation_laws() -> None:
    m = fix_l(4)
    d = m.rows
    assert tlvol(_dilate(m, 2)) == 2 * tlvol(m)
    assert tlvol(_dilate(m, 3)) == 3 * tlvol(m)
    # Translating every generator by c moves the trunk barycenter sum by d*c.
    assert tlvol(_translate(m, 5)) == tlvol(m) + d * 5


def test_qtvol_plus_l_shape() -> None:
    value, witness = qtvol_plus(fix_l(4))
    assert value == 4
    assert witness == (1, 2)


def test_tvol_square_examples() -> None:
    assert tvol_square(TropMatrix(((0, 2), (1, 0)))) == 3
    assert tvol_square(TropMatrix(((0, None), (None, 0)))) is UNIQUE_GAP


def test_product_fixture_matrix_is_frozen() -> None:
    m, n = fix_prod(3)
    p = cartesian_product(m, n)
    assert p.entries == (
        (0, 1, 3, 0, 1, 3),
        (0, 0, 3, 0, 0, 3),
        (0, 0, 0, 1, 1, 1),
    )


def test_tlvol_multiplicative_on_product() -> None:
    m, n = fix_prod(3)
    p = cartesian_product(m, n)
    assert tlvol(m, method="both") == 2
    assert tlvol(n, method="both") == 1
    assert tlvol(p, method="both") == 3


def test_qtvol_plus_not_multiplicative_on_product() -> None:
    m, n = fix_prod(3)
    p = cartesian_product(m, n)
    assert qtvol_plus(m)[0] == 4
    assert qtvol_plus(n)[0] == 1
    assert qtvol_plus(p)[0] == 7
    assert qtvol_plus(p)[0] != qtvol_plus(m)[0] + qtvol_plus(n)[0]


def test_four_dimensional_i_volume_table() -> None:
    m = fix_4d()
    assert tlvol_i_plus(m, 1) == (9, (0, 0, 9, 9))
    assert tlvol_i_minus(m, 1) == (9, (9, 9, 9, 9))
    assert tlvol_i_plus(m, 2) == (18, (0, 0, 9, 9))
    assert tlvol_i_minus(m, 2) == (2, (1, 1, 9, 9))
    for i in (3, 4):
        assert tlvol_i_plus(m, i) == (None, None)
        assert tlvol_i_minus(m, i) == (None, None)


def test_right_triangle_edge_volume_triples() -> None:
    # The i=1 volumes and the degree-1 log coefficient of the right triangle
    # family follow closed forms in the leg length and horizontal offset.
    for ell, k in ((3, 0), (3, 1), (2, 2)):
        m = fix_tri(ell, k)
        assert tlvol_i_minus(m, 1)[0] == k + 1
        assert log_coefficient(m, 1) == max(ell, k + 1)
        assert tlvol_i_plus(m, 1)[0] == k + ell


def test_i_volume_requires_finite_entries() -> None:
    m = TropMatrix(((0, None), (0, 1)))
    with pytest.raises(ValidationError):
        tlvol_i_plus(m, 1)
    with pytest.raises(ValidationError):
        tlvol_i_minus(m, 1)


def test_i_volumes_of_a_point_hull_are_none() -> None:
    # a point's count is constant, so c_1 = 0 and Log 0 = -inf (None)
    for rows in (((0, 0, 0),), ((3, 3, 3),), ((1, 1), (2, 2))):
        assert tlvol_i_plus(TropMatrix.from_rows(rows), 1) == (None, None)


def test_i_volume_index_bounds() -> None:
    m = fix_l(4)
    for i in (0, 3):
        with pytest.raises(ValidationError):
            tlvol_i_plus(m, i)
        with pytest.raises(ValidationError):
            tlvol_i_minus(m, i)


def test_i_volume_translation_law() -> None:
    m = fix_l(4)
    for i in (1, 2):
        base_plus = tlvol_i_plus(m, i)[0]
        base_minus = tlvol_i_minus(m, i)[0]
        shifted = _translate(m, 4)
        assert tlvol_i_plus(shifted, i)[0] == base_plus + 4 * i
        assert tlvol_i_minus(shifted, i)[0] == base_minus + 4 * i


def test_shifted_simplex_min_volume() -> None:
    # The unit alcove translated off the origin keeps a positive min-type
    # 1-volume even though its plain coordinates start at 1.
    value, witness = tlvol_i_minus(fix_delta2(), 1)
    assert value == 1
    assert witness == (1, 1)


def test_barycenters() -> None:
    assert tropical_barycenter(fix_l(4)) == (3, 3)
    assert simplex_dtrunk_barycenter(alcove_simplex((1, 2))) == (2, 3)
    # A flat simplex matrix has no full-dimensional alcove, hence no
    # trunk barycenter.
    assert simplex_dtrunk_barycenter(TropMatrix(((0, 1, 1), (0, 1, 1)))) is None


def test_surface_measures_l_shape() -> None:
    lower, upper = tlsurf(fix_l(4))
    assert lower == Fraction(3)
    assert upper == 3
    assert discrete_surface(fix_l(4)) == 3


def test_lp_max_min_linear_interior_optimum() -> None:
    value, point = lp_max_min_linear([(0, 0), (4, 0), (0, 4)], 1)
    assert value == 2
    assert point == (2, 2)


def test_simplex_max_vertex_optimum() -> None:
    value, point = simplex_max((1, 1), ((1, 0), (0, 1)), (3, 5))
    assert value == 8
    assert point == [3, 5]


def test_rotation_classes_act_one_sided_only() -> None:
    # Weight-1 max-type rotations may strictly shrink the max-type 1-volume.
    seg = TropMatrix(((0, 0), (0, 10)))
    s_plus = ScaledPermutationMatrix((0, 1), (0, -5))
    assert s_plus.is_rotation_plus(1)
    before = tlvol_i_plus(seg, 1)[0]
    after = tlvol_i_plus(act(s_plus, seg), 1)[0]
    assert (before, after) == (10, 5)
    assert after <= before

    # Weight-1 min-type rotations may strictly grow the min-type 1-volume.
    tri = TropMatrix(((1, 3, 4), (2, 1, 0)))
    s_minus = ScaledPermutationMatrix((0, 1), (0, 3))
    assert s_minus.is_rotation_minus(1)
    before = tlvol_i_minus(tri, 1)[0]
    after = tlvol_i_minus(act(s_minus, tri), 1)[0]
    assert (before, after) == (2, 4)
    assert after >= before


def test_plain_permutations_preserve_i_volumes() -> None:
    m = fix_l(4)
    swap = ScaledPermutationMatrix((1, 0), (0, 0))
    moved = act(swap, m)
    for i in (1, 2):
        assert tlvol_i_plus(moved, i)[0] == tlvol_i_plus(m, i)[0]
        assert tlvol_i_minus(moved, i)[0] == tlvol_i_minus(m, i)[0]


def test_volume_report_l_shape() -> None:
    rep = build_volume_report(fix_l(4), method="both")
    assert rep.tlvol == 2
    assert rep.qtvol_plus == 4
    assert rep.tvol == 1
    assert rep.surface == {"lower": Fraction(3), "upper": 3, "discrete": 3}
    assert set(rep.i_volumes) == {1, 2}


def test_volume_report_json_is_stringly_typed() -> None:
    data = build_volume_report(fix_l(4)).to_json_dict()
    assert data["tlvol"] == "2"
    assert data["qtvol_plus"] == "4"
    assert data["tvol"] == "1"
    assert data["surface"] == {"lower": "3", "upper": "3", "discrete": "3"}
    assert data["i_volumes"]["1"] == {
        "plus": "3",
        "plus_witness": ["3", "3"],
        "minus": "3",
        "minus_witness": ["3", "3"],
    }
    assert data["i_volumes"]["2"]["plus"] == "2"


def test_volume_report_unique_gap_rendering() -> None:
    data = build_volume_report(cube(2)).to_json_dict()
    assert data["tvol"] == "unique"
    assert data["tlvol"] == "0"


def test_volume_report_square_matrix_has_no_tlvol() -> None:
    data = build_volume_report(TropMatrix(((0, 2), (1, 0)))).to_json_dict()
    assert data["tlvol"] == "-inf"
    assert data["tvol"] == "3"


@st.composite
def _finite_matrices(draw):
    d = draw(st.integers(min_value=2, max_value=3))
    cols = draw(st.integers(min_value=d + 1, max_value=5))
    entries = tuple(
        tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(cols))
        for _ in range(d)
    )
    return TropMatrix(entries)


@settings(max_examples=40, deadline=None)
@given(m=_finite_matrices())
def test_tlvol_algorithms_agree_on_random_matrices(m: TropMatrix) -> None:
    assert tlvol_subsets(m)[0] == tlvol_triangulation(m)[0]


@settings(max_examples=40, deadline=None)
@given(m=_finite_matrices())
def test_min_volume_never_exceeds_max_volume(m: TropMatrix) -> None:
    for i in range(1, m.rows + 1):
        lo = tlvol_i_minus(m, i)[0]
        hi = tlvol_i_plus(m, i)[0]
        if lo is None:
            assert hi is None
        else:
            assert lo <= hi


def _lp_lower_i_volume(m: TropMatrix, i: int):
    """Oracle: the best exact LP optimum over the closed cells of the i-trunk.

    Only cells that are no facet of another trunk cell are solved; their
    closures cover the trunk.  Returns the lower i-volume and the set of
    i-trunk vertices, both moved back by the translation that made the
    entries nonnegative.
    """
    shift = max(0, -min(min(row) for row in m.entries))
    cells = [c for c in enumerate_triangulation(m.translate(shift)).cells if c.dim >= i]
    if not cells:
        return None, set()
    facets = {f for c in cells if c.dim > i for f in c.facets()}
    best = max(lp_max_min_linear(c.vertices, i)[0] for c in cells if c not in facets)
    trunk = {tuple(x - shift for x in v) for c in cells for v in c.vertices}
    return best - i * shift, trunk


def test_lower_i_volume_matches_lp_oracle_on_random_matrices() -> None:
    rng = random.Random(1908)
    cases = 0
    for _ in range(200):
        d = rng.choice((2, 3))
        cols = rng.randint(2, 4 if d == 2 else 3)
        m = TropMatrix.from_rows(
            [[rng.randint(-2, 3) for _ in range(cols)] for _ in range(d)]
        )
        for i in range(1, d + 1):
            expected, trunk = _lp_lower_i_volume(m, i)
            value, witness = tlvol_i_minus(m, i)
            assert value == expected, (m.entries, i)
            if expected is None:
                assert witness is None
            else:
                assert witness in trunk, (m.entries, i)
                assert min_subset_sum(witness, i) == value
                cases += 1
    assert cases >= 200


def test_i_volume_witness_is_first_maximizer_in_sorted_order() -> None:
    # The segment from (0,0) to (0,1): both vertices have smallest
    # coordinate 0, the sorted-first one is the witness.
    seg = TropMatrix(((0, 0), (0, 1)))
    assert tlvol_i_minus(seg, 1) == (0, (0, 0))
    assert tlvol_i_minus(_translate(seg, -2), 1) == (-2, (-2, -2))
    # The bent segment (0,1) - (1,1) - (1,0): every vertex has largest
    # coordinate 1, and (0,1) sorts first.
    bent = TropMatrix(((0, 1), (1, 0)))
    assert tlvol_i_plus(bent, 1) == (1, (0, 1))


def _count_calls(monkeypatch: pytest.MonkeyPatch, original) -> list:
    """Wrap `original` in every tropevol module that binds it; one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    name = original.__name__
    for modname, module in list(sys.modules.items()):
        if modname.startswith("tropevol") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_default_report_triangulates_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _count_calls(monkeypatch, enumerate_triangulation)
    for m in (fix_4d(), fix_l(4), fix_delta2()):
        calls.clear()
        build_volume_report(m)
        assert len(calls) == 1, m.entries


def test_report_never_interpolates(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _count_calls(monkeypatch, lagrange_interpolate)
    for m in (fix_4d(), fix_l(4), fix_delta2()):
        for method in ("subsets", "triangulation", "both"):
            if method != "subsets" and not m.is_nonnegative():
                continue
            build_volume_report(m, method)
            assert calls == [], (m.entries, method)


def test_discrete_surface_matches_sampled_log_coefficient() -> None:
    matrices = [
        fix_l(2), fix_l(4), fix_l(6), fix_tri(3, 0), fix_tri(3, 2), fix_tri(4, 1),
        fix_4d(), fix_delta2().translate(1), cartesian_product(*fix_prod(3)),
        alcove_simplex((1, 2)), alcove_simplex((0, 2, 1)),
    ]
    rng = random.Random(2019)
    for _ in range(240):
        d = rng.choice((2, 3))
        cols = rng.randint(1, 4)
        matrices.append(
            TropMatrix.from_rows([[rng.randint(0, 4) for _ in range(cols)] for _ in range(d)])
        )
    nones = covered_twice = 0
    for m in matrices:
        complex_ = enumerate_triangulation(m)
        value = discrete_surface(complex_)
        assert value == log_coefficient(m, m.rows - 1), m.entries
        assert discrete_surface(m) == value
        nones += value is None
        covered_twice += complex_.dim == m.rows and 2 in complex_.facet_cover_count.values()
    assert nones >= 20
    assert covered_twice >= 20
