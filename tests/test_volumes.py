"""Tests for the volume functionals, barycenters, and the report builder.

Frozen values were produced by running the brute-force reference paths in
checks.py (subset sweeps, vertex enumeration) and are pinned here so the
fast paths cannot drift.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropevol import cells
from tropevol.cells import enumerate_triangulation
from tropevol.core import (
    ScaledPermutationMatrix,
    TropMatrix,
    act,
    max_subset_sum,
    min_subset_sum,
    tadd,
)
from tropevol.checks import suite_conjecture
from tropevol.ehrhart import log_coefficient
from tropevol.errors import CrossCheckError, GuardExceeded, ValidationError
from tropevol.fixtures import (
    alcove_simplex,
    cube,
    fix_4d,
    fix_delta2,
    fix_l,
    fix_prod,
    fix_tri,
)
from tropevol.linalg import (
    AssignmentResult,
    _column_subset_table,
    column_subset_volumes,
    is_nonsingular,
    kleene_star,
    tdet,
    tdet_second,
    tminor,
    tvol_max_sub,
    tvol_square,
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
)

from test_cells import trunk


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


def test_build_volume_report_unknown_method_rejected() -> None:
    # the report and tlvol share one method dispatch
    with pytest.raises(ValidationError, match="unknown method 'fastest'"):
        build_volume_report(fix_l(4), method="fastest")


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


def test_i_volume_index_is_checked_before_triangulating(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("triangulated before the index was checked")

    cx = enumerate_triangulation(fix_l(4))
    monkeypatch.setattr(cells, "enumerate_triangulation", refuse)
    for arg in (fix_l(4), cx):
        for i in (0, 3, True, 1.0, "1"):
            for route in (tlvol_i_plus, tlvol_i_minus):
                with pytest.raises(ValidationError) as info:
                    route(arg, i, guard=1)
                assert str(info.value) == f"i must be in 1..2, got {i}"
    for arg in (TropMatrix.from_rows([[0, 3]]), "m"):
        with pytest.raises(ValidationError, match="dimension at least 2|got str"):
            tlsurf(arg, guard=1)


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


def _seeded_negative_matrices(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 3)
        cols = rng.randint(d, d + 2)
        yield TropMatrix.from_rows(
            [[rng.randint(-4, 3) for _ in range(cols)] for _ in range(d)]
        )


def test_i_volumes_of_negative_entries_match_the_moved_back_translate() -> None:
    negative = 0
    for m in _seeded_negative_matrices(1907, 60):
        shift = max(0, -min(min(row) for row in m.entries))
        negative += shift > 0
        nonneg = enumerate_triangulation(m.translate(shift))
        for i in range(1, m.rows + 1):
            for f in (tlvol_i_plus, tlvol_i_minus):
                value, witness = f(nonneg, i)
                expected = (None, None)
                if value is not None:
                    expected = (value - i * shift, tuple(x - shift for x in witness))
                assert f(m, i) == expected, (m.entries, i, f.__name__)
    assert negative >= 40


def test_tlvol_routes_agree_on_negative_entries() -> None:
    negative = 0
    for m in _seeded_negative_matrices(1908, 60):
        negative += not m.is_nonnegative()
        assert tlvol_triangulation(m)[0] == tlvol_subsets(m)[0], m.entries
    assert negative >= 40


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


def test_sampled_degrees_never_interpolate(monkeypatch: pytest.MonkeyPatch) -> None:
    # log_map reads a degree off divided differences; the monomial expansion
    # of lagrange_interpolate is left to the tests
    calls = _count_calls(monkeypatch, lagrange_interpolate)
    for m in (fix_l(4), fix_tri(3, 0), alcove_simplex((1, 2))):
        for i in range(m.rows + 1):
            log_coefficient(m, i)
    assert suite_conjecture(seed=0, cases=4).cases == 8
    assert calls == []


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
        covered_twice += complex_.dim == m.rows and 2 in complex_._facet_covers.values()
    assert nones >= 20
    assert covered_twice >= 20


# -- the report's single passes against the per-functional routes ----------


def _seeded_mixed_matrices(seed: int, count: int):
    """1-4 row matrices, square, wide and tall, some with -inf entries and
    some with Fraction entries."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        cols = rng.randint(max(1, d - 1), d + 2 if d < 4 else d + 1)
        kind = rng.choice(("int", "int", "inf", "fraction"))

        def entry():
            if kind == "inf" and rng.random() < 0.25:
                return None
            if kind == "fraction" and rng.random() < 0.4:
                return Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            return rng.randint(-2, 4)

        yield TropMatrix.from_rows(
            [[entry() for _ in range(cols)] for _ in range(d)],
            allow_minus_inf_columns=True,
        )


def _tvol_by_subset_loop(m: TropMatrix):
    """tvol and its witness: tvol_square on each d x d column subset."""
    best = best_js = unique_js = None
    for js in itertools.combinations(range(m.cols), m.rows):
        val = tvol_square(m.submatrix_columns(js))
        if val is None:
            continue
        if val is UNIQUE_GAP:
            unique_js = unique_js or js
        elif best is None or val > best:
            best, best_js = val, js
    return (UNIQUE_GAP, unique_js) if unique_js else (best, best_js)


def _i_volume_by_trunk(complex_, i: int, key):
    """First strict maximizer of key over the sorted i-trunk vertices."""
    best = witness = None
    for v in trunk(complex_, i).vertices():
        val = key(v, i)
        if best is None or val > best:
            best, witness = val, v
    return best, witness


@dataclass(frozen=True)
class NormalizedAssignment:
    """Diagonally normalized form of a square matrix.

    matrix has zero diagonal and nonpositive off-diagonal entries; it equals
    diag(-u) (x) A (x) column permutation/rescaling determined by sigma, v.
    """

    matrix: TropMatrix
    sigma: tuple
    u: tuple
    v: tuple


def _normalize_given(a: TropMatrix, res: AssignmentResult) -> NormalizedAssignment:
    """Oracle: permute columns by the solved assignment res = tdet(a) and
    subtract the duals.

    C[i][j] = A[i][sigma(j)] - u_i - v_{sigma(j)} is 0 on the diagonal and
    <= 0 elsewhere whenever the determinant is finite.
    """
    assert res.value is not None
    n = a.rows
    rows = tuple(
        tuple(
            None if a.entries[i][col] is None else a.entries[i][col] - res.u[i] - res.v[col]
            for col in res.sigma
        )
        for i in range(n)
    )
    return NormalizedAssignment(TropMatrix(rows, True), res.sigma, res.u, res.v)


def test_assignment_normalize() -> None:
    a = TropMatrix.from_rows([[0, 2], [1, 0]])
    norm = _normalize_given(a, tdet(a))
    n = norm.matrix
    for i in range(2):
        assert n.entries[i][i] == 0
        for j in range(2):
            assert tadd(n.entries[i][j], 0) == 0  # off-diagonal <= 0
            assert (
                n.entries[i][j]
                == a.entries[i][norm.sigma[j]] - norm.u[i] - norm.v[norm.sigma[j]]
            )


def _barycenter_from_public_steps(m: TropMatrix):
    """simplex_dtrunk_barycenter rebuilt from is_nonsingular and the dual
    normal form of a fresh tdet: S[i][j] - S[0][j] + u_i - u_0 over the
    star S of the normal form, each step solving its own assignment."""
    d = m.rows
    abar = TropMatrix.from_rows([[0] * (d + 1)] + [list(row) for row in m.entries])
    if not is_nonsingular(abar):
        return None
    na = _normalize_given(abar, tdet(abar))
    star = kleene_star(na.matrix).entries
    return tuple(
        max(
            star[i][j] - star[0][j] + na.u[i] - na.u[0]
            for j in range(d + 1)
            if star[i][j] is not None
        )
        for i in range(1, d + 1)
    )


def test_report_column_subset_pass_matches_the_separate_routes() -> None:
    shapes = set()
    for m in _seeded_mixed_matrices(1707, 300):
        rep = build_volume_report(m)
        if m.cols < m.rows:
            shapes.add("tall")
            assert (rep.qtvol_plus, rep.qtvol_plus_witness) == (None, None)
            assert (rep.tvol, rep.tvol_witness) == (None, None)
            continue
        shapes.add("square" if m.cols == m.rows else "wide")
        assert (rep.tlvol, rep.tlvol_witness) == tlvol_subsets(m), m.entries
        assert (rep.qtvol_plus, rep.qtvol_plus_witness) == qtvol_plus(m), m.entries
        assert (rep.tvol, rep.tvol_witness) == _tvol_by_subset_loop(m), m.entries
        assert tvol_max_sub(m) == _tvol_by_subset_loop(m), m.entries
    assert shapes == {"tall", "square", "wide"}


def test_report_i_volumes_match_brute_trunk_maxima() -> None:
    checked = 0
    for m in itertools.chain(
        _seeded_negative_matrices(1708, 60),
        _seeded_mixed_matrices(1709, 80),
        [fix_4d(), fix_l(4), alcove_simplex((0, 2, 1))],
    ):
        if not (m.is_finite() and m.is_integer()):
            continue
        complex_ = enumerate_triangulation(m)
        ivols = build_volume_report(m).i_volumes
        assert sorted(ivols) == list(range(1, m.rows + 1))
        for i, row in ivols.items():
            plus = _i_volume_by_trunk(complex_, i, max_subset_sum)
            minus = _i_volume_by_trunk(complex_, i, min_subset_sum)
            assert (row["plus"], row["plus_witness"]) == plus, (m.entries, i)
            assert (row["minus"], row["minus_witness"]) == minus, (m.entries, i)
            assert tlvol_i_plus(complex_, i) == plus
            assert tlvol_i_minus(complex_, i) == minus
        if m.rows >= 2:
            lower = _i_volume_by_trunk(complex_, m.rows - 1, min_subset_sum)[0]
            upper = _i_volume_by_trunk(complex_, m.rows - 1, max_subset_sum)[0]
            assert tlsurf(complex_) == (lower, upper)
        checked += 1
    assert checked >= 80


def test_simplex_barycenter_matches_the_public_steps() -> None:
    rng = random.Random(1710)
    singular = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        kind = rng.choice(("int", "inf", "fraction"))
        rows = []
        for _ in range(d):
            row = []
            for _ in range(d + 1):
                if kind == "inf" and rng.random() < 0.25:
                    row.append(None)
                elif kind == "fraction" and rng.random() < 0.4:
                    row.append(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                else:
                    row.append(rng.randint(-1, 2))
            rows.append(row)
        m = TropMatrix.from_rows(rows, allow_minus_inf_columns=True)
        expected = _barycenter_from_public_steps(m)
        singular += expected is None
        assert simplex_dtrunk_barycenter(m) == expected, m.entries
    assert 0 < singular < 400


def test_column_subset_witnesses_are_the_first_subsets_in_order() -> None:
    # Subsets (0, 2) and (1, 2) both attain determinant 1 and gap 1; (0, 1)
    # has determinant 0 and a tie.  The lexicographically first wins both.
    m = TropMatrix.from_rows([[0, 0, 1], [0, 0, 0]])
    assert qtvol_plus(m) == (1, (0, 2))
    assert tvol_max_sub(m) == (1, (0, 2))
    rep = build_volume_report(m)
    assert (rep.qtvol_plus, rep.qtvol_plus_witness) == (1, (0, 2))
    assert (rep.tvol, rep.tvol_witness) == (1, (0, 2))


def test_unique_gap_witness_is_the_first_unique_subset() -> None:
    # (0, 1) has a numeric gap 0; (0, 2) and (1, 2) have one finite term each.
    m = TropMatrix.from_rows([[0, 0, 0], [0, 0, None]])
    assert tvol_max_sub(m) == (UNIQUE_GAP, (0, 2))
    rep = build_volume_report(m)
    assert (rep.tvol, rep.tvol_witness) == (UNIQUE_GAP, (0, 2))
    assert (rep.qtvol_plus, rep.qtvol_plus_witness) == (0, (0, 1))


def test_report_i_volume_witnesses_are_first_strict_maximizers() -> None:
    # The alcove's vertices in sorted order are (0,0,0), (1,0,0), (1,1,0),
    # (1,1,1).  The largest coordinate ties at 1 from (1,0,0) on, and the
    # two largest tie at 2 from (1,1,0) on.
    ivols = build_volume_report(alcove_simplex((0, 0, 0))).i_volumes
    assert (ivols[1]["plus"], ivols[1]["plus_witness"]) == (1, (1, 0, 0))
    assert (ivols[2]["plus"], ivols[2]["plus_witness"]) == (2, (1, 1, 0))
    assert (ivols[1]["minus"], ivols[1]["minus_witness"]) == (1, (1, 1, 1))
    assert (ivols[3]["plus"], ivols[3]["plus_witness"]) == (3, (1, 1, 1))


def test_report_tlvol_on_duplicate_columns_and_tied_subsets() -> None:
    # (rows, expected (tlvol, witness), the simplices that are singular)
    cases = [
        # Columns 0 and 3 are equal, so each simplex holding both is singular.
        ([[0, 2, 1, 0], [1, 0, 3, 1]], (5, (0, 1, 2)), [(0, 1, 3), (0, 2, 3)]),
        # Three copies of one column span no simplex.
        ([[1, 1, 1], [2, 2, 2]], (None, None), [(0, 1, 2)]),
        # In (0, 1, 2) the best value 6 ties across the subsets (0, 1) and
        # (0, 2), each of which has a unique best term.
        ([[3, 2, 1, 0], [1, 3, 3, 5]], (8, (0, 1, 3)), [(0, 1, 2)]),
        # In (0, 1, 2) only the subset (0, 2) attains the best value 4, but
        # two of its own terms do.
        ([[2, 1, 3, 0], [1, 0, 2, 4]], (7, (0, 2, 3)), [(0, 1, 2)]),
        ([[0, Fraction(1, 2), None, 2], [Fraction(-1, 3), 0, 1, 0]], (3, (0, 2, 3)), []),
    ]
    for rows, expected, singular in cases:
        m = TropMatrix.from_rows(rows, allow_minus_inf_columns=True)
        rep = build_volume_report(m)
        assert (rep.tlvol, rep.tlvol_witness) == tlvol_subsets(m) == expected, rows
        for K in itertools.combinations(range(m.cols), m.rows + 1):
            simplex = m.submatrix_columns(K)
            bt = simplex_dtrunk_barycenter(simplex)
            assert (bt is None) == (K in singular), (rows, K)
            assert build_volume_report(simplex).tlvol == (None if bt is None else sum(bt))


def test_report_solves_no_assignment_problem(monkeypatch: pytest.MonkeyPatch) -> None:
    tdet_calls = _count_calls(monkeypatch, tdet)
    avoided = [
        _count_calls(monkeypatch, f) for f in (tminor, tdet_second, tvol_square)
    ]
    m = TropMatrix.from_rows([[0, 3, 1, 4, 2], [2, 0, 4, 1, 3], [1, 4, 0, 2, 3]])
    for method in ("subsets", "triangulation", "both"):
        rep = build_volume_report(m, method)
        assert rep.tlvol is not None, method
        assert tdet_calls == [], method  # every simplex is read off the subset table
        assert avoided == [[], [], []], method


def test_column_subsets_past_the_expansion_limit() -> None:
    # Past BRUTE_LIMIT rows the expansion is refused, unless the Hungarian
    # solve shows that the subset has no finite term at all.
    square = cube(9).submatrix_columns(range(9))
    rep = build_volume_report(square)
    assert (rep.qtvol_plus, rep.tvol, rep.tvol_witness) == (None, None, None)
    with pytest.raises(ValidationError, match="second-best value limited to n <= 8"):
        build_volume_report(cube(9))


def test_report_charges_both_subset_sweeps_before_either_runs(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # C(n, d) * d! for the d-column expansions, then C(n, d + 1) * (d + 1)
    # for the simplices of tlvol; a guard below either trips before any
    # sweep runs
    sweeps = _count_calls(monkeypatch, _column_subset_table)
    rng = random.Random(2602)
    tripped = {}
    for d, n in ((1, 4), (2, 6), (2, 9), (3, 5), (3, 7), (4, 6), (5, 9)):
        m = TropMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(d)])
        charges = [
            ("column subset sweep", math.comb(n, d) * math.factorial(d)),
            ("simplex subset sweep", math.comb(n, d + 1) * (d + 1)),
        ]
        for guard in sorted({c + x for _, c in charges for x in (-1, 0)} - {0}):
            stage = next(((what, c) for what, c in charges if c > guard), None)
            sweeps.clear()
            try:
                build_volume_report(m, "subsets", guard)
            except GuardExceeded as exc:
                got = str(exc)
            else:
                got = None
            if stage is None:
                assert sweeps == [1], (d, n, guard)
                assert got is None or "subset sweep" not in got, (d, n, guard)
            else:
                what, required = stage
                assert got == f"{what} needs about {required} steps, guard is {guard}"
                assert sweeps == [], (d, n, guard)  # nothing swept yet
                tripped[what] = tripped.get(what, 0) + 1
    assert min(tripped.values()) >= 5 and len(tripped) == 2, tripped
    # tlvol by the triangulation alone reads no simplex off the table, so
    # only the d-column expansions are charged: 3,540 here, and 102,660
    # for the simplices
    m = TropMatrix.from_rows([[rng.randint(0, 3) for _ in range(60)] for _ in range(2)])
    with pytest.raises(GuardExceeded, match="^simplex subset sweep needs about 102660 steps"):
        build_volume_report(m, "subsets", 10**4)
    rep = build_volume_report(m, "triangulation", 10**4)
    assert rep.qtvol_plus == build_volume_report(m).qtvol_plus


def test_standalone_subset_sweeps_charge_the_guard_before_any_work(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # a 5 x 18 matrix: unguarded, tlvol took seconds and column_subset_volumes
    # most of one, where the report stops at once with the same charges
    rng = random.Random(0)
    m = TropMatrix.from_rows([[rng.randint(0, 3) for _ in range(18)] for _ in range(5)])
    sweeps = _count_calls(monkeypatch, _column_subset_table)
    subsets = _count_calls(monkeypatch, tlvol_subsets)
    triangulations = _count_calls(monkeypatch, cells.enumerate_triangulation)
    column = "column subset sweep needs about 1028160 steps, guard is 1000"
    simplex = "simplex subset sweep needs about 111384 steps, guard is 1000"
    for call, want in (
        (lambda g: column_subset_volumes(m, guard=g), column),
        (lambda g: tvol_max_sub(m, guard=g), column),
        (lambda g: tlvol(m, guard=g), simplex),
        (lambda g: tlvol(m, "both", g), simplex),
        (lambda g: build_volume_report(m, guard=g), column),
    ):
        with pytest.raises(GuardExceeded) as info:
            call(1000)
        assert str(info.value) == want
        monkeypatch.setenv("TROPEVOL_GUARD", "1000")
        with pytest.raises(GuardExceeded) as info:
            call(None)
        assert str(info.value) == want
        monkeypatch.delenv("TROPEVOL_GUARD")
    assert (sweeps, subsets, triangulations) == ([], [], [])
    # at a guard that holds both charges, the standalone values are the report's
    small = m.submatrix_columns(range(7))
    rep = build_volume_report(small)
    assert column_subset_volumes(small, 21 * 120) == (
        rep.qtvol_plus, rep.qtvol_plus_witness, rep.tvol, rep.tvol_witness
    )
    assert tvol_max_sub(small, 21 * 120) == (rep.tvol, rep.tvol_witness)
    assert tlvol(small, guard=7 * 6) == rep.tlvol
    with pytest.raises(GuardExceeded, match="^column subset sweep needs about 2520 steps"):
        column_subset_volumes(small, 21 * 120 - 1)
    with pytest.raises(GuardExceeded, match="^simplex subset sweep needs about 42 steps"):
        tlvol(small, guard=41)


# -- the report's simplex skip: no Kleene star for a simplex that cannot win --


def _column_max_bound(m: TropMatrix, K: tuple):
    """sum_i max_(j in K) M_ij, or None when a row is -inf all over K."""
    tops = [max((row[j] for j in K if row[j] is not None), default=None) for row in m.entries]
    return None if None in tops else sum(tops)


def test_simplex_barycenter_sum_is_bounded_by_the_column_maxima() -> None:
    # a trunk lies in the hull of abar_K's columns, whose points with x_0 = 0
    # are below the columns' row maxima; the report's skip rests on this
    rng = random.Random(3511)
    seen = {"nonsingular": 0, "tight": 0, "inf": 0, "fraction": 0}
    for _ in range(600):
        d = rng.randint(1, 4)
        kind = rng.choice(("int", "inf", "fraction"))
        rows = []
        for _ in range(d):
            row = []
            for _ in range(d + 1):
                if kind == "inf" and rng.random() < 0.25:
                    row.append(None)
                elif kind == "fraction" and rng.random() < 0.4:
                    row.append(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                else:
                    row.append(rng.randint(-2, 4))
            rows.append(row)
        m = TropMatrix.from_rows(rows, allow_minus_inf_columns=True)
        bt = simplex_dtrunk_barycenter(m)
        if bt is None:
            continue
        bound = _column_max_bound(m, tuple(range(d + 1)))
        assert bound is not None, rows  # a nonsingular simplex has a finite entry per row
        assert sum(bt) <= bound, rows
        seen["nonsingular"] += 1
        seen["tight"] += sum(bt) == bound
        if kind != "int":
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def _wide_matrices(seed: int):
    """2 x 8-12 and 3 x 7-9 matrices with entries in 0..3 or 0..20, some
    with a repeated column, some with -inf or Fraction entries."""
    rng = random.Random(seed)
    for d, widths in ((2, range(8, 13)), (3, range(7, 10))) * 10:
        n, top = rng.choice(widths), rng.choice((3, 20))
        kind = rng.choice(("int", "duplicate", "inf", "fraction"))

        def entry():
            if kind == "inf" and rng.random() < 0.15:
                return None
            if kind == "fraction" and rng.random() < 0.3:
                return Fraction(rng.randint(0, 2 * top), 2)
            return rng.randint(0, top)

        cols = [[entry() for _ in range(d)] for _ in range(n)]
        if kind == "duplicate":
            cols[rng.randrange(n)] = list(cols[rng.randrange(n)])
        if all(c[0] is None for c in cols):
            cols[0][0] = 0
        yield TropMatrix.from_columns(cols, allow_minus_inf_columns=True)


def test_report_tlvol_skips_simplices_that_cannot_win(monkeypatch: pytest.MonkeyPatch) -> None:
    # the report's tlvol and witness equal the full Hungarian sweep's, though
    # it takes fewer Kleene stars than there are nonsingular simplices; the
    # inputs include repeated columns and several simplices tied at the best
    seen = Counter()
    for m in _wide_matrices(3512):
        expected = tlvol_subsets(m)
        sums = [
            sum(bt) for K in itertools.combinations(range(m.cols), m.rows + 1)
            if (bt := simplex_dtrunk_barycenter(m.submatrix_columns(K))) is not None
        ]
        with monkeypatch.context() as patch:
            stars = _count_calls(patch, kleene_star)
            rep = build_volume_report(m)
        assert (rep.tlvol, rep.tlvol_witness) == expected, m.entries
        assert len(stars) <= len(sums)
        seen["inputs"] += 1
        seen["fewer stars"] += len(stars) < len(sums)
        seen["tied best"] += sums.count(expected[0]) > 1
        seen["repeated column"] += len(set(m.columns())) < m.cols
    assert seen["inputs"] == 20 and seen["fewer stars"] >= 15 and min(seen.values()) >= 5, seen
