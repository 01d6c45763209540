"""Base-b lattice counting, counting polynomials and their coefficients."""

from __future__ import annotations

import collections
import itertools
import math
import operator
import random
from fractions import Fraction

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from tropevol import cells, ehrhart
from tropevol.cells import AlcovedSimplex, enumerate_triangulation, lattice_points
from tropevol.core import TropMatrix, contains
from tropevol.ehrhart import (
    _chain_count,
    c_dminus1_direct,
    c_top_leading,
    cell_weights,
    classical_ehrhart_scaled_simplex,
    closed_cell_count,
    coefficient_in_b,
    coeffs_via_formula,
    count_maxtimes,
    count_tropical,
    count_via_cells,
    ehrhart_report,
    interior_coeffs_via_formula,
    log_coefficient,
    log_degree_bound,
    log_map,
    open_cell_count,
    reciprocity_check,
    tropical_ehrhart_poly,
)
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
from tropevol.guard import resolve_guard
from tropevol.ratpoly import lagrange_interpolate, poly_eval
from tropevol.volumes import cartesian_product, discrete_surface

from test_cells import _tables_of, dfs_triangulation, outcome


# Frozen count tables for the triangle-with-tail shape, length parameter 4.
# Derived from three independent routes: the raw box scan in the b-power
# domain, the per-cell chain counting, and evaluation of the interpolated
# polynomial.
L4_COUNTS = {2: [9, 18, 39, 93], 3: [30, 100, 406, 2188]}
L4_COEFFS = {
    2: (Fraction(1), Fraction(15, 2), Fraction(1, 2)),
    3: (Fraction(1), Fraction(27), Fraction(2)),
}


def test_count_basics():
    m = fix_l(4)
    assert count_maxtimes(m, 2, 1) == 9
    for b, expected in L4_COUNTS.items():
        for k, n in enumerate(expected):
            assert count_tropical(m, b, k) == n
            assert count_via_cells(m, b, k) == n


def test_count_single_point():
    m = TropMatrix.from_rows([[1], [2]])
    assert count_tropical(m, 2, 0) == 1
    assert count_tropical(m, 2, 3) == 1


def test_count_cube_closed_form():
    # [-inf, 0]^d meets the base-b grid in (b^k + 1)^d points after k scalings
    for d in (1, 2, 3):
        m = cube(d)
        for b in (2, 3):
            for k in (0, 1, 2):
                assert count_tropical(m, b, k) == (b**k + 1) ** d


def test_count_validation():
    with pytest.raises(ValidationError):
        count_tropical(fix_l(4), 1, 0)
    with pytest.raises(ValidationError):
        count_tropical(TropMatrix.from_rows([[0, -1], [0, 0]]), 2, 0)
    with pytest.raises(GuardExceeded):
        count_tropical(fix_l(4), 2, 5, guard=10)


def test_counting_error_names_only_the_accepted_entries():
    negative = TropMatrix.from_rows([[0, -1], [0, 0]])
    # the max-times count takes -inf entries, so its message offers them
    with pytest.raises(ValidationError) as info:
        count_maxtimes(negative, 2, 1)
    assert str(info.value) == "counting needs entries in Z>=0 (or -inf), got -1"
    # the chain-weight readers refuse -inf, so theirs must not
    for call in (
        lambda: count_via_cells(negative, 2, 0),
        lambda: tropical_ehrhart_poly(negative, 2),
        lambda: coeffs_via_formula(fix_delta2(), 2),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == "counting needs entries in Z>=0, got -1"


def test_polynomial_interpolation_frozen_values():
    m = fix_l(4)
    for b, coeffs in L4_COEFFS.items():
        poly = tropical_ehrhart_poly(m, b)
        assert poly.coeffs == coeffs
        assert coeffs_via_formula(m, b) == coeffs
        for k, n in enumerate(L4_COUNTS[b]):
            assert poly.evaluate(k) == n
        assert poly.verified_at is not None


def test_polynomial_rejects_minus_inf():
    with pytest.raises(ValidationError):
        tropical_ehrhart_poly(cube(2), 2)


def test_second_coefficient_of_triangle_with_edge():
    # half-open boundary plus a pendant edge; both derivation routes agree
    expected = {(3, 0, 2): 3, (3, 1, 2): 5, (3, 0, 3): 11, (3, 1, 3): 17}
    for (l, k, b), value in expected.items():
        m = fix_tri(l, k)
        assert tropical_ehrhart_poly(m, b).coeffs[1] == value
        assert coeffs_via_formula(m, b)[1] == value
        assert c_dminus1_direct(m, b) == value
        assert coefficient_in_b(m, 1, b) == value


def test_unit_alcove_coefficients():
    m = alcove_simplex((1, 2))
    assert tropical_ehrhart_poly(m, 2).coeffs == (1, 4, 4)
    assert coeffs_via_formula(m, 2) == (1, 4, 4)


def test_leading_coefficient_closed_form():
    # c_d and c_(d-1) by their closed forms against interpolation; on
    # translates by s, against the formula sum and against c_i * b**(s*i)
    for m in (fix_l(4), fix_tri(3, 1), alcove_simplex((1, 2))):
        d = m.rows
        for b in (2, 3, 5):
            coeffs = tropical_ehrhart_poly(m, b).coeffs
            assert c_top_leading(m, b) == coeffs[-1]
            assert c_dminus1_direct(m, b) == coeffs[-2]
            for s in (1, 3):
                moved = m.translate(s)
                formula = coeffs_via_formula(moved, b)
                assert c_top_leading(moved, b) == formula[-1] == coeffs[-1] * b ** (s * d)
                assert (
                    c_dminus1_direct(moved, b)
                    == formula[-2]
                    == coeffs[-2] * b ** (s * (d - 1))
                )


def _classical_dilate(m, k):
    """k * tconv(M) = tconv(k * M): the classical dilate is a hull again."""
    return TropMatrix.from_rows([[k * e for e in row] for row in m.entries])


def test_classical_dilate_counts():
    m = fix_l(2)  # unimodular triangle
    for k in (1, 2, 3):
        assert len(lattice_points(_classical_dilate(m, k))) == (k + 1) * (k + 2) // 2


def test_classical_dilate_matches_scan_of_the_dilated_box():
    # oracle: test z / k for membership in P over the box of k * P
    rng = random.Random(1909)
    for _ in range(60):
        d, n, k = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 3)
        m = TropMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(d)])
        box = [range(k * min(row), k * max(row) + 1) for row in m.entries]
        expected = sum(
            contains(m, tuple(Fraction(c, k) for c in z)) for z in itertools.product(*box)
        )
        assert len(lattice_points(_classical_dilate(m, k))) == expected, (m.entries, k)
    with pytest.raises(GuardExceeded, match="bounding box scan"):
        lattice_points(_classical_dilate(fix_l(4), 2), guard=10)


def _cell_rvol(cell, b):
    """Oracle: the relative volume of the b-scaled closed cell, (prod g_l) / m!."""
    return Fraction(math.prod(cell_weights(cell, b)), math.factorial(cell.dim))


def test_scaled_cell_polynomial():
    # diagonal unit cell based at (1,1): after base-2 coordinate scaling the
    # segment runs to (2t, 2t) and carries 2t + 1 lattice points
    cell = AlcovedSimplex.from_chain([(1, 1), (2, 2)])
    assert classical_ehrhart_scaled_simplex(cell, 2) == (1, 2)
    assert _cell_rvol(cell, 2) == 2


def test_cell_rvol_matches_polynomial_leading_coefficient():
    for m in (fix_l(4), fix_tri(3, 1)):
        cx = enumerate_triangulation(m)
        for cell in cx.cells:
            for b in (2, 3):
                coeffs = classical_ehrhart_scaled_simplex(cell, b)
                assert coeffs[cell.dim] == _cell_rvol(cell, b)


def test_coefficient_homogeneity_under_translation():
    m = fix_tri(3, 0)
    b = 2
    base = tropical_ehrhart_poly(m, b).coeffs
    shifted = tropical_ehrhart_poly(m.translate(1), b).coeffs
    assert shifted == tuple(c * b**i for i, c in enumerate(base))


def test_counting_is_a_valuation_on_a_union():
    # triangle and pendant segment overlapping in one point
    b = 2
    tri = TropMatrix.from_rows([[1, 2, 2], [0, 0, 1]])
    seg = TropMatrix.from_rows([[2, 3], [1, 2]])
    union = TropMatrix.from_rows([[1, 2, 2, 3], [0, 0, 1, 2]])
    point = TropMatrix.from_rows([[2], [1]])
    for k in (0, 1, 2):
        assert (
            count_tropical(union, b, k) + count_tropical(point, b, k)
            == count_tropical(tri, b, k) + count_tropical(seg, b, k)
        )


def test_reciprocity_on_pure_shapes():
    assert reciprocity_check(fix_tri(3, 0), 2)
    assert reciprocity_check(fix_l(2), 2)
    assert reciprocity_check(alcove_simplex((1, 2)), 3)
    with pytest.raises(ValidationError):
        reciprocity_check(fix_l(4), 2)  # tail makes the complex non-pure


def test_reciprocity_rejects_flat_pure_complexes():
    # A branching tree of segments in the plane: all maximal cells are
    # one-dimensional, yet the interior counts break the sign pattern at
    # the branch vertex, so the identity's hypothesis excludes it.
    tree = TropMatrix(((3, 2, 3, 1), (2, 0, 2, 1)))
    with pytest.raises(ValidationError):
        reciprocity_check(tree, 2)


COUNTING_CALLS = {
    "count_via_cells": lambda arg: count_via_cells(arg, 2, 1),
    "coeffs_via_formula": lambda arg: coeffs_via_formula(arg, 2),
    "interior_coeffs_via_formula": lambda arg: interior_coeffs_via_formula(arg, 2),
    "c_top_leading": lambda arg: c_top_leading(arg, 2),
    "c_dminus1_direct": lambda arg: c_dminus1_direct(arg, 2),
    "reciprocity_check": lambda arg: reciprocity_check(arg, 2),
    "coefficient_in_b": lambda arg: coefficient_in_b(arg, 1, 2),
    "log_coefficient": lambda arg: log_coefficient(arg, 1),
    "discrete_surface": discrete_surface,
}


@pytest.mark.parametrize("name", sorted(COUNTING_CALLS))
def test_counting_rejects_negative_entries_before_triangulating(
    monkeypatch: pytest.MonkeyPatch, name: str
) -> None:
    # b**e counts lattice points only for e >= 0: triangulation accepts the
    # negative DELTA2 fixture, every chain-weight reader refuses it
    m = fix_delta2()
    complex_ = enumerate_triangulation(m)

    def refuse(*args, **kwargs):
        raise AssertionError("triangulated before the Z>=0 check")

    monkeypatch.setattr(cells, "enumerate_triangulation", refuse)
    for arg in (m, complex_):
        with pytest.raises(ValidationError, match="Z>=0"):
            COUNTING_CALLS[name](arg)


def test_log_map():
    # 2 b^3 + b: degree 3 regardless of small low-order noise
    samples = [(b, 2 * b**3 + b) for b in range(2, 9)]
    assert log_map(samples, 3) == 3
    assert log_map([(b, 0) for b in range(2, 9)], 3) is None
    assert log_map([(b, Fraction(1, 2)) for b in range(2, 9)], 3) == 0
    with pytest.raises(ValidationError):
        log_map([(b, Fraction(1, b)) for b in range(2, 9)], 3)
    # the bound follows the exponent rule; a negative one keeps its message
    assert str(_raised(log_map, samples, -1)) == "degree bound must be nonnegative"
    for bad in (True, False, 1.5, 3.0, "3", None):
        message = f"degree bound must be a nonnegative integer, got {bad!r}"
        assert str(_raised(log_map, [(2, 1), (3, 1)], bad)) == message


def _log_map_by_expansion(samples, degree_bound):
    """The expansion route, kept as an oracle: the monomial coefficients of
    the interpolant of the first degree_bound + 1 samples, evaluated at every
    sample, and the index of the last nonzero coefficient."""
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    if len(samples) < degree_bound + 1:
        raise ValidationError(f"need at least {degree_bound + 1} samples, got {len(samples)}")
    coeffs = lagrange_interpolate(samples[: degree_bound + 1])
    for bval, val in samples:
        if poly_eval(coeffs, Fraction(bval)) != Fraction(val):
            raise ValidationError(
                f"samples are not polynomial of degree <= {degree_bound} (residual at b={bval})"
            )
    return max((i for i, c in enumerate(coeffs) if c != 0), default=None)


def _log_map_outcome(call, samples, degree_bound):
    try:
        return call(samples, degree_bound)
    except ValidationError as exc:
        return str(exc)


def test_log_map_matches_the_expansion_route_on_seeded_samples():
    # Values and error texts alike, on integer and Fraction bases, with
    # consistent and perturbed extras, duplicate head nodes and polynomials
    # whose top coefficients vanish.
    rng = random.Random(1908)
    kinds = collections.Counter()
    for _ in range(1500):
        bound = rng.randint(0, 8)
        kind = rng.choice(("consecutive", "int", "fraction"))
        n = bound + 1 + rng.randint(0, 3)
        if kind == "consecutive":
            xs = list(range(2, n + 2))
        else:
            xs = [Fraction(x) for x in _seeded_nodes(rng, "int" if kind == "int" else "fraction", n)]
        degree = rng.randint(-1, bound)
        poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(degree + 1)]
        samples = [(x, poly_eval(poly, x)) for x in xs]
        if n > bound + 1 and rng.random() < 0.4:
            at = rng.randrange(bound + 1, n)
            samples[at] = (samples[at][0], samples[at][1] + rng.choice((1, Fraction(1, 7))))
            kinds["perturbed extra"] += 1
        elif n > bound + 1:
            kinds["consistent extras"] += 1
        if bound > 0 and rng.random() < 0.15:
            i, j = rng.sample(range(bound + 1), 2)
            samples[i] = (samples[j][0], samples[i][1])
            kinds["duplicate head node"] += 1
        want = _log_map_outcome(_log_map_by_expansion, samples, bound)
        assert _log_map_outcome(log_map, samples, bound) == want, (samples, bound)
        kinds["error" if isinstance(want, str) else "value"] += 1
        kinds[kind] += 1
    assert min(kinds.values()) >= 100, kinds


def _seeded_nodes(rng, kind, n):
    if kind == "int":
        return rng.sample(range(-40, 40), n)
    if kind == "fraction":
        nodes = set()
        while len(nodes) < n:
            nodes.add(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
        return list(nodes)
    b = rng.randint(2, 5)
    return [Fraction(b) ** k for k in range(n)]


def test_lagrange_interpolate_reproduces_seeded_nodes():
    rng = random.Random(1908)
    for n in range(1, 13):
        for kind in ("int", "fraction", "power"):
            for _ in range(4):
                xs = _seeded_nodes(rng, kind, n)
                ys = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 5)) for _ in xs]
                coeffs = lagrange_interpolate(list(zip(xs, ys)))
                assert len(coeffs) == n
                assert all(isinstance(c, Fraction) for c in coeffs)
                assert all(poly_eval(coeffs, x) == y for x, y in zip(xs, ys)), (xs, ys)
                # a polynomial of degree < n is its own interpolant
                poly = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
                assert lagrange_interpolate([(x, poly_eval(poly, x)) for x in xs]) == poly


def test_lagrange_interpolate_rejects_duplicate_nodes():
    with pytest.raises(ValidationError):
        lagrange_interpolate([(1, 2), (3, 4), (1, 5)])
    with pytest.raises(ValidationError):
        lagrange_interpolate([(Fraction(4, 2), 0), (2, 0)])


def test_log_degree_bound(monkeypatch):
    m = fix_l(4)
    assert log_degree_bound(m) >= 2 * (1 + 3)
    # a matrix's bound is read off its entries, whatever they are, and
    # nothing is triangulated
    monkeypatch.setattr(cells, "enumerate_triangulation", None)
    assert log_degree_bound(TropMatrix.from_rows([[0, -1], [2, 0]])) == 2 * (1 + 2)
    assert log_degree_bound(TropMatrix.from_rows([[-1, None], [0, 1]])) == 2 * (1 + 1)


def test_coefficient_routes_check_b_and_the_index_before_triangulating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("triangulated before the arguments were checked")

    cx = enumerate_triangulation(fix_l(4))
    monkeypatch.setattr(cells, "enumerate_triangulation", refuse)
    negative = TropMatrix.from_rows([[0, -1], [0, 0]])
    for arg in (fix_l(4), cx):
        for bad_b in (1, True, 2.0):
            assert str(_raised(coefficient_in_b, arg, 0, bad_b)).startswith("base must be")
            assert str(_raised(reciprocity_check, arg, bad_b)).startswith("base must be")
            assert str(_raised(reciprocity_check, arg, bad_b, 1)).startswith("base must be")
        for bad_i in (True, False, -1, 3, 9, 1.0, "1", None):
            message = f"coefficient index {bad_i} out of range"
            assert str(_raised(coefficient_in_b, arg, bad_i, 2, 1)) == message
            assert str(_raised(coefficient_in_b, arg, bad_i, 1)) == message
            assert str(_raised(log_coefficient, arg, bad_i, 1)) == message
    # the input is still checked first, and the guard before it
    assert str(_raised(coefficient_in_b, negative, 9, 1)) == "counting needs entries in Z>=0, got -1"
    assert str(_raised(log_coefficient, "m", 9)) == "expected a matrix or cell complex, got str"
    assert str(_raised(coefficient_in_b, negative, 9, 1, 0)).startswith("guard must be")


def test_log_coefficients_frozen():
    assert log_coefficient(fix_tri(3, 0), 1) == 3
    assert log_coefficient(fix_tri(3, 1), 1) == 3
    assert log_coefficient(fix_tri(3, 2), 1) == 3
    assert log_coefficient(fix_l(4), 1) == 3
    assert log_coefficient(fix_tri(3, 0), 0) == 0
    assert log_coefficient(fix_tri(3, 0), 2) == 4


def test_log_coefficient_of_a_matrix_equals_that_of_its_complex():
    # the degree bound is read off the largest vertex coordinate of the
    # complex, which is the max entry of the matrix
    rng = random.Random(1910)
    seeded = []
    for _ in range(12):
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        seeded.append(
            TropMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(d)])
        )
    fixtures = [fix_l(3), fix_l(4), fix_tri(3, 0), fix_tri(3, 2), alcove_simplex((1, 2))]
    for m in fixtures + seeded:
        cx = enumerate_triangulation(m)
        assert log_degree_bound(cx) == log_degree_bound(m) == m.rows * (1 + m.max_entry())
        for i in range(m.rows + 1):
            assert log_coefficient(cx, i) == log_coefficient(m, i), (m.entries, i)


def test_ehrhart_report_shape():
    rep = ehrhart_report(fix_l(4), 2, 3)
    assert rep["agree"] is True
    assert rep["coeffs"] == ["1", "15/2", "1/2"]
    assert [c["value"] for c in rep["counts"]] == [9, 18, 39, 93]


def test_ehrhart_report_rejects_negative_kmax_before_counting(monkeypatch):
    def counting(*args, **kwargs):
        raise AssertionError("counted before kmax was checked")

    monkeypatch.setattr(ehrhart, "count_tropical", counting)
    monkeypatch.setattr(ehrhart, "coeffs_via_formula", counting)
    with pytest.raises(ValidationError, match=r"^kmax must be nonnegative, got -1$"):
        ehrhart_report(fix_l(4), 2, -1)


def test_exponents_follow_the_rule_of_count_tropical(monkeypatch):
    # k, a dilation t and kmax are each a non-bool int, at least 0
    m = fix_l(4)
    cell = AlcovedSimplex.from_chain([(0, 0), (0, 1), (1, 1)])
    for bad in (-1, True, False, 1.5, "1", None):
        with pytest.raises(ValidationError, match=r"^k must be a nonnegative integer, got "):
            count_via_cells(m, 2, bad)
        with pytest.raises(ValidationError, match=r"^k must be a nonnegative integer, got "):
            open_cell_count(cell, 2, bad)
    assert str(_raised(count_via_cells, m, 2, True)) == "k must be a nonnegative integer, got True"
    for bad in (True, False, 1.5, 0.0, "1", None):
        message = f"dilation must be a nonnegative integer, got {bad!r}"
        assert str(_raised(closed_cell_count, cell, 2, bad)) == message
        message = f"kmax must be a nonnegative integer, got {bad!r}"
        assert str(_raised(ehrhart_report, m, 2, bad)) == message
    # a negative number keeps the message it always had
    for bad in (-1, -1.5, Fraction(-1, 2)):
        assert str(_raised(closed_cell_count, cell, 2, bad)) == "dilation must be nonnegative"
        assert str(_raised(ehrhart_report, m, 2, bad)) == f"kmax must be nonnegative, got {bad}"
    # count_via_cells checks k before it triangulates
    monkeypatch.setattr(cells, "enumerate_triangulation", None)
    with pytest.raises(ValidationError, match=r"^k must be a nonnegative integer, got -1$"):
        count_via_cells(m, 2, -1)


def test_exponent_checks_keep_the_order_of_earlier_faults():
    # an input with two faults still reports the one it reported before
    negative = TropMatrix.from_rows([[0, -1], [0, 0]])
    assert str(_raised(count_via_cells, negative, 2, -1)) == "counting needs entries in Z>=0, got -1"
    assert str(_raised(count_via_cells, "m", 2, -1)) == "expected a matrix or cell complex, got str"
    assert str(_raised(count_via_cells, fix_l(4), 1, -1)).startswith("base must be")
    assert str(_raised(count_via_cells, fix_l(4), 2, -1, 0)).startswith("guard must be")
    assert str(_raised(ehrhart_report, fix_l(4), 1, 1.5)).startswith("base must be")
    assert str(_raised(ehrhart_report, negative, 2, 1.5)) == "counting needs entries in Z>=0, got -1"
    assert str(_raised(ehrhart_report, fix_l(4), 2, 1.5, 0)).startswith("guard must be")
    assert str(_raised(ehrhart_report, fix_l(4), 1, -1, 0)) == "kmax must be nonnegative, got -1"
    cell = AlcovedSimplex.from_chain([(0, 0), (1, 1)])
    assert str(_raised(open_cell_count, cell, 1, -1)).startswith("base must be")
    assert str(_raised(closed_cell_count, cell, 1, 1.5)).startswith("base must be")


def _raised(call, *args):
    with pytest.raises(ValidationError) as info:
        call(*args)
    return info.value


def _record_scans(monkeypatch):
    """Record the t of every box scan and the k of every count_tropical call."""
    scans, fallbacks = [], []
    fibres, count = ehrhart._fibres, ehrhart.count_tropical

    def scanning(m, b, t):
        scans.append(t)
        return fibres(m, b, t)

    def counting(m, b, k, guard=None):
        fallbacks.append(k)
        return count(m, b, k, guard)

    monkeypatch.setattr(ehrhart, "_fibres", scanning)
    monkeypatch.setattr(ehrhart, "count_tropical", counting)
    return scans, fallbacks


def test_ehrhart_report_scans_the_box_once(monkeypatch):
    scans, fallbacks = _record_scans(monkeypatch)
    rep = ehrhart_report(fix_l(4), 2, 5)
    assert scans == [2 ** 5]
    assert fallbacks == []
    assert [c["value"] for c in rep["counts"]][:4] == L4_COUNTS[2]


def test_ehrhart_report_scans_at_d_when_d_plus_one_does_not_fit(monkeypatch):
    # the k = 3 box has 65**2 = 4225 points, past the guard; k = 2 has 1089
    # so the scan stops at k = 2 and the k = 3 check is skipped, not counted
    scans, fallbacks = _record_scans(monkeypatch)
    rep = ehrhart_report(fix_l(4), 2, 2, guard=2000)
    assert scans == [2 ** 2]
    assert fallbacks == []
    assert [c["value"] for c in rep["counts"]] == L4_COUNTS[2][:3]
    assert rep["agree"] is True
    scans.clear()
    poly = tropical_ehrhart_poly(fix_l(4), 2, guard=2000)
    assert scans == [2 ** 2]
    assert fallbacks == []
    assert poly.verified_at is None and poly.coeffs == L4_COEFFS[2]
    # a node past the scan is read through count_tropical, which raises
    # that node's own error: the k = 2 box has 1089 points
    scans.clear()
    with pytest.raises(GuardExceeded, match="needs about 1089 steps, guard is 1000$"):
        tropical_ehrhart_poly(fix_l(4), 2, guard=1000)
    assert scans == [2 ** 1]
    assert fallbacks == [2]


def test_ehrhart_report_scans_once_above_d_plus_one(monkeypatch):
    scans, fallbacks = _record_scans(monkeypatch)
    rep = ehrhart_report(fix_l(4), 3, 4)
    assert scans == [3 ** 4]
    assert fallbacks == []
    poly = L4_COEFFS[3]
    assert [c["value"] for c in rep["counts"]] == [
        poly_eval(poly, Fraction(3) ** k) for k in range(5)
    ]
    assert [c["value"] for c in rep["counts"]][:4] == L4_COUNTS[3]
    # past the guard, the scan stops at k = 8 and k = 9 raises its own error
    scans.clear()
    with pytest.raises(GuardExceeded, match="needs about 16785409 steps"):
        ehrhart_report(fix_l(4), 2, 10)
    assert scans == [2 ** 8]
    assert fallbacks == [9]


def test_polynomial_reads_every_node_off_one_scan(monkeypatch):
    scans, fallbacks = _record_scans(monkeypatch)
    for b, coeffs in L4_COEFFS.items():
        scans.clear()
        poly = tropical_ehrhart_poly(fix_l(4), b)
        assert scans == [b ** 3]
        assert poly.coeffs == coeffs and poly.verified_at == 3
    assert fallbacks == []


def _chain_count_brute(gs, t, strict):
    """Oracle: the recursion that visits one node per counted chain prefix.

    Counts integers n_1..n_m with 0 <= n_m/g_m <= ... <= n_1/g_1 <= t, or
    with every inequality strict; its cost is proportional to the count.
    """
    m = len(gs)
    if m == 0:
        return 1
    if t == 0:
        return 0 if strict else 1

    def rec(level, num, den):
        g = gs[level]
        if strict:
            top, lo = (g * num - 1) // den, 1
        else:
            top, lo = (g * num) // den, 0
        if top < lo:
            return 0
        if level == m - 1:
            return top - lo + 1
        return sum(rec(level + 1, nv, g) for nv in range(lo, top + 1))

    return rec(0, t, 1)


def test_chain_count_dp_matches_recursion_oracle():
    rng = random.Random(20190821)
    cases = [((), t, strict) for t in (0, 1, 5) for strict in (False, True)]
    cases += [((2, 4, 1), 0, strict) for strict in (False, True)]
    while len(cases) < 1200:
        b = rng.choice((2, 3))
        m = rng.randint(1, 4)
        top_exp = 3 if m <= 2 else (2 if m == 3 else 1)
        exps = [rng.randint(0, top_exp) for _ in range(m)]
        cases.append((tuple(b**e for e in exps), rng.randint(0, 4), rng.random() < 0.5))
    rising = sum(1 for gs, _, _ in cases if any(x < y for x, y in zip(gs, gs[1:])))
    falling = sum(1 for gs, _, _ in cases if any(x > y for x, y in zip(gs, gs[1:])))
    assert rising > 200 and falling > 200
    for gs, t, strict in cases:
        assert _chain_count(gs, t, strict, 10**7) == _chain_count_brute(gs, t, strict), (gs, t, strict)


def _random_cell(rng, d, offset):
    """A random alcoved cell in R^d whose base point is offset + small noise."""
    order = list(range(d))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, d + 1), rng.randint(1, d)))
    base = tuple(offset + rng.randint(0, 2) for _ in range(d))
    verts = [base]
    start = 0
    for cut in cuts:
        v = list(verts[-1])
        for r in order[start:cut]:
            v[r] += 1
        verts.append(tuple(v))
        start = cut
    return AlcovedSimplex.from_chain(verts)


def test_scaled_simplex_matches_unshifted_interpolation():
    rng = random.Random(1908)
    for offset in range(7):
        for _ in range(12):
            cell = _random_cell(rng, rng.randint(1, 4), offset)
            for b in (2, 3):
                pts = [(t, closed_cell_count(cell, b, t)) for t in range(cell.dim + 1)]
                want = lagrange_interpolate(pts)
                assert classical_ehrhart_scaled_simplex(cell, b) == want, (cell, b)


def test_interpolation_table_is_integral_and_matches_lagrange():
    rng = random.Random(1915)
    for m in range(9):
        table = ehrhart._interpolation_table(m)
        assert len(table) == m + 1
        assert all(len(row) == m + 1 for row in table)
        assert all(type(w) is int for row in table for w in row), m
        for _ in range(20):
            # integer-valued: an integer combination of the binomials C(t, k)
            weights = [rng.randint(-50, 50) for _ in range(m + 1)]
            ys = [sum(a * math.comb(t, k) for k, a in enumerate(weights)) for t in range(m + 1)]
            got = tuple(
                Fraction(sum(w * y for w, y in zip(row, ys)), math.factorial(m))
                for row in table
            )
            assert got == lagrange_interpolate(list(enumerate(ys))), (m, ys)


def _clear_tables():
    cells._patterns.clear()
    ehrhart._classes.clear()


def _complex_tables(m, guard):
    cx = enumerate_triangulation(m, guard)
    return cx.cells, _tables_of(cx)


def _table_cases():
    """Seeded 1-6 row matrices, translated by 0..2, one with a repeated row
    (tied coordinates at every lattice point), a segment whose lower end has
    a single 1-chain, and fixtures whose cells have blocks far apart, so
    that some class costs more than the cells."""
    rng = random.Random(2301)
    for _ in range(14):
        d = rng.randint(1, 4)
        top = {1: 8, 2: 9, 3: 5, 4: 2}[d]
        n = rng.randint(2, 5)
        rows = [[rng.randint(0, top) for _ in range(n)] for _ in range(d)]
        yield TropMatrix.from_rows(rows).translate(rng.randint(0, 2))
    for d in (1, 5, 6):
        rows = [[rng.randint(0, 1 if d > 1 else 8) for _ in range(3)] for _ in range(d)]
        yield TropMatrix.from_rows(rows).translate(rng.randint(0, 2))
    rows = [[rng.randint(0, 4) for _ in range(4)] for _ in range(2)]
    yield TropMatrix.from_rows(rows + [rows[0]])
    yield TropMatrix.from_rows([[1, 2], [1, 1], [3, 3]])
    yield from (fix_4d(), fix_tri(6, 2), fix_tri(4, 1).translate(2), alcove_simplex((3, 1)))
    yield from (alcove_simplex((0, 4, 2)), alcove_simplex((0, 3, 1, 2)).translate(1))


def test_warm_tables_give_cold_answers_and_guard_errors():
    # the pattern and class tables kept across calls change no answer: a call
    # on empty tables and the same call after a full run on the same input
    # agree on every value, the tally order and each table of the complex,
    # and on each GuardExceeded message, required and limit; the tight
    # guards trip in every stage, chain enumeration and chain counting
    # included, so a table read before its guard charge shows here
    stages = collections.Counter()
    for m in _table_cases():
        box = math.prod(hi - lo + 1 for lo, hi in cells.bounding_box(m))
        size = len(dfs_triangulation(m))
        for b in (2, 3):
            # the largest class charge, as _class_coeffs charges it at t = m
            charge = max(
                len(e) * sum(b ** (x - min(e)) for x in e[:-1]) + len(e) - 1
                for e in enumerate_triangulation(m).exponent_tally
            )
            tight = {box, (box + size) // 2, size - 2, size, charge // 2, charge - 1, 2 * charge}
            for guard in sorted(g for g in tight if g > 0) + [None]:
                for route, args in (
                    (_complex_tables, (m, guard)),
                    (coeffs_via_formula, (m, b, guard)),
                    (interior_coeffs_via_formula, (m, b, guard)),
                ):
                    _clear_tables()
                    cold = outcome(route, *args)
                    route(*args[:-1], None)  # fill both tables for this input
                    assert outcome(route, *args) == cold, (route.__name__, m.entries, b, guard)
                    stages[cold[1].split(" needs")[0] if cold[0] == "guard" else "value"] += 1
    assert min(stages.values()) >= 20 and len(stages) == 4, stages


def test_tables_hold_only_patterns_and_shifted_classes():
    # after any mix of routes, the pattern table holds exactly the (cube
    # pattern, d) of the lattice points triangulated, and the class table
    # exactly the (shifted exponent tuple, b) of the classes summed
    _clear_tables()
    want_patterns, want_classes = set(), set()
    for m in _table_cases():
        d = m.rows
        pts = lattice_points(m)
        for p in pts:
            pattern = sum(
                1 << S for S in range(1 << d)
                if tuple(x + (S >> i & 1) for i, x in enumerate(p)) in pts
            )
            want_patterns.add((pattern, d))
        cx = enumerate_triangulation(m)
        for b in (2, 5):
            for exps in cx.exponent_tally:
                s = min(exps, default=0)
                want_classes.add((tuple(e - s for e in exps), b))
            coeffs_via_formula(m, b)
            interior_coeffs_via_formula(m, b)
            c_dminus1_direct(m, b)
    assert set(cells._patterns.keys()) == want_patterns
    assert set(ehrhart._classes.keys()) == want_classes


def _plain_formula_sum(cells, d, b):
    """Per-cell sum with each cell counted unshifted and without reuse."""
    out = [Fraction(0)] * (d + 1)
    for cell in cells:
        m = cell.dim
        coeffs = lagrange_interpolate(
            [(t, closed_cell_count(cell, b, t)) for t in range(m + 1)]
        )
        for i in range(m + 1):
            out[i] += (-1) ** (m - i) * Fraction(b - 1) ** i * coeffs[i]
    return tuple(out)


def test_memoized_formula_matches_plain_cell_sum_on_fixtures():
    fixtures = [
        fix_l(4), fix_l(6), fix_tri(3, 0), fix_tri(3, 2), fix_4d(),
        fix_delta2().translate(1), cartesian_product(*fix_prod(3)),
        alcove_simplex((1, 2)), alcove_simplex((0, 2, 1)),
    ]
    for m in fixtures:
        cx = enumerate_triangulation(m)
        d = cx.ambient_dim
        for b in (2, 3):
            assert coeffs_via_formula(cx, b) == _plain_formula_sum(cx.cells, d, b)
            if cx.is_pure() and cx.dim == d:
                assert interior_coeffs_via_formula(cx, b) == _plain_formula_sum(
                    cx.interior_cells(), d, b
                )


def test_formula_sum_matches_plain_cell_sum_on_formula_workload_shapes():
    # 3x4 matrices with entries 0..3, translated by up to 12, at b = 2
    rng = random.Random(1916)
    for _ in range(12):
        rows = [[rng.randint(0, 3) for _ in range(4)] for _ in range(3)]
        cx = enumerate_triangulation(TropMatrix.from_rows(rows).translate(rng.randint(0, 12)))
        assert coeffs_via_formula(cx, 2) == _plain_formula_sum(cx.cells, 3, 2), rows


def _oracle_exponents(cell):
    """The defining exponents: the smallest base coordinate on each block."""
    return tuple(min(cell.base[r] for r in block) for block in cell.blocks())


def _seeded_small_matrix(rng):
    d, n = rng.randint(1, 4), rng.randint(1, 4)
    top = {1: 3, 2: 3, 3: 2, 4: 1}[d]
    return TropMatrix.from_rows([[rng.randint(0, top) for _ in range(n)] for _ in range(d)])


def test_cell_exponents_match_block_minima_on_cells_faces_and_facets():
    rng = random.Random(1911)
    for _ in range(40):
        cx = enumerate_triangulation(_seeded_small_matrix(rng).translate(rng.randint(0, 3)))
        for cell in cx.cells:
            for sub in (cell, *cell.faces(), *cell.facets()):
                assert ehrhart.cell_exponents(sub) == _oracle_exponents(sub), sub


def test_class_sum_matches_plain_cell_sum_on_seeded_translates(monkeypatch):
    # Translating by s adds s to every exponent, so raw tuples of different
    # translates fall into the same shifted class; one polynomial per class.
    calls = []
    kernel = ehrhart._class_coeffs

    def counting(exps, b, guard):
        calls.append(exps)
        return kernel(exps, b, guard)

    monkeypatch.setattr(ehrhart, "_class_coeffs", counting)
    rng = random.Random(1912)
    for _ in range(30):
        m = _seeded_small_matrix(rng)
        work = {}
        for s in range(4):
            cx = enumerate_triangulation(m.translate(s))
            d = cx.ambient_dim
            for cells_, route in (
                (cx.cells, coeffs_via_formula),
                (cx.interior_cells(), interior_coeffs_via_formula),
            ):
                shifted = {
                    tuple(e - min(es) for e in es)
                    for es in map(_oracle_exponents, cells_)
                }
                for b in (2, 3, 5):
                    calls.clear()
                    got = route(cx, b)
                    assert sorted(calls) == sorted(shifted), (m.entries, s, b)
                    assert work.setdefault((route, b), len(calls)) == len(calls)
                    assert got == _plain_formula_sum(cells_, d, b), (m.entries, s, b)


def test_grouped_open_cell_count_matches_per_cell_sum():
    rng = random.Random(1913)
    for _ in range(30):
        cx = enumerate_triangulation(_seeded_small_matrix(rng).translate(rng.randint(0, 2)))
        for b in (2, 3):
            for k in range(3):
                want = sum(ehrhart.open_cell_count(c, b, k) for c in cx.cells)
                assert count_via_cells(cx, b, k) == want, (cx.cells[:1], b, k)


def _class_coeffs_per_t(exps, b, guard):
    """Oracle: one closed chain count per t = 1..m, in ascending order."""
    gs = tuple(b ** e for e in exps)
    counts = [1] + [_chain_count(gs, t, False, guard) for t in range(1, len(gs) + 1)]
    return tuple(sum(w * y for w, y in zip(row, counts)) for row in ehrhart._interpolation_table(len(gs)))


def test_class_coeffs_one_dp_matches_chain_count_per_t():
    # one DP at t = m reads every count; guards trip as the counts per t would
    rng = random.Random(2205)
    tripped = 0
    for _ in range(800):
        b = rng.choice((2, 3, 5))
        m = rng.randint(0, 5)
        exps = tuple(rng.randint(0, 3 if m <= 3 else 1) for _ in range(m))
        want = _class_coeffs_per_t(exps, b, 10**7)
        assert ehrhart._class_coeffs(exps, b, 10**7) == want, (exps, b)
        inner = sum(b ** e for e in exps[:-1])
        for t in range(1, m + 1):
            for guard in {t * inner + m - 2, t * inner + m - 1} - {0, -1}:
                got = outcome(ehrhart._class_coeffs, exps, b, guard)
                assert got == outcome(_class_coeffs_per_t, exps, b, guard), (exps, b, guard)
                tripped += got[0] == "guard"
    assert tripped > 300


def _dfs_formula_sum(m, b, guard):
    """Oracle for the formula sum's guard: the cell-by-cell triangulation, then
    each shifted class in order of first appearance, counted once per t."""
    cells_ = dfs_triangulation(m, guard)
    seen = set()
    for exps in collections.Counter(map(ehrhart.cell_exponents, cells_)):
        shifted = tuple(e - min(exps) for e in exps)
        if shifted not in seen:
            seen.add(shifted)
            _class_coeffs_per_t(shifted, b, guard)
    return coeffs_via_formula(m, b)


def _dfs_count_via_cells(m, b, k, guard):
    """Oracle for count_via_cells: one open count per exponent tuple, in order."""
    total = 0
    for exps, n in collections.Counter(map(ehrhart.cell_exponents, dfs_triangulation(m, guard))).items():
        total += n * _chain_count(tuple(b ** e for e in exps), (b - 1) * b ** k, True, guard)
    return total


def test_formula_and_cell_count_guards_trip_as_cell_by_cell_routes():
    rng = random.Random(2206)
    stages = collections.Counter()
    guards = sorted({round(1.25 ** i) for i in range(40)})
    for _ in range(12):
        d = rng.randint(1, 3)
        rows = [[rng.randint(0, 5) for _ in range(3)] for _ in range(d)]
        m = TropMatrix.from_rows(rows).translate(rng.randint(0, 2))
        for b in (2, 3):
            for guard in guards:
                for route, oracle, args in (
                    (coeffs_via_formula, _dfs_formula_sum, (m, b, guard)),
                    (count_via_cells, _dfs_count_via_cells, (m, b, 1, guard)),
                ):
                    want = outcome(oracle, *args)
                    assert outcome(route, *args) == want, (route.__name__, rows, b, guard)
                    stages[want[1].split(" needs")[0] if want[0] == "guard" else "value"] += 1
    assert min(stages.values()) >= 20 and len(stages) == 4, stages


def test_chain_guard_names_stage_on_every_call():
    cell = AlcovedSimplex.from_chain([(0, 3), (1, 3), (1, 4)])
    assert cell_weights(cell, 2) == (1, 8)
    with pytest.raises(GuardExceeded, match="weighted chain counting") as first:
        closed_cell_count(cell, 2, 2, guard=2)
    assert first.value.required == 3
    cx = enumerate_triangulation(fix_tri(3, 0).translate(3))
    errors = []
    for _ in range(2):
        with pytest.raises(GuardExceeded, match="weighted chain counting") as exc:
            coeffs_via_formula(cx, 2, guard=2)
        errors.append((str(exc.value), exc.value.required))
    assert errors[0] == errors[1]


def _maxtimes_membership(tb, big):
    """Exact test for integer points z of the max-times hull of the columns of tb.

    tb[i][j] is t * b**M_ij (0 for -inf) and every nonzero entry divides big.
    The residuation coefficient of column j is min_i z_i / tb[i][j]; scaled by
    big it is an integer.  z is in the hull iff recomposing with coefficients
    capped at 1 gives z back and some coefficient reached 1, or an all -inf
    column absorbs the cap.
    """
    d, n = len(tb), len(tb[0])
    weights = [
        [(i, big // tb[i][j]) for i in range(d) if tb[i][j]] for j in range(n)
    ]
    has_empty = not all(weights)

    def member(z):
        lam = [min((z[i] * w for i, w in col), default=big) for col in weights]
        if not has_empty and max(lam) < big:
            return False
        return all(
            max((min(lam[j], big) * e for j, e in enumerate(row) if e), default=0)
            == big * z[i]
            for i, row in enumerate(tb)
        )

    return member


def _box_scan(rows, b, t):
    # Oracle: residuation membership (_maxtimes_membership) at every point of
    # the box.  No library code uses that rule any more: the counts and the
    # dots of `tropevol plot` both come off the fibres of ehrhart._fibres.
    tb = [[0 if e is None else t * b ** e for e in row] for row in rows]
    big = t * b ** max((e for row in rows for e in row if e is not None), default=0)
    member = _maxtimes_membership(tb, big)
    return sum(1 for z in itertools.product(*[range(max(r) + 1) for r in tb]) if member(z))


def _seeded_counting_rows(rng):
    d, n = rng.randint(1, 4), rng.randint(1, 4)
    top = 2 if d <= 2 else 1
    rows = [
        [None if rng.random() < 0.25 else rng.randint(0, top) for _ in range(n)]
        for _ in range(d)
    ]
    if rng.random() < 0.2:
        j = rng.randrange(n)
        for row in rows:
            row[j] = None
    return rows


_LADDER = (numpy.int16, numpy.int32, numpy.int64, object)
_natural_dtype = ehrhart._grid_dtype


def _on_each_rung(monkeypatch, rows, run, seen):
    """run() once per rung of the grid dtype ladder, each grid at least that wide.

    Yields each rung's result; seen counts, per dtype the scans used, the
    inputs with a -inf entry and those with an all -inf column.
    """
    kinds = [
        kind for kind, hit in (
            ("input", True),
            ("-inf entry", any(e is None for row in rows for e in row)),
            ("-inf column", any(all(e is None for e in col) for col in zip(*rows))),
        ) if hit
    ]
    for rung in range(len(_LADDER)):
        used = set()

        def widened(big):
            dtype = _LADDER[max(rung, _LADDER.index(_natural_dtype(big)))]
            used.add(dtype)
            return dtype

        monkeypatch.setattr(ehrhart, "_grid_dtype", widened)
        yield run()
        seen.update((dtype, kind) for dtype in used for kind in kinds)


def _assert_every_rung_seen(seen, least):
    for dtype in _LADDER:
        for kind in ("input", "-inf entry", "-inf column"):
            assert seen[dtype, kind] >= least, (dtype, kind, seen)


def test_fibre_count_matches_box_scan_oracle(monkeypatch):
    # -inf entries and all -inf columns included; every row can be the fibre
    # axis; each input runs on every rung of the dtype ladder that holds it.
    rng = random.Random(5)
    seen = collections.Counter()
    for _ in range(300):
        rows = _seeded_counting_rows(rng)
        b, t = rng.randint(2, 3), rng.randint(1, 4)
        m = TropMatrix(tuple(map(tuple, rows)), allow_minus_inf_columns=True)
        want = _box_scan(rows, b, t)
        for got in _on_each_rung(monkeypatch, rows, lambda: count_maxtimes(m, b, t), seen):
            assert got == want, (rows, b, t)
    _assert_every_rung_seen(seen, 50)


def test_fibre_count_is_invariant_under_row_permutations():
    # Permuting rows moves the longest box axis, so other fibre axes are used.
    rng = random.Random(6)
    for _ in range(150):
        rows = _seeded_counting_rows(rng)
        b, t = rng.randint(2, 3), rng.randint(1, 4)
        counts = {
            count_maxtimes(
                TropMatrix(tuple(map(tuple, perm)), allow_minus_inf_columns=True), b, t
            )
            for perm in itertools.permutations(rows)
        }
        assert len(counts) == 1, (rows, b, t, counts)


def test_fibre_count_of_segment_family_is_b_to_the_e():
    for b in (2, 3):
        for e in range(6):
            rows = [[0, e], [0, 0]]
            m = TropMatrix(tuple(map(tuple, rows)))
            assert count_maxtimes(m, b, 1) == _box_scan(rows, b, 1) == b ** e
    # big * big >= 2**62: the same count runs on Python ints
    big = TropMatrix(((0, 40), (0, 0)))
    with pytest.raises(GuardExceeded, match="max-times box scan"):
        count_maxtimes(big, 2, 1)
    assert count_maxtimes(big, 2, 1, guard=2 ** 42) == 2 ** 40


def _seeded_dilate_rows(rng):
    """1-3 rows with -inf entries and all -inf columns; d = 1 has no grid axes."""
    d, n = rng.randint(1, 3), rng.randint(1, 4)
    rows = [
        [None if rng.random() < 0.25 else rng.randint(0, 2) for _ in range(n)]
        for _ in range(d)
    ]
    if rng.random() < 0.2:
        j = rng.randrange(n)
        for row in rows:
            row[j] = None
    return rows


def test_dilate_counts_match_a_scan_per_dilate():
    rng = random.Random(8)
    for _ in range(200):
        rows = _seeded_dilate_rows(rng)
        b = rng.choice((2, 3, 5))
        m = TropMatrix(tuple(map(tuple, rows)), allow_minus_inf_columns=True)
        counts = ehrhart._dilate_counts(m, b, 3, 20_000)
        assert counts, (rows, b)
        for k, n in enumerate(counts):
            assert n == count_maxtimes(m, b, b ** k), (rows, b, k)
        # K is the largest k <= 3 whose box fits: the next one does not
        if len(counts) <= 3:
            with pytest.raises(GuardExceeded):
                count_maxtimes(m, b, b ** len(counts), guard=20_000)


def test_dilate_counts_match_box_scan_oracle_on_small_boxes(monkeypatch):
    rng = random.Random(9)
    seen = collections.Counter()
    for _ in range(120):
        rows = _seeded_dilate_rows(rng)
        b = rng.choice((2, 3, 5))
        m = TropMatrix(tuple(map(tuple, rows)), allow_minus_inf_columns=True)
        counts = ehrhart._dilate_counts(m, b, 2, 3_000)
        assert counts == [_box_scan(rows, b, b ** k) for k in range(len(counts))], (rows, b)
        for got in _on_each_rung(
            monkeypatch, rows, lambda: ehrhart._dilate_counts(m, b, 2, 3_000), seen
        ):
            assert got == counts, (rows, b)
    _assert_every_rung_seen(seen, 40)


def test_dilate_counts_on_either_side_of_the_int32_grid():
    # the segment from (1, 1) to (b**e, 1) holds t * (b**e - 1) + 1 points of
    # its t-th dilate; big = b**(e + K) puts big**2 + 1 below or above 2**31
    for b, e, dtype in ((2, 13, numpy.int32), (2, 14, numpy.int64), (3, 7, numpy.int32),
                        (3, 8, numpy.int64)):
        m = TropMatrix(((0, e), (0, 0)))
        counts = ehrhart._dilate_counts(m, b, 2, 10 ** 7)
        assert counts == [b ** k * (b ** e - 1) + 1 for k in range(3)], (b, e)
        assert ehrhart._fibres(m, b, b ** 2)[0].dtype == dtype, (b, e)
    # one row all -inf: the box is one fibre, so t can reach the boundary itself
    edge = TropMatrix(((0, 0), (None, None)), allow_minus_inf_columns=True)
    for t, dtype in ((46340, numpy.int32), (46341, numpy.int64)):
        assert ehrhart._fibres(edge, 2, t)[0].dtype == dtype
        assert count_maxtimes(edge, 2, t) == _box_scan([[0, 0], [None, None]], 2, t)


def test_dilate_counts_on_either_side_of_the_int16_grid():
    # the segment family of the int32 case at k = 2: big = 2**(e + 2) is 128
    # (int16) or 256 (int32) at b = 2, and 3**(e + 2) is 81 or 243 at b = 3
    for b, e, dtype in ((2, 5, numpy.int16), (2, 6, numpy.int32), (3, 2, numpy.int16),
                        (3, 3, numpy.int32)):
        rows = [[0, e], [0, 0]]
        m = TropMatrix.from_rows(rows)
        counts = ehrhart._dilate_counts(m, b, 2, 10 ** 5)
        assert counts == [b ** k * (b ** e - 1) + 1 for k in range(3)], (b, e)
        assert counts == [_box_scan(rows, b, b ** k) for k in range(3)], (b, e)
        assert ehrhart._fibres(m, b, b ** 2)[0].dtype == dtype, (b, e)
    # one row all -inf: big = t, and 181**2 + 1 < 2**15 <= 182**2 + 1
    edge = TropMatrix(((0, 0), (None, None)), allow_minus_inf_columns=True)
    for t, dtype in ((181, numpy.int16), (182, numpy.int32)):
        assert ehrhart._fibres(edge, 2, t)[0].dtype == dtype
        assert count_maxtimes(edge, 2, t) == _box_scan([[0, 0], [None, None]], 2, t) == 1


def test_dilate_counts_on_python_ints_through_a_raised_guard():
    # big * big >= 2**62: the grid holds Python ints; the k = 2 box,
    # (2**42 + 1) * 5 points, is past the guard, so the scan runs at k = 1
    m = TropMatrix(((0, 40), (0, 0)))
    assert ehrhart._fibres(m, 2, 2)[0].dtype == object
    assert ehrhart._dilate_counts(m, 2, 2, 2 ** 44) == [2 ** 40, 2 * (2 ** 40 - 1) + 1]
    assert ehrhart._dilate_counts(m, 2, 2, 2 ** 40) == []


def _seeded_hull_rows(rng):
    """1-3 rows, each with its own offset, so the hull's box starts off 0 on
    some axes and any row may span the widest range; -inf entries and all
    -inf columns included.  Redrawn until the t = 1 box at b = 3 is small."""
    while True:
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = []
        for _ in range(d):
            low = rng.randint(0, 2)
            rows.append([None if rng.random() < 0.2 else low + rng.randint(0, 2) for _ in range(n)])
        if rng.random() < 0.15:
            j = rng.randrange(n)
            for row in rows:
                row[j] = None
        if math.prod(3 ** max((e for e in row if e is not None), default=0) + 1
                     for row in rows) <= 3_000:
            return rows


def test_hull_box_scan_matches_box_scan_oracle(monkeypatch):
    # the grid runs over each row's own range and the fibres along the
    # widest; every count, and every dilate read off the sublattice views,
    # equals the residuation oracle on every rung of the dtype ladder
    rng = random.Random(2719)
    seen = collections.Counter()
    shapes = collections.Counter()
    for _ in range(250):
        rows = _seeded_hull_rows(rng)
        b, t = rng.choice((2, 3)), rng.randint(1, 2)
        m = TropMatrix(tuple(map(tuple, rows)), allow_minus_inf_columns=True)
        scan = ehrhart._fibres(m, b, t)
        shapes["axis not 0"] += scan.axis != 0
        shapes["origin above 0"] += any(scan.origin)
        want = _box_scan(rows, b, t)
        wants = [_box_scan(rows, b, b ** k) for k in range(3)
                 if ehrhart._box_size(m, b, b ** k) <= 3_000]
        for got in _on_each_rung(monkeypatch, rows, lambda: count_maxtimes(m, b, t), seen):
            assert got == want, (rows, b, t)
        for got in _on_each_rung(
            monkeypatch, rows, lambda: ehrhart._dilate_counts(m, b, 2, 3_000), seen
        ):
            assert got == wants, (rows, b)
    _assert_every_rung_seen(seen, 40)
    assert min(shapes.values()) >= 30, shapes


def test_scan_runs_on_the_hulls_own_box_along_its_widest_range():
    # row 0 holds the largest entry but spans no range: the fibres run along
    # row 1, and the grid is row 0's one value, 2**3
    m = TropMatrix.from_rows([[3, 3], [0, 2]])
    scan = ehrhart._fibres(m, 2, 1)
    assert (scan.axis, scan.origin, scan.lo.shape, scan.hi.shape) == (1, (8,), (1,), (1,))
    assert count_maxtimes(m, 2, 1) == _box_scan([[3, 3], [0, 2]], 2, 1) == 4
    # a tie goes to the first row; each grid axis runs from its row's least
    # to its largest t * b**e: 6..24 and 12..24 at b = 2, t = 3
    rows = [[1, 2, 3], [3, 2, 1], [2, 2, 3]]
    scan = ehrhart._fibres(TropMatrix.from_rows(rows), 2, 3)
    assert (scan.axis, scan.origin, scan.hi.shape) == (0, (6, 12), (19, 13))
    assert count_maxtimes(TropMatrix.from_rows(rows), 2, 3) == _box_scan(rows, 2, 3)
    # a -inf entry counts as 0: row 0 spans 0..8 and row 1 only 2..8
    rows = [[None, 3], [1, 3]]
    scan = ehrhart._fibres(TropMatrix(tuple(map(tuple, rows))), 2, 1)
    assert (scan.axis, scan.origin, scan.lo.shape) == (0, (2,), (7,))
    # the axis and the origin scale with t, and a row with one value is a
    # one-point grid axis
    m = TropMatrix.from_rows([[0, 1, 2], [2, 2, 2]])
    for t in (1, 2, 5):
        scan = ehrhart._fibres(m, 3, t)
        assert (scan.axis, scan.origin, scan.lo.shape) == (0, (9 * t,), (1,))


def test_power_node_table_matches_lagrange():
    rng = random.Random(2727)
    for b in range(2, 8):
        for d in range(6):
            nodes = tuple(b ** k for k in range(d + 1))
            den, table = ehrhart._node_table(nodes)
            assert len(table) == d + 1 and all(len(row) == d + 1 for row in table)
            assert all(type(w) is int for row in table for w in row), (b, d)
            cases = [[int(j == k) for j in range(d + 1)] for k in range(d + 1)]
            cases += [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(d + 1)] for _ in range(5)]
            for ys in cases:
                got = tuple(Fraction(sum(map(operator.mul, row, ys)), den) for row in table)
                assert got == lagrange_interpolate(list(zip(nodes, ys))), (b, d, ys)
    # the nodes 0..m are the class kernel's table, with den = m!
    for m in range(9):
        den, table = ehrhart._node_table(tuple(range(m + 1)))
        assert (den, table) == (math.factorial(m), ehrhart._interpolation_table(m))


def test_interpolation_matches_lagrange_on_the_counts():
    rng = random.Random(2728)
    inputs = [fix_l(4), fix_tri(3, 1), alcove_simplex((0, 2, 1)), alcove_simplex((0, 1))]
    inputs += [TropMatrix.from_rows([[rng.randint(0, 2) for _ in range(3)] for _ in range(2)])
               for _ in range(20)]
    for m in inputs:
        for b in (2, 3, 5):
            if ehrhart._box_size(m, b, b ** m.rows) > 10 ** 6:
                continue
            poly = tropical_ehrhart_poly(m, b)
            nodes = [(b ** k, count_tropical(m, b, k)) for k in range(m.rows + 1)]
            assert poly.coeffs == lagrange_interpolate(nodes), (m.entries, b)
            assert all(type(c) is Fraction for c in poly.coeffs)


def test_tampered_check_count_raises_the_same_text():
    # the k = d + 1 check runs in integers; its message is the one the
    # Fraction route gave, with the prediction of the tampered nodes; the
    # same list cut before k = d + 1 skips the check
    guard = resolve_guard(None)
    for m, b in ((fix_l(4), 2), (alcove_simplex((0, 2, 1)), 2), (fix_tri(3, 1), 3)):
        d = m.rows
        true = [count_tropical(m, b, k) for k in range(d + 2)]
        for tamper in ({d + 1: 1}, {d + 1: -1}, {0: 3}, {1: -2, d + 1: 5}):
            counts = [c + tamper.get(k, 0) for k, c in enumerate(true)]
            pts = [(Fraction(b) ** k, counts[k]) for k in range(d + 1)]
            predicted = poly_eval(lagrange_interpolate(pts), Fraction(b) ** (d + 1))
            with pytest.raises(CrossCheckError) as info:
                ehrhart._interpolate(m, b, guard, counts)
            assert str(info.value) == (
                f"interpolated polynomial fails at k={d + 1}: "
                f"predicted {predicted}, counted {counts[d + 1]}"
            )
            poly = ehrhart._interpolate(m, b, guard, counts[:d + 1])
            assert poly.verified_at is None
            assert poly.coeffs == lagrange_interpolate(pts)


@st.composite
def counting_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=2))
    ncols = draw(st.integers(min_value=1, max_value=4))
    cols = [
        tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(d))
        for _ in range(ncols)
    ]
    return TropMatrix.from_columns(cols)


@given(m=counting_matrices(), b=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_interpolation_agrees_with_cell_formula(m, b):
    assert tropical_ehrhart_poly(m, b).coeffs == coeffs_via_formula(m, b)


@given(m=counting_matrices(), b=st.sampled_from([2, 3]), k=st.integers(min_value=0, max_value=2))
@settings(max_examples=30, deadline=None)
def test_count_routes_agree(m, b, k):
    assert count_tropical(m, b, k) == count_via_cells(m, b, k)
