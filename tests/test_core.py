"""Semiring scalars, matrices, hull membership and scaled permutations."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tropevol
from tropevol.core import (
    MINUS_INF,
    ScaledPermutationMatrix,
    TropMatrix,
    act,
    as_point,
    contains,
    exp_point,
    format_entry,
    log_point,
    mat_tmul,
    max_subset_sum,
    min_subset_sum,
    parse_entry,
    recompose,
    residuate,
    tadd,
    tmul,
    trop_distance,
    tsum,
)
from tropevol.errors import ValidationError
from tropevol.fixtures import cube, fix_l


entries = st.one_of(
    st.none(),
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
)


def test_scalar_operations():
    assert tadd(3, 5) == 5
    assert tadd(None, 5) == 5
    assert tadd(None, None) is MINUS_INF
    assert tmul(3, 5) == 8
    assert tmul(None, 5) is MINUS_INF
    assert tmul(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert tsum([]) is MINUS_INF
    assert tsum([None, 2, 7, None]) == 7


@given(a=entries, b=entries, c=entries)
def test_scalar_axioms(a, b, c):
    assert tadd(a, b) == tadd(b, a)
    assert tadd(tadd(a, b), c) == tadd(a, tadd(b, c))
    assert tmul(a, b) == tmul(b, a)
    assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
    assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))
    assert tadd(a, a) == a
    assert tmul(a, 0) == a
    assert tadd(a, None) == a
    assert tmul(a, None) is MINUS_INF


def test_entry_parsing_round_trip():
    assert parse_entry("-inf") is MINUS_INF
    assert parse_entry("9/2") == Fraction(9, 2)
    assert parse_entry(7) == 7
    assert format_entry(None) == "-inf"
    assert format_entry(Fraction(9, 2)) == "9/2"
    assert format_entry(Fraction(9, 1)) == 9
    assert format_entry(4) == 4
    with pytest.raises(ValidationError):
        parse_entry("3.5px")
    with pytest.raises(ValidationError):
        parse_entry(float("nan"))


def test_matrix_construction_and_validation():
    m = TropMatrix.from_rows([[0, 1], [2, 3]])
    assert m.shape == (2, 2)
    assert m.column(1) == (1, 3)
    with pytest.raises(ValidationError):
        TropMatrix.from_rows([[0, 1], [2]])
    with pytest.raises(ValidationError):
        TropMatrix.from_rows([])
    with pytest.raises(ValidationError):
        TropMatrix.from_rows([[None], [None]])
    allowed = TropMatrix.from_rows([[None], [None]], allow_minus_inf_columns=True)
    assert allowed.has_minus_inf_column()
    # matrices derived from validated ones skip the entry checks, but each
    # one passes them and the empty shapes keep the constructor's errors
    m = TropMatrix.from_rows([[0, None, Fraction(1, 2)], [1, 3, None]])
    derived = [
        m.submatrix_columns((2, 0)), m.submatrix((1,), (1, 2)), m.translate(Fraction(-1, 2)),
        mat_tmul(m.submatrix_columns((0, 1)), m), act(ScaledPermutationMatrix((1, 0), (2, -1)), m),
    ]
    for x in derived:
        assert TropMatrix(x.entries, x.allow_minus_inf_columns) == x
    with pytest.raises(ValidationError, match="^matrix needs at least one column$"):
        m.submatrix_columns(())
    with pytest.raises(ValidationError, match="^matrix needs at least one row$"):
        m.submatrix((), (0,))
    with pytest.raises(ValidationError, match="^matrix needs at least one column$"):
        m.submatrix((0,), ())


def test_matrix_json_round_trip():
    m = TropMatrix.from_rows([[0, Fraction(1, 2)], [None, 3]], allow_minus_inf_columns=True)
    back = TropMatrix.from_json(m.to_json(), allow_minus_inf_columns=True)
    assert back.entries == m.entries
    with pytest.raises(ValidationError):
        TropMatrix.from_json("not json")
    with pytest.raises(ValidationError):
        TropMatrix.from_json('{"rows": 1, "cols": 2, "entries": [[1]]}')


def test_matrix_multiplication_example():
    a = TropMatrix.from_rows([[0, 1], [2, 3]])
    x = TropMatrix.from_rows([[5], [6]])
    y = mat_tmul(a, x)
    assert y.entries == ((7,), (9,))


def test_membership_of_generators_and_combinations():
    m = fix_l(4)
    for j in range(m.cols):
        assert contains(m, m.column(j))
    lam = (-1, 0, -2)
    assert contains(m, tuple(recompose(m, lam)))
    assert not contains(m, (10, 0))
    assert not contains(m, (0, 10))


def test_membership_needs_a_weight_zero_coefficient():
    # the hull of a single generator is only the translates with lambda = 0
    m = TropMatrix.from_rows([[0], [0]])
    assert contains(m, (0, 0))
    assert not contains(m, (-1, -1))
    assert not contains(m, (1, 1))


def test_membership_with_minus_inf_column():
    # [-inf, 0]^2: the absorbing column lets every dominated point in
    m = cube(2)
    assert contains(m, (0, 0))
    assert contains(m, (-5, -7))
    assert contains(m, (None, -3))
    assert not contains(m, (1, 0))
    assert not contains(m, (0, Fraction(1, 2)))


def test_residuation_galois_property():
    m = fix_l(3)
    x = (1, 1)
    lam = residuate(m, x)
    y = recompose(m, lam)
    assert all(tadd(a, b) == b for a, b in zip(y, x))  # y <= x coordinatewise


@st.composite
def matrices(draw, max_d=3, max_m=4):
    d = draw(st.integers(min_value=1, max_value=max_d))
    m = draw(st.integers(min_value=1, max_value=max_m))
    cols = []
    for _ in range(m):
        col = draw(
            st.lists(
                st.integers(min_value=-6, max_value=6),
                min_size=d,
                max_size=d,
            )
        )
        cols.append(tuple(col))
    return TropMatrix.from_columns(cols)


@given(m=matrices(), lam_raw=st.lists(st.integers(min_value=-5, max_value=0), min_size=4, max_size=4))
@settings(max_examples=60)
def test_recomposition_stays_in_hull(m, lam_raw):
    lam = tuple(lam_raw[: m.cols])
    if not lam or max(lam) != 0:
        lam = (0,) + tuple(lam[1:])
    x = tuple(recompose(m, lam))
    assert contains(m, x)


def test_distance_examples_and_axioms():
    # projective range metric: max(x - y) + max(y - x)
    x, y = (0, 0), (1, 3)
    assert trop_distance(x, y) == 2
    assert trop_distance(y, x) == 2
    assert trop_distance((0, 0), (5, 5)) == 0  # same projective point
    assert trop_distance(x, x) == 0
    z = (2, -1)
    assert trop_distance(x, z) <= trop_distance(x, y) + trop_distance(y, z)
    shifted_x = tuple(c + 5 for c in x)
    shifted_y = tuple(c + 5 for c in y)
    assert trop_distance(shifted_x, shifted_y) == trop_distance(x, y)


def test_exp_log_round_trip():
    x = (0, 2, -3)
    for b in (2, 3, 7):
        y = exp_point(x, b)
        assert log_point(y, b) == x
    assert exp_point((None, 0), 2) == (0, 1)
    assert exp_point((-1, 2), 2) == (Fraction(1, 2), 4)
    assert log_point((0, 1), 2) == (None, 0)


def test_scaled_permutation_action_against_matrix_product():
    s = ScaledPermutationMatrix((1, 0), (1, -1))
    m = fix_l(4)
    direct = act(s, m)
    assert direct.entries == ((1, 2, 4), (-1, -1, 2))
    via_matrix = mat_tmul(s.to_matrix(), m)
    assert via_matrix.entries == direct.entries


def test_rotation_predicates():
    s = ScaledPermutationMatrix((0, 1, 2), (0, -1, -4))
    assert s.is_rotation_plus(1)
    assert not s.is_rotation_minus(1)
    t = ScaledPermutationMatrix((0, 1, 2), (3, 0, 1))
    assert t.is_rotation_minus(1)
    assert not t.is_rotation_plus(1)
    # at i = d both classes collapse to the zero-sum group
    u = ScaledPermutationMatrix((1, 0), (5, -5))
    assert u.is_rotation_plus(2) and u.is_rotation_minus(2)


def test_subset_sums():
    assert max_subset_sum((1, -2, 3), 2) == 4
    assert min_subset_sum((1, -2, 3), 2) == -1
    assert max_subset_sum((1, -2, 3), 3) == 2
    assert min_subset_sum((1, -2, 3), 3) == 2


def test_as_point_validation():
    assert as_point((3, None)) == (3, None)
    with pytest.raises(ValidationError):
        as_point(("3", "-inf"))  # strings only pass through parse_entry
    with pytest.raises(ValidationError):
        as_point((1, 2), d=3)


def test_every_public_name_resolves():
    # a star import fails on any name in __all__ that the package lacks
    namespace: dict = {}
    exec("from tropevol import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(set(tropevol.__all__))
