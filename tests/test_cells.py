"""Alcoved cells, canonical triangulations and complex structure."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tropevol.cells import (
    AlcovedSimplex,
    CellComplex,
    bounding_box,
    enumerate_triangulation,
    enumerate_triangulation_brute,
    lattice_points,
)
from tropevol.core import TropMatrix, contains
from tropevol.errors import GuardExceeded, ValidationError
from tropevol.fixtures import alcove_simplex, cube, fix_l, fix_tri


def test_alcoved_simplex_from_chain():
    c = AlcovedSimplex.from_chain([(0, 0), (1, 1)])
    assert c.dim == 1
    assert c.base == (0, 0)
    assert c.relative_interior_point() == (Fraction(1, 2), Fraction(1, 2))
    assert c.blocks() == ((0, 1),)
    with pytest.raises(ValidationError):
        AlcovedSimplex.from_chain([(0, 0), (2, 0)])  # step is not 0/1
    with pytest.raises(ValidationError):
        AlcovedSimplex.from_chain([(0, 0), (1, 0), (2, 0)])  # reused support


def test_alcoved_simplex_faces_and_facets():
    c = AlcovedSimplex.from_chain([(0, 0), (0, 1), (1, 1)])
    faces = list(c.faces())
    assert len(faces) == 7  # every nonempty subchain
    facets = list(c.facets())
    assert sorted(f.vertices for f in facets) == [
        ((0, 0), (0, 1)),
        ((0, 0), (1, 1)),
        ((0, 1), (1, 1)),
    ]


def test_from_description_round_trip():
    c = AlcovedSimplex.from_description((1, 2), (1, 0), ("<", "<", "="))
    assert c.vertices == ((1, 2), (1, 3))
    again = AlcovedSimplex.from_chain(c.vertices)
    assert again == c
    with pytest.raises(ValidationError):
        AlcovedSimplex.from_description((0, 0), (0, 0), ("<", "<", "<"))
    with pytest.raises(ValidationError):
        AlcovedSimplex.from_description((0, 0), (0, 1), ("=", "<", "<"))


def test_lattice_points_small_triangle():
    m = fix_l(2)
    assert lattice_points(m) == {(0, 0), (0, 1), (1, 1)}


def test_lattice_points_respect_guard():
    with pytest.raises(GuardExceeded):
        lattice_points(fix_l(4), guard=3)


def test_bounding_box_requires_lattice_input():
    with pytest.raises(ValidationError):
        bounding_box(cube(2))  # -inf entries
    with pytest.raises(ValidationError):
        bounding_box(TropMatrix.from_rows([[0, -1], [0, 0]]))  # negative


def test_triangle_complex_structure():
    cx = enumerate_triangulation(fix_l(2))
    assert {k: len(v) for k, v in cx.by_dim.items()} == {0: 3, 1: 3, 2: 1}
    assert cx.dim == 2
    assert cx.euler_characteristic() == 1
    assert cx.is_pure()
    assert cx.vertices() == [(0, 0), (0, 1), (1, 1)]
    # each triangle edge is covered exactly once
    assert set(cx.facet_cover_count.values()) == {1}
    assert [c.vertices for c in cx.interior_cells()] == [((0, 0), (0, 1), (1, 1))]


def test_shape_with_tail_complex_structure():
    cx = enumerate_triangulation(fix_l(4))
    assert {k: len(v) for k, v in cx.by_dim.items()} == {0: 5, 1: 5, 2: 1}
    assert not cx.is_pure()  # the tail is a maximal 1-cell
    assert cx.euler_characteristic() == 1
    assert len(cx.trunk(2).cells) == 7
    assert len(cx.trunk(1).cells) == len(cx.cells)
    labels = cx.labels()
    maximal = sorted(c.vertices for c, lab in labels.items() if lab == "maximal")
    assert ((0, 0), (0, 1), (1, 1)) in maximal
    assert (((2, 2), (3, 3))) in maximal  # tentacle tip stays maximal


def test_trunk_range_validation():
    cx = enumerate_triangulation(fix_l(2))
    with pytest.raises(ValidationError):
        cx.trunk(5)


def test_triangulation_cells_lie_in_hull():
    m = fix_tri(3, 1)
    cx = enumerate_triangulation(m)
    for cell in cx.cells:
        for v in cell.vertices:
            assert contains(m, v)
        assert contains(m, cell.relative_interior_point())


@st.composite
def small_lattice_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=2))
    ncols = draw(st.integers(min_value=1, max_value=4))
    cols = []
    for _ in range(ncols):
        cols.append(
            tuple(
                draw(st.integers(min_value=0, max_value=3)) for _ in range(d)
            )
        )
    return TropMatrix.from_columns(cols)


@given(m=small_lattice_matrices())
@settings(max_examples=40, deadline=None)
def test_triangulation_matches_brute_force(m):
    fast = enumerate_triangulation(m)
    brute = enumerate_triangulation_brute(m)
    assert {c.vertices for c in fast.cells} == {c.vertices for c in brute.cells}


@given(m=small_lattice_matrices())
@settings(max_examples=30, deadline=None)
def test_complex_is_closed_under_faces(m):
    cx = enumerate_triangulation(m)
    have = {c.vertices for c in cx.cells}
    for c in cx.cells:
        for f in c.faces():
            assert f.vertices in have
    assert cx.euler_characteristic() == 1  # hulls are contractible


def test_alcove_simplex_fixture_is_one_closed_cell():
    m = alcove_simplex((1, 2))
    cx = enumerate_triangulation(m)
    top = cx.cells_of_dim(2)
    assert len(top) == 1
    assert top[0].vertices == ((1, 2), (2, 2), (2, 3))
    assert len(cx.cells) == 7


def test_complex_json_export():
    cx = enumerate_triangulation(fix_l(2))
    data = cx.to_json_list()
    assert len(data) == len(cx.cells)
    assert all({"vertices", "dim", "label"} <= set(e) for e in data)


def test_triangulation_guard():
    with pytest.raises(GuardExceeded):
        enumerate_triangulation(fix_l(4), guard=2)


def _seeded_matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        yield TropMatrix.from_rows(
            [[rng.randint(0, 3) for _ in range(cols)] for _ in range(d)]
        )


def test_cell_is_only_its_vertex_chain():
    assert [f.name for f in dataclasses.fields(AlcovedSimplex)] == ["vertices"]
    c = AlcovedSimplex.from_chain([(0, 0), (0, 1), (1, 1)])
    assert c == AlcovedSimplex(((0, 0), (0, 1), (1, 1)))
    assert hash(c) == hash(AlcovedSimplex(c.vertices))
    assert c != AlcovedSimplex(((0, 0), (1, 1)))


def test_trusted_cells_round_trip_through_from_chain():
    # enumeration, faces and facets skip validation; from_chain must accept
    # each of their chains and give back an equal cell
    seen = 0
    for m in _seeded_matrices(61, 40):
        for c in enumerate_triangulation(m).cells:
            for f in (c, *c.faces(), *c.facets()):
                assert AlcovedSimplex.from_chain(f.vertices) == f
                seen += 1
    assert seen > 1000


def test_vertex_max_dim_gives_trunk_vertices():
    for m in _seeded_matrices(62, 40):
        cx = enumerate_triangulation(m)
        for i in range(m.rows + 1):
            from_table = {v for v, k in cx.vertex_max_dim.items() if k >= i}
            assert from_table == set(cx.trunk(i).vertices()), (m.entries, i)
