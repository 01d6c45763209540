"""Alcoved cells, canonical triangulations and complex structure."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import add, or_

import pytest
from hypothesis import given, settings, strategies as st

from tropevol import cells
from tropevol.cells import (
    AlcovedSimplex,
    CellComplex,
    bounding_box,
    enumerate_triangulation,
    enumerate_triangulation_brute,
    lattice_points,
)
from tropevol.core import TropMatrix, contains
from tropevol.ehrhart import cell_exponents, weighted_facets
from tropevol.errors import GuardExceeded, ValidationError
from tropevol.fixtures import (
    alcove_simplex,
    cube,
    fix_4d,
    fix_delta2,
    fix_l,
    fix_prod,
    fix_tri,
)
from tropevol.guard import BoundedTable, check_guard, resolve_guard
from tropevol.volumes import cartesian_product, tlvol_triangulation


def trunk(cx: CellComplex, i: int) -> CellComplex:
    """Oracle for the i-trunk: the closure under faces of the cells of dimension >= i."""
    keep = {f for c in cx.cells if c.dim >= i for f in c.faces()}
    return CellComplex(cx.ambient_dim, tuple(sorted(keep, key=lambda c: (c.dim, c.vertices))))


def dfs_triangulation(m: TropMatrix, guard: int | None = None) -> tuple:
    """Oracle: every increment chain from every lattice point, one cell at a time.

    Each cell is charged to the guard before it is made, so the walk stops
    at guard + 2 cells.  The cells come back sorted by (dim, vertices).
    """
    guard = resolve_guard(guard)
    pts = lattice_points(m, guard)
    d = m.rows
    steps = [(mask, tuple(mask >> i & 1 for i in range(d))) for mask in range(1, 1 << d)]
    cells = []

    def extend(chain, used):
        check_guard(len(cells), guard, "chain enumeration")
        cells.append(AlcovedSimplex(tuple(chain)))
        for mask, inc in steps:
            nxt = tuple(map(add, chain[-1], inc))
            if not mask & used and nxt in pts:
                extend(chain + [nxt], used | mask)

    for p in sorted(pts):
        extend([p], 0)
    return tuple(sorted(cells, key=lambda c: (c.dim, c.vertices)))


def _tables_from_cells(cells, d):
    """The complex's derived tables, each read off the cell objects."""
    dim = max((c.dim for c in cells), default=-1)
    vertex_max_dim = {}
    for c in cells:  # ascending dimension, so the last write is the largest
        vertex_max_dim.update((v, c.dim) for v in c.vertices)
    covers = {c.vertices: 0 for c in cells if c.dim == dim - 1}
    for c in cells:
        if c.dim == dim:
            for f in c.facets():
                if f.vertices in covers:
                    covers[f.vertices] += 1
    facets = [
        (covers.get(c.vertices, 0) if dim == d else 0, sum(cell_exponents(c)))
        for c in cells if c.dim == d - 1
    ]
    full = [c.vertices[0] for c in cells if c.dim == d]
    best = max((sum(p) + d for p in full), default=None)
    return {
        "tally": list(Counter(map(cell_exponents, cells)).items()),
        "vertex_max_dim": list(vertex_max_dim.items()),
        "facet_covers": list(covers.items()),
        "euler": sum((-1) ** c.dim for c in cells),
        "tlvol": (best, next((p for p in full if sum(p) + d == best), None)),
        "facets": facets,
        "weighted": [(2 - n, e) for n, e in facets if n < 2],
    }


def _vertex_covers(cx):
    """cx._facet_covers with each (base, blocks) key turned into its vertex tuple."""
    def vertices(p, blocks):
        sets = itertools.accumulate(blocks, or_)
        return (p, *(tuple(x + (S >> i & 1) for i, x in enumerate(p)) for S in sets))

    return {vertices(*key): n for key, n in cx._facet_covers.items()}


def _tables_of(cx):
    return {
        "tally": list(cx.exponent_tally.items()),
        "vertex_max_dim": list(cx.vertex_max_dim.items()),
        "facet_covers": list(_vertex_covers(cx).items()),
        "euler": cx.euler_characteristic(),
        "tlvol": tlvol_triangulation(cx),
        "facets": list(cx.facet_exponents),
        "weighted": list(weighted_facets(cx)),
    }


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
    # the whole 4 x 4 bounding box is charged up front, before any fibre
    with pytest.raises(GuardExceeded, match="^bounding box scan needs about 16 steps, guard is 3$"):
        lattice_points(fix_l(4), guard=3)
    assert lattice_points(fix_l(4), guard=16) == _lattice_points_box(fix_l(4))
    with pytest.raises(GuardExceeded, match="bounding box scan"):
        lattice_points(fix_l(4), guard=15)


def _lattice_points_box(m):
    """Oracle: every point of the bounding box, tested one at a time."""
    box = bounding_box(m)
    ranges = [range(lo, hi + 1) for lo, hi in box]
    return {p for p in itertools.product(*ranges) if contains(m, p)}


def _window_matrix(rng, d, n):
    """A d x n matrix with entries in a window of [-4, 15] small enough that
    the oracle's bounding box holds at most about 2,000 points."""
    span = rng.randint(0, min(19, round(2000 ** (1 / d)) - 1))
    lo = rng.randint(-4, 15 - span)
    return TropMatrix.from_rows(
        [[rng.randint(lo, lo + span) for _ in range(n)] for _ in range(d)]
    )


def _reference_4x6(seed):
    rng = random.Random(seed)
    return TropMatrix.from_rows([[rng.randint(0, 15) for _ in range(6)] for _ in range(4)])


def _fibre_cases():
    """Seeded windows with 1-4 rows, repeated columns, points, more rows than
    columns, fixtures, 4x6 reference inputs and the volume benchmark's
    two-block 4-row shape (two 2x3 0/1 blocks, off-diagonal constant 5-7)."""
    rng = random.Random(1908)
    for _ in range(150):
        m = _window_matrix(rng, rng.randint(1, 4), rng.randint(1, 6))
        cols = [m.column(j) for j in range(m.cols)]
        yield m
        yield TropMatrix.from_columns(cols + rng.choices(cols, k=rng.randint(1, 3)))
        yield TropMatrix.from_columns([rng.choice(cols)] * rng.randint(1, 3))  # a point
    for _ in range(30):
        d = rng.randint(2, 4)
        yield _window_matrix(rng, d, rng.randint(1, d - 1))  # fewer columns than rows
    fixed = [fix_l(2), fix_l(4), fix_l(5), fix_tri(3, 0), fix_tri(3, 2), fix_4d(),
             fix_delta2(), alcove_simplex((1, 2)), alcove_simplex((0, 3, 1)),
             cartesian_product(*fix_prod(3))]
    yield from fixed + [_reference_4x6(seed) for seed in (2, 3, 4)]
    for c in (5, 6, 7):
        for _ in range(3):
            a, b = ([[rng.randint(0, 1) for _ in range(3)] for _ in range(2)] for _ in range(2))
            yield TropMatrix.from_rows(
                [a[0] + [c] * 3, a[1] + [c] * 3, [c] * 3 + b[0], [c] * 3 + b[1]]
            )


def test_lattice_points_match_box_scan_oracle():
    seen = {"negative": 0, "four rows": 0, "point": 0}
    for m in _fibre_cases():
        pts = lattice_points(m)
        assert pts == _lattice_points_box(m), m.entries
        seen["negative"] += not m.is_nonnegative()
        seen["four rows"] += m.rows == 4
        seen["point"] += len(pts) == 1
    assert min(seen.values()) >= 20, seen


def test_bounding_box_requires_lattice_input():
    with pytest.raises(ValidationError):
        bounding_box(cube(2))  # -inf entries
    with pytest.raises(ValidationError):
        bounding_box(TropMatrix.from_rows([[0, Fraction(1, 2)], [0, 0]]))  # not integer
    # negative entries are lattice input; counting rejects them (test_ehrhart)
    assert bounding_box(TropMatrix.from_rows([[0, -1], [0, 0]])) == ((-1, 0), (0, 0))


def test_triangle_complex_structure():
    cx = enumerate_triangulation(fix_l(2))
    assert {k: len(v) for k, v in cx.by_dim.items()} == {0: 3, 1: 3, 2: 1}
    assert cx.dim == 2
    assert cx.euler_characteristic() == 1
    assert cx.is_pure()
    assert cx.vertices() == [(0, 0), (0, 1), (1, 1)]
    # each triangle edge is covered exactly once
    assert set(cx._facet_covers.values()) == {1}
    assert [c.vertices for c in cx.interior_cells()] == [((0, 0), (0, 1), (1, 1))]


def test_shape_with_tail_complex_structure():
    cx = enumerate_triangulation(fix_l(4))
    assert {k: len(v) for k, v in cx.by_dim.items()} == {0: 5, 1: 5, 2: 1}
    assert not cx.is_pure()  # the tail is a maximal 1-cell
    assert cx.euler_characteristic() == 1
    assert len(trunk(cx, 2).cells) == 7
    assert len(trunk(cx, 1).cells) == len(cx.cells)


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


def outcome(fn, *args):
    """("value", fn(*args)), or ("guard", message, required, limit) if the guard trips."""
    try:
        return "value", fn(*args)
    except GuardExceeded as exc:
        return "guard", str(exc), exc.required, exc.limit


def test_guard_truncated_walks_are_never_kept():
    # after a guarded call, tripped or not, every pattern in the table holds
    # the chains of its full walk: a walk the guard cut short is dropped
    tripped = Counter()
    for m in _pattern_cases():
        size = len(dfs_triangulation(m))
        for guard in sorted({1, 2, 3, size // 3, size // 2, size - 3, size - 2, size}):
            if guard < 1:
                continue
            cells._patterns.clear()
            got = outcome(enumerate_triangulation, m, guard)
            tripped[got[1].split(" needs")[0] if got[0] == "guard" else "value"] += 1
            kept = {key: cells._patterns.get(key).by_dim for key in cells._patterns.keys()}
            cells._patterns.clear()
            for (pattern, d), by_dim in kept.items():
                full = cells._pattern_shapes(pattern, d, size + 1)
                assert full.by_dim == by_dim, (m.entries, guard)
    assert tripped["chain enumeration"] >= 50 and tripped["value"] >= 20, tripped


def test_a_call_reads_the_pattern_table_once_per_distinct_pattern(monkeypatch):
    # two blocks of two rows, as in fixture 4D: 11 lattice points with 6
    # cube patterns, and 39 cells over a 36-point box, so the guard can trip
    # in the chain enumeration, at a pattern seen earlier in the call and at
    # a fresh one whose walk the limit cuts short
    m = TropMatrix.from_rows(
        [[2, 1, 2, 2, 2, 2], [1, 1, 2, 2, 2, 2], [2, 2, 2, 2, 0, 0], [2, 2, 2, 0, 0, 2]]
    )
    d, pts = m.rows, lattice_points(m)
    patterns = [
        sum(1 << S for S in range(1 << d) if tuple(x + (S >> i & 1) for i, x in enumerate(p)) in pts)
        for p in sorted(pts)
    ]
    per_base = Counter(c.base for c in dfs_triangulation(m))
    made = list(itertools.accumulate(per_base[p] for p in sorted(pts)))
    box = math.prod(hi - lo + 1 for lo, hi in bounding_box(m))
    assert (len(pts), len(set(patterns)), made[-1], box) == (11, 6, 39, 36)
    reads = []

    class CountingTable(BoundedTable):
        def get(self, key):
            reads.append(key)
            return super().get(key)

    monkeypatch.setattr(cells, "_patterns", CountingTable(cells.PATTERN_TABLE_CAP))
    for _ in ("cold", "warm"):
        reads.clear()
        enumerate_triangulation(m)
        assert Counter(reads) == {(pattern, d): 1 for pattern in patterns}
    # a cell-by-cell walk trips at the first base whose cells take the count
    # past guard + 1, and names min(count - 1, guard + 1) steps
    trips = set()
    for guard in range(box, made[-1] + 1):
        at = next((i for i, n in enumerate(made) if n - 1 > guard), None)
        if at is None:
            want = ("value",)
        else:
            required = min(made[at] - 1, guard + 1)
            want = ("guard", f"chain enumeration needs about {required} steps, guard is {guard}",
                    required, guard)
            before = made[at - 1] if at else 0
            trips.add("repeated" if patterns[at] in patterns[:at]
                      else "cut short" if per_base[sorted(pts)[at]] > guard + 1 - before
                      else "fresh")
        for table in ("cold", "warm"):
            if table == "cold":
                cells._patterns.clear()
            assert outcome(enumerate_triangulation, m, guard)[:len(want)] == want, (guard, table)
    assert trips == {"repeated", "cut short"}


def test_bounded_table_keeps_the_most_recent_entries():
    table = BoundedTable(3)
    for key in "abc":
        table.put(key, key.upper())
    assert table.get("a") == "A"  # a becomes the most recent entry
    table.put("d", "D")  # past the cap, b, the least recent, goes
    assert table.keys() == ["c", "a", "d"] and len(table) == 3
    assert table.get("b") is None
    table.clear()
    assert len(table) == 0 and table.get("a") is None


def test_triangulation_guard():
    with pytest.raises(GuardExceeded):
        enumerate_triangulation(fix_l(4), guard=2)
    # the guard trips where the cell-by-cell walk trips: at guard + 2 cells,
    # naming guard + 1 steps, and only then
    tripped = Counter()
    for m in list(_seeded_matrices(65, 25, lo=-2, hi=3)) + [fix_4d(), cartesian_product(*fix_prod(3))]:
        size = len(dfs_triangulation(m))
        for guard in {1, 2, 3, size // 2, size - 3, size - 2, size - 1, size}:
            if guard > 0:
                want = outcome(dfs_triangulation, m, guard)
                got = outcome(lambda *a: enumerate_triangulation(*a).cells, m, guard)
                assert got == want, (m.entries, guard)
                tripped[want[1].split(" needs")[0] if want[0] == "guard" else "value"] += 1
    assert min(tripped.values()) >= 15, tripped


def _seeded_matrices(seed, count, lo=0, hi=3):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        yield TropMatrix.from_rows(
            [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(d)]
        )


def _moved(vertices, c):
    return tuple(tuple(x + c for x in v) for v in vertices)


def _chains(cells):
    return [cell.vertices for cell in cells]


def test_triangulation_is_translation_equivariant():
    # the cells of M + c are those of M moved by c, and so is every
    # structure read off the complex
    for m in _seeded_matrices(63, 30, lo=-2, hi=2):
        cx = enumerate_triangulation(m)
        for c in range(-3, 4):
            moved = enumerate_triangulation(m.translate(c))
            assert _chains(moved.cells) == [_moved(vs, c) for vs in _chains(cx.cells)]
            assert _vertex_covers(moved) == {
                _moved(vs, c): n for vs, n in _vertex_covers(cx).items()
            }
            for i in range(m.rows + 1):
                assert _chains(trunk(moved, i).cells) == [
                    _moved(vs, c) for vs in _chains(trunk(cx, i).cells)
                ]


def test_triangulation_matches_brute_force_with_negative_entries():
    negative = 0
    for m in _seeded_matrices(64, 30, lo=-3, hi=1):
        negative += not m.is_nonnegative()
        fast = enumerate_triangulation(m)
        brute = enumerate_triangulation_brute(m)
        assert fast.cells == brute.cells, m.entries
        assert _tables_of(brute) == _tables_of(fast), m.entries
    assert negative >= 15


def _pattern_cases():
    """Seeded matrices with 1..6 rows, negative entries, translates and
    repeated rows (every lattice point then has tied coordinates), and a
    segment whose lower end has a single 1-chain of one block."""
    rng = random.Random(2204)
    for _ in range(60):
        d = rng.randint(1, 4)
        top = {1: 6, 2: 4, 3: 3, 4: 2}[d]
        lo, n = rng.randint(-3, 1), rng.randint(1, 5)
        m = TropMatrix.from_rows([[rng.randint(lo, lo + top) for _ in range(n)] for _ in range(d)])
        yield m
        yield m.translate(rng.randint(-3, 3))
    for d in (5, 6) * 10:
        lo, n = rng.randint(-2, 1), rng.randint(1, 3)
        yield TropMatrix.from_rows([[rng.randint(lo, lo + 1) for _ in range(n)] for _ in range(d)])
    for _ in range(10):
        d, n = rng.randint(2, 4), rng.randint(2, 4)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d - 1)]
        yield TropMatrix.from_rows(rows + [rows[rng.randrange(d - 1)]])
    yield from (TropMatrix.from_rows([[0, 1], [0, 0]]), TropMatrix.from_rows([[-2, -1], [3, 3], [0, 0]]))
    yield from (fix_4d(), fix_l(5), cartesian_product(*fix_prod(3)))


def test_pattern_tables_match_cell_by_cell_oracles():
    # cells materialised from the chain shapes, and every table read off
    # the shapes, equal the cell-by-cell walk and what it derives from its
    # cells, the order of the tally and of each dict included; so do the
    # tally and the facet table of a complex built from a seeded subset of
    # the cells, where a point may lack its 0-cell or a whole dimension
    rng = random.Random(2805)
    seen = Counter()
    for m in _pattern_cases():
        cx = enumerate_triangulation(m)
        cells = dfs_triangulation(m)
        assert cx.cells == cells, m.entries
        assert _tables_of(cx) == _tables_from_cells(cells, m.rows), m.entries
        assert cx.dim == max(c.dim for c in cells)
        assert cx.vertices() == sorted(c.vertices[0] for c in cells if c.dim == 0)
        some = [c for c in cells if rng.random() < 0.6]
        sub, want = CellComplex(m.rows, some), _tables_from_cells(some, m.rows)
        assert list(sub.exponent_tally.items()) == want["tally"], m.entries
        assert list(sub.facet_exponents) == want["facets"], m.entries
        seen["rows %d" % m.rows] += 1
        seen["negative"] += not m.is_nonnegative()
        seen["tied"] += any(len(set(p)) < len(p) for p in cx.shapes)
        seen["one 1-chain"] += any(
            len(sh.by_dim) > 1 and len(sh.by_dim[1]) == 1 for sh in cx.shapes.values()
        )
        seen["subset lacks a 0-cell"] += any(not sh.by_dim[0] for sh in sub.shapes.values())
        seen["full"] += cx.dim == m.rows
        seen["covered twice"] += 2 in cx._facet_covers.values()
        if m.rows <= 3 and len(cells) <= 40:
            assert enumerate_triangulation_brute(m).cells == cells, m.entries
            seen["brute"] += 1
    assert min(seen.values()) >= 10, seen


def _interior_cells_oracle(cells):
    """The cells off every face (AlcovedSimplex.faces) of the cells of dimension
    dim - 1 that exactly one cell of the top dimension has as a facet."""
    dim = max((c.dim for c in cells), default=-1)
    covers = Counter(f.vertices for c in cells if c.dim == dim for f in c.facets())
    closure = {
        f.vertices for c in cells if c.dim == dim - 1 and covers[c.vertices] == 1 for f in c.faces()
    }
    return [c for c in cells if c.vertices not in closure]


def test_interior_cells_match_faces_of_once_covered_facets():
    # interior_cells reads its boundary closure off the (base, blocks) cover
    # table; the oracle takes the faces of the once-covered facet cells, on
    # triangulations, on their trunks and on seeded subsets of their cells
    rng = random.Random(3001)
    seen = Counter()
    for m in _seeded_matrices(3002, 500, lo=-2, hi=3):
        cx = enumerate_triangulation(m)
        some = [c for c in cx.cells if rng.random() < 0.7]
        for complex_ in (cx, trunk(cx, rng.randint(0, m.rows)), CellComplex(m.rows, some)):
            want = _interior_cells_oracle(complex_.cells)
            assert complex_.interior_cells() == want, m.entries
            seen["inputs"] += 1
            seen["boundary"] += len(want) < len(complex_.cells)
            seen["interior"] += bool(want)
            seen["pure of full dimension"] += complex_.is_pure() and complex_.dim == m.rows
            seen["covered twice"] += 2 in complex_._facet_covers.values()
    assert seen["inputs"] >= 1000 and min(seen.values()) >= 100, seen


def _tuple_pattern_shapes(m):
    """Oracle for the packed point codes: each point's cube pattern from
    2**d - 1 tuple additions p + 1_S and set lookups, in sorted point order."""
    pts = lattice_points(m)
    d = m.rows
    units = [tuple(S >> i & 1 for i in range(d)) for S in range(1 << d)]
    out = {}
    for p in sorted(pts):
        pattern = 1
        for S in range(1, 1 << d):
            if tuple(map(add, p, units[S])) in pts:
                pattern |= 1 << S
        out[p] = cells._pattern_shapes(pattern, d, 10**9)
    return out


def test_packed_point_codes_give_the_tuple_loop_shapes():
    # the cube patterns read off packed point codes equal those of the tuple
    # loop at every point: same keys in the same order, same chains per point,
    # on 1-5 rows, negative entries, one-row inputs and translates
    rng = random.Random(2601)
    seen = Counter()
    for _ in range(160):
        d = rng.randint(1, 5)
        top = {1: 7, 2: 5, 3: 3, 4: 2, 5: 1}[d]
        lo, n = rng.randint(-4, 2), rng.randint(1, 6)
        m = TropMatrix.from_rows([[rng.randint(lo, lo + top) for _ in range(n)] for _ in range(d)])
        for moved in (m, m.translate(rng.randint(-5, 5))):
            want = _tuple_pattern_shapes(moved)
            got = enumerate_triangulation(moved).shapes
            assert list(got) == list(want), moved.entries
            assert [sh.by_dim for sh in got.values()] == [sh.by_dim for sh in want.values()], moved.entries
            seen["rows %d" % d] += 1
            seen["negative"] += not moved.is_nonnegative()
    assert min(seen.values()) >= 20, seen


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
            assert from_table == set(trunk(cx, i).vertices()), (m.entries, i)
