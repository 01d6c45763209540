"""Canonical triangulation of a tropical lattice polytope into alcoved cells.

An open alcoved cell is the relative interior of the convex hull of a chain
of lattice points v_0 < v_1 < ... < v_m in which each increment v_l - v_{l-1}
is a 0/1 vector and the increment supports are pairwise disjoint (so
v_m - v_0 is itself a 0/1 vector).  Closed alcoved cells are simultaneously
classically convex and tropically convex, and equal the tropical hull of
their vertex chain; since tropical polytopes are tropically convex and
closed, an open cell lies inside a hull P iff all its chain vertices do.
Enumeration therefore reduces to: collect the lattice points of P, one
axis-parallel fibre at a time, each an interval with closed-form ends (see
lattice_points), then list the increment chains through that set.  Every
chain is uniquely determined by its vertex set, so the vertex tuple, in chain
order, is the canonical key and no deduplication is needed.

A cell is a base point p with a chain 0 < S_1 < ... < S_m of coordinate
sets, its vertices p + 1_(S_l).  Which chains exist at p depends only on
p's cube pattern, the sets S with p + 1_S in P, and those sets are closed
under union because P is tropically convex (Develin and Sturmfels,
*Tropical convexity*, 2004).  So the complex stores, per lattice point,
the ChainShapes of its pattern: each chain as its block masks
S_l minus S_(l-1), walked once per distinct pattern and shared by every point
that has it.  The chains depend on the pattern and d alone, so the walks are
kept across calls, in a table capped at PATTERN_TABLE_CAP patterns, and a
pattern seen on any earlier matrix is not walked again.  The tables the
counting and volume layers need (exponent tuples, the largest cell at each
vertex, facet cover counts, the Euler characteristic, the bases of the top
cells) are read off the shapes.  A block's exponent is the smallest
coordinate of the point on it, so each pattern keeps, per dimension, one
operator.itemgetter over the block masks of all its chains, which reads
every block minimum of a point out of that point's table of minima in one C
call.  AlcovedSimplex objects are built only when a caller
asks for CellComplex.cells, because only the cell-by-cell consumers need
them (the interior and purity tests, the plot, the self-checks and the
oracles) and building them costs about as much as the walk itself.

Any finite integer matrix is accepted.  Chains, lattice points and
membership all commute with translation by c * (1, ..., 1), so the cells of
M + c are the cells of M moved by c.  Counting needs entries in Z>=0; that
rule is enforced in ehrhart, not here.

A cell is its vertex chain and nothing else.  Only from_chain validates a
chain, for input from outside; enumeration, faces and facets build chains
that are valid by construction and call the constructor directly.
from_description still builds a cell from an (a, pi, s) description: a base
point a, a coordinate order pi, and a sign pattern s in {"=", "<"}^(d+1)
saying which of the d+1 nested prefix steps are strict.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, mul, or_
from typing import Iterable, Iterator, Sequence

from .core import TropMatrix, contains
from .errors import ValidationError
from .guard import BoundedTable, check_guard, resolve_guard


def _check_lattice_input(m: TropMatrix) -> None:
    if not m.is_finite():
        raise ValidationError("triangulation needs finite entries")
    if not m.is_integer():
        raise ValidationError("triangulation needs integer entries")


def bounding_box(m: TropMatrix) -> tuple:
    """Per-coordinate (min, max) over the generators; the hull lives inside."""
    _check_lattice_input(m)
    return tuple((min(row), max(row)) for row in m.entries)


@dataclass(frozen=True)
class AlcovedSimplex:
    """One open alcoved cell, stored as its canonical vertex chain."""

    vertices: tuple            # increasing chain of integer points

    @staticmethod
    def from_chain(vertices: Sequence[Sequence[int]]) -> "AlcovedSimplex":
        """Build a cell from a vertex chain given from outside, validating it."""
        vs = tuple(tuple(v) for v in vertices)
        if not vs:
            raise ValidationError("empty vertex chain")
        used = set()
        for prev, cur in zip(vs, vs[1:]):
            diff = tuple(c - p for p, c in zip(prev, cur))
            if any(x not in (0, 1) for x in diff) or all(x == 0 for x in diff):
                raise ValidationError(f"not a unit chain step: {prev} -> {cur}")
            block = {i for i, x in enumerate(diff) if x == 1}
            if block & used:
                raise ValidationError("chain increments must have disjoint supports")
            used |= block
        return AlcovedSimplex(vs)

    @staticmethod
    def from_description(a: Sequence[int], pi: Sequence[int], signs: Sequence[str]) -> "AlcovedSimplex":
        """Build a cell from an (a, pi, s) description (not necessarily canonical).

        The vertex for each strict index j is a + sum of the first j unit
        vectors in pi order; "=" indices contribute no vertex.  s[0] refers to
        the empty prefix, so s[0] = "<" keeps the base point itself.
        """
        a = tuple(a)
        d = len(a)
        if sorted(pi) != list(range(d)):
            raise ValidationError(f"not a permutation: {pi}")
        if len(signs) != d + 1 or any(s not in ("=", "<") for s in signs):
            raise ValidationError(f"bad sign pattern: {signs}")
        if signs[0] != "<":
            raise ValidationError("the base prefix must be strict (s[0] = '<')")
        verts = []
        for j in range(d + 1):
            if signs[j] == "<":
                v = list(a)
                for idx in pi[:j]:
                    v[idx] += 1
                verts.append(tuple(v))
        return AlcovedSimplex.from_chain(verts)

    @property
    def base(self) -> tuple:
        return self.vertices[0]

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    def blocks(self) -> tuple:
        """Supports of the chain increments, in chain order."""
        out = []
        for prev, cur in zip(self.vertices, self.vertices[1:]):
            out.append(tuple(i for i in range(len(prev)) if cur[i] != prev[i]))
        return tuple(out)

    def relative_interior_point(self) -> tuple:
        """Barycenter of the vertex chain: always in the open cell."""
        k = len(self.vertices)
        return tuple(
            Fraction(sum(v[i] for v in self.vertices), k)
            for i in range(self.ambient_dim)
        )

    def faces(self) -> Iterator["AlcovedSimplex"]:
        """All nonempty subchains: the open cells partitioning the closure."""
        vs = self.vertices
        for r in range(1, len(vs) + 1):
            for sub in itertools.combinations(vs, r):
                yield AlcovedSimplex(sub)

    def facets(self) -> Iterator["AlcovedSimplex"]:
        vs = self.vertices
        if len(vs) > 1:
            for drop in range(len(vs)):
                yield AlcovedSimplex(vs[:drop] + vs[drop + 1:])


def lattice_points(m: TropMatrix, guard: int | None = None) -> set:
    """All integer points of the hull, one axis-parallel fibre at a time.

    x is in the hull iff capping its residuation coefficients
    lam_j = min_k (x_k - M_kj) at 0 recomposes x and some lam_j >= 0 (see
    core.contains).  Each capped term min(lam_j, 0) + M_ij is at most x_i,
    so row i recomposes iff some j has lam_j = x_i - M_ij <= 0.

    Fix every coordinate but x_a = s, with a the longest box axis (the first
    on ties), and let c_j = min over k != a of x_k - M_kj (+inf with one
    row), so lam_j = min(c_j, s - M_aj).  Then:

    * row a recomposes iff s - M_aj <= c_j and s <= M_aj for some j:
      s <= hi = max_j min(c_j + M_aj, M_aj);
    * row i != a recomposes iff some j has x_i <= M_ij, c_j = x_i - M_ij
      and s - M_aj >= c_j: s >= the least such c_j + M_aj, and the fibre
      is empty if there is no such j;
    * some lam_j >= 0 iff some j has c_j >= 0 and s >= M_aj: s >= the least
      M_aj over the j with c_j >= 0.

    So the fibre is range(lo, hi + 1), lo the largest lower bound.  It is
    never below the box, as lo >= min_j M_aj.  Fibres of a tropical polytope
    along an axis are intervals (Develin and Sturmfels, *Tropical
    convexity*, 2004).  The other coordinates are fixed one at a time in
    nested loops that carry the prefix minima of c.  All three conditions,
    read for the coordinate x_k being fixed instead of s, bound it, and each
    bound only tightens as later coordinates lower c, so every level skips
    what no fibre can use: the first and third give
    [least M_kj over c_j >= 0, max_j min(c_j + M_kj, M_kj)], and a row i
    fixed earlier still recomposes only through a column j with
    c_j == x_i - M_ij <= 0 now, which needs x_k >= c_j + M_kj.  So x_k is at
    least the least such c_j + M_kj, and a row with no such j ends the
    branch.  The guard is charged the whole box up front.
    """
    return _lattice_points(m, bounding_box(m), resolve_guard(guard))


def _lattice_points(m: TropMatrix, box: tuple, guard: int) -> set:
    """lattice_points on a checked matrix, its bounding_box and a resolved guard."""
    size = 1
    for lo, hi in box:
        size *= hi - lo + 1
    check_guard(size, guard, "bounding box scan")
    rows = m.entries
    a = max(range(m.rows), key=lambda i: box[i][1] - box[i][0])
    others = [i for i in range(m.rows) if i != a]
    order = others + [a]
    pts = set()
    inf = float("inf")

    def sweep(c, xs):
        row = rows[order[len(xs)]]
        hi, lo = -inf, inf
        for cj, e in zip(c, row):
            if cj < 0:
                if cj + e > hi:
                    hi = cj + e
            else:
                if e > hi:
                    hi = e
                if e < lo:
                    lo = e
        if lo > hi:
            return
        for i, xi in zip(others, xs):
            need = inf
            for cj, e, mij in zip(c, row, rows[i]):
                if cj == xi - mij <= 0 and cj + e < need:
                    need = cj + e
            if need > lo:
                lo = need
                if lo > hi:
                    return
        if len(xs) < len(others):
            for xk in range(lo, hi + 1):
                sweep([min(cj, xk - e) for cj, e in zip(c, row)], xs + (xk,))
            return
        head, tail = xs[:a], xs[a:]
        pts.update(head + (s,) + tail for s in range(lo, hi + 1))

    sweep([inf] * m.cols, ())
    return pts


@functools.lru_cache(maxsize=None)
def _units(d: int) -> tuple:
    """The 0/1 vector 1_S of every coordinate set S of [d], indexed by its mask."""
    return tuple(tuple(S >> i & 1 for i in range(d)) for S in range(1 << d))


def _minima(p: tuple) -> list:
    """low[S]: the smallest coordinate of p over the set S, for every nonempty mask S.

    Coordinate i fills the masks whose highest bit is i: low[S + 2**i] is
    min(low[S], p_i) for S < 2**i, with low[0] = +inf.  The masks of the
    first two coordinates are written out, which spares every point of two
    or more coordinates two list comprehensions.
    """
    if len(p) < 2:
        return [float("inf"), *p]
    a, b, *rest = p
    low = [float("inf"), a, b, a if a < b else b]
    for x in rest:
        low += [y if y < x else x for y in low]
    return low


def _flat_getter(indices: list) -> itemgetter:
    """A getter that reads the items at indices, in order, as one flat sequence.

    itemgetter(i) of a single index returns the item itself, so one index,
    or none, reads a slice instead.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


_NO_CHAINS = _flat_getter([])  # the getter of a dimension without chains
_apply = itemgetter.__call__  # _apply(get, x) is get(x)


class ChainShapes:
    """The cells based at one lattice point, as chains of coordinate sets.

    by_dim[k] holds each k-cell at the point as the tuple of its block masks
    S_1, S_2 minus S_1, ..., S_k minus S_(k-1), in vertex order, and ends at the
    largest dimension present.  Points with the same cube pattern share one
    instance, in every complex of the process (see _pattern_shapes), so the
    tables cached here are built once per pattern.  Nothing here depends on
    the point, and nothing cached here is mutable.  Exponents do depend on
    the point, so the shapes keep, for each dimension k >= 1, one getter
    (minima_getters) that reads the exponents of every k-chain at once out
    of a point's table of minima.
    """

    def __init__(self, by_dim: list):
        while by_dim and not by_dim[-1]:
            by_dim.pop()
        self.by_dim = tuple(map(tuple, by_dim))
        self.size = sum(map(len, by_dim))

    @cached_property
    def unions(self) -> tuple:
        """Each chain's sets S_1 < ... < S_k, the unions of its first blocks, as by_dim.

        Vertex l of a chain is p + 1_(S_l).
        """
        return tuple(
            tuple(tuple(itertools.accumulate(blocks, or_)) for blocks in chains)
            for chains in self.by_dim
        )

    @cached_property
    def minima_getters(self) -> tuple:
        """For k = 1, 2, ..., a getter mapping _minima(p) to the block minima of the k-chains.

        The minima come flat, chain after chain in by_dim order, so
        zip(*[iter(flat)] * k) cuts them into the chains' exponent tuples.
        """
        return tuple(
            _flat_getter([S for blocks in chains for S in blocks]) for chains in self.by_dim[1:]
        )

    @cached_property
    def reach(self) -> tuple:
        """(S, k) for each vertex p + 1_S here, k the largest dimension of a cell through it.

        The base p (S = 0) lies on every chain.
        """
        out = {0: len(self.by_dim) - 1}
        for k, chains in enumerate(self.unions):
            out.update((S, k) for sets in chains for S in sets)
        return tuple(out.items())

    @cached_property
    def inner_facets(self) -> tuple:
        """The facets of the chains of the largest dimension here that keep the base.

        Dropping vertex l of a chain with blocks B_1..B_m drops B_m for
        l = m and merges B_l and B_(l+1) for 0 < l < m.
        """
        return tuple(
            facet
            for b in self.by_dim[-1]
            for facet in (
                b[:-1],
                *(b[:l - 1] + (b[l - 1] | b[l],) + b[l + 1:] for l in range(1, len(b))),
            )
        )

    @cached_property
    def euler(self) -> int:
        return sum((-1) ** k * len(chains) for k, chains in enumerate(self.by_dim))


# Most cube patterns kept across calls.  An entry with its cached tables
# took about 4.5 KB on average on a 4x6 input, and no pattern of d = 4 has
# more than the full cube's 150 chains (about 30 KB), so the table stays
# within a few megabytes for inputs of up to four rows.  The exponent
# getters add 8 bytes per block mask and 100-140 bytes per dimension to an
# entry: the full d = 6 cube's 9,366 chains hold 37,927 block masks, and
# its entry grew from 736 to 1,033 KiB (tracemalloc).
PATTERN_TABLE_CAP = 1024
_patterns = BoundedTable(PATTERN_TABLE_CAP)  # (pattern, d) -> ChainShapes


def _pattern_shapes(pattern: int, d: int, limit: int) -> ChainShapes:
    """The chains of one cube pattern: bit S is set iff p + 1_S is in the hull.

    The sets present are closed under union, since the hull is tropically
    convex, and a chain 0 < S_1 < ... < S_k runs through present sets only.
    Two chains at one base compare as their vertex tuples do, that is as
    the 0/1 vectors of S_1, S_2, ... in turn, so a depth-first walk that
    tries the sets in the order of their vectors lists each dimension in
    vertex order.  The walk stops after limit + 1 chains, which trips the
    caller's guard.

    The chains depend on (pattern, d) alone, so a complete walk is kept in
    a process-wide table of PATTERN_TABLE_CAP entries, and the same
    pattern in any later call, on any matrix, reads it back.  A walk that
    reached limit + 1 chains is never kept, as it may be cut short.  A kept
    walk is never cut, and the caller caps the steps it charges at
    guard + 1, so the guard trips with the same error either way.
    """
    key = (pattern, d)
    shapes = _patterns.get(key)
    if shapes is not None:
        return shapes
    present = sorted(
        (S for S in range(1, 1 << d) if pattern >> S & 1), key=_units(d).__getitem__
    )
    by_dim = [[] for _ in range(d + 1)]
    made = 0

    def walk(top, blocks):
        nonlocal made
        if made > limit:
            return
        made += 1
        by_dim[len(blocks)].append(blocks)
        for S in present:
            if S & top == top and S != top:
                walk(S, blocks + (S ^ top,))

    walk(0, ())
    shapes = ChainShapes(by_dim)
    if made <= limit:
        _patterns.put(key, shapes)
    return shapes


class CellComplex:
    """The canonical triangulation of one hull: every open cell inside it.

    shapes maps each base point, in sorted order, to the ChainShapes of the
    cells based there.  The tables the counting and volume layers read (the
    exponent tally, the vertex table, the cover counts, the Euler
    characteristic, the bases of the top cells) come off the shapes.  cells
    builds the AlcovedSimplex objects on first use, for the callers that
    walk cells one by one: by_dim, is_pure, interior_cells, the plot and
    the self-checks.
    """

    def __init__(self, ambient_dim: int, cells: Iterable[AlcovedSimplex]):
        """The complex of the given cells, in any order."""
        units = _units(ambient_dim)

        def vertex_order(blocks):
            return tuple(units[S] for S in itertools.accumulate(blocks, or_))

        grouped: dict = {}
        for c in cells:
            vs = c.vertices
            blocks = tuple(
                sum(1 << i for i, (a, b) in enumerate(zip(prev, cur)) if a != b)
                for prev, cur in zip(vs, vs[1:])
            )
            chains = grouped.setdefault(vs[0], [[] for _ in range(ambient_dim + 1)])
            chains[len(blocks)].append(blocks)
        self.ambient_dim = ambient_dim
        self.shapes = {
            p: ChainShapes([sorted(chains, key=vertex_order) for chains in grouped[p]])
            for p in sorted(grouped)
        }

    @classmethod
    def _of_shapes(cls, ambient_dim: int, shapes: dict) -> "CellComplex":
        cx = cls.__new__(cls)
        cx.ambient_dim = ambient_dim
        cx.shapes = shapes
        return cx

    @cached_property
    def cells(self) -> tuple:
        """Every open cell, sorted by (dim, vertices)."""
        units = _units(self.ambient_dim)
        by_dim = [[] for _ in range(self.dim + 1)]
        for p, sh in self.shapes.items():
            at = {S: tuple(map(add, p, units[S])) for S, _ in sh.reach}  # at[S] = p + 1_S
            for out, chains in zip(by_dim, sh.unions):
                out.extend(AlcovedSimplex((p, *map(at.__getitem__, sets))) for sets in chains)
        return tuple(itertools.chain.from_iterable(by_dim))

    @cached_property
    def by_dim(self) -> dict:
        out: dict = {}
        for c in self.cells:
            out.setdefault(c.dim, []).append(c)
        return out

    @cached_property
    def dim(self) -> int:
        return max((len(sh.by_dim) for sh in self.shapes.values()), default=0) - 1

    def cells_of_dim(self, k: int) -> list:
        return list(self.by_dim.get(k, []))

    def vertices(self) -> list:
        return self.bases_of_dim(0)

    def bases_of_dim(self, k: int) -> list:
        """The sorted base points of the k-cells, each once."""
        return [p for p, sh in self.shapes.items() if len(sh.by_dim) > k and sh.by_dim[k]]

    @cached_property
    def exponent_tally(self) -> Counter:
        """Exponent tuple -> number of cells with it.

        A cell's exponents are the smallest base coordinate on each block,
        and every 0-cell has the empty tuple.  For each k >= 1 in turn, each
        base point's k-getter (ChainShapes.minima_getters) reads the
        exponents of its k-chains off the point's table of minima, and the
        flat results of all points, chained, are cut into k-tuples; past
        the table of minima, no Python code runs per point.  The tuples
        come in their order of first appearance over cells, as a tally of
        ehrhart.cell_exponents over the cells would list them.
        """
        shapes = self.shapes
        lows = list(map(_minima, shapes))
        out = Counter()
        points = sum(len(sh.by_dim[0]) for sh in shapes.values())
        if points:
            out[()] = points
        # star-args from a list, not an iterator: CPython builds the args
        # tuple of an iterator by resizing, and each such tuple, once freed,
        # stays on the free list for its size, several MiB over a long run
        by_point = [sh.minima_getters for sh in shapes.values()]
        for k, getters in enumerate(itertools.zip_longest(*by_point, fillvalue=_NO_CHAINS), 1):
            flat = itertools.chain.from_iterable(map(_apply, getters, lows))
            out.update(zip(*[flat] * k))
        return out

    @cached_property
    def vertex_max_dim(self) -> dict:
        """For each vertex, in sorted order, the largest dimension of a cell through it."""
        units = _units(self.ambient_dim)
        out: dict = {}
        for p, sh in self.shapes.items():
            for S, k in sh.reach:
                v = tuple(map(add, p, units[S]))
                if out.get(v, -1) < k:
                    out[v] = k
        return dict(sorted(out.items()))

    @cached_property
    def _facet_covers(self) -> dict:
        """(base, blocks) of each (dim-1)-cell -> how many dim-cells have it as a facet.

        Dropping a vertex other than the base keeps the base (see
        ChainShapes.inner_facets); dropping the base leaves B_2..B_m at
        base + 1_(B_1).
        """
        top = self.dim
        if top < 1:
            return {}
        counts = {
            (p, blocks): 0
            for p, sh in self.shapes.items() if len(sh.by_dim) >= top
            for blocks in sh.by_dim[top - 1]
        }
        units = _units(self.ambient_dim)
        for p, sh in self.shapes.items():
            if len(sh.by_dim) > top:
                keys = [(p, f) for f in sh.inner_facets]
                keys += [(tuple(map(add, p, units[b[0]])), b[1:]) for b in sh.by_dim[top]]
                for key in keys:
                    if key in counts:
                        counts[key] += 1
        return counts

    @cached_property
    def facet_exponents(self) -> list:
        """(covers, exponent sum) of each (d-1)-cell, d = ambient_dim, in cell order.

        covers is the number of d-cells with the cell as a facet, and the
        exponent sum adds the smallest base coordinate over each block, read
        as exponent_tally reads it.
        """
        d = self.ambient_dim
        covers = self._facet_covers if self.dim == d else {}
        out = []
        for p, sh in self.shapes.items():
            if len(sh.by_dim) >= d:
                if d > 1:
                    flat = sh.minima_getters[d - 2](_minima(p))
                    sums = map(sum, zip(*[iter(flat)] * (d - 1)))
                else:
                    sums = itertools.repeat(0)
                out.extend(
                    (covers.get((p, blocks), 0), e) for blocks, e in zip(sh.by_dim[d - 1], sums)
                )
        return out

    def is_pure(self) -> bool:
        """Every cell is a face of a top-dimensional cell."""
        covered = {f.vertices for c in self.cells_of_dim(self.dim) for f in c.faces()}
        return all(c.vertices in covered for c in self.cells)

    def interior_cells(self) -> list:
        """Cells not lying in the closure of the support's boundary.

        Only meaningful for pure complexes, where the boundary is the union of
        facets covered exactly once (_facet_covers).  Its closure is every
        vertex subchain of those facets.
        """
        units = _units(self.ambient_dim)
        closure = set()
        for (p, blocks), n in self._facet_covers.items():
            if n == 1:
                sets = itertools.accumulate(blocks, or_)
                vs = (p, *(tuple(map(add, p, units[S])) for S in sets))
                closure.update(
                    sub for r in range(1, len(vs) + 1) for sub in itertools.combinations(vs, r)
                )
        return [c for c in self.cells if c.vertices not in closure]

    def euler_characteristic(self) -> int:
        return sum(sh.euler for sh in self.shapes.values())


def enumerate_triangulation(m: TropMatrix, guard: int | None = None) -> CellComplex:
    """All open alcoved cells contained in tconv(M), stored by base point.

    Each lattice point p gets its cube pattern, the sets S with p + 1_S in
    the hull, from 2**d - 1 integer additions and set lookups on packed
    point codes: p is coded as sum(p_i * stride_i), with stride_i the
    product of the box widths hi_j - lo_j + 2 over j < i, and p + 1_S as
    that code plus the strides over S.  Every point p + 1_S has
    lo_i <= x_i <= hi_i + 1, so two such points differ by less than
    hi_i - lo_i + 2 in each coordinate, and distinct points get distinct
    codes.  A pattern's chains are walked once per process (see
    _pattern_shapes) and shared by every point that has it; the call keeps
    its own patterns in a plain dict, so it reads the shared table once per
    distinct pattern, not once per point.  The guard counts cells in base
    order and trips at guard + 2 of them, naming the guard + 1 steps that a
    cell-by-cell walk would have reached.  A walk cut short at its limit
    trips the guard at once, so the dict only ever hands out complete walks.
    The bounding box is computed once, for the lattice sweep and the strides.
    """
    guard = resolve_guard(guard)
    box = bounding_box(m)
    pts = _lattice_points(m, box, guard)
    d = m.rows
    strides = []
    offsets = [0]  # offsets[S]: the strides over S, so p + 1_S has code(p) + offsets[S]
    stride = 1
    for lo, hi in box:
        strides.append(stride)
        offsets += [off + stride for off in offsets]
        stride *= hi - lo + 2
    order = sorted(pts)
    codes = [sum(map(mul, p, strides)) for p in order]
    present = set(codes)
    bits = [(offsets[S], 1 << S) for S in range(1, 1 << d)]
    shapes = {}
    seen = {}  # pattern -> ChainShapes, for this call
    made = 0
    for p, code in zip(order, codes):
        pattern = 1
        for off, bit in bits:
            if code + off in present:
                pattern |= bit
        sh = seen.get(pattern)
        if sh is None:
            sh = seen[pattern] = _pattern_shapes(pattern, d, guard + 1 - made)
        made += sh.size
        if made > guard + 1:
            check_guard(guard + 1, guard, "chain enumeration")
        shapes[p] = sh
    return CellComplex._of_shapes(d, shapes)


def ambient_dim(arg) -> int:
    """d of a matrix (its rows) or of a cell complex, read without triangulating."""
    if isinstance(arg, CellComplex):
        return arg.ambient_dim
    if isinstance(arg, TropMatrix):
        return arg.rows
    raise ValidationError(f"expected a matrix or cell complex, got {type(arg).__name__}")


def as_complex(arg, guard: int | None = None) -> CellComplex:
    """The argument itself if it is a cell complex, else the matrix's triangulation."""
    ambient_dim(arg)  # anything but a matrix or a complex is rejected
    return arg if isinstance(arg, CellComplex) else enumerate_triangulation(arg, guard)


def enumerate_triangulation_brute(m: TropMatrix, guard: int | None = None) -> CellComplex:
    """Reference enumeration: loop over every (a, pi, s) description.

    Keeps a description's cell iff its relative interior point is in the hull.
    Exponentially slower than enumerate_triangulation; exists as an oracle.
    """
    guard = resolve_guard(guard)
    box = bounding_box(m)
    d = m.rows
    total = 1
    for lo, hi in box:
        total *= hi - lo + 1
    sign_patterns = [
        ("<",) + tail
        for tail in itertools.product(("=", "<"), repeat=d)
    ]
    steps = total
    for k in range(1, d + 1):
        steps *= k
    check_guard(steps * len(sign_patterns), guard, "brute triangulation")
    found = set()
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for a in itertools.product(*ranges):
        for pi in itertools.permutations(range(d)):
            for signs in sign_patterns:
                cell = AlcovedSimplex.from_description(a, pi, signs)
                if contains(m, cell.relative_interior_point()):
                    found.add(cell)
    return CellComplex(d, found)
