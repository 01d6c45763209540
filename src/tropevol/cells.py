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
lattice_points), then walk all increment chains through that set.  Every chain
is uniquely determined by its vertex set, so the vertex tuple, in chain
order, is the canonical key and no deduplication is needed.

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

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Sequence

from .core import TropMatrix, contains
from .errors import ValidationError
from .guard import check_guard, resolve_guard


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
    nested loops that carry the prefix minima of c.  The first and third
    conditions, read for the coordinate x_k being fixed instead of s, bound
    it to [least M_kj over c_j >= 0, max_j min(c_j + M_kj, M_kj)], and both
    ends only tighten as later coordinates lower c, so the loops skip what
    no fibre can use.  The guard is charged the whole box up front.
    """
    guard = resolve_guard(guard)
    box = bounding_box(m)
    size = 1
    for lo, hi in box:
        size *= hi - lo + 1
    check_guard(size, guard, "bounding box scan")
    rows = m.entries
    a = max(range(m.rows), key=lambda i: box[i][1] - box[i][0])
    others = [i for i in range(m.rows) if i != a]
    order = others + [a]
    pts = set()

    def sweep(c, xs):
        row = rows[order[len(xs)]]
        hi = max(min(cj + e, e) for cj, e in zip(c, row))
        lo = min((e for cj, e in zip(c, row) if cj >= 0), default=hi + 1)
        if len(xs) < len(others):
            for xk in range(lo, hi + 1):
                sweep([min(cj, xk - e) for cj, e in zip(c, row)], xs + (xk,))
            return
        for i, xi in zip(others, xs):
            lo = max(lo, min(
                (cj + e for cj, e, mij in zip(c, row, rows[i]) if cj == xi - mij <= 0),
                default=hi + 1,
            ))
        head, tail = xs[:a], xs[a:]
        pts.update(head + (s,) + tail for s in range(lo, hi + 1))

    sweep([float("inf")] * m.cols, ())
    return pts


@dataclass(frozen=True)
class CellComplex:
    """The canonical triangulation of one hull: every open cell inside it."""

    ambient_dim: int
    cells: tuple

    @cached_property
    def by_dim(self) -> dict:
        out: dict = {}
        for c in self.cells:
            out.setdefault(c.dim, []).append(c)
        return out

    @property
    def dim(self) -> int:
        return max(self.by_dim) if self.cells else -1

    def cells_of_dim(self, k: int) -> list:
        return list(self.by_dim.get(k, []))

    def vertices(self) -> list:
        return sorted(c.vertices[0] for c in self.cells_of_dim(0))

    @cached_property
    def vertex_max_dim(self) -> dict:
        """For each vertex, the largest dimension of a cell through it."""
        out: dict = {}
        for k in sorted(self.by_dim):
            out.update((v, k) for c in self.by_dim[k] for v in c.vertices)
        return out

    @cached_property
    def facet_cover_count(self) -> dict:
        """For each (dim-1)-cell, by vertex tuple: how many top cells cover it."""
        counts = {c.vertices: 0 for c in self.cells_of_dim(self.dim - 1)}
        for c in self.cells_of_dim(self.dim):
            for f in c.facets():
                if f.vertices in counts:
                    counts[f.vertices] += 1
        return counts

    @cached_property
    def _facet_boundary_closure(self) -> frozenset:
        """Vertex tuples of all faces of the facets covered by exactly one top cell."""
        return frozenset(
            f.vertices
            for c in self.cells_of_dim(self.dim - 1)
            if self.facet_cover_count.get(c.vertices, 0) == 1
            for f in c.faces()
        )

    def is_pure(self) -> bool:
        """Every cell is a face of a top-dimensional cell."""
        covered = {f.vertices for c in self.cells_of_dim(self.dim) for f in c.faces()}
        return all(c.vertices in covered for c in self.cells)

    def interior_cells(self) -> list:
        """Cells not lying in the closure of the support's boundary.

        Only meaningful for pure complexes, where the boundary is the union of
        facets covered exactly once.
        """
        closure = self._facet_boundary_closure
        return [c for c in self.cells if c.vertices not in closure]

    def euler_characteristic(self) -> int:
        return sum((-1) ** c.dim for c in self.cells)


def _sorted_cells(cells: Iterable[AlcovedSimplex]) -> tuple:
    return tuple(sorted(cells, key=lambda c: (c.dim, c.vertices)))


def enumerate_triangulation(m: TropMatrix, guard: int | None = None) -> CellComplex:
    """All open alcoved cells contained in tconv(M).

    See the module docstring for why chain enumeration over the lattice points
    is exhaustive.  Cells come out sorted by (dim, vertices) so the result is
    deterministic.
    """
    guard = resolve_guard(guard)
    pts = lattice_points(m, guard)
    d = m.rows
    # every nonzero 0/1 increment, with its support as a bit mask
    steps = [
        (mask, tuple(mask >> i & 1 for i in range(d))) for mask in range(1, 1 << d)
    ]
    cells = []
    budget = [0]

    def extend(chain, used_mask):
        check_guard(budget[0], guard, "chain enumeration")
        budget[0] += 1
        cells.append(AlcovedSimplex(tuple(chain)))
        last = chain[-1]
        for mask, inc in steps:
            if mask & used_mask:
                continue
            nxt = tuple(map(add, last, inc))
            if nxt in pts:
                chain.append(nxt)
                extend(chain, used_mask | mask)
                chain.pop()

    for p in sorted(pts):
        extend([p], 0)
    return CellComplex(d, _sorted_cells(cells))


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
    return CellComplex(d, _sorted_cells(found))
