"""Canonical triangulation of a tropical lattice polytope into alcoved cells.

An open alcoved cell is the relative interior of the convex hull of a chain
of lattice points v_0 < v_1 < ... < v_m in which each increment v_l - v_{l-1}
is a 0/1 vector and the increment supports are pairwise disjoint (so
v_m - v_0 is itself a 0/1 vector).  Closed alcoved cells are simultaneously
classically convex and tropically convex, and equal the tropical hull of
their vertex chain; since tropical polytopes are tropically convex and
closed, an open cell lies inside a hull P iff all its chain vertices do.
Enumeration therefore reduces to: collect the lattice points of P inside its
bounding box, then walk all increment chains through that set.  Every chain
is uniquely determined by its vertex set, so the sorted vertex tuple is the
canonical key and no deduplication is needed.

A cell also carries one representative (a, pi, s) description: a base point
a, a coordinate order pi, and a sign pattern s in {"=", "<"}^(d+1) saying
which of the d+1 nested prefix steps are strict.  dim = number of "<" - 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import TropMatrix, contains
from .errors import ValidationError
from .guard import check_guard, resolve_guard


def _check_lattice_input(m: TropMatrix) -> None:
    if not m.is_finite():
        raise ValidationError("triangulation needs finite entries")
    if not m.is_integer():
        raise ValidationError("triangulation needs integer entries")
    if not m.is_nonnegative():
        raise ValidationError("triangulation needs nonnegative entries")


def bounding_box(m: TropMatrix) -> tuple:
    """Per-coordinate (min, max) over the generators; the hull lives inside."""
    _check_lattice_input(m)
    return tuple((min(row), max(row)) for row in m.entries)


@dataclass(frozen=True)
class AlcovedSimplex:
    """One open alcoved cell, stored by its canonical vertex chain."""

    vertices: tuple            # increasing chain of integer points
    base: tuple                # representative base point a (= vertices[0])
    pi: tuple                  # representative coordinate order, 0-based
    signs: tuple               # representative pattern over {"=", "<"}, length d+1

    @staticmethod
    def from_chain(vertices: Sequence[Sequence[int]]) -> "AlcovedSimplex":
        """Build a cell from its vertex chain, deriving one (a, pi, s) witness."""
        vs = tuple(tuple(v) for v in vertices)
        if not vs:
            raise ValidationError("empty vertex chain")
        d = len(vs[0])
        blocks = []
        for prev, cur in zip(vs, vs[1:]):
            diff = tuple(c - p for p, c in zip(prev, cur))
            if any(x not in (0, 1) for x in diff) or all(x == 0 for x in diff):
                raise ValidationError(f"not a unit chain step: {prev} -> {cur}")
            blocks.append(tuple(i for i, x in enumerate(diff) if x == 1))
        used = [i for b in blocks for i in b]
        if len(set(used)) != len(used):
            raise ValidationError("chain increments must have disjoint supports")
        rest = [i for i in range(d) if i not in set(used)]
        pi = tuple(used + rest)
        kept = {0}
        total = 0
        for b in blocks:
            total += len(b)
            kept.add(total)
        signs = tuple("<" if j in kept else "=" for j in range(d + 1))
        return AlcovedSimplex(vs, vs[0], pi, signs)

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

    def __eq__(self, other):
        if not isinstance(other, AlcovedSimplex):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def top(self) -> tuple:
        return self.vertices[-1]

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
        n = len(self.vertices)
        for r in range(1, n + 1):
            for keep in itertools.combinations(range(n), r):
                yield AlcovedSimplex.from_chain([self.vertices[i] for i in keep])

    def facets(self) -> Iterator["AlcovedSimplex"]:
        n = len(self.vertices)
        for drop in range(n):
            if n > 1:
                yield AlcovedSimplex.from_chain(
                    [self.vertices[i] for i in range(n) if i != drop]
                )

    def to_json_dict(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "dim": self.dim,
        }


def _unit_increments(d: int) -> list:
    """All nonzero 0/1 vectors, as coordinate-support tuples."""
    out = []
    for mask in range(1, 1 << d):
        out.append(tuple(i for i in range(d) if mask >> i & 1))
    return out


def lattice_points(m: TropMatrix, guard: int | None = None) -> set:
    """All integer points of the hull, found by scanning the bounding box."""
    guard = resolve_guard(guard)
    box = bounding_box(m)
    size = 1
    for lo, hi in box:
        size *= hi - lo + 1
    check_guard(size, guard, "bounding box scan")
    pts = set()
    ranges = [range(lo, hi + 1) for lo, hi in box]
    for p in itertools.product(*ranges):
        if contains(m, p):
            pts.add(p)
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
    def facet_cover_count(self) -> dict:
        """For each cell of dimension dim-1, how many top cells cover it."""
        top = self.dim
        counts = {frozenset(c.vertices): 0 for c in self.cells_of_dim(top - 1)}
        for c in self.cells_of_dim(top):
            for f in c.facets():
                key = frozenset(f.vertices)
                if key in counts:
                    counts[key] += 1
        return counts

    @cached_property
    def _facet_boundary_closure(self) -> frozenset:
        """Vertex sets of all faces of the facets covered by exactly one top cell."""
        closure = set()
        for c in self.cells_of_dim(self.dim - 1):
            if self.facet_cover_count.get(frozenset(c.vertices), 0) == 1:
                for f in c.faces():
                    closure.add(frozenset(f.vertices))
        return frozenset(closure)

    def is_pure(self) -> bool:
        """Every cell is a face of a top-dimensional cell."""
        top = self.dim
        covered = set()
        for c in self.cells_of_dim(top):
            for f in c.faces():
                covered.add(frozenset(f.vertices))
        return all(frozenset(c.vertices) in covered for c in self.cells)

    def trunk(self, i: int) -> "CellComplex":
        """Downward closure of all cells of dimension >= i."""
        if not 0 <= i <= self.ambient_dim:
            raise ValidationError(f"trunk index {i} out of range")
        keep = set()
        for c in self.cells:
            if c.dim >= i:
                for f in c.faces():
                    keep.add(f)
        return CellComplex(self.ambient_dim, _sorted_cells(keep))

    def labels(self) -> dict:
        """Classify each cell: maximal / interior / boundary.

        maximal: not a proper face of any stored cell (all top cells plus
        tentacle tips of lower dimension).  interior: in the closure of the
        top-dimensional part but not in the closure of its boundary, where the
        boundary consists of the facets covered by exactly one top cell.
        Closures of lower-dimensional maximal cells count as boundary too.
        boundary: everything else.
        """
        top = self.dim
        covered_by_higher = set()
        for c in self.cells:
            for f in c.faces():
                if f.dim < c.dim:
                    covered_by_higher.add(frozenset(f.vertices))
        maximal = {
            frozenset(c.vertices) for c in self.cells
            if frozenset(c.vertices) not in covered_by_higher
        }
        boundary_closure = set(self._facet_boundary_closure)
        for c in self.cells:
            key = frozenset(c.vertices)
            if c.dim < top and key in maximal:
                for f in c.faces():
                    boundary_closure.add(frozenset(f.vertices))
        result: dict = {}
        for c in self.cells:
            key = frozenset(c.vertices)
            if key in maximal:
                result[c] = "maximal"
            elif key in boundary_closure:
                result[c] = "boundary"
            else:
                result[c] = "interior"
        return result

    def interior_cells(self) -> list:
        """Cells not lying in the closure of the support's boundary.

        Only meaningful for pure complexes, where the boundary is the union of
        facets covered exactly once.
        """
        closure = self._facet_boundary_closure
        return [c for c in self.cells if frozenset(c.vertices) not in closure]

    def euler_characteristic(self) -> int:
        return sum((-1) ** c.dim for c in self.cells)

    def to_json_list(self, with_labels: bool = True) -> list:
        labels = self.labels() if with_labels else {}
        out = []
        for c in self.cells:
            entry = c.to_json_dict()
            if with_labels:
                entry["label"] = labels[c]
            out.append(entry)
        return out


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
    increments = _unit_increments(d)
    cells = []
    budget = [0]

    def extend(chain, used_mask):
        check_guard(budget[0], guard, "chain enumeration")
        budget[0] += 1
        cells.append(AlcovedSimplex.from_chain(chain))
        last = chain[-1]
        for sup in increments:
            mask = 0
            for i in sup:
                mask |= 1 << i
            if mask & used_mask:
                continue
            nxt = list(last)
            for i in sup:
                nxt[i] += 1
            nxt = tuple(nxt)
            if nxt in pts:
                chain.append(nxt)
                extend(chain, used_mask | mask)
                chain.pop()

    for p in sorted(pts):
        extend([p], 0)
    return CellComplex(d, _sorted_cells(cells))


def as_complex(arg, guard: int | None = None) -> CellComplex:
    """The argument itself if it is a cell complex, else the matrix's triangulation."""
    if isinstance(arg, CellComplex):
        return arg
    if isinstance(arg, TropMatrix):
        return enumerate_triangulation(arg, guard)
    raise ValidationError(f"expected a matrix or cell complex, got {type(arg).__name__}")


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
