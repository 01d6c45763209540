"""Lattice point counting and tropical Ehrhart polynomials.

Two counting regimes share one polytope:

* max-times: the image exp_b(P) of a hull P under coordinatewise b**(.) is an
  ordinary (classically convex by pieces) polytope with rational data; its
  integer dilates t * exp_b(P) are counted exactly over Z_{>=0}^d.  Every
  fibre of the hull parallel to an axis is an interval, whose two ends have
  closed forms in the other coordinates, so the count sweeps the box one
  fibre along its longest axis at a time: work and memory are the box size
  over the longest side, not the box size.
* tropical: the count of b-power lattice points of the tropical dilate k (.) P
  equals the max-times count at t = b**k.

The counting function in t = b**k agrees with a polynomial of degree dim(P);
its coefficients are recovered two independent ways: exact interpolation from
raw counts, and a signed, (b-1)-weighted sum of classical Ehrhart coefficients
of the b-scaled closed cells of the canonical triangulation.  Each closed cell
is a weighted chain simplex: scaling by diag(b**a_r) collapses the count of
its t-th dilate to

    #{ integers n_1..n_m : 0 <= n_m/g_m <= ... <= n_1/g_1 <= t },

with one weight g_l = b**(min of the base point over the l-th increment
block) per chain step; open-cell counts use the strict variant.  Both are
counted by a level-by-level prefix-sum DP whose cost and memory are the sum
of the largest reachable value per level, about (g_1 + ... + g_m) * t, not
the count itself.  Since count(c*g, t) = count(g, c*t), a cell whose
smallest weight is b**s has the Ehrhart polynomial of its translate by -s
(smallest weight 1) with coefficient i multiplied by b**(s*i); the formula
sum also counts each distinct weight tuple once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Callable, Iterator, Optional, Sequence

import numpy as _np

from .cells import AlcovedSimplex, CellComplex, as_complex, enumerate_triangulation
from .core import TropMatrix, check_base, contains, format_entry
from .errors import CrossCheckError, GuardExceeded, ValidationError
from .guard import check_guard, resolve_guard
from .ratpoly import lagrange_interpolate, poly_degree, poly_eval


@dataclass(frozen=True)
class TropicalEhrhartPolynomial:
    """Counting polynomial in x = b**k: value(k) = sum_i coeffs[i] * (b**k)**i."""

    b: int
    coeffs: tuple  # Fractions c_0..c_d
    verified_at: Optional[int] = None  # extra node the prediction was checked at

    def evaluate(self, k: int) -> Fraction:
        return poly_eval(self.coeffs, Fraction(self.b) ** k)

    def degree(self) -> int:
        return poly_degree(self.coeffs)


@dataclass(frozen=True)
class ClassicalEhrhartPolynomial:
    """Ehrhart polynomial of one b-scaled closed cell, in the dilation t."""

    coeffs: tuple
    dim: int

    def evaluate(self, t) -> Fraction:
        return poly_eval(self.coeffs, Fraction(t))

    @property
    def rvol(self) -> Fraction:
        """Leading coefficient: the relative volume of the cell."""
        return self.coeffs[self.dim]


def _check_counting_matrix(m: TropMatrix, allow_minus_inf: bool) -> None:
    for row in m.entries:
        for e in row:
            if e is None:
                if not allow_minus_inf:
                    raise ValidationError(
                        "counting needs finite entries here; -inf entries leave "
                        "the polynomial regime"
                    )
                continue
            if not isinstance(e, int) or e < 0:
                raise ValidationError(
                    f"counting needs entries in Z>=0 (or -inf), got {e!r}"
                )


def count_maxtimes(m: TropMatrix, b: int, t: int, guard: int | None = None) -> int:
    """#(t * exp_b(P) cap Z_{>=0}^d), exactly.

    At integer scale big = t * b**(max entry), with tb_ij = t * b**M_ij (0
    for -inf) and w_ij = big // tb_ij, the scaled residuation coefficients
    of z are lam_j = min_i z_i * w_ij (see `maxtimes_membership`).  Fibres
    of a tropical polytope parallel to an axis are intervals (Develin and
    Sturmfels, *Tropical convexity*, 2004).  On the fibre z_a = s along the
    longest box axis a, lam_j = min(c_j, s * w_aj) with c_j = min over
    k != a of z_k * w_kj, so row a recomposes iff s <= hi = max over
    tb_aj > 0 of min(tb_aj, c_j // w_aj), while each row i != a with
    z_i > 0 needs s >= the least ceil(z_i * w_ij / w_aj) over j with
    z_i <= tb_ij and c_j == z_i * w_ij, and max lam >= big needs s >= the
    least tb_aj over j with c_j >= big (0 for an all -inf column).  The
    fibre holds max(0, hi - lo + 1) points, lo the largest lower bound.
    The other coordinates form a numpy grid of box size / longest side
    points, which bounds the memory; it holds int64 when big * big < 2**62
    and Python ints otherwise.
    """
    check_base(b)
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValidationError(f"dilation factor must be a positive integer, got {t!r}")
    _check_counting_matrix(m, allow_minus_inf=True)
    guard = resolve_guard(guard)
    n = m.cols
    tb = [[0 if e is None else t * b ** e for e in row] for row in m.entries]
    hi = [max(row) for row in tb]
    candidates = prod(h + 1 for h in hi)
    check_guard(candidates, guard, "max-times box scan")
    big = t * b ** (m.max_entry() or 0)
    inf = big * big + 1  # above every z_i * w_ij, as z_i <= big and w_ij <= big
    dtype = _np.int64 if big * big < 2 ** 62 else object
    a = hi.index(max(hi))
    others = [i for i in range(m.rows) if i != a]
    size = candidates // (hi[a] + 1)
    axes = _np.indices([hi[i] + 1 for i in others]).reshape(len(others), size)
    grid = dict(zip(others, axes.astype(dtype)))
    w = [[big // e if e else 0 for e in row] for row in tb]
    c = [_np.full(size, inf, dtype) for _ in range(n)]
    for k, zk in grid.items():
        for j in range(n):
            if tb[k][j]:
                _np.minimum(c[j], zk * w[k][j], out=c[j])
    top = _np.zeros(size, dtype)
    for j in range(n):
        if tb[a][j]:
            _np.maximum(top, _np.minimum(c[j] // w[a][j], tb[a][j]), out=top)
    # lo, the largest lower bound on s, starts at the one of max lam >= big
    lo = _np.full(size, inf, dtype)
    for j in range(n):
        lo = _np.where(c[j] >= big, _np.minimum(lo, tb[a][j]), lo)
    for i, zi in grid.items():
        bound = _np.full(size, inf, dtype)
        for j in range(n):
            if tb[i][j]:
                zw = zi * w[i][j]
                need = -(-zw // w[a][j]) if tb[a][j] else 0
                fits = (zi <= tb[i][j]) & (c[j] == zw)
                bound = _np.where(fits, _np.minimum(bound, need), bound)
        lo = _np.where(zi > 0, _np.maximum(lo, bound), lo)
    return int(_np.maximum(top - lo + 1, 0).sum())


def maxtimes_membership(
    tb: Sequence[Sequence[int]], big: int
) -> Callable[[Sequence[int]], bool]:
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

    def member(z: Sequence[int]) -> bool:
        lam = [min((z[i] * w for i, w in col), default=big) for col in weights]
        if not has_empty and max(lam) < big:
            return False
        return all(
            max((min(lam[j], big) * e for j, e in enumerate(row) if e), default=0)
            == big * z[i]
            for i, row in enumerate(tb)
        )

    return member


def count_tropical(m: TropMatrix, b: int, k: int, guard: int | None = None) -> int:
    """Number of b-power lattice points of the tropical dilate k (.) P."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValidationError(f"k must be a nonnegative integer, got {k!r}")
    return count_maxtimes(m, b, b ** k, guard)


def count_classical_dilate(m: TropMatrix, k: int, guard: int | None = None) -> int:
    """#(k * P cap Z^d) for the classical dilation of the hull."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    _check_counting_matrix(m, allow_minus_inf=False)
    guard = resolve_guard(guard)
    box = [(min(row) * k, max(row) * k) for row in m.entries]
    candidates = 1
    for lo, hiv in box:
        candidates *= hiv - lo + 1
    check_guard(candidates, guard, "classical dilate scan")
    total = 0
    for z in itertools.product(*[range(lo, hiv + 1) for lo, hiv in box]):
        if contains(m, tuple(Fraction(c, k) for c in z)):
            total += 1
    return total


def cell_exponents(cell: AlcovedSimplex) -> tuple:
    """Chain weight exponents e_l: the smallest base coordinate on the l-th block."""
    return tuple(min(cell.base[r] for r in block) for block in cell.blocks())


def cell_weights(cell: AlcovedSimplex, b: int) -> tuple:
    """Chain weights g_l = b**e_l, one per increment block."""
    return tuple(b ** e for e in cell_exponents(cell))


def cell_rvol(cell: AlcovedSimplex, b: int) -> Fraction:
    """Relative volume of the b-scaled closed cell: (prod g_l) / m!."""
    return Fraction(prod(cell_weights(cell, b)), factorial(cell.dim))


def _chain_count(gs: Sequence[int], t: int, strict: bool, guard: int) -> int:
    """Count weighted chains below dilation t; strict toggles < versus <=.

    strict=False:  0 <= n_m/g_m <= ... <= n_1/g_1 <= t
    strict=True:   0 <  n_m/g_m <  ... <  n_1/g_1 <  t
    Level l takes the values 0..top_l with top_0 = t, g_0 = 1 and
    top_l = (g_l * top_{l-1}) // g_{l-1}, or (g_l * top_{l-1} - 1) // g_{l-1}
    when strict.  From the innermost level outwards, the number of
    completions below each value of level l is a prefix sum over level l + 1,
    so cost and memory are the sum of top_l + 1 over the tabulated levels
    l < m; that sum is checked against the guard before any work.
    """
    m = len(gs)
    if m == 0:
        return 1
    s = int(strict)
    tops = []
    num, den = t, 1
    for g in gs:
        num, den = (g * num - s) // den, g
        if num < s:
            return 0
        tops.append(num)
    # the innermost level is never tabulated: it has max(0, x + 1 - s)
    # members up to x, and its caller asks for one such value per entry
    check_guard(sum(tops[:-1]) + m - 1, guard, "weighted chain counting")
    g_in = gs[-1]
    below = None  # below[x + 1] = completions of the inner levels up to x
    for level in range(m - 2, -1, -1):
        g = gs[level]
        if below is None:
            cur = [max(0, (g_in * n - s) // g + 1 - s) for n in range(tops[level] + 1)]
        else:
            cur = [below[(g_in * n - s) // g + 1] for n in range(tops[level] + 1)]
        below = [0, *itertools.accumulate(cur)]
        g_in = g
    if below is None:
        return tops[0] + 1 - s
    return below[-1]


def open_cell_count(cell: AlcovedSimplex, b: int, k: int, guard: int | None = None) -> int:
    """#((b**(k+1) - b**k) * scaled open cell cap Z^d) by direct enumeration."""
    check_base(b)
    guard = resolve_guard(guard)
    t = (b - 1) * b ** k
    return _chain_count(cell_weights(cell, b), t, True, guard)


def closed_cell_count(cell: AlcovedSimplex, b: int, t: int, guard: int | None = None) -> int:
    """Lattice points of the t-th classical dilate of the b-scaled closed cell."""
    check_base(b)
    guard = resolve_guard(guard)
    if t < 0:
        raise ValidationError("dilation must be nonnegative")
    if t == 0:
        return 1
    return _chain_count(cell_weights(cell, b), t, False, guard)


def count_via_cells(arg, b: int, k: int, guard: int | None = None) -> int:
    """Independent tropical count: sum of open-cell counts over the triangulation."""
    guard = resolve_guard(guard)
    complex_ = as_complex(arg, guard)
    return sum(open_cell_count(c, b, k, guard) for c in complex_.cells)


def classical_ehrhart_scaled_simplex(
    cell: AlcovedSimplex, b: int, guard: int | None = None
) -> ClassicalEhrhartPolynomial:
    """Ehrhart polynomial of the b-scaled closed cell, by counting m+1 dilates.

    The dilates counted are those of the cell translated by -s, where s is
    the smallest base coordinate over the increment blocks: its weights are
    those of the cell divided by b**s, and count(b**s * g, t) = count(g,
    b**s * t) turns coefficient i of its polynomial into coefficient i of
    the cell's after multiplication by b**(s*i).
    """
    check_base(b)
    guard = resolve_guard(guard)
    m = cell.dim
    s = min(cell_exponents(cell), default=0)
    shifted = AlcovedSimplex(tuple(tuple(x - s for x in v) for v in cell.vertices))
    pts = [(t, closed_cell_count(shifted, b, t, guard)) for t in range(m + 1)]
    coeffs = lagrange_interpolate(pts)
    scale = b ** s
    return ClassicalEhrhartPolynomial(
        tuple(c * scale ** i for i, c in enumerate(coeffs)), m
    )


def _formula_sum(cells, d: int, b: int, guard: int) -> tuple:
    """c_0..c_d as the signed, (b-1)-weighted sum over the given cells.

    c_i = sum over cells of dimension m >= i of
          (-1)**(m-i) * (b-1)**i * (classical coefficient i of the scaled cell).
    A cell's polynomial depends only on its weight tuple, so each distinct
    tuple is counted once per call.
    """
    polys = {}
    out = [Fraction(0)] * (d + 1)
    for cell in cells:
        key = cell_weights(cell, b)
        ec = polys.get(key)
        if ec is None:
            ec = polys[key] = classical_ehrhart_scaled_simplex(cell, b, guard)
        m = cell.dim
        for i in range(m + 1):
            out[i] += (-1) ** (m - i) * Fraction(b - 1) ** i * ec.coeffs[i]
    return tuple(out)


def coeffs_via_formula(arg, b: int, guard: int | None = None) -> tuple:
    """Assemble c_0..c_d as signed, (b-1)-weighted sums over all cells."""
    check_base(b)
    guard = resolve_guard(guard)
    complex_ = as_complex(arg, guard)
    return _formula_sum(complex_.cells, complex_.ambient_dim, b, guard)


def c_top_leading(arg, b: int, guard: int | None = None) -> Fraction:
    """Leading coefficient c_d, closed form: (b-1)^d * sum of full-cell rvols."""
    check_base(b)
    complex_ = as_complex(arg, resolve_guard(guard))
    d = complex_.ambient_dim
    total = Fraction(0)
    for cell in complex_.cells_of_dim(d):
        total += cell_rvol(cell, b)
    return Fraction(b - 1) ** d * total


def weighted_facets(complex_: CellComplex) -> Iterator[tuple]:
    """(delta, F) for the (d-1)-cells F of the complex with nonzero facet weight.

    delta = (2 - number of full cells covering F) / 2: none -> 1 (a tentacle
    facet), one -> 1/2 (boundary), two -> 0 (interior wall, skipped).
    """
    for cell in complex_.cells_of_dim(complex_.ambient_dim - 1):
        covers = complex_.facet_cover_count.get(cell.vertices, 0)
        delta = Fraction(2 - covers, 2)
        if delta:
            yield delta, cell


def c_dminus1_direct(arg, b: int, guard: int | None = None) -> Fraction:
    """Second-highest coefficient: sum of delta * (b-1)**(d-1) * rvol over facets."""
    check_base(b)
    complex_ = as_complex(arg, resolve_guard(guard))
    scale = Fraction(b - 1) ** (complex_.ambient_dim - 1)
    return sum(
        (delta * scale * cell_rvol(cell, b) for delta, cell in weighted_facets(complex_)),
        Fraction(0),
    )


def tropical_ehrhart_poly(
    m: TropMatrix,
    b: int,
    guard: int | None = None,
    counter: Optional[Callable[[TropMatrix, int, int, int], int]] = None,
) -> TropicalEhrhartPolynomial:
    """Recover the counting polynomial by interpolation at k = 0..d.

    The nodes b**0..b**d are distinct, so the Vandermonde system is regular
    and Lagrange interpolation is exact.  The prediction is verified against
    one extra count at k = d+1 when that box fits under the guard.
    """
    check_base(b)
    _check_counting_matrix(m, allow_minus_inf=False)
    guard = resolve_guard(guard)
    count = counter or count_tropical
    d = m.rows
    pts = []
    for k in range(d + 1):
        pts.append((Fraction(b) ** k, count(m, b, k, guard)))
    coeffs = lagrange_interpolate(pts)
    verified = None
    try:
        extra = count(m, b, d + 1, guard)
    except GuardExceeded:
        extra = None
    if extra is not None:
        if poly_eval(coeffs, Fraction(b) ** (d + 1)) != extra:
            raise CrossCheckError(
                f"interpolated polynomial fails at k={d + 1}: "
                f"predicted {poly_eval(coeffs, Fraction(b) ** (d + 1))}, counted {extra}"
            )
        verified = d + 1
    return TropicalEhrhartPolynomial(b, coeffs, verified)


def interior_coeffs_via_formula(arg, b: int, guard: int | None = None) -> tuple:
    """The formula sum restricted to cells away from the support boundary."""
    check_base(b)
    guard = resolve_guard(guard)
    complex_ = as_complex(arg, guard)
    return _formula_sum(complex_.interior_cells(), complex_.ambient_dim, b, guard)


def reciprocity_check(arg, b: int, guard: int | None = None) -> bool:
    """c_i(interior) == (-1)**(dim - i) * c_i(P) for every i.

    The identity needs the polytope to equal its top trunk: every maximal
    cell must have the full ambient dimension.  Weak purity is not enough;
    a branching tree of segments in the plane has equal-dimensional maximal
    cells but its interior counts break the sign pattern at the branch
    vertex, so such inputs are rejected rather than reported as False.
    """
    guard = resolve_guard(guard)
    complex_ = as_complex(arg, guard)
    if not complex_.is_pure() or complex_.dim != complex_.ambient_dim:
        raise ValidationError(
            "reciprocity needs a pure complex of full dimension"
        )
    dim = complex_.dim
    full = coeffs_via_formula(complex_, b, guard)
    inner = interior_coeffs_via_formula(complex_, b, guard)
    return all(
        inner[i] == (-1) ** (dim - i) * full[i] for i in range(len(full))
    )


def log_map(samples: Sequence[tuple], degree_bound: int) -> Optional[int]:
    """Degree of the polynomial (in b) behind the samples; None stands for -inf.

    samples are (b, value) pairs of one polynomial of degree <= degree_bound;
    at least degree_bound + 1 of them are required, extras must be consistent.
    """
    if degree_bound < 0:
        raise ValidationError("degree bound must be nonnegative")
    if len(samples) < degree_bound + 1:
        raise ValidationError(
            f"need at least {degree_bound + 1} samples, got {len(samples)}"
        )
    head = samples[: degree_bound + 1]
    coeffs = lagrange_interpolate(head)
    for bval, val in samples:
        if poly_eval(coeffs, Fraction(bval)) != Fraction(val):
            raise ValidationError(
                f"samples are not polynomial of degree <= {degree_bound} "
                f"(residual at b={bval})"
            )
    deg = poly_degree(coeffs)
    return None if deg < 0 else deg


def log_degree_bound(m: TropMatrix) -> int:
    """Degree of any c_i in b is at most d * (1 + max entry)."""
    top = m.max_entry()
    return m.rows * (1 + (top if top is not None else 0))


def coefficient_in_b(arg, i: int, b: int, guard: int | None = None) -> Fraction:
    """c_i at one base b, routed to the cheapest exact path available.

    i = 0 is the Euler characteristic, the top two indices have closed forms,
    anything in between falls back to the per-cell interpolation formula.
    """
    complex_ = as_complex(arg, resolve_guard(guard))
    d = complex_.ambient_dim
    if not 0 <= i <= d:
        raise ValidationError(f"coefficient index {i} out of range")
    if i == 0:
        return Fraction(complex_.euler_characteristic())
    if i == d:
        return c_top_leading(complex_, b, guard)
    if i == d - 1:
        return c_dminus1_direct(complex_, b, guard)
    return coeffs_via_formula(complex_, b, guard)[i]


def log_coefficient(m: TropMatrix, i: int, guard: int | None = None) -> Optional[int]:
    """Log of the i-th coefficient: its degree as a polynomial in b."""
    guard = resolve_guard(guard)
    complex_ = enumerate_triangulation(m, guard)
    bound = log_degree_bound(m)
    samples = [
        (b, coefficient_in_b(complex_, i, b, guard)) for b in range(2, bound + 3)
    ]
    return log_map(samples, bound)


def ehrhart_report(m: TropMatrix, b: int, kmax: int, guard: int | None = None) -> dict:
    """JSON-ready report: counts, interpolated and formula coefficients."""
    guard = resolve_guard(guard)
    counted = {}

    def count_once(m, b, k, guard):
        if k not in counted:
            counted[k] = count_tropical(m, b, k, guard)
        return counted[k]

    poly = tropical_ehrhart_poly(m, b, guard, counter=count_once)
    formula = coeffs_via_formula(m, b, guard)
    counts = [{"k": k, "value": count_once(m, b, k, guard)} for k in range(kmax + 1)]
    return {
        "b": b,
        "coeffs": [str(format_entry(c)) for c in poly.coeffs],
        "formula_coeffs": [str(format_entry(c)) for c in formula],
        "agree": tuple(poly.coeffs) == tuple(formula),
        "counts": counts,
    }

