"""Lattice point counting and tropical Ehrhart polynomials.

Two counting regimes share one polytope:

* max-times: the image exp_b(P) of a hull P under coordinatewise b**(.) is an
  ordinary (classically convex by pieces) polytope with rational data; its
  integer dilates t * exp_b(P) are counted exactly over Z_{>=0}^d.  Every
  fibre of the hull parallel to an axis is an interval, whose two ends have
  closed forms in the other coordinates, so the count sweeps the hull's own
  box (row i from min_j to max_j of t * b**M_ij) one fibre along its widest
  range at a time: work and memory are that box's size over its widest
  side, not the box size.  The scan runs on a sparse numpy grid of the
  other coordinates, in the narrowest of int16, int32, int64 and Python
  ints that holds every value, up to big**2 + 1 (see count_maxtimes); the
  one code path serves every dtype.
* tropical: the count of b-power lattice points of the tropical dilate k (.) P
  equals the max-times count at t = b**k.  The max-times hull scales
  linearly, so z lies in b**k * exp_b(P) iff b**(K-k) * z lies in
  b**K * exp_b(P): the count at k is the number of points of the K scan on
  the b**(K-k)-sublattice, read off its fibres.  So one scan, at the
  largest k whose box fits the guard, gives every smaller dilate's count,
  and the interpolation nodes of tropical_ehrhart_poly and the counts of
  ehrhart_report all come from it.  The interpolation runs in integers,
  through one table per node tuple b**0..b**d (_node_table).

Counting is where entries must lie in Z>=0, because b**e is a lattice count
only for e >= 0; triangulation itself takes any finite integer matrix.  Every
function here that reads chain weights gets its complex from
counting_complex, which checks a matrix before triangulating it and a
complex by its vertices.

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
(smallest weight 1) with coefficient i multiplied by b**(s*i).  So every
count reads a cell's exponent tuple alone.  The formula sum, count_via_cells
and c_d read the complex's exponent_tally, and c_{d-1} its facet_exponents;
both tables come off the chain shapes stored per lattice point (see cells),
built once per complex and never as cell objects.  Only the interior sum
tallies cell objects, with cell_exponents.  The formula sum folds the tally
into classes by shifted tuple (exponents minus their smallest, s).  The
class kernel _class_coeffs returns the integers m! * c_i of an m-cell class,
read off its counts at t = 0..m, all from one DP at t = m, through one
integer table per m (m! times the inverse Vandermonde matrix of those
nodes, the nodes-0..m case of _node_table); the formula sum adds d! * c_i
in integers and forms the d + 1 Fractions once.
closed_cell_count, open_cell_count and classical_ehrhart_scaled_simplex are
entry points onto the same kernels for one cell.  Two tables outlive a call,
both keyed by the mathematics alone: the interpolation tables, keyed by
their nodes (the 256 most recent node tuples), and the class table of
_class_coeffs, keyed by (shifted tuple, b) and
capped at CLASS_TABLE_CAP entries.  Classes recur across matrices, so a
later call, on the same input or another, reads back every class seen
before.  Each entry keeps the class's largest guard charge beside its
integers, so a hit within the guard skips the weights and the charges per
t, and a hit past it raises what the DP would.  The triangulation keeps a
third, of cube patterns (see cells).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as _np

from .cells import AlcovedSimplex, CellComplex, ambient_dim, as_complex
from .core import TropMatrix, check_base, format_entry
from .errors import CrossCheckError, GuardExceeded, ValidationError
from .guard import BoundedTable, check_guard, resolve_guard
from .ratpoly import divided_differences, newton_eval, poly_eval


@dataclass(frozen=True)
class TropicalEhrhartPolynomial:
    """Counting polynomial in x = b**k: value(k) = sum_i coeffs[i] * (b**k)**i."""

    b: int
    coeffs: tuple  # Fractions c_0..c_d
    verified_at: Optional[int] = None  # extra node the prediction was checked at

    def evaluate(self, k: int) -> Fraction:
        return poly_eval(self.coeffs, Fraction(self.b) ** k)


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
                accepted = "Z>=0 (or -inf)" if allow_minus_inf else "Z>=0"
                raise ValidationError(f"counting needs entries in {accepted}, got {e!r}")


def _check_counting_arg(arg) -> None:
    """counting_complex's checks, made before any triangulation.  A chain's
    base point is its coordinatewise minimum, so a complex is checked on those."""
    ambient_dim(arg)  # anything but a matrix or a complex is rejected
    if isinstance(arg, TropMatrix):
        _check_counting_matrix(arg, allow_minus_inf=False)
    elif any(min(p) < 0 for p in arg.shapes):
        raise ValidationError("counting needs cell vertices in Z>=0")


def counting_complex(arg, guard: int | None = None) -> CellComplex:
    """The complex of a matrix with entries in Z>=0, or a complex in Z>=0^d."""
    _check_counting_arg(arg)
    return as_complex(arg, guard)


def _negative(value) -> bool:
    """value < 0, and False where that comparison is undefined (a str, None)."""
    try:
        return bool(value < 0)
    except TypeError:
        return False


def _check_exponent(value, name: str) -> None:
    """The one rule for k, kmax, a dilation t and a suite's cases: a non-bool int, at least 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {value!r}")


def _box_size(m: TropMatrix, b: int, t: int) -> int:
    """Integer points of the bounding box of t * exp_b(P): the scan's guard charge."""
    return prod(max(0 if e is None else t * b ** e for e in row) + 1 for row in m.entries)


def _fibre_axis(tb) -> int:
    """The axis of _fibres: the row of tb (t * b**M_ij, 0 for -inf) whose
    entries span the widest range, the first on ties.  The hull's box runs
    from the least to the largest entry of each row, and every range scales
    with t, so the axis depends on the matrix and b alone."""
    widths = [max(row) - min(row) for row in tb]
    return widths.index(max(widths))


def _grid_dtype(big: int):
    """The narrowest dtype of _fibres' grid that holds every value, up to big**2 + 1.

    int16 when big**2 + 1 < 2**15, int32 when it is below 2**31, int64 when
    big**2 < 2**62, else Python ints (object).  NumPy rejects a Python int
    scalar outside an array's dtype, so every scalar the scan mixes into the
    grid (inf, big, -1, and the sublattice step s <= big) fits as well.
    """
    inf = big * big + 1
    if inf < 2 ** 15:
        return _np.int16
    if inf < 2 ** 31:
        return _np.int32
    if big * big < 2 ** 62:
        return _np.int64
    return object


class Fibres(NamedTuple):
    """A box scan: the fibre lo <= z_axis <= hi above each point of its grid.

    The grid holds the coordinates other than axis, in row order, one array
    axis each; array index x on the r-th of them is the coordinate
    origin[r] + x.
    """

    lo: object
    hi: object
    axis: int
    origin: tuple


def _fibres(m: TropMatrix, b: int, t: int) -> Fibres:
    """The fibre of t * exp_b(P) above each point of the hull's own box.

    Every point z of t * exp_b(P) is max_j mu_j * tb_j with mu_j in [0, 1],
    one of them 1, so min_j tb_ij <= z_i <= max_j tb_ij: the grid's axis for
    row i runs over that range, and the fibres run along the row
    a = _fibre_axis(tb), whose range is the widest.  The fibre above a grid
    point is the interval lo <= z_a <= hi, empty when hi < lo (see count_maxtimes
    for the bounds).  The grid is sparse and the columns sit on one first
    array axis, so every product z_k * w_kj and every quotient by w_aj is
    taken on a 1-D axis, using floor(min_k x_k / w) = min_k floor(x_k / w),
    and only the minima over k, the comparisons and the reductions over the
    columns run on the full grid, one numpy call each for all columns.  No
    full-grid select runs: a row's lower bound is a masked minimum, the
    least of max(need_j, inf * (c_j != tight_j)) over the columns, which
    equals the least need_j over the tight columns as every need is below
    inf.  The per-column constants are built as one array, and the selects
    that mask a -inf entry run only for the rows that hold one.  The grid's
    dtype is _grid_dtype(big), the same code path for each.
    """
    n = m.cols
    tb = [[0 if e is None else t * b ** e for e in row] for row in m.entries]
    big = t * b ** (m.max_entry() or 0)
    inf = big * big + 1  # above every z_i * w_ij, as z_i <= big and w_ij <= big
    dtype = _grid_dtype(big)
    a = _fibre_axis(tb)
    others = [i for i in range(m.rows) if i != a]
    origin = tuple(min(tb[i]) for i in others)
    # one row per constant: tb_aj, w_aj, -w_aj, then w_ij and tb_ij (-1 for
    # -inf) per row i
    rows = [tb[a], [big // e if e else 1 for e in tb[a]]]
    rows.append([-w for w in rows[1]])
    for i in others:
        rows += [[big // e if e else 0 for e in tb[i]], [e if e else -1 for e in tb[i]]]
    tb_a, w_a, neg_w_a, *per_row = _np.array(rows, dtype).reshape(
        (len(rows), n) + (1,) * len(others)
    )
    w_other, tb_other = per_row[0::2], per_row[1::2]
    a_inf = 0 in tb[a]
    grid, zw = [], []
    for r, i in enumerate(others):
        shape = [1] * (len(others) + 1)
        shape[r + 1] = -1
        z = _np.arange(origin[r], max(tb[i]) + 1, dtype=dtype).reshape(shape)
        x = z * w_other[r]
        if 0 in tb[i]:
            x = _np.where(tb_other[r] > 0, x, inf)  # inf for a -inf entry
        grid.append(z)
        zw.append(x)  # z_i * w_ij on axis i
    # c_j = min over k != a of z_k * w_kj
    c = functools.reduce(_np.minimum, zw) if zw else None
    # hi = max over j of min(c_j // w_aj, tb_aj); a -inf entry of row a gives 0
    hi = functools.reduce(_np.minimum, [x // w_a for x in zw], tb_a).max(axis=0)
    # lo starts at the least tb_aj over the columns j with c_j >= big
    reach = [_np.where(x >= big, tb_a, inf) for x in zw]
    bounds = [(functools.reduce(_np.maximum, reach) if reach else tb_a).min(axis=0)]
    for r, (i, z, x) in enumerate(zip(others, grid, zw)):
        if not max(tb[i]):
            continue  # a -inf row only has z_i = 0, which bounds nothing
        # row i needs z_a >= the least ceil(z_i * w_ij / w_aj) over the
        # columns j with z_i <= tb_ij and c_j == z_i * w_ij.  At z_i = 0 that
        # is 0 (c_j = 0 wherever tb_ij > 0), so no z_i > 0 mask is needed.
        need = -(x // neg_w_a)  # ceil(x / w_aj)
        if a_inf:
            need = _np.where(tb_a > 0, need, 0)
        tight = _np.where(z <= tb_other[r], x, -1)
        masked = _np.multiply(c != tight, inf, dtype=dtype)
        bounds.append(_np.maximum(masked, need, out=masked).min(axis=0))
    lo = functools.reduce(_np.maximum, bounds)
    return Fibres(_np.asarray(lo, dtype), _np.asarray(hi, dtype), a, origin)


def _sublattice_count(scan: Fibres, s: int) -> int:
    """Points of a box scan (the fibres of _fibres) on the s-sublattice.

    They lie in the fibres above the grid points whose coordinates are all
    multiples of s: on the axis with origin o, from array index (-o) mod s
    on in steps of s (a strided view).  Each such fibre holds
    max(0, floor(hi / s) - ceil(lo / s) + 1) multiples of s, which is
    max(0, hi - lo + 1) at s = 1.
    """
    lo, hi = scan.lo, scan.hi
    if s == 1:
        fibre = _np.maximum(hi - lo + 1, 0)
    else:
        view = tuple(slice(-o % s, None, s) for o in scan.origin)
        fibre = _np.maximum(hi[view] // s + (-lo[view]) // s + 1, 0)
    return int(fibre.sum(dtype=None if fibre.dtype == object else _np.int64))


def count_maxtimes(m: TropMatrix, b: int, t: int, guard: int | None = None) -> int:
    """#(t * exp_b(P) cap Z_{>=0}^d), exactly.

    At integer scale big = t * b**(max entry), with tb_ij = t * b**M_ij (0
    for -inf) and w_ij = big // tb_ij, the scaled residuation coefficients
    of z are lam_j = min_i z_i * w_ij (membership read off them point by
    point is the oracle of this scan in the tests: _box_scan).  Fibres
    of a tropical polytope parallel to an axis are intervals (Develin and
    Sturmfels, *Tropical convexity*, 2004).  Every point is max_j mu_j * tb_j
    with weights mu_j in [0, 1], one of them 1, so the scan covers the
    hull's own box, row i from min_j tb_ij to max_j tb_ij.  On the fibre
    z_a = s along the axis a of its widest range (_fibre_axis),
    lam_j = min(c_j, s * w_aj) with c_j = min over
    k != a of z_k * w_kj, so row a recomposes iff s <= hi = max over
    tb_aj > 0 of min(tb_aj, c_j // w_aj), while each row i != a with
    z_i > 0 needs s >= the least ceil(z_i * w_ij / w_aj) over j with
    z_i <= tb_ij and c_j == z_i * w_ij, and max lam >= big needs s >= the
    least tb_aj over j with c_j >= big (0 for an all -inf column).  The
    fibre holds max(0, hi - lo + 1) points, lo the largest lower bound.

    The other coordinates form a sparse numpy grid of the hull's box size
    over its widest side points, never more than the guard's charge
    (_box_size, the box from 0), which bounds the memory (see _fibres).
    Every value is at most big * big + 1, so the grid holds int16 when that
    is below 2**15,
    int32 when it is below 2**31, int64 when big * big < 2**62 and Python
    ints otherwise (_grid_dtype); the fibre lengths are summed in int64 or
    in Python ints.  Each row's least bound over the tight columns is a
    masked minimum, with no full-grid select (see _fibres).

    The hull scales linearly: z lies in (t / s) * exp_b(P) iff s * z lies in
    t * exp_b(P).  So for every divisor s of t, the count at t / s is the
    number of this scan's points on the s-sublattice, which is how one scan
    serves every dilate of an Ehrhart report (_dilate_counts).
    """
    check_base(b)
    if isinstance(t, bool) or not isinstance(t, int) or t < 1:
        raise ValidationError(f"dilation factor must be a positive integer, got {t!r}")
    _check_counting_matrix(m, allow_minus_inf=True)
    check_guard(_box_size(m, b, t), resolve_guard(guard), "max-times box scan")
    return _sublattice_count(_fibres(m, b, t), 1)


def count_tropical(m: TropMatrix, b: int, k: int, guard: int | None = None) -> int:
    """Number of b-power lattice points of the tropical dilate k (.) P."""
    _check_exponent(k, "k")
    return count_maxtimes(m, b, b ** k, guard)


def _dilate_counts(m: TropMatrix, b: int, top: int, guard: int) -> list:
    """Tropical counts at k = 0..K, all read off one box scan at t = b**K.

    K is the largest k <= top whose box fits the guard, found by walking up
    from k = 0; the list is empty when not even k = 0 fits.  exp_b(P) scales
    linearly, so z lies in b**k * exp_b(P) iff s * z lies in b**K * exp_b(P)
    with s = b**(K - k): the count at k is that of the K scan's points on
    the s-sublattice.
    """
    K = -1
    while K < top and _box_size(m, b, b ** (K + 1)) <= guard:
        K += 1
    if K < 0:
        return []
    scan = _fibres(m, b, b ** K)
    return [_sublattice_count(scan, b ** (K - k)) for k in range(K + 1)]


def cell_exponents(cell: AlcovedSimplex) -> tuple:
    """Chain weight exponents e_l: the smallest base coordinate on the l-th block.

    Read off consecutive vertices: the l-th block is where v_l differs from
    v_(l-1), and since the blocks are disjoint, no earlier step moved those
    coordinates, so there v_(l-1) equals the base point.
    """
    vs = cell.vertices
    return tuple(
        min(p for p, c in zip(prev, cur) if c != p) for prev, cur in zip(vs, vs[1:])
    )


def cell_weights(cell: AlcovedSimplex, b: int) -> tuple:
    """Chain weights g_l = b**e_l, one per increment block."""
    return tuple(b ** e for e in cell_exponents(cell))


def _outer_prefix(gs: Sequence[int], tops: Sequence[int], s: int) -> Optional[list]:
    """below[x + 1] = the chains of _chain_count whose outermost value n_1 is at most x.

    From the innermost level outwards, the number of completions below each
    value of level l is a prefix sum over level l + 1; the innermost level
    is never tabulated, as it has max(0, x + 1 - s) members up to x.  Level
    l takes the values 0..tops[l], and no table depends on tops[0] but the
    outermost, which ends at x = tops[0].  None when m = 1: no level is
    tabulated.
    """
    g_in = gs[-1]
    below = None
    for level in range(len(gs) - 2, -1, -1):
        g = gs[level]
        if below is None:
            cur = [max(0, (g_in * n - s) // g + 1 - s) for n in range(tops[level] + 1)]
        else:
            cur = [below[(g_in * n - s) // g + 1] for n in range(tops[level] + 1)]
        below = [0, *itertools.accumulate(cur)]
        g_in = g
    return below


def _chain_count(gs: Sequence[int], t: int, strict: bool, guard: int) -> int:
    """Count weighted chains below dilation t; strict toggles < versus <=.

    strict=False:  0 <= n_m/g_m <= ... <= n_1/g_1 <= t
    strict=True:   0 <  n_m/g_m <  ... <  n_1/g_1 <  t
    Level l takes the values 0..top_l with top_0 = t, g_0 = 1 and
    top_l = (g_l * top_{l-1}) // g_{l-1}, or (g_l * top_{l-1} - 1) // g_{l-1}
    when strict.  The prefix-sum DP (_outer_prefix) costs, in time and
    memory, the sum of top_l + 1 over the tabulated levels l < m; that sum
    is checked against the guard before any work.
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
    check_guard(sum(tops[:-1]) + m - 1, guard, "weighted chain counting")
    below = _outer_prefix(gs, tops, s)
    return tops[0] + 1 - s if below is None else below[-1]


def open_cell_count(cell: AlcovedSimplex, b: int, k: int, guard: int | None = None) -> int:
    """#((b**(k+1) - b**k) * scaled open cell cap Z^d) by direct enumeration."""
    check_base(b)
    guard = resolve_guard(guard)
    _check_exponent(k, "k")
    t = (b - 1) * b ** k
    return _chain_count(cell_weights(cell, b), t, True, guard)


def closed_cell_count(cell: AlcovedSimplex, b: int, t: int, guard: int | None = None) -> int:
    """Lattice points of the t-th classical dilate of the b-scaled closed cell."""
    check_base(b)
    guard = resolve_guard(guard)
    if _negative(t):
        raise ValidationError("dilation must be nonnegative")
    _check_exponent(t, "dilation")
    if t == 0:
        return 1
    return _chain_count(cell_weights(cell, b), t, False, guard)


def count_via_cells(arg, b: int, k: int, guard: int | None = None) -> int:
    """Independent tropical count: sum of open-cell counts over the triangulation.

    The strict count at a fixed t depends only on the weights, so each
    distinct exponent tuple is counted once and multiplied by the number of
    cells that share it.  The input, b and k are checked before the
    triangulation.
    """
    guard = resolve_guard(guard)
    _check_counting_arg(arg)
    check_base(b)
    _check_exponent(k, "k")
    complex_ = as_complex(arg, guard)
    t = (b - 1) * b ** k
    return sum(
        count * _chain_count(tuple(b ** e for e in exps), t, True, guard)
        for exps, count in complex_.exponent_tally.items()
    )


@functools.lru_cache(maxsize=256)
def _node_table(nodes: tuple) -> tuple:
    """(den, table): den times the inverse Vandermonde matrix of distinct integer nodes.

    Coefficient i of the polynomial of degree < len(nodes) through
    (x_k, y_k) is (table[i] . y) / den.  Column k of the inverse holds the
    coefficients of the k-th Lagrange basis polynomial,
    prod_(j != k) (x - x_j) / D_k with D_k = prod_(j != k) (x_k - x_j); its
    numerator has integer coefficients, so with den the least common
    multiple of the |D_k| every entry of the table is an integer.  For the
    nodes 0..m, |D_k| = k!(m-k)!, so den = m!.  The table depends on the
    nodes alone and is kept for the 256 most recent node tuples.
    """
    cols, dens = [], []
    for k, xk in enumerate(nodes):
        poly, den_k = [1], 1  # poly: coefficients of the numerator, lowest first
        for j, xj in enumerate(nodes):
            if j != k:
                poly = [up - xj * c for up, c in zip([0] + poly, poly + [0])]
                den_k *= xk - xj
        cols.append(poly)
        dens.append(den_k)
    den = lcm(*map(abs, dens))
    table = tuple(
        tuple(col[i] * (den // den_k) for col, den_k in zip(cols, dens))
        for i in range(len(nodes))
    )
    return den, table


@functools.lru_cache(maxsize=None)
def _interpolation_table(m: int) -> tuple:
    """m! times the inverse Vandermonde matrix of the nodes t = 0..m, in ints:
    the table of _node_table for those nodes, whose den is m!."""
    return _node_table(tuple(range(m + 1)))[1]


# Most class polynomials kept across calls.  An entry is a short tuple of
# exponents, m + 1 integers and the largest guard charge, about 460 bytes
# with the table's own overhead on a 4x6 input at b = 2 (390 without the
# charge), so the table stays near 1.9 MiB at this cap.
CLASS_TABLE_CAP = 4096
_classes = BoundedTable(CLASS_TABLE_CAP)  # (exps, b) -> (m! * c_0..m! * c_m, largest charge)


def _class_coeffs(exps: tuple, b: int, guard: int) -> tuple:
    """m! * c_0..m! * c_m, integers, for the b-scaled closed cell with exponents exps.

    The c_i are the Ehrhart coefficients, read off the closed chain counts
    at t = 0..m (t = 0 counts the one point 0) through _interpolation_table(m).
    Closed, level l runs over 0..g_l * t, and no table of the DP but the
    outermost depends on t, so one DP at t = m gives every count: the chains
    below t are those with n_1 <= g_1 * t.  The guard is charged as
    _chain_count would charge each t = 1..m in turn, so the first t past it
    raises that t's error.

    The integers depend on (exps, b) alone, and the callers pass shifted
    tuples (smallest exponent 0), so they are kept in a process-wide table
    of CLASS_TABLE_CAP entries and the same class in any later call, on any
    matrix, reads them back.  Each entry keeps, beside the integers, the
    largest guard charge, that of t = m: the charges grow with t, so a kept
    class within the guard returns at once, and one past it goes through
    the charges per t and raises exactly what its DP would.
    """
    key = (exps, b)
    kept = _classes.get(key)
    if kept is not None and kept[1] <= guard:
        return kept[0]
    gs = tuple(b ** e for e in exps)
    m = len(gs)
    inner = sum(gs[:-1])
    for t in range(1, m + 1):
        check_guard(t * inner + m - 1, guard, "weighted chain counting")
    counts = [1]
    if m:
        below = _outer_prefix(gs, [g * m for g in gs], 0)
        counts += [
            gs[0] * t + 1 if below is None else below[gs[0] * t + 1] for t in range(1, m + 1)
        ]
    coeffs = tuple(sum(map(mul, row, counts)) for row in _interpolation_table(m))
    _classes.put(key, (coeffs, m * inner + m - 1))
    return coeffs


def classical_ehrhart_scaled_simplex(
    cell: AlcovedSimplex, b: int, guard: int | None = None
) -> tuple:
    """Ehrhart coefficients c_0..c_m of the b-scaled closed cell, by counting m+1 dilates.

    The dilates counted are those of the cell translated by -s, where s is
    the smallest base coordinate over the increment blocks: its weights are
    those of the cell divided by b**s, and count(b**s * g, t) = count(g,
    b**s * t) turns coefficient i of its polynomial into coefficient i of
    the cell's after multiplication by b**(s*i).
    """
    check_base(b)
    guard = resolve_guard(guard)
    exps = cell_exponents(cell)
    s = min(exps, default=0)
    scale = b ** s
    den = factorial(len(exps))
    return tuple(
        Fraction(c * scale ** i, den)
        for i, c in enumerate(_class_coeffs(tuple(e - s for e in exps), b, guard))
    )


def _formula_sum(tally: Counter, d: int, b: int, guard: int) -> tuple:
    """c_0..c_d as the signed, (b-1)-weighted sum over cells, given their exponent tally.

    c_i = sum over cells of dimension m >= i of
          (-1)**(m-i) * (b-1)**i * (classical coefficient i of the scaled cell).
    A cell with exponents e and s = min(e) has coefficient i equal to that of
    the class e - s times b**(s*i) (see classical_ehrhart_scaled_simplex).
    So the cells come tallied by exponent tuple, and each shifted class keeps
    the integers sums[i] = sum over its tuples of count * b**(s*i).  One
    call of _class_coeffs per class gives the integers m! * coefficient i,
    and its contribution to d! * c_i is
    (-1)**(m-i) * (b-1)**i * sums[i] * m! * coefficient i * d! / m!.
    The powers of b**s in sums and the signed weights
    (-1)**(m-i) * (b-1)**i * d! / m!, one row per m, are running products.
    The d + 1 Fractions are formed once, at the end.
    """
    classes: dict = {}  # shifted tuple -> sums
    for exps, count in tally.items():
        s = min(exps, default=0)
        shifted = tuple([e - s for e in exps]) if s else exps
        sums = classes.get(shifted)
        if sums is None:
            sums = classes[shifted] = [0] * (len(exps) + 1)
        scale = b ** s
        term = count
        for i in range(len(sums)):
            sums[i] += term
            term *= scale
    den = factorial(d)
    weights = []  # weights[m][i] = (-1)**(m-i) * (b-1)**i * d! / m!
    for m in range(d + 1):
        row = [(-1) ** m * (den // factorial(m))]
        for _ in range(m):
            row.append(row[-1] * (1 - b))
        weights.append(row)
    out = [0] * (d + 1)  # d! * c_i
    for shifted, sums in classes.items():
        coeffs = _class_coeffs(shifted, b, guard)
        for i, (w, total, c) in enumerate(zip(weights[len(shifted)], sums, coeffs)):
            out[i] += w * total * c
    return tuple(Fraction(x, den) for x in out)


def coeffs_via_formula(arg, b: int, guard: int | None = None) -> tuple:
    """Assemble c_0..c_d as signed, (b-1)-weighted sums over all cells."""
    check_base(b)
    guard = resolve_guard(guard)
    complex_ = counting_complex(arg, guard)
    return _formula_sum(complex_.exponent_tally, complex_.ambient_dim, b, guard)


def c_top_leading(arg, b: int, guard: int | None = None) -> Fraction:
    """Leading coefficient c_d, closed form: (b-1)**d * sum of b**(sum e) / d! over full cells."""
    check_base(b)
    complex_ = counting_complex(arg, resolve_guard(guard))
    d = complex_.ambient_dim
    total = sum(
        count * b ** sum(exps) for exps, count in complex_.exponent_tally.items() if len(exps) == d
    )
    return Fraction((b - 1) ** d * total, factorial(d))


def weighted_facets(complex_: CellComplex) -> Iterator[tuple]:
    """(2 * delta, e) for the (d-1)-cells F with nonzero facet weight delta.

    delta = (2 - number of full cells covering F) / 2: none -> 1 (a tentacle
    facet), one -> 1/2 (boundary), two -> 0 (interior wall, skipped).  e is
    F's exponent sum: b**e / (d-1)! is the relative volume of the b-scaled F.
    Both come off the complex's facet_exponents table.
    """
    for covers, e in complex_.facet_exponents:
        if covers < 2:
            yield 2 - covers, e


def c_dminus1_direct(arg, b: int, guard: int | None = None) -> Fraction:
    """Second-highest coefficient: (b-1)**(d-1) * sum of delta * b**e / (d-1)! over facets."""
    check_base(b)
    complex_ = counting_complex(arg, resolve_guard(guard))
    d = complex_.ambient_dim
    total = sum(twice * b ** e for twice, e in weighted_facets(complex_))
    return Fraction((b - 1) ** (d - 1) * total, 2 * factorial(d - 1))


def tropical_ehrhart_poly(
    m: TropMatrix, b: int, guard: int | None = None
) -> TropicalEhrhartPolynomial:
    """Recover the counting polynomial by interpolation at k = 0..d.

    The nodes b**0..b**d are distinct, so the Vandermonde system is regular
    and Lagrange interpolation is exact.  The prediction is verified against
    one extra count at k = d+1 when that box fits under the guard.  All
    d + 2 counts are read off one box scan (_dilate_counts).
    """
    check_base(b)
    _check_counting_matrix(m, allow_minus_inf=False)
    guard = resolve_guard(guard)
    return _interpolate(m, b, guard, _dilate_counts(m, b, m.rows + 1, guard))


def _interpolate(m: TropMatrix, b: int, guard: int, counts: list) -> TropicalEhrhartPolynomial:
    """tropical_ehrhart_poly on checked arguments, in integers until the end.

    counts[k] is the count at k, as _dilate_counts lists them.  The counts
    at k = 0..d go through the integer table of the nodes b**0..b**d
    (_node_table), giving den * c_i; when the list holds k = d + 1, the
    prediction there is compared as den times its count, and the d + 1
    Fractions are formed last.  A node past the list goes to
    count_tropical, whose guard check raises that node's GuardExceeded.
    """
    d = m.rows
    if len(counts) <= d:
        count_tropical(m, b, len(counts), guard)  # past the scan, so past the guard
    den, table = _node_table(tuple(b ** k for k in range(d + 1)))
    scaled = [sum(map(mul, row, counts)) for row in table]  # den * c_i, off counts[0..d]
    verified = None
    if len(counts) > d + 1:
        x = b ** (d + 1)
        predicted = 0
        for c in reversed(scaled):
            predicted = predicted * x + c
        if predicted != counts[d + 1] * den:
            raise CrossCheckError(
                f"interpolated polynomial fails at k={d + 1}: "
                f"predicted {Fraction(predicted, den)}, counted {counts[d + 1]}"
            )
        verified = d + 1
    return TropicalEhrhartPolynomial(b, tuple(Fraction(c, den) for c in scaled), verified)


def interior_coeffs_via_formula(arg, b: int, guard: int | None = None) -> tuple:
    """The formula sum restricted to cells away from the support boundary."""
    check_base(b)
    guard = resolve_guard(guard)
    complex_ = counting_complex(arg, guard)
    tally = Counter(map(cell_exponents, complex_.interior_cells()))
    return _formula_sum(tally, complex_.ambient_dim, b, guard)


def reciprocity_check(arg, b: int, guard: int | None = None) -> bool:
    """c_i(interior) == (-1)**(dim - i) * c_i(P) for every i.

    The identity needs the polytope to equal its top trunk: every maximal
    cell must have the full ambient dimension.  Weak purity is not enough;
    a branching tree of segments in the plane has equal-dimensional maximal
    cells but its interior counts break the sign pattern at the branch
    vertex, so such inputs are rejected rather than reported as False.
    """
    check_base(b)
    guard = resolve_guard(guard)
    complex_ = counting_complex(arg, guard)
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
    The degree is the index of the last nonzero divided difference of the
    first degree_bound + 1 samples; the extras are checked against their
    Newton form.
    """
    if _negative(degree_bound):
        raise ValidationError("degree bound must be nonnegative")
    _check_exponent(degree_bound, "degree bound")
    if len(samples) < degree_bound + 1:
        raise ValidationError(
            f"need at least {degree_bound + 1} samples, got {len(samples)}"
        )
    xs, dd = divided_differences(samples[: degree_bound + 1])
    for bval, val in samples[degree_bound + 1:]:
        if newton_eval(xs, dd, Fraction(bval)) != Fraction(val):
            raise ValidationError(
                f"samples are not polynomial of degree <= {degree_bound} "
                f"(residual at b={bval})"
            )
    return next((k for k in range(degree_bound, -1, -1) if dd[k] != 0), None)


def log_degree_bound(arg) -> int:
    """Degree of any c_i in b is at most d * (1 + max entry).

    Takes a matrix or its counting complex.  Every generator is a vertex of
    the complex and no hull coordinate exceeds the largest entry, so the max
    entry is the largest vertex coordinate.
    """
    if isinstance(arg, TropMatrix):
        top = arg.max_entry()
        return arg.rows * (1 + (top if top is not None else 0))
    top = max((max(v) for v in arg.vertices()), default=0)
    return arg.ambient_dim * (1 + top)


def _check_index(arg, i) -> None:
    """A coefficient index is a non-bool int in 0..d, d read off arg untriangulated."""
    if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i <= ambient_dim(arg):
        raise ValidationError(f"coefficient index {i} out of range")


def coefficient_in_b(arg, i: int, b: int, guard: int | None = None) -> Fraction:
    """c_i at one base b, routed to the cheapest exact path available.

    i = 0 is the Euler characteristic, the top two indices have closed forms,
    anything in between falls back to the per-cell interpolation formula.
    The input, i and b are checked, in that order, before the triangulation.
    """
    guard = resolve_guard(guard)
    _check_counting_arg(arg)
    _check_index(arg, i)
    check_base(b)
    complex_ = as_complex(arg, guard)
    d = complex_.ambient_dim
    if i == 0:
        return Fraction(complex_.euler_characteristic())
    if i == d:
        return c_top_leading(complex_, b, guard)
    if i == d - 1:
        return c_dminus1_direct(complex_, b, guard)
    return coeffs_via_formula(complex_, b, guard)[i]


def log_coefficient(arg, i: int, guard: int | None = None) -> Optional[int]:
    """Log of the i-th coefficient of a matrix or its counting complex: its degree in b."""
    guard = resolve_guard(guard)
    _check_counting_arg(arg)
    _check_index(arg, i)
    complex_ = as_complex(arg, guard)
    bound = log_degree_bound(complex_)
    samples = [
        (b, coefficient_in_b(complex_, i, b, guard)) for b in range(2, bound + 3)
    ]
    return log_map(samples, bound)


def ehrhart_report(m: TropMatrix, b: int, kmax: int, guard: int | None = None) -> dict:
    """JSON-ready report: counts, interpolated and formula coefficients.

    Every count, the interpolation nodes and the k = d + 1 check included,
    comes off one box scan at the largest k <= max(kmax, d + 1) whose box
    fits the guard; a larger k raises that k's GuardExceeded.  A negative
    kmax is rejected first, any other non-int after the b and matrix checks.
    The arguments are checked once, here; the interpolation and the formula
    sum run on their private cores.
    """
    if _negative(kmax):
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    guard = resolve_guard(guard)
    check_base(b)
    _check_counting_matrix(m, allow_minus_inf=False)
    _check_exponent(kmax, "kmax")
    counts = _dilate_counts(m, b, max(kmax, m.rows + 1), guard)
    poly = _interpolate(m, b, guard, counts)
    complex_ = as_complex(m, guard)
    formula = _formula_sum(complex_.exponent_tally, complex_.ambient_dim, b, guard)
    if len(counts) <= kmax:
        count_tropical(m, b, len(counts), guard)  # past the scan, so past the guard
    return {
        "b": b,
        "coeffs": [str(format_entry(c)) for c in poly.coeffs],
        "formula_coeffs": [str(format_entry(c)) for c in formula],
        "agree": tuple(poly.coeffs) == tuple(formula),
        "counts": [{"k": k, "value": v} for k, v in enumerate(counts[:kmax + 1])],
    }

