"""Tropical volume functionals of max-plus polytopes.

The barycentric volume tlvol is the degree of the leading counting
coefficient and is computed here by two independent exact algorithms:

* subsets: for every (d+1)-column simplex, the d-trunk (if any) is a
  polytrope generated by columns of a Kleene star; its componentwise
  maximum is the trunk barycenter and the best coordinate sum over all
  subsets is tlvol (tropical Caratheodory).  The trunk exists when
  abar = [0 ... 0; A_K] is tropically nonsingular.  Given its optimal
  assignment sigma, W[i][j] = abar[i][sigma(j)] - abar[j][sigma(j)] has a
  zero diagonal and no positive cycle, and for duals u, v tight on sigma
  the assignment normal form is C[i][j] = W[i][j] - u_i + u_j.  So
  C* = W* up to that diagonal scaling, the duals cancel from the trunk's
  columns S[i][j] - S[0][j] + u_i - u_0, and the barycenter is
  bt_i = max_j (W*[i][j] - W*[0][j]) (_trunk_barycenter).
* triangulation: tlvol is the maximal a_1+...+a_d+d over full-dimensional
  unimodular alcoves of the canonical cell decomposition.

The refined i-volumes maximize the sum of the i largest (upper) or the i
smallest (lower) coordinates over the i-trunk, the closure of the cells of
dimension >= i.  A closed cell is the convex hull of a chain v_0 <= ... <= v_m,
so each of its points lies below the top vertex v_m; both sums are monotone,
so both maxima are attained at trunk vertices and are read off them directly.
One pass over the sorted vertex table serves every i at once: the prefix
sums of a vertex's sorted coordinates give its i smallest and i largest
coordinate sums for all i together.
The discrete surface Log c_{d-1} is the degree in b of the sum over the
(d-1)-cells F of delta_F * (b-1)**(d-1) * b**e_F / (d-1)!, with facet weight
delta_F in {0, 1/2, 1} (a facet of at most two d-cells) and e_F the sum of
F's chain weight exponents.  No term is negative, so nothing cancels and
the degree is d - 1 plus the largest e_F with delta_F nonzero.  A report
triangulates its matrix once and reads every functional off that complex.
It also builds one table of the best and second-best terms and the first
maximizer of every d-column subset, by one dynamic programme over column
sets (linalg._column_subset_table), and reads
qtvol+, tvol and every simplex of tlvol off that table (_tlvol_from_table),
so it solves no assignment problem.  A trunk lies in the tropical hull of
abar_K's columns, and a hull point with x_0 = 0 is max_j (lam_j + a_j) with
every lam_j <= 0, so x_i <= max_(j in K) M_ij: a simplex's barycenter sum
is at most sum_i max_(j in K) M_ij.  The report takes the Kleene star only
of a nonsingular simplex whose bound passes the best sum so far; as only a
strict gain replaces the witness, the value and witness are those of the
full sweep.  The standalone tlvol_subsets solves one assignment problem
and takes one star per simplex, valid at any size, and is the reference
the tests compare the report against.
The triangulation and the i-volumes take any finite integer matrix as it
is; only the discrete surface, a count, needs entries in Z>=0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

from .cells import CellComplex, ambient_dim, as_complex
from .core import Entry, TropMatrix, format_entry, tsum
from .ehrhart import counting_complex, weighted_facets
from .errors import CrossCheckError, ValidationError
from .guard import check_guard, resolve_guard
from .linalg import (
    UNIQUE_GAP,
    _charge_column_sweep,
    _column_subset_table,
    _nonsingular_given,
    _volumes_from_table,
    kleene_star,
    tdet,
    tminor,
)


def tropical_barycenter(m: TropMatrix) -> tuple:
    """Componentwise maximum over the generators; dominates the polytope."""
    return tuple(tsum(row) for row in m.entries)


def _trunk_barycenter(rows, sigma) -> tuple:
    """bt_i = max_j (W*[i][j] - W*[0][j]) for W[i][j] = rows[i][s_j] - rows[j][s_j].

    rows is abar, row 0 all zeros, and sigma (s_j = sigma[j]) an optimal
    assignment of it with a finite value; see the module docstring.
    """
    n = len(sigma)
    w = []
    for row in rows:
        w.append(tuple(
            None if row[s] is None else row[s] - rows[j][s]
            for j, s in enumerate(sigma)
        ))
    star = kleene_star(TropMatrix._trusted(tuple(w), True)).entries
    top = star[0]
    return tuple(
        max(sij - t for sij, t in zip(star[i], top) if sij is not None)
        for i in range(1, n)
    )


def simplex_dtrunk_barycenter(m: TropMatrix) -> Optional[tuple]:
    """Barycenter of the d-trunk of a (d+1)-column simplex, or None.

    Appends a row of tropical ones and tests non-singularity with one
    Hungarian solve.  Its optimal assignment sigma closes up, with the
    Kleene star, into the trunk's generators, and the barycenter is
    bt_i = max_j (W*[i][j] - W*[0][j]) with W[i][j] = abar[i][sigma(j)] -
    abar[j][sigma(j)].  That equals S[i][j] - S[0][j] + u[i] - u[0] for the
    star S of the dual normal form, since the duals cancel (module
    docstring).  Column scalings drop out (they do not move a tropical
    hull), the zero-th row fixes the projective representative.
    """
    d = m.rows
    if m.cols != d + 1:
        raise ValidationError(
            f"expected a {d}x{d + 1} simplex matrix, got {d}x{m.cols}"
        )
    abar = TropMatrix._trusted(((0,) * (d + 1),) + m.entries, False)
    res = tdet(abar)
    if not _nonsingular_given(abar, res):
        return None
    return _trunk_barycenter(abar.entries, res.sigma)


def tlvol_subsets(m: TropMatrix):
    """(tlvol, witness column subset) via the Caratheodory subset sweep."""
    d = m.rows
    if m.cols < d + 1:
        return None, None
    columns = list(m.columns())
    best = None
    witness = None
    for J in itertools.combinations(range(m.cols), d + 1):
        if len({columns[j] for j in J}) < d + 1:
            continue
        bt = simplex_dtrunk_barycenter(m.submatrix_columns(J))
        if bt is None:
            continue
        val = sum(bt)
        if best is None or val > best:
            best = val
            witness = J
    return best, witness


def _tlvol_from_table(m: TropMatrix, table: Optional[dict]):
    """tlvol_subsets(m), with each simplex read off m's column subset table.

    For K = (k_0 < ... < k_d), abar_K's best term is the largest best value
    over the subsets K minus k.  abar_K is nonsingular iff exactly one k
    attains it and that subset's second term is below its best, and then
    its optimal assignment sends row 0 to k and the rest by the subset's
    maximizer.  Duplicate columns fail that test: both copies give the same
    best value, and a subset holding both has a tied maximizer.

    Once a best is set, a nonsingular K whose bound sum_i max_(j in K) M_ij
    is at most that best gets no Kleene star: its barycenter sum cannot pass
    the bound (module docstring), and only a strict gain moves the witness.
    A row that is -inf all over K gives no bound, and K is then solved.
    """
    d = m.rows
    if m.cols < d + 1:
        return None, None
    rows = ((0,) * m.cols,) + m.entries
    best = None
    witness = None
    for K in itertools.combinations(range(m.cols), d + 1):
        top = arg = None
        tied = False
        for p in range(d + 1):
            entry = table[K[:p] + K[p + 1:]]
            value = entry[0]
            if value is None:
                continue
            if top is None or value > top:
                top, arg, tied = value, (K[p],) + entry[2], entry[1] == value
            elif value == top:
                tied = True
        if top is None or tied:
            continue
        if best is not None:
            tops = [max((row[j] for j in K if row[j] is not None), default=None)
                    for row in m.entries]
            if None not in tops and sum(tops) <= best:
                continue
        val = sum(_trunk_barycenter(rows, arg))
        if best is None or val > best:
            best = val
            witness = K
    return best, witness


def tlvol_triangulation(arg, guard: int | None = None):
    """(tlvol, witness base point) over full-dimensional alcoves of the complex."""
    complex_ = as_complex(arg, guard)
    d = complex_.ambient_dim
    best = None
    witness = None
    for base in complex_.bases_of_dim(d):
        val = sum(base) + d
        if best is None or val > best:
            best = val
            witness = base
    return best, witness


def _complex_for(m: TropMatrix, method: str, guard: int | None):
    """The complex of m when the method triangulates, else None."""
    if method == "subsets":
        return None
    if method not in ("triangulation", "both"):
        raise ValidationError(f"unknown method {method!r}")
    return as_complex(m, guard)


def _tlvol_by_method(method: str, subsets, complex_):
    """(tlvol, subsets witness or None) by the named method.

    subsets is the subsets route's (tlvol, witness) pair, None for the
    triangulation method; "both" cross-checks it against the complex.
    """
    if method == "triangulation":
        return tlvol_triangulation(complex_)[0], None
    if method == "both":
        other = tlvol_triangulation(complex_)[0]
        if subsets[0] != other:
            raise CrossCheckError(
                f"tlvol mismatch: subsets {subsets[0]!r} vs triangulation {other!r}"
            )
    return subsets


def _charge_simplex_sweep(m: TropMatrix, guard: int) -> None:
    """Charge tlvol's subset sweep to the guard: C(n, d + 1) simplices of d + 1 steps."""
    d, n = m.shape
    check_guard(comb(n, d + 1) * (d + 1), guard, "simplex subset sweep")


def tlvol(m: TropMatrix, method: str = "subsets", guard: int | None = None) -> Entry:
    """Tropical barycentric volume; method picks the algorithm or cross-checks.

    The subsets route is charged to the guard before any work, as in
    build_volume_report.
    """
    if method in ("subsets", "both"):
        guard = resolve_guard(guard)
        _charge_simplex_sweep(m, guard)
    complex_ = _complex_for(m, method, guard)
    subsets = None if method == "triangulation" else tlvol_subsets(m)
    return _tlvol_by_method(method, subsets, complex_)[0]


def _i_volumes(complex_: CellComplex) -> dict:
    """i -> {plus, plus_witness, minus, minus_witness} for every i in 1..d.

    The i-trunk vertices are the vertices of a cell of dimension >= i, read
    off the complex's vertex_max_dim table.  One pass over the table in
    sorted vertex order serves every i: the prefix sums of a vertex's sorted
    coordinates give the sum of its i smallest (minus) and of its i largest
    (plus) coordinates.  Each witness is the first strict maximizer in sorted
    vertex order; an empty trunk gives None values and witnesses.
    """
    d = complex_.ambient_dim
    plus = [None] * (d + 1)
    plus_w = [None] * (d + 1)
    minus = [None] * (d + 1)
    minus_w = [None] * (d + 1)
    for v, k in complex_.vertex_max_dim.items():
        prefix = list(itertools.accumulate(sorted(v), initial=0))
        total = prefix[d]
        for i in range(1, k + 1):
            hi = total - prefix[d - i]
            if plus[i] is None or hi > plus[i]:
                plus[i] = hi
                plus_w[i] = v
            lo = prefix[i]
            if minus[i] is None or lo > minus[i]:
                minus[i] = lo
                minus_w[i] = v
    return {
        i: {"plus": plus[i], "plus_witness": plus_w[i],
            "minus": minus[i], "minus_witness": minus_w[i]}
        for i in range(1, d + 1)
    }


def _i_volume_row(arg, i: int, guard: int | None) -> dict:
    """The i-th row of the i-volume table of the complex of arg; i is checked first."""
    d = ambient_dim(arg)
    if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= d:
        raise ValidationError(f"i must be in 1..{d}, got {i}")
    return _i_volumes(as_complex(arg, guard))[i]


def tlvol_i_plus(arg, i: int, guard: int | None = None):
    """(upper barycentric i-volume, witness vertex): best i largest coordinates."""
    row = _i_volume_row(arg, i, guard)
    return row["plus"], row["plus_witness"]


def tlvol_i_minus(arg, i: int, guard: int | None = None):
    """(lower barycentric i-volume, witness vertex): best i smallest coordinates."""
    row = _i_volume_row(arg, i, guard)
    return row["minus"], row["minus_witness"]


def qtvol_plus(m: TropMatrix):
    """(dequantized volume, witness columns): the maximal tropical d-minor."""
    d = m.rows
    if m.cols < d:
        raise ValidationError(f"need at least {d} columns, got {m.cols}")
    value, _rows, cols = tminor(m, d)
    return value, cols


def cartesian_product(m: TropMatrix, n: TropMatrix) -> TropMatrix:
    """Generator matrix of the product polytope: all stacked column pairs."""
    cols = []
    for jn in range(n.cols):
        for jm in range(m.cols):
            cols.append(m.column(jm) + n.column(jn))
    return TropMatrix.from_columns(
        cols,
        allow_minus_inf_columns=m.allow_minus_inf_columns or n.allow_minus_inf_columns,
    )


def tlsurf(arg, guard: int | None = None) -> tuple:
    """(lower, upper) tropical surface area: the (d-1)-volumes."""
    d = ambient_dim(arg)
    if d - 1 < 1:
        raise ValidationError("surface areas need dimension at least 2")
    row = _i_volume_row(arg, d - 1, guard)
    return row["minus"], row["plus"]


def discrete_surface(arg, guard: int | None = None) -> Optional[int]:
    """Log c_{d-1} from the facet weights (module docstring); None if c_{d-1} = 0."""
    complex_ = counting_complex(arg, guard)
    top = max((e for _, e in weighted_facets(complex_)), default=None)
    return None if top is None else complex_.ambient_dim - 1 + top


def _fmt_value(v) -> str:
    """Report rendering: every value is a string, rationals reduced as p/q."""
    return "unique" if v is UNIQUE_GAP else str(format_entry(v))


def _fmt_columns(witness: Optional[tuple]) -> Optional[list]:
    """A column-index witness as a list of ints; None if there is none."""
    return list(witness) if witness else None


def _fmt_point(witness: Optional[tuple]) -> Optional[list]:
    """A point witness as a list of rendered coordinates; None if there is none."""
    return [_fmt_value(c) for c in witness] if witness is not None else None


@dataclass(frozen=True)
class VolumeReport:
    """All volume functionals of one matrix, with witnesses."""

    tlvol: Entry
    tlvol_witness: Optional[tuple]
    qtvol_plus: Entry
    qtvol_plus_witness: Optional[tuple]
    tvol: object  # Entry or the "unique" marker
    tvol_witness: Optional[tuple]
    i_volumes: Optional[dict]  # i -> {plus, plus_witness, minus, minus_witness}
    surface: Optional[dict]

    def to_json_dict(self) -> dict:
        fmt = _fmt_value
        out = {
            "tlvol": fmt(self.tlvol),
            "tlvol_witness": _fmt_columns(self.tlvol_witness),
            "qtvol_plus": fmt(self.qtvol_plus),
            "qtvol_plus_witness": _fmt_columns(self.qtvol_plus_witness),
            "tvol": fmt(self.tvol),
            "tvol_witness": _fmt_columns(self.tvol_witness),
            "i_volumes": None,
            "surface": None,
        }
        if self.i_volumes is not None:
            out["i_volumes"] = {
                str(i): {
                    "plus": fmt(t["plus"]),
                    "plus_witness": _fmt_point(t["plus_witness"]),
                    "minus": fmt(t["minus"]),
                    "minus_witness": _fmt_point(t["minus_witness"]),
                }
                for i, t in sorted(self.i_volumes.items())
            }
        if self.surface is not None:
            out["surface"] = {
                "lower": fmt(self.surface["lower"]),
                "upper": fmt(self.surface["upper"]),
                "discrete": fmt(self.surface["discrete"]),
            }
        return out


def build_volume_report(
    m: TropMatrix, method: str = "subsets", guard: int | None = None
) -> VolumeReport:
    """Evaluate every functional that applies to the input matrix.

    The matrix is triangulated at most once: the triangulation methods and
    the i-volumes, surface areas and discrete surface all read one complex.
    One table of its d-column subsets serves qtvol+, tvol and the subsets
    route of tlvol.  Both subset sweeps are charged to the guard before
    either runs: C(n, d) * d! for the table (the terms of C(n, d)
    expansions, a bound on its work), then C(n, d + 1) simplices of d + 1
    table reads each for tlvol.
    """
    guard = resolve_guard(guard)
    complex_ = _complex_for(m, method, guard)
    d, n = m.shape
    _charge_column_sweep(m, guard)
    if method != "triangulation":
        _charge_simplex_sweep(m, guard)
    table = None
    if n >= d:
        table = _column_subset_table(m)
        qv, qv_w, tv, tv_w = _volumes_from_table(table)
    else:
        qv = qv_w = tv = tv_w = None
    subsets = None if method == "triangulation" else _tlvol_from_table(m, table)
    tl, tl_w = _tlvol_by_method(method, subsets, complex_)
    ivols = None
    surface = None
    if m.is_finite() and m.is_integer():
        if complex_ is None:
            complex_ = as_complex(m, guard)
        ivols = _i_volumes(complex_)
        if m.rows >= 2:
            top = ivols[m.rows - 1]
            surface = {"lower": top["minus"], "upper": top["plus"], "discrete": None}
            if m.is_nonnegative():
                surface["discrete"] = discrete_surface(complex_)
    return VolumeReport(
        tlvol=tl,
        tlvol_witness=tl_w,
        qtvol_plus=qv,
        qtvol_plus_witness=qv_w,
        tvol=tv,
        tvol_witness=tv_w,
        i_volumes=ivols,
        surface=surface,
    )
