"""Tropical volume functionals of max-plus polytopes.

The barycentric volume tlvol is the degree of the leading counting
coefficient and is computed here by two independent exact algorithms:

* subsets: for every (d+1)-column simplex, the d-trunk (if any) is a
  polytrope generated by columns of a Kleene star; its componentwise
  maximum is the trunk barycenter and the best coordinate sum over all
  subsets is tlvol (tropical Caratheodory).
* triangulation: tlvol is the maximal a_1+...+a_d+d over full-dimensional
  unimodular alcoves of the canonical cell decomposition.

The refined i-volumes maximize the sum of the i largest (upper) or the i
smallest (lower) coordinates over the i-trunk, the closure of the cells of
dimension >= i.  A closed cell is the convex hull of a chain v_0 <= ... <= v_m,
so each of its points lies below the top vertex v_m; both sums are monotone,
so both maxima are attained at trunk vertices and are read off them directly.
The discrete surface Log c_{d-1} is the degree in b of the sum over the
(d-1)-cells F of delta_F * (b-1)**(d-1) * b**e_F / (d-1)!, with facet weight
delta_F in {0, 1/2, 1} (a facet of at most two d-cells) and e_F the sum of
F's chain weight exponents.  No term is negative, so nothing cancels and
the degree is d - 1 plus the largest e_F with delta_F nonzero.  A report
triangulates its matrix once and reads every functional off that complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .cells import CellComplex, as_complex
from .core import Entry, TropMatrix, format_entry, max_subset_sum, min_subset_sum, tsum
from .ehrhart import cell_exponents, weighted_facets
from .errors import CrossCheckError, ValidationError
from .linalg import (
    UNIQUE_GAP,
    assignment_normalize,
    is_nonsingular,
    kleene_star,
    tminor,
    tvol_max_sub,
    tvol_square,
)


def tropical_barycenter(m: TropMatrix) -> tuple:
    """Componentwise maximum over the generators; dominates the polytope."""
    return tuple(tsum(row) for row in m.entries)


def simplex_dtrunk_barycenter(m: TropMatrix) -> Optional[tuple]:
    """Barycenter of the d-trunk of a (d+1)-column simplex, or None.

    Appends a row of tropical ones, tests non-singularity, normalizes by the
    assignment duals so the optimal diagonal is 0 with off-diagonal <= 0,
    closes up with the Kleene star, and undoes the normalization: column j
    of the trunk has coordinates S[i][j] - S[0][j] + u[i] - u[0].  Column
    scalings drop out (they do not move a tropical hull), the zero-th row
    rescaling fixes the projective representative.
    """
    d = m.rows
    if m.cols != d + 1:
        raise ValidationError(
            f"expected a {d}x{d + 1} simplex matrix, got {d}x{m.cols}"
        )
    rows = [tuple(0 for _ in range(d + 1))]
    rows.extend(m.entries)
    abar = TropMatrix.from_rows(rows)
    if not is_nonsingular(abar):
        return None
    na = assignment_normalize(abar)
    star = kleene_star(na.matrix)
    u = na.u
    bt = []
    for i in range(1, d + 1):
        best = None
        for j in range(d + 1):
            sij = star.entries[i][j]
            if sij is None:
                continue
            val = sij - star.entries[0][j] + u[i] - u[0]
            if best is None or val > best:
                best = val
        bt.append(best)
    return tuple(bt)


def tlvol_subsets(m: TropMatrix):
    """(tlvol, witness column subset) via the Caratheodory subset sweep."""
    d = m.rows
    if m.cols < d + 1:
        return None, None
    best = None
    witness = None
    for J in itertools.combinations(range(m.cols), d + 1):
        cols = [m.column(j) for j in J]
        if len(set(cols)) < len(cols):
            continue
        bt = simplex_dtrunk_barycenter(m.submatrix_columns(J))
        if bt is None:
            continue
        val = sum(bt)
        if best is None or val > best:
            best = val
            witness = J
    return best, witness


def tlvol_triangulation(arg, guard: int | None = None):
    """(tlvol, witness base point) over full-dimensional alcoves of the complex."""
    complex_ = as_complex(arg, guard)
    d = complex_.ambient_dim
    best = None
    witness = None
    for cell in complex_.cells_of_dim(d):
        base = cell.vertices[0]
        val = sum(base) + d
        if best is None or val > best:
            best = val
            witness = base
    return best, witness


def tlvol(m: TropMatrix, method: str = "subsets", guard: int | None = None) -> Entry:
    """Tropical barycentric volume; method picks the algorithm or cross-checks."""
    if method == "subsets":
        return tlvol_subsets(m)[0]
    if method == "triangulation":
        return tlvol_triangulation(m, guard)[0]
    if method == "both":
        return _tlvol_both(m, as_complex(m, guard))[0]
    raise ValidationError(f"unknown method {method!r}")


def _tlvol_both(m: TropMatrix, complex_: CellComplex):
    """(tlvol, subsets witness), cross-checked against the triangulation of m."""
    a, witness = tlvol_subsets(m)
    b = tlvol_triangulation(complex_)[0]
    if a != b:
        raise CrossCheckError(
            f"tlvol mismatch: subsets {a!r} vs triangulation {b!r}"
        )
    return a, witness


def _ivol_complex(arg, guard):
    """Complex plus the translation that was applied to reach Z>=0 entries.

    The i-volumes are only treated for finite entries; negative integers are
    shifted into range and the result is corrected by homogeneity
    (tlvol_i of the translate by s differs by exactly s*i).
    """
    shift = 0
    if isinstance(arg, TropMatrix):
        if not arg.is_finite():
            raise ValidationError(
                "i-volumes are only defined here for finite entries"
            )
        shift = max(0, -min(min(row) for row in arg.entries))
        arg = arg.translate(shift)
    return as_complex(arg, guard), shift


def _trunk_max(complex_: CellComplex, shift: int, i: int, key: Callable):
    """(max of key(v, i) over the i-trunk vertices, witness), both shifted back.

    The i-trunk vertices are the vertices of a cell of dimension >= i, read
    off the complex's vertex_max_dim table.  The witness is the first strict
    maximizer in sorted vertex order; an empty trunk gives (None, None).
    """
    d = complex_.ambient_dim
    if not 1 <= i <= d:
        raise ValidationError(f"i must be in 1..{d}, got {i}")
    trunk = [v for v, k in complex_.vertex_max_dim.items() if k >= i]
    best = None
    witness = None
    for v in sorted(trunk):
        val = key(v, i)
        if best is None or val > best:
            best = val
            witness = v
    if best is None:
        return None, None
    return best - i * shift, tuple(c - shift for c in witness)


def tlvol_i_plus(arg, i: int, guard: int | None = None):
    """(upper barycentric i-volume, witness vertex): best i largest coordinates."""
    return _trunk_max(*_ivol_complex(arg, guard), i, max_subset_sum)


def tlvol_i_minus(arg, i: int, guard: int | None = None):
    """(lower barycentric i-volume, witness vertex): best i smallest coordinates."""
    return _trunk_max(*_ivol_complex(arg, guard), i, min_subset_sum)


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
    complex_, shift = _ivol_complex(arg, guard)
    d = complex_.ambient_dim
    if d - 1 < 1:
        raise ValidationError("surface areas need dimension at least 2")
    return (
        _trunk_max(complex_, shift, d - 1, min_subset_sum)[0],
        _trunk_max(complex_, shift, d - 1, max_subset_sum)[0],
    )


def discrete_surface(arg, guard: int | None = None) -> Optional[int]:
    """Log c_{d-1} from the facet weights (module docstring); None if c_{d-1} = 0."""
    complex_ = as_complex(arg, guard)
    exps = [sum(cell_exponents(cell)) for _, cell in weighted_facets(complex_)]
    return complex_.ambient_dim - 1 + max(exps) if exps else None


def _fmt_value(v) -> str:
    """Report rendering: every value is a string, rationals reduced as p/q."""
    return "unique" if v is UNIQUE_GAP else str(format_entry(v))


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
            "tlvol_witness": list(self.tlvol_witness) if self.tlvol_witness else None,
            "qtvol_plus": fmt(self.qtvol_plus),
            "qtvol_plus_witness": (
                list(self.qtvol_plus_witness) if self.qtvol_plus_witness else None
            ),
            "tvol": fmt(self.tvol),
            "tvol_witness": list(self.tvol_witness) if self.tvol_witness else None,
            "i_volumes": None,
            "surface": None,
        }
        if self.i_volumes is not None:
            out["i_volumes"] = {
                str(i): {
                    "plus": fmt(t["plus"]),
                    "plus_witness": (
                        [fmt(c) for c in t["plus_witness"]]
                        if t["plus_witness"] is not None
                        else None
                    ),
                    "minus": fmt(t["minus"]),
                    "minus_witness": (
                        [fmt(c) for c in t["minus_witness"]]
                        if t["minus_witness"] is not None
                        else None
                    ),
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
    """
    complex_ = None
    if method == "both":
        complex_ = as_complex(m, guard)
        tl, tl_w = _tlvol_both(m, complex_)
    elif method == "triangulation":
        complex_ = as_complex(m, guard)
        tl, tl_w = tlvol_triangulation(complex_)[0], None
    else:
        tl, tl_w = tlvol_subsets(m)
    if m.cols >= m.rows:
        qv, qv_w = qtvol_plus(m)
    else:
        qv, qv_w = None, None
    if m.rows == m.cols:
        tv = tvol_square(m)
        tv_w = tuple(range(m.cols))
    else:
        tv, tv_w = tvol_max_sub(m)
    ivols = None
    surface = None
    if m.is_finite() and m.is_integer():
        # a complex built above is of a nonnegative matrix: shift 0
        shift = 0
        if complex_ is None:
            complex_, shift = _ivol_complex(m, guard)
        ivols = {}
        for i in range(1, m.rows + 1):
            pv, pw = _trunk_max(complex_, shift, i, max_subset_sum)
            mv, mw = _trunk_max(complex_, shift, i, min_subset_sum)
            ivols[i] = {
                "plus": pv,
                "plus_witness": pw,
                "minus": mv,
                "minus_witness": mw,
            }
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
