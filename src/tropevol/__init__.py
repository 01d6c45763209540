"""Exact lattice-point counting and volume functionals for max-plus polytopes.

The package works over the max-plus semiring on the rationals extended by
minus infinity (spelled None).  Configurations of generators are columns of a
TropMatrix; everything downstream is exact integer and Fraction arithmetic.

Layers, from the bottom up:

* core: semiring scalars, matrices, hull membership, scaled permutations;
* linalg: tropical determinants, permanents-style brute forces, Kleene stars,
  bideterminants, minors, rank and sign-genericity;
* cells: the canonical decomposition of a hull into alcoved cells;
* ehrhart: base-b lattice counting, the counting polynomial in b^k, its
  coefficients and their logarithmic degrees;
* volumes: barycentric volumes, i-volumes, surface functionals, reports;
* checks: randomized self-check suites tying the layers together;
* cli: the `tropevol` command (volume, ehrhart, check, plot).
"""

from .cells import AlcovedSimplex, CellComplex, enumerate_triangulation, lattice_points
from .core import (
    MINUS_INF,
    ScaledPermutationMatrix,
    TropMatrix,
    act,
    contains,
    exp_point,
    log_point,
    mat_tmul,
    parse_entry,
    format_entry,
    recompose,
    residuate,
    tadd,
    tmul,
    trop_distance,
    tsum,
)
from .ehrhart import (
    coefficient_in_b,
    coeffs_via_formula,
    count_maxtimes,
    count_tropical,
    count_via_cells,
    ehrhart_report,
    log_coefficient,
    log_degree_bound,
    log_map,
    reciprocity_check,
    tropical_ehrhart_poly,
)
from .errors import CrossCheckError, GuardExceeded, TropevolError, ValidationError
from .guard import DEFAULT_GUARD, resolve_guard
from .linalg import (
    bideterminant,
    is_nonsingular,
    is_sign_generic,
    kleene_star,
    tdet,
    tminor,
    tropical_rank,
    tvol_max_sub,
    tvol_square,
)
# Only the tests call ratlp.  It is still loaded with the package because
# the benchmark's tracer (perfbench/tracing.py) finds each traced function
# through its module in sys.modules.
from . import ratlp  # noqa: F401
from .volumes import (
    VolumeReport,
    build_volume_report,
    cartesian_product,
    discrete_surface,
    qtvol_plus,
    simplex_dtrunk_barycenter,
    tlsurf,
    tlvol,
    tlvol_i_minus,
    tlvol_i_plus,
    tlvol_subsets,
    tlvol_triangulation,
    tropical_barycenter,
)

__version__ = "0.1.0"

__all__ = [
    "AlcovedSimplex",
    "CellComplex",
    "CrossCheckError",
    "DEFAULT_GUARD",
    "GuardExceeded",
    "MINUS_INF",
    "ScaledPermutationMatrix",
    "TropMatrix",
    "TropevolError",
    "ValidationError",
    "VolumeReport",
    "act",
    "bideterminant",
    "build_volume_report",
    "cartesian_product",
    "coefficient_in_b",
    "coeffs_via_formula",
    "contains",
    "count_maxtimes",
    "count_tropical",
    "count_via_cells",
    "discrete_surface",
    "ehrhart_report",
    "enumerate_triangulation",
    "exp_point",
    "format_entry",
    "is_nonsingular",
    "is_sign_generic",
    "kleene_star",
    "lattice_points",
    "log_coefficient",
    "log_degree_bound",
    "log_map",
    "log_point",
    "mat_tmul",
    "parse_entry",
    "qtvol_plus",
    "reciprocity_check",
    "recompose",
    "residuate",
    "resolve_guard",
    "simplex_dtrunk_barycenter",
    "tadd",
    "tdet",
    "tlsurf",
    "tlvol",
    "tlvol_i_minus",
    "tlvol_i_plus",
    "tlvol_subsets",
    "tlvol_triangulation",
    "tminor",
    "tmul",
    "trop_distance",
    "tropical_barycenter",
    "tropical_ehrhart_poly",
    "tropical_rank",
    "tsum",
    "tvol_max_sub",
    "tvol_square",
]
