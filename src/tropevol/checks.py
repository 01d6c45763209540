"""Seeded self-check suites: invariants, cross-algorithm oracles, theorems.

Every suite draws its instances from a private random.Random(seed), compares
exact values, and collects human-readable failure strings instead of raising,
so the CLI can report all violations of a run at once.  The conjecture suite
only ever emits warnings; everything else is a hard assertion set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .cells import CellComplex, enumerate_triangulation, enumerate_triangulation_brute
from .core import (
    MINUS_INF,
    ScaledPermutationMatrix,
    TropMatrix,
    act,
    contains,
    exp_point,
    log_point,
    mat_tmul,
    recompose,
    tadd,
    tmul,
    trop_distance,
)
from .ehrhart import (
    _check_exponent,
    coeffs_via_formula,
    count_tropical,
    count_via_cells,
    c_dminus1_direct,
    c_top_leading,
    log_coefficient,
    log_degree_bound,
    log_map,
    tropical_ehrhart_poly,
    reciprocity_check,
)
from .errors import GuardExceeded, ValidationError
from .linalg import (
    _column_subset_table,
    _expansion_terms,
    bideterminant,
    is_nonsingular,
    is_nonsingular_brute,
    is_sign_generic,
    kleene_star,
    tdet,
    tdet_brute,
    tminor,
    tropical_rank,
)
from .volumes import (
    _tlvol_from_table,
    cartesian_product,
    discrete_surface,
    qtvol_plus,
    tlvol,
    tlvol_i_minus,
    tlvol_i_plus,
    tlvol_subsets,
    tlvol_triangulation,
    tropical_barycenter,
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        if len(self.failures) < 8:
            self.failures.append(msg)
        elif len(self.failures) == 8:
            self.failures.append("... more failures suppressed")

    def check(self, cond: bool, msg: str) -> None:
        if not cond:
            self.fail(msg)


def _rand_entry(rng, lo, hi, minus_inf_chance=0.0):
    if minus_inf_chance and rng.random() < minus_inf_chance:
        return MINUS_INF
    return rng.randint(lo, hi)


def _rand_matrix(rng, d=None, m=None, lo=0, hi=4, minus_inf_chance=0.0,
                 min_rows=1, max_rows=3, min_cols=1, max_cols=5):
    d = d if d is not None else rng.randint(min_rows, max_rows)
    m = m if m is not None else rng.randint(min_cols, max_cols)
    while True:
        rows = [
            tuple(_rand_entry(rng, lo, hi, minus_inf_chance) for _ in range(m))
            for _ in range(d)
        ]
        try:
            return TropMatrix.from_rows(rows)
        except ValidationError:
            continue  # redraw on an all-minus-inf column


def _best_two_brute(m: TropMatrix, js) -> tuple:
    """Oracle for one entry of the column subset table: (best, second, first
    maximizer) of the d x d submatrix on columns js, by expanding all d!
    permutations in order (d <= BRUTE_LIMIT).

    second is the best term after excluding the first maximizer, so ties at
    the top make it equal to best; a missing term is -inf, and the maximizer
    is None when best is.
    """
    best = second = top = None
    for sigma, term in _expansion_terms(m.entries, js, "second-best value"):
        if best is None or term > best:
            second = best
            best, top = term, sigma
        elif second is None or term > second:
            second = term
    return best, second, top


def _in_simplex(vertices, x) -> bool:
    """Exact classical membership of x in the closed cell of a vertex chain.

    With B_l the support of the l-th increment, x lies in conv(vertices) iff
    x - v_0 = sum_l mu_l * 1_{B_l} with 1 >= mu_1 >= ... >= mu_m >= 0: zero
    off the union of the B_l, constant on each B_l, and the constants
    nonincreasing in [0, 1].  O(d * m) and independent of residuation.
    """
    y = [xi - vi for xi, vi in zip(x, vertices[0])]
    bound = 1
    for prev, cur in zip(vertices, vertices[1:]):
        block = [r for r in range(len(y)) if cur[r] != prev[r]]
        mu = y[block[0]]
        if not 0 <= mu <= bound or any(y[r] != mu for r in block):
            return False
        bound = mu
        for r in block:
            y[r] = 0
    return not any(y)


def contains_via_cells(complex_: CellComplex, x) -> bool:
    """Membership oracle independent of residuation: scan the closed cells."""
    return any(_in_simplex(c.vertices, x) for c in complex_.cells)


# ---------------------------------------------------------------------------
# suites


def suite_semiring(seed=0, cases=120) -> SuiteResult:
    res = SuiteResult("semiring")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        a, b, c = (_rand_entry(rng, -6, 6, 0.2) for _ in range(3))
        res.check(tadd(a, b) == tadd(b, a), f"max not commutative on {a!r},{b!r}")
        res.check(
            tadd(tadd(a, b), c) == tadd(a, tadd(b, c)),
            f"max not associative on {a!r},{b!r},{c!r}",
        )
        res.check(
            tmul(tmul(a, b), c) == tmul(a, tmul(b, c)),
            f"plus not associative on {a!r},{b!r},{c!r}",
        )
        res.check(
            tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c)),
            f"distributivity fails on {a!r},{b!r},{c!r}",
        )
        res.check(tadd(a, MINUS_INF) == a, f"zero not neutral for {a!r}")
        res.check(tmul(a, 0) == a, f"one not neutral for {a!r}")
        base = rng.choice((2, 3, 7))
        pt = tuple(_rand_entry(rng, -4, 5, 0.2) for _ in range(3))
        res.check(
            log_point(exp_point(pt, base), base) == pt,
            f"exp/log roundtrip fails at b={base} for {pt!r}",
        )
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = tuple(rng.randint(-5, 5) for _ in range(3))
        z = tuple(rng.randint(-5, 5) for _ in range(3))
        res.check(
            trop_distance(x, y) == trop_distance(y, x),
            f"distance not symmetric on {x},{y}",
        )
        res.check(
            trop_distance(x, z) <= trop_distance(x, y) + trop_distance(y, z),
            f"triangle inequality fails on {x},{y},{z}",
        )
        mat = _rand_matrix(rng, d=3, lo=-4, hi=4, minus_inf_chance=0.1)
        sigma = list(range(3))
        rng.shuffle(sigma)
        s = ScaledPermutationMatrix(
            tuple(sigma), tuple(rng.randint(-3, 3) for _ in range(3))
        )
        res.check(
            act(s, mat).entries == mat_tmul(s.to_matrix(), mat).entries,
            "scaled permutation action disagrees with matrix product",
        )
    return res


def suite_membership(seed=0, cases=25) -> SuiteResult:
    res = SuiteResult("membership")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        m = _rand_matrix(rng, max_rows=2, max_cols=4)
        complex_ = enumerate_triangulation(m)
        d = m.rows
        for j in range(m.cols):
            col = m.column(j)
            res.check(contains(m, col), f"generator {col} not contained in its hull")
        lam = tuple(_rand_entry(rng, -3, 0, 0.3) for _ in range(m.cols))
        if any(v == 0 for v in lam):
            combo = recompose(m, lam)
            res.check(contains(m, combo), f"combination {combo} not contained")
        bt = tropical_barycenter(m)
        res.check(contains(m, bt), f"barycenter {bt} not contained")
        lo = [min(v for v in row if v is not None) for row in m.entries]
        hi = [max(v for v in row if v is not None) for row in m.entries]
        for _ in range(6):
            x = tuple(
                Fraction(rng.randint(2 * lo[r] - 2, 2 * hi[r] + 2), 2)
                for r in range(d)
            )
            via_res = contains(m, x)
            via_cells = contains_via_cells(complex_, x)
            res.check(
                via_res == via_cells,
                f"membership routes disagree at {x} for {m.entries}",
            )
    return res


def suite_assignment(seed=0, cases=500) -> SuiteResult:
    res = SuiteResult("assignment")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        n = rng.randint(1, 6)
        m = _rand_matrix(rng, d=n, m=n, lo=-9, hi=9, minus_inf_chance=0.25)
        res.check(
            tdet(m).value == tdet_brute(m),
            f"tdet disagrees with brute force on {m.entries}",
        )
        if n <= 5:
            res.check(
                is_nonsingular(m) == is_nonsingular_brute(m),
                f"nonsingularity disagrees with brute force on {m.entries}",
            )
    return res


def suite_kleene(seed=0, cases=80) -> SuiteResult:
    res = SuiteResult("kleene")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        n = rng.randint(1, 5)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(0)
                else:
                    row.append(_rand_entry(rng, -6, 0, 0.3))
            rows.append(tuple(row))
        c = TropMatrix.from_rows(rows, allow_minus_inf_columns=True)
        s = kleene_star(c)
        res.check(
            mat_tmul(s, s).entries == s.entries,
            f"Kleene star not multiplicatively idempotent for {c.entries}",
        )
        res.check(
            kleene_star(s).entries == s.entries,
            f"Kleene star not closure-stable for {c.entries}",
        )
        ge = all(
            tadd(s.entries[i][j], c.entries[i][j]) == s.entries[i][j]
            for i in range(n)
            for j in range(n)
        )
        res.check(ge, f"Kleene star lost weight from {c.entries}")
    return res


def suite_cauchy_binet(seed=0, cases=200) -> SuiteResult:
    res = SuiteResult("cauchy-binet")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        dd = rng.randint(1, 3)
        nn = rng.randint(1, 3)
        mm = rng.randint(1, 3)
        b = _rand_matrix(rng, d=dd, m=nn, lo=-4, hi=4, minus_inf_chance=0.15)
        c = _rand_matrix(rng, d=nn, m=mm, lo=-4, hi=4, minus_inf_chance=0.15)
        a = mat_tmul(b, c)
        i = rng.randint(1, min(dd, mm))
        rows = tuple(sorted(rng.sample(range(dd), i)))
        cols = tuple(sorted(rng.sample(range(mm), i)))
        da = bideterminant(a.submatrix(rows, cols))
        lhs = da.plus
        rhs = da.minus
        for K in itertools.combinations(range(nn), i):
            db = bideterminant(b.submatrix(rows, K))
            dc = bideterminant(c.submatrix(K, cols))
            lhs = tadd(lhs, tadd(tmul(db.plus, dc.minus), tmul(db.minus, dc.plus)))
            rhs = tadd(rhs, tadd(tmul(db.plus, dc.plus), tmul(db.minus, dc.minus)))
        res.check(
            lhs == rhs,
            f"Cauchy-Binet identity fails for B={b.entries} C={c.entries} "
            f"I={rows} J={cols}",
        )
    return res


def suite_sign_generic(seed=0, cases=100) -> SuiteResult:
    res = SuiteResult("sign-generic")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        m = _rand_matrix(rng, lo=-5, hi=5, minus_inf_chance=0.1,
                         max_rows=3, max_cols=4)
        i = rng.randint(1, min(m.rows, m.cols))
        # duplicating a column kills sign-genericity at sizes >= 2
        if i >= 2 and m.cols >= i:
            dup_cols = [m.column(0)] * 2 + [m.column(j) for j in range(1, m.cols)]
            dup = TropMatrix.from_columns(dup_cols, allow_minus_inf_columns=True)
            res.check(
                not is_sign_generic(dup, i),
                f"duplicate column judged sign-generic at i={i}: {dup.entries}",
            )
        # an odd row swap exchanges the two bideterminant halves
        i2 = min(m.rows, m.cols)
        if i2 >= 2:
            sub = m.submatrix(tuple(range(i2)), tuple(range(i2)))
            swapped_rows = list(sub.entries)
            swapped_rows[0], swapped_rows[1] = swapped_rows[1], swapped_rows[0]
            sw = TropMatrix.from_rows(swapped_rows, allow_minus_inf_columns=True)
            d1 = bideterminant(sub)
            d2 = bideterminant(sw)
            res.check(
                (d1.plus, d1.minus) == (d2.minus, d2.plus),
                f"odd swap does not exchange bideterminant on {sub.entries}",
            )
    return res


def suite_cells(seed=0, cases=20) -> SuiteResult:
    res = SuiteResult("cells")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        m = _rand_matrix(rng, lo=0, hi=3, max_rows=2, max_cols=4)
        fast = enumerate_triangulation(m)
        brute = enumerate_triangulation_brute(m)
        res.check(
            set(c.vertices for c in fast.cells) == set(c.vertices for c in brute.cells),
            f"triangulations disagree on {m.entries}",
        )
        for cell in fast.cells:
            for v in cell.vertices:
                res.check(
                    contains(m, v), f"cell vertex {v} outside hull {m.entries}"
                )
            mid = cell.relative_interior_point()
            res.check(
                contains(m, mid),
                f"cell interior point {mid} outside hull {m.entries}",
            )
    return res


def suite_ehrhart(seed=0, cases=15) -> SuiteResult:
    res = SuiteResult("ehrhart")
    rng = random.Random(seed)
    for _ in range(cases):
        res.cases += 1
        m = _rand_matrix(rng, lo=0, hi=3, max_rows=2, max_cols=4)
        complex_ = enumerate_triangulation(m)
        for b in (2, 3):
            poly = tropical_ehrhart_poly(m, b)
            formula = coeffs_via_formula(complex_, b)
            res.check(
                tuple(poly.coeffs) == tuple(formula),
                f"interpolation vs formula mismatch on {m.entries} at b={b}",
            )
            d = m.rows
            res.check(
                formula[d] == c_top_leading(complex_, b),
                f"leading coefficient closed form wrong on {m.entries} at b={b}",
            )
            res.check(
                formula[d - 1] == c_dminus1_direct(complex_, b) if d >= 1 else True,
                f"facet-weight c_(d-1) wrong on {m.entries} at b={b}",
            )
            lam = rng.randint(1, 2)
            shifted = coeffs_via_formula(m.translate(lam), b)
            hom = all(
                shifted[i] == Fraction(b) ** (lam * i) * formula[i]
                for i in range(d + 1)
            )
            res.check(hom, f"coefficient homogeneity fails on {m.entries} b={b}")
        # valuation: triangle-plus-segment split along a shared vertex
        a0 = rng.randint(0, 2)
        tri = TropMatrix.from_rows(((a0, a0 + 1), (0, 1)))
        seg = TropMatrix.from_rows(((a0 + 1, a0 + 2), (1, 2)))
        union = TropMatrix.from_rows(((a0, a0 + 2), (0, 2)))
        meet = TropMatrix.from_rows(((a0 + 1,), (1,)))
        for b in (2, 3):
            for k in (0, 1):
                lhs = count_tropical(union, b, k) + count_tropical(meet, b, k)
                rhs = count_tropical(tri, b, k) + count_tropical(seg, b, k)
                res.check(
                    lhs == rhs,
                    f"valuation identity fails at a0={a0} b={b} k={k}",
                )
    return res


def suite_cross_volume(seed=0, cases=100) -> SuiteResult:
    """Criterion-style cross-algorithm oracle: volumes and counts must agree.

    tlvol comes three ways: the Hungarian subset sweep, the triangulation,
    and the volume report's reading of its column subset table.  The table
    itself, a dynamic programme over column sets, is compared entry by entry
    with the permutation expansion of each subset (_best_two_brute), on the
    case's matrix and on a second one per case with about 15% -inf entries
    and d to d + 2 columns, square ones among them.  The second matrices
    come from a stream of their own, so the cases stay those of the seed.
    """
    res = SuiteResult("cross-volume")
    rng = random.Random(seed)
    inf_rng = random.Random(f"cross-volume/{seed}")
    for _ in range(cases):
        res.cases += 1
        m = _rand_matrix(rng, lo=0, hi=4, max_rows=3, max_cols=5)
        d = m.rows
        complex_ = enumerate_triangulation(m)
        sub = tlvol_subsets(m)
        tri_val = tlvol_triangulation(complex_)[0]
        res.check(
            sub[0] == tri_val,
            f"tlvol subsets {sub[0]!r} != triangulation {tri_val!r} on {m.entries}",
        )
        # The report's route, without the report's own triangulation.
        table = _column_subset_table(m) if m.cols > m.rows else None
        rows = inf_rng.randint(1, 3)
        with_inf = _rand_matrix(
            inf_rng, d=rows, m=inf_rng.randint(rows, rows + 2), minus_inf_chance=0.15
        )
        for mt, entries in ((m, table or {}), (with_inf, _column_subset_table(with_inf))):
            for js, entry in entries.items():
                want = _best_two_brute(mt, js)
                res.check(
                    entry == want,
                    f"subset table {entry!r} != expansion {want!r} at {js} on {mt.entries}",
                )
        rep = _tlvol_from_table(m, table)
        res.check(
            rep == sub,
            f"report tlvol {rep!r} != subsets {sub!r} on {m.entries}",
        )
        bases = (2, 3) if d <= 2 else (2,)
        for b in bases:
            try:
                poly = tropical_ehrhart_poly(m, b)
            except GuardExceeded:
                continue
            kmax = 2 if d <= 2 else 1
            for k in range(kmax + 1):
                direct = count_tropical(m, b, k)
                cells = count_via_cells(complex_, b, k)
                pval = poly.evaluate(k)
                res.check(
                    direct == cells == pval,
                    f"counts disagree on {m.entries} b={b} k={k}: "
                    f"direct {direct}, cells {cells}, poly {pval}",
                )
    return res


def _pure_instances(rng, count):
    """(matrix, complex) pairs for reciprocity: alcoves, boxes, filtered randoms."""
    out = []
    while len(out) < count:
        kind = rng.randint(0, 2)
        if kind == 0:
            d = rng.randint(1, 2)
            a = tuple(rng.randint(0, 2) for _ in range(d))
            from .fixtures import alcove_simplex

            m = alcove_simplex(a)
        elif kind == 1:
            c1 = rng.randint(1, 3)
            c2 = rng.randint(1, 3)
            m = cartesian_product(
                TropMatrix.from_rows(((0, c1),)), TropMatrix.from_rows(((0, c2),))
            )
        else:
            m = _rand_matrix(rng, lo=0, hi=3, max_rows=2, max_cols=4)
        cx = enumerate_triangulation(m)
        # Reciprocity needs the polytope to equal its top trunk.  Alcoves
        # and boxes always are; flat-but-pure random draws (paths of
        # segments in the plane) are redrawn along with impure ones.
        if not cx.is_pure() or cx.dim != m.rows:
            continue
        out.append((m, cx))
    return out


def suite_theorems(seed=0, cases=50) -> SuiteResult:
    res = SuiteResult("theorems")
    rng = random.Random(seed)
    from .fixtures import cube, fix_4d, fix_l, fix_tri

    instances = [fix_l(4), fix_tri(3, 0), fix_tri(3, 1), fix_tri(2, 2), fix_4d()]
    for _ in range(cases):
        m = _rand_matrix(rng, lo=0, hi=4, max_rows=3, min_cols=3, max_cols=5)
        if m.cols >= m.rows:
            instances.append(m)
    for m in instances:
        res.cases += 1
        d = m.rows
        tl = tlvol(m, "subsets")
        qv = qtvol_plus(m)[0]
        if tl is not None:
            res.check(
                qv is not None and tl <= qv,
                f"tlvol {tl!r} exceeds qtvol+ {qv!r} on {m.entries}",
            )
        complex_ = enumerate_triangulation(m)
        # equality characterization: tlvol == qtvol+ iff the barycenter
        # lies in the d-trunk
        bt = tropical_barycenter(m)
        in_trunk = any(
            _in_simplex(c.vertices, bt) for c in complex_.cells_of_dim(d)
        )
        res.check(
            (tl == qv) == in_trunk,
            f"barycenter-in-trunk characterization fails on {m.entries}: "
            f"tlvol {tl!r}, qtvol+ {qv!r}, in_trunk {in_trunk}",
        )
        if complex_.is_pure() and complex_.dim == d:
            res.check(
                tl == qv, f"purity should force tlvol = qtvol+ on {m.entries}"
            )
        for i in range(1, d + 1):
            mv = tlvol_i_minus(complex_, i)[0]
            tm = tminor(m, i)[0]
            if mv is not None:
                res.check(
                    tm is not None and mv <= tm,
                    f"tlvol_{i}^- {mv!r} exceeds tminor_{i} {tm!r} on {m.entries}",
                )
        # a point hull has a constant count, so c_1 = 0 and tlvol_1^+ is
        # Log 0 = None: the identity needs dim P >= 1
        if complex_.dim >= 1:
            pv = tlvol_i_plus(complex_, 1)[0]
            tm1 = tminor(m, 1)[0]
            res.check(
                pv == tm1,
                f"tlvol_1^+ {pv!r} != max entry {tm1!r} on {m.entries}",
            )
        if d >= 2:
            disc = discrete_surface(complex_)
            lo = tlvol_i_minus(complex_, d - 1)[0]
            hi = tlvol_i_plus(complex_, d - 1)[0]
            if disc is None:
                res.check(
                    lo is None,
                    f"c_(d-1) vanishes but lower surface {lo!r} finite on {m.entries}",
                )
            else:
                res.check(
                    lo is not None and lo <= disc <= hi,
                    f"surface sandwich fails on {m.entries}: {lo!r},{disc},{hi!r}",
                )
        # rank bounds the top nonvanishing coefficient index, per base
        trk = tropical_rank(m)
        for b in ((2, 3) if d <= 2 else (2,)):
            coeffs = coeffs_via_formula(complex_, b)
            top = max((i for i in range(d + 1) if coeffs[i] != 0), default=0)
            res.check(
                trk >= top,
                f"tropical rank {trk} below top coefficient index {top} "
                f"on {m.entries} at b={b}",
            )
    for m, cx in _pure_instances(rng, 12):
        res.cases += 1
        for b in (2, 3):
            res.check(
                reciprocity_check(cx, b),
                f"reciprocity fails on pure {m.entries} at b={b}",
            )
    return res


def _random_rotation(rng, d):
    sigma = list(range(d))
    rng.shuffle(sigma)
    z = [rng.randint(-3, 3) for _ in range(d - 1)]
    z.append(-sum(z))
    return ScaledPermutationMatrix(tuple(sigma), tuple(z))


def _random_rotation_signed(rng, d, i, plus=True):
    """Random integer member of the signed rotation class for index i.

    Entries on a random weight-i support sum to zero; the remaining entries
    are clamped below the support minimum (plus class) or above the support
    maximum (minus class), so the extreme i-subset sum is the support itself.
    """
    sigma = list(range(d))
    rng.shuffle(sigma)
    support = rng.sample(range(d), i)
    vals = [rng.randint(-3, 3) for _ in range(i - 1)]
    vals.append(-sum(vals))
    z = [0] * d
    for r, v in zip(support, vals):
        z[r] = v
    if plus:
        free = min(vals)
        for r in range(d):
            if r not in support:
                z[r] = free - rng.randint(0, 3)
    else:
        free = max(vals)
        for r in range(d):
            if r not in support:
                z[r] = free + rng.randint(0, 3)
    return ScaledPermutationMatrix(tuple(sigma), tuple(z))


def _log_map_outcome(samples, bound):
    """log_map's degree, or the name of the exception it raises.

    A repeated node divides by zero once the distinct-node check is gone, so
    ArithmeticError is an outcome too, not a crash of the suite.
    """
    try:
        return log_map(samples, bound)
    except (ValidationError, ArithmeticError) as exc:
        return type(exc).__name__


def _check_log_map(res: SuiteResult, rng) -> None:
    """log_map on an integer polynomial of known degree k <= bound, sampled at
    bound + 3 distinct bases: the degree (None for the zero polynomial), one
    extra sample off by 1, and a base repeated among the interpolation nodes."""
    bound = rng.randint(1, 6)
    k = rng.randint(-1, bound)  # -1 draws the zero polynomial
    top = [rng.choice((-2, -1, 1, 2))] if k >= 0 else []
    coeffs = [rng.randint(-3, 3) for _ in range(k)] + top
    bases = rng.sample(range(2, 3 * bound + 9), bound + 3)
    samples = [(b, sum(c * b**e for e, c in enumerate(coeffs))) for b in bases]
    got = _log_map_outcome(samples, bound)
    res.check(
        got == (k if k >= 0 else None),
        f"log_map gives {got} for degree {k} (bound {bound}) on {samples}",
    )
    off = list(samples)
    j = rng.randint(bound + 1, bound + 2)
    off[j] = (off[j][0], off[j][1] + 1)
    got = _log_map_outcome(off, bound)
    res.check(
        got == "ValidationError",
        f"log_map gives {got} with extra sample {j} off by 1 on {off}",
    )
    dup = list(samples)
    j = rng.randint(1, bound)
    dup[j] = (dup[rng.randrange(j)][0], dup[j][1])
    got = _log_map_outcome(dup, bound)
    res.check(
        got == "ValidationError",
        f"log_map gives {got} with base {dup[j][0]} repeated on {dup}",
    )


def suite_volume_properties(seed=0, cases=50) -> SuiteResult:
    res = SuiteResult("volume-properties")
    rng = random.Random(seed)
    # log_map's cases draw from their own stream, so the matrices stay those
    # of the seed
    log_rng = random.Random(f"volume-properties/log-map/{seed}")
    for _ in range(cases):
        res.cases += 1
        _check_log_map(res, log_rng)
        m = _rand_matrix(rng, lo=0, hi=4, max_rows=3, max_cols=4)
        d = m.rows
        # homogeneity under translation by an integer scalar
        lam = rng.randint(-2, 2)
        shifted = m.translate(lam)
        cm, cs = enumerate_triangulation(m), enumerate_triangulation(shifted)
        tlm = tlvol(m, "subsets")
        tls = tlvol(shifted, "subsets")
        if tlm is None:
            res.check(tls is None, f"tlvol homogeneity breaks on {m.entries}")
        else:
            res.check(
                tls == tlm + d * lam,
                f"tlvol homogeneity fails on {m.entries} with shift {lam}",
            )
        for i in range(1, d + 1):
            a = tlvol_i_plus(cm, i)[0]
            bje = tlvol_i_plus(cs, i)[0]
            if a is None:
                res.check(bje is None, f"i+ homogeneity breaks on {m.entries}")
            else:
                res.check(
                    bje == a + i * lam,
                    f"tlvol_{i}^+ homogeneity fails on {m.entries}",
                )
        # idempotency: if P is spanned by a subset of Q's columns then the
        # concatenation generates exactly Q and the volumes must max out
        if m.cols >= 2:
            keep = sorted(rng.sample(range(m.cols), rng.randint(1, m.cols)))
            part = m.submatrix_columns(tuple(keep))
            both = TropMatrix.from_columns(
                list(part.columns()) + list(m.columns()),
                allow_minus_inf_columns=True,
            )
            res.check(
                tlvol(both, "subsets") == tadd(tlvol(part, "subsets"), tlm),
                f"tlvol idempotency fails for column subset {keep} of {m.entries}",
            )
            cp = enumerate_triangulation(part)
            for i in range(1, d + 1):
                whole = tlvol_i_plus(cm, i)[0]
                piece = tlvol_i_plus(cp, i)[0]
                res.check(
                    tadd(piece, whole) == whole,
                    f"tlvol_{i}^+ idempotency fails for subset {keep} "
                    f"of {m.entries}",
                )
        # monotonicity: more generators never shrink any volume
        n2 = _rand_matrix(rng, d=d, lo=0, hi=4, max_cols=4)
        bigger = TropMatrix.from_columns(
            list(m.columns()) + list(n2.columns()),
            allow_minus_inf_columns=True,
        )
        if tlm is not None:
            big_tl = tlvol(bigger, "subsets")
            res.check(
                big_tl is not None and big_tl >= tlm,
                f"tlvol monotonicity fails when adding columns to {m.entries}",
            )
        cb = enumerate_triangulation(bigger)
        for i in range(1, d + 1):
            small_i = tlvol_i_plus(cm, i)[0]
            big_i = tlvol_i_plus(cb, i)[0]
            if small_i is not None:
                res.check(
                    big_i is not None and big_i >= small_i,
                    f"tlvol_{i}^+ monotonicity fails on {m.entries}",
                )
        # rotation invariance
        s = _random_rotation(rng, d)
        rotated = act(s, m)
        res.check(
            tlvol(rotated, "subsets") == tlm,
            f"tlvol rotation invariance fails on {m.entries} with {s}",
        )
        i = rng.randint(1, d)
        sp = _random_rotation_signed(rng, d, i, plus=True)
        sm = _random_rotation_signed(rng, d, i, plus=False)
        res.check(
            sp.is_rotation_plus(i) and sm.is_rotation_minus(i),
            f"signed rotation sampler left its class at i={i}: {sp.z} {sm.z}",
        )
        # full signed classes only bound the i-volumes one-sidedly
        a_plus = tlvol_i_plus(cm, i)[0]
        b_plus = tlvol_i_plus(act(sp, m), i)[0]
        res.check(
            tadd(b_plus, a_plus) == a_plus,
            f"tlvol_{i}^+ grows under a max-normalized rotation on {m.entries}",
        )
        a_minus = tlvol_i_minus(cm, i)[0]
        b_minus = tlvol_i_minus(act(sm, m), i)[0]
        res.check(
            tadd(a_minus, b_minus) == b_minus,
            f"tlvol_{i}^- shrinks under a min-normalized rotation on {m.entries}",
        )
        # plain permutations preserve both i-volumes exactly
        perm = ScaledPermutationMatrix(sp.sigma, (0,) * d)
        permuted = enumerate_triangulation(act(perm, m))
        res.check(
            tlvol_i_plus(permuted, i)[0] == a_plus
            and tlvol_i_minus(permuted, i)[0] == a_minus,
            f"permutation changes an i-volume on {m.entries}",
        )
        # multiplicativity on products
        me = _rand_matrix(rng, lo=0, hi=3, max_rows=2, max_cols=3)
        ne = _rand_matrix(rng, lo=0, hi=3, max_rows=2, max_cols=3)
        prod = cartesian_product(me, ne)
        res.check(
            tlvol(prod, "subsets") == tmul(tlvol(me, "subsets"),
                                           tlvol(ne, "subsets")),
            f"tlvol multiplicativity fails on {me.entries} x {ne.entries}",
        )
        # leading coefficient degree equals tlvol
        if m.is_nonnegative():
            bound = log_degree_bound(cm)
            samples = [
                (b, c_top_leading(cm, b)) for b in range(2, bound + 3)
            ]
            res.check(
                log_map(samples, bound) == tlm,
                f"tlvol does not match leading-coefficient degree on {m.entries}",
            )
    return res


def suite_conjecture(seed=0, cases=15) -> SuiteResult:
    """Search for Log c_i > tminor_i counterexamples; warn, never fail."""
    res = SuiteResult("conjecture")
    rng = random.Random(seed)
    from .fixtures import fix_l, fix_tri

    instances = [fix_l(3), fix_l(4), fix_tri(3, 0), fix_tri(3, 1)]
    for _ in range(cases):
        instances.append(_rand_matrix(rng, lo=0, hi=4, max_rows=2, max_cols=4))
    for m in instances:
        res.cases += 1
        complex_ = enumerate_triangulation(m)
        for i in range(1, m.rows + 1):
            lc = log_coefficient(complex_, i)
            if lc is None:
                continue
            tm = tminor(m, i)[0]
            if tm is None or lc > tm:
                res.warnings.append(
                    f"conjecture violated on {m.entries}: Log c_{i} = {lc}, "
                    f"tminor_{i} = {tm!r}"
                )
    return res


SUITES = {
    "semiring": suite_semiring,
    "membership": suite_membership,
    "assignment": suite_assignment,
    "kleene": suite_kleene,
    "cauchy-binet": suite_cauchy_binet,
    "sign-generic": suite_sign_generic,
    "cells": suite_cells,
    "ehrhart": suite_ehrhart,
    "cross-volume": suite_cross_volume,
    "theorems": suite_theorems,
    "volume-properties": suite_volume_properties,
    "conjecture": suite_conjecture,
}


def run_suites(names=None, seed=0, cases=None):
    """Run the chosen suites (all by default); returns a list of SuiteResult.

    Each suite runs its own default number of cases unless cases is given,
    as a non-bool int >= 0; every argument is checked before any suite runs.
    """
    names = list(SUITES) if names is None else names
    for name in names:
        if name not in SUITES:
            raise ValidationError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}"
            )
    if cases is not None:
        _check_exponent(cases, "cases")
    sized = {} if cases is None else {"cases": cases}
    return [SUITES[name](seed=seed, **sized) for name in names]
