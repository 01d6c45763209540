"""Tropical linear algebra: assignment values, determinants and ranks.

The tropical determinant of a square matrix is the optimal assignment value
max_sigma sum_i A[i][sigma(i)], with forbidden (-inf) cells.  It is computed
by a shortest-augmenting-path Hungarian method that also returns dual vectors
u, v with A[i][j] <= u_i + v_j and equality on the optimal matching; the duals
certify optimality and drive the Kleene-star normal form used by the volume
pipeline.  Brute-force enumerations are kept for the quantities that are
defined through explicit permutation expansions (second-best value, signed
bideterminant) and double as oracles in the tests.

A volume report analyses each matrix once.  One permutation expansion per
d x d column subset yields the best and the second-best term together, so
a single sweep of the subsets (column_subset_volumes) gives both the
dequantized volume qtvol+ (the best term is the determinant) and tvol (the
gap between the two).  A simplex's one Hungarian solve serves both the
uniqueness test and the normal form (_nonsingular_given and
_normalize_given take a solved AssignmentResult).
tminor keeps the Hungarian route and is the independent oracle for qtvol+.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterator, Optional, Sequence

from .core import Entry, TropMatrix, tadd, tsum
from .errors import ValidationError

BRUTE_LIMIT = 8  # permutation enumerations refuse anything larger


@dataclass(frozen=True)
class AssignmentResult:
    """Outcome of an optimal assignment run.

    value is -inf (None) when no permutation avoids the forbidden cells; then
    sigma, u, v are None.  Otherwise sigma is the optimal permutation (row i
    is matched to column sigma[i]) and u, v are feasible duals tight on it.
    """

    value: Entry
    sigma: Optional[tuple]
    u: Optional[tuple]
    v: Optional[tuple]


def _lt(a, b) -> bool:
    """a < b where None plays +inf (we minimize negated entries)."""
    if a is None:
        return False
    if b is None:
        return True
    return a < b


def _min_assignment(cost):
    """Shortest augmenting path assignment on an n x n cost matrix.

    cost[i][j] is an exact number or None for a forbidden cell.  Returns
    (row_to_col, u, v) for a minimum-cost perfect matching with the classical
    potentials (cost[i][j] >= u_i + v_j, tight on matched cells), or None when
    no perfect matching avoids forbidden cells.  Indices here are 1-based
    internally, following the usual presentation of the algorithm.
    """
    n = len(cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    p = [0] * (n + 1)    # p[j] = row currently matched to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = None
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                c = cost[i0 - 1][j - 1]
                cur = None if c is None else c - u[i0] - v[j]
                if _lt(cur, minv[j]):
                    minv[j] = cur
                    way[j] = j0
                if _lt(minv[j], delta):
                    delta = minv[j]
                    j1 = j
            if delta is None:
                return None  # the alternating tree cannot reach a free column
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    row_to_col = [0] * n
    for j in range(1, n + 1):
        row_to_col[p[j] - 1] = j - 1
    return tuple(row_to_col), tuple(u[1:]), tuple(v[1:])


def _require_square(a: TropMatrix) -> int:
    if a.rows != a.cols:
        raise ValidationError(f"square matrix required, got {a.shape}")
    return a.rows


def tdet(a: TropMatrix) -> AssignmentResult:
    """Tropical determinant with optimality certificate.

    The returned duals are for the max form: A[i][j] <= u_i + v_j everywhere,
    with equality for j = sigma[i].
    """
    n = _require_square(a)
    cost = [[None if e is None else -e for e in row] for row in a.entries]
    res = _min_assignment(cost)
    if res is None:
        return AssignmentResult(None, None, None, None)
    sigma, u, v = res
    value = sum(a.entries[i][sigma[i]] for i in range(n))
    return AssignmentResult(value, sigma, tuple(-x for x in u), tuple(-x for x in v))


def _expansion_terms(rows, cols: Sequence[int], what: str) -> Iterator[tuple]:
    """(sigma, sum of rows[i][sigma[i]]) for each bijection sigma from the rows
    onto cols whose term is finite.

    A term is abandoned at its first -inf entry.  At most BRUTE_LIMIT columns;
    `what` names the caller in the refusal message.
    """
    if len(cols) > BRUTE_LIMIT:
        raise ValidationError(f"{what} limited to n <= {BRUTE_LIMIT}")
    for sigma in permutations(cols):
        term = 0
        for row, j in zip(rows, sigma):
            if row[j] is None:
                break
            term += row[j]
        else:
            yield sigma, term


def _square_terms(a: TropMatrix, what: str) -> Iterator[tuple]:
    """The expansion terms of a square matrix (n <= BRUTE_LIMIT)."""
    return _expansion_terms(a.entries, range(_require_square(a)), what)


def tdet_brute(a: TropMatrix) -> Entry:
    """Oracle: direct permutation expansion (n <= BRUTE_LIMIT)."""
    return tsum(term for _, term in _square_terms(a, "brute determinant"))


def _best_two(m: TropMatrix, js: Sequence[int]) -> tuple:
    """(best, second) expansion terms of the d x d submatrix on columns js.

    second is the best term after excluding one fixed maximizer, so ties at
    the top make it equal to best; a missing term is -inf.  Past BRUTE_LIMIT
    columns the expansion is refused, unless the Hungarian solve shows that
    no term is finite.
    """
    if len(js) > BRUTE_LIMIT and tdet(m.submatrix_columns(js)).value is None:
        return None, None
    best: Entry = None
    second: Entry = None
    for _, term in _expansion_terms(m.entries, js, "second-best value"):
        if best is None or term > best:
            second = best
            best = term
        elif second is None or term > second:
            second = term
    return best, second


def tdet_second(a: TropMatrix) -> Entry:
    """Second-largest permutation value, excluding one fixed maximizer.

    Ties at the top mean the second value equals the top value.  -inf when at
    most one permutation has a finite expansion term.
    """
    return _best_two(a, range(_require_square(a)))[1]


@dataclass(frozen=True)
class Bideterminant:
    """Signed split of the permutation expansion: even vs odd maxima."""

    plus: Entry
    minus: Entry


def bideterminant(a: TropMatrix) -> Bideterminant:
    halves: list = [None, None]  # best even term, best odd term
    for sigma, term in _square_terms(a, "bideterminant"):
        parity = _parity(sigma)
        halves[parity] = tadd(halves[parity], term)
    return Bideterminant(*halves)


def _parity(sigma: Sequence[int]) -> int:
    seen = [False] * len(sigma)
    parity = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def _tight_graph(a: TropMatrix, u: Sequence, v: Sequence):
    """Cells where the dual inequality is tight: candidates for optimal matchings."""
    n = a.rows
    return [
        [a.entries[i][j] is not None and a.entries[i][j] == u[i] + v[j] for j in range(n)]
        for i in range(n)
    ]


def _unique_perfect_matching(adj) -> bool:
    """Leaf removal: a bipartite graph with a perfect matching has a unique one
    iff rows/columns of degree 1 can be peeled until nothing is left."""
    n = len(adj)
    alive_r = [True] * n
    alive_c = [True] * n
    deg_r = [sum(row) for row in adj]
    deg_c = [sum(adj[i][j] for i in range(n)) for j in range(n)]
    removed = 0
    progress = True
    while progress:
        progress = False
        for i in range(n):
            if alive_r[i] and deg_r[i] == 1:
                j = next(jj for jj in range(n) if alive_c[jj] and adj[i][jj])
                _peel(adj, alive_r, alive_c, deg_r, deg_c, i, j)
                removed += 1
                progress = True
        for j in range(n):
            if alive_c[j] and deg_c[j] == 1:
                i = next(ii for ii in range(n) if alive_r[ii] and adj[ii][j])
                _peel(adj, alive_r, alive_c, deg_r, deg_c, i, j)
                removed += 1
                progress = True
    return removed == n


def _peel(adj, alive_r, alive_c, deg_r, deg_c, i, j):
    alive_r[i] = False
    alive_c[j] = False
    for jj in range(len(adj)):
        if alive_c[jj] and adj[i][jj]:
            deg_c[jj] -= 1
    for ii in range(len(adj)):
        if alive_r[ii] and adj[ii][j]:
            deg_r[ii] -= 1
    deg_r[i] = 0
    deg_c[j] = 0


def _nonsingular_given(a: TropMatrix, res: AssignmentResult) -> bool:
    """is_nonsingular for a matrix whose assignment res = tdet(a) is solved."""
    if res.value is None:
        return False
    return _unique_perfect_matching(_tight_graph(a, res.u, res.v))


def is_nonsingular(a: TropMatrix) -> bool:
    """Finite tropical determinant attained by exactly one permutation."""
    return _nonsingular_given(a, tdet(a))


def is_nonsingular_brute(a: TropMatrix) -> bool:
    """Oracle for is_nonsingular via full enumeration."""
    best: Entry = None
    count = 0
    for _, term in _square_terms(a, "brute nonsingularity"):
        if best is None or term > best:
            best = term
            count = 1
        elif term == best:
            count += 1
    return count == 1


UNIQUE_GAP = "unique"  # marker value when no second finite permutation exists


def tvol_square(a: TropMatrix):
    """Gap between the best and second-best assignment value.

    Returns 0 on ties, the exact difference otherwise, and the UNIQUE_GAP
    marker when only one permutation has a finite expansion term.  -inf (None)
    when even the best value is -inf.
    """
    best, second = _best_two(a, range(_require_square(a)))
    if best is None:
        return None
    if second is None:
        return UNIQUE_GAP
    return best - second


def column_subset_volumes(m: TropMatrix) -> tuple:
    """(qtvol+, its columns, tvol, its columns) from one sweep of the d-subsets.

    qtvol+ is the largest tropical d-minor, tvol the largest tvol_square over
    the d x d column submatrices; both come from one expansion per subset.
    The witnesses are the first column subsets in lexicographic order that
    attain the maximum.  A subset with the UNIQUE_GAP marker dominates every
    numeric gap, and the first such subset is the tvol witness; a subset with
    -inf determinant contributes to neither.  Both values are -inf, with no
    witness, when every subset has -inf determinant.
    """
    d, cols = m.rows, m.cols
    if cols < d:
        raise ValidationError(f"need at least {d} columns, got {cols}")
    top = top_js = None
    gap = gap_js = None
    unique_js = None
    for js in combinations(range(cols), d):
        best, second = _best_two(m, js)
        if best is None:
            continue
        if top is None or best > top:
            top, top_js = best, js
        if second is None:
            if unique_js is None:
                unique_js = js
        elif gap is None or best - second > gap:
            gap, gap_js = best - second, js
    if unique_js is not None:
        gap, gap_js = UNIQUE_GAP, unique_js
    return top, top_js, gap, gap_js


def tvol_max_sub(m: TropMatrix):
    """Max of tvol_square over all d x d column submatrices of a d x m matrix.

    The tvol half of column_subset_volumes: (value, first witness subset).
    """
    return column_subset_volumes(m)[2:]


def kleene_star(a: TropMatrix) -> TropMatrix:
    """Transitive closure of a normalized square matrix.

    Precondition: zero diagonal and nonpositive off-diagonal entries (the shape
    produced by _normalize_given).  Then the all-pairs longest path matrix
    is finite-safe and idempotent.
    """
    n = _require_square(a)
    for i in range(n):
        if a.entries[i][i] != 0:
            raise ValidationError("kleene_star needs a zero diagonal")
        for j in range(n):
            e = a.entries[i][j]
            if i != j and e is not None and e > 0:
                raise ValidationError("kleene_star needs nonpositive off-diagonal entries")
    w = [list(row) for row in a.entries]
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wik = w[i][k]
            if wik is None:
                continue
            wi = w[i]
            for j in range(n):
                if wk[j] is None:
                    continue
                cand = wik + wk[j]
                if wi[j] is None or cand > wi[j]:
                    wi[j] = cand
    return TropMatrix._trusted(tuple(tuple(row) for row in w), True)


@dataclass(frozen=True)
class NormalizedAssignment:
    """Diagonally normalized form of a square matrix.

    matrix has zero diagonal and nonpositive off-diagonal entries; it equals
    diag(-u) (x) A (x) column permutation/rescaling determined by sigma, v.
    """

    matrix: TropMatrix
    sigma: tuple
    u: tuple
    v: tuple


def _normalize_given(a: TropMatrix, res: AssignmentResult) -> NormalizedAssignment:
    """Permute columns by the solved assignment res = tdet(a) and subtract the duals.

    C[i][j] = A[i][sigma(j)] - u_i - v_{sigma(j)} is 0 on the diagonal and
    <= 0 elsewhere whenever the determinant is finite.
    """
    if res.value is None:
        raise ValidationError("the assignment normal form needs a finite tropical determinant")
    n = a.rows
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            col = res.sigma[j]
            e = a.entries[i][col]
            row.append(None if e is None else e - res.u[i] - res.v[col])
        rows.append(tuple(row))
    c = TropMatrix._trusted(tuple(rows), True)
    return NormalizedAssignment(c, res.sigma, res.u, res.v)


def tminor(m: TropMatrix, i: int):
    """Largest i x i tropical minor and its first (lexicographic) witness.

    Returns (value, rows, cols); value is -inf when every i x i submatrix has
    determinant -inf.
    """
    d, cols = m.rows, m.cols
    if not 1 <= i <= min(d, cols):
        raise ValidationError(f"minor size {i} out of range for shape {m.shape}")
    best: Entry = None
    witness = None
    for rr in combinations(range(d), i):
        for cc in combinations(range(cols), i):
            val = tdet(m.submatrix(rr, cc)).value
            if val is not None and (best is None or val > best):
                best = val
                witness = (rr, cc)
    if best is None:
        return None, None, None
    return best, witness[0], witness[1]


def tropical_rank(m: TropMatrix) -> int:
    """Largest r with a nonsingular r x r submatrix (0 for all -inf matrices)."""
    for r in range(min(m.rows, m.cols), 0, -1):
        for rr in combinations(range(m.rows), r):
            for cc in combinations(range(m.cols), r):
                if is_nonsingular(m.submatrix(rr, cc)):
                    return r
    return 0


def is_sign_generic(m: TropMatrix, i: int | None = None) -> bool:
    """Sign-genericity: |.|+ differs from |.|- for maximal square submatrices.

    With i given, checks all i x i submatrices; otherwise uses the full square
    size min(d, m).  Submatrices whose two signed values are both -inf count as
    degenerate and fail the test.
    """
    size = i if i is not None else min(m.rows, m.cols)
    if not 1 <= size <= min(m.rows, m.cols):
        raise ValidationError(f"size {size} out of range for shape {m.shape}")
    for rr in combinations(range(m.rows), size):
        for cc in combinations(range(m.cols), size):
            bid = bideterminant(m.submatrix(rr, cc))
            if bid.plus == bid.minus:
                return False
    return True
