"""Tropical linear algebra: assignment values, determinants and ranks.

The tropical determinant of a square matrix is the optimal assignment value
max_sigma sum_i A[i][sigma(i)], with forbidden (-inf) cells.  It is computed
by a shortest-augmenting-path Hungarian method that also returns dual vectors
u, v with A[i][j] <= u_i + v_j and equality on the optimal matching; the duals
certify optimality.  They also decide nonsingularity: every optimal
assignment has value sum u + sum v, so each of its cells is tight
(A[i][j] == u_i + v_j), and sigma is the only one iff the tight cells off
sigma, drawn as edges between the rows they rematch, hold no directed cycle
(_nonsingular_given).  Brute-force enumerations are kept for the signed
bideterminant, which is defined through the explicit permutation expansion,
and double as oracles in the tests.

A volume report analyses each matrix once.  One dynamic programme over
column sets, rows taken from last to first, yields for every d x d column
subset the best term, the second-best term and the first maximizing
permutation together (_column_subset_table), in sum_k k * C(n, k) updates
for k <= d rather than C(n, d) * d! terms; the second-best value of a
square matrix is the same programme on its one subset.  From that one
table come the dequantized volume qtvol+ (the best term is the determinant),
tvol (the gap between the two) and, in volumes, every (d+1)-column simplex
of the barycentric volume: the terms of [0 ... 0; A_K] are the union over
k in K of the terms of the subset K minus k.  tdet, tminor and
_nonsingular_given keep the Hungarian route, which serves the standalone
functionals at any size and is the independent oracle for the table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from .core import Entry, TropMatrix, tadd, tsum
from .errors import ValidationError
from .guard import check_guard, resolve_guard

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


def tdet_second(a: TropMatrix) -> Entry:
    """Second-largest permutation value, excluding one fixed maximizer.

    Ties at the top mean the second value equals the top value.  -inf when at
    most one permutation has a finite expansion term.
    """
    return _square_best_two(a)[1]


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


def _nonsingular_given(a: TropMatrix, res: AssignmentResult) -> bool:
    """is_nonsingular for a matrix whose assignment res = tdet(a) is solved.

    An optimal assignment sums to sum u + sum v, and each of its cells is at
    most u_i + v_j, so all its cells are tight.  A second one rotates sigma
    along directed cycles of the digraph with an edge from row i to the row
    on column j for each tight (i, j) off sigma, and each such cycle gives
    one.  So sigma is unique iff a topological sort (Kahn) frees every row.
    """
    if res.value is None:
        return False
    sigma, u, v = res.sigma, res.u, res.v
    row_of = {j: i for i, j in enumerate(sigma)}
    succ = [
        [row_of[j] for j, e in enumerate(row)
         if e is not None and j != sigma[i] and e == u[i] + v[j]]
        for i, row in enumerate(a.entries)
    ]
    indegree = Counter(r for targets in succ for r in targets)
    order = [i for i in range(len(sigma)) if not indegree[i]]
    for i in order:  # order grows as rows are freed
        for r in succ[i]:
            indegree[r] -= 1
            if not indegree[r]:
                order.append(r)
    return len(order) == len(sigma)


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


_NO_TERM = (None, None, None)  # a column subset without a finite term
UNIQUE_GAP = "unique"  # marker value when no second finite permutation exists


def tvol_square(a: TropMatrix):
    """Gap between the best and second-best assignment value.

    Returns 0 on ties, the exact difference otherwise, and the UNIQUE_GAP
    marker when only one permutation has a finite expansion term.  -inf (None)
    when even the best value is -inf.
    """
    best, second, _ = _square_best_two(a)
    if best is None:
        return None
    if second is None:
        return UNIQUE_GAP
    return best - second


def _column_subset_table(m: TropMatrix) -> dict:
    """columns js -> (best, second, first maximizer) of the d x d submatrix on
    js, for every d-subset js in lexicographic order.

    second is the best term after excluding the first maximizer, so ties at
    the top make it equal to best; a missing term is -inf.  The maximizer is
    the first bijection from the rows onto js, in permutation order, that
    attains best (None when best is -inf).

    One dynamic programme over column sets, rows taken from last to first:
    the state of a k-set S describes the bijections from the last k rows
    onto S by their two best terms, as a multiset, and the lexicographically
    first maximizer.  A k-set T is filled from each j in T in increasing
    order, as row[j] plus the state of T minus j; a replacement of the best
    needs a strict increase, so the first maximizer in order is kept.  That
    is sum_k k * C(n, k) updates over k <= d, not C(n, d) * d! terms.  Past
    BRUTE_LIMIT rows the table is refused, unless the Hungarian solve shows
    that no subset has a finite term.
    """
    d, n = m.rows, m.cols
    if n < d:
        raise ValidationError(f"need at least {d} columns, got {n}")
    if d > BRUTE_LIMIT:
        subsets = list(combinations(range(n), d))
        if any(tdet(m.submatrix_columns(js)).value is not None for js in subsets):
            raise ValidationError(f"second-best value limited to n <= {BRUTE_LIMIT}")
        return dict.fromkeys(subsets, _NO_TERM)
    if d == 1:
        return {(j,): _NO_TERM if e is None else (e, None, (j,))
                for j, e in enumerate(m.entries[0])}
    bits = [1 << j for j in range(n)]
    # column mask -> (best, second, maximizer); sets without a finite term
    # are left out, except on the last level, which keeps every d-subset
    states = {
        bits[j]: (e, None, (j,)) for j, e in enumerate(m.entries[d - 1]) if e is not None
    }
    for k in range(2, d + 1):
        row = m.entries[d - k]
        get = states.get
        last = k == d
        level = {}
        for cols, masks in zip(combinations(range(n), k), combinations(bits, k)):
            mask = sum(masks)
            best = second = top = None
            for j in cols:
                e = row[j]
                if e is None:
                    continue
                state = get(mask - bits[j])
                if state is None:
                    continue
                v = e + state[0]
                if best is None or v > best:
                    # the old best and the sub-state's second both trail v;
                    # on the elif branch e + s <= v, so v alone can raise second
                    s = state[1]
                    if s is None or (best is not None and best >= e + s):
                        second = best
                    else:
                        second = e + s
                    best, top = v, (j,) + state[2]
                elif second is None or v > second:
                    second = v
            if top is not None or last:
                level[mask] = (best, second, top)
        states = level
    return dict(zip(combinations(range(n), d), states.values()))


def _square_best_two(a: TropMatrix) -> tuple:
    """(best, second, first maximizer) of a square matrix's expansion."""
    n = _require_square(a)
    return _column_subset_table(a)[tuple(range(n))]


def _volumes_from_table(table: dict) -> tuple:
    """(qtvol+, its columns, tvol, its columns) read off a column subset table.

    See column_subset_volumes for the values and the witness rules.
    """
    top = top_js = None
    gap = gap_js = None
    unique_js = None
    for js, (best, second, _) in table.items():
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


def _charge_column_sweep(m: TropMatrix, guard: int) -> None:
    """Charge the d-subset sweep to the guard: C(n, d) * d!, the terms of
    C(n, d) expansions.  The table's states and updates stay within twice
    that (the worst case is n = d = 3: 12 entry reads against 6 terms)."""
    d, n = m.shape
    check_guard(comb(n, d) * factorial(d), guard, "column subset sweep")


def column_subset_volumes(m: TropMatrix, guard: int | None = None) -> tuple:
    """(qtvol+, its columns, tvol, its columns) from one sweep of the d-subsets.

    qtvol+ is the largest tropical d-minor, tvol the largest tvol_square over
    the d x d column submatrices; both come from one column subset table.
    The witnesses are the first column subsets in lexicographic order that
    attain the maximum.  A subset with the UNIQUE_GAP marker dominates every
    numeric gap, and the first such subset is the tvol witness; a subset with
    -inf determinant contributes to neither.  Both values are -inf, with no
    witness, when every subset has -inf determinant.  The sweep is charged
    to the guard before any expansion (_charge_column_sweep).
    """
    _charge_column_sweep(m, resolve_guard(guard))
    return _volumes_from_table(_column_subset_table(m))


def tvol_max_sub(m: TropMatrix, guard: int | None = None):
    """Max of tvol_square over all d x d column submatrices of a d x m matrix.

    The tvol half of column_subset_volumes: (value, first witness subset).
    """
    return column_subset_volumes(m, guard)[2:]


def kleene_star(a: TropMatrix) -> TropMatrix:
    """Transitive closure: the longest-path matrix of a square matrix.

    Precondition: zero diagonal and no cycle of positive weight.  Then every
    longest path may be taken simple, so the closure is finite-safe and
    idempotent.  An optimal assignment sigma of a matrix A gives such a
    matrix, W[i][j] = A[i][sigma(j)] - A[j][sigma(j)]: a positive cycle of W
    would reroute sigma to a better permutation.  A positive cycle shows on
    the closure's diagonal and raises ValidationError.
    """
    n = _require_square(a)
    if any(a.entries[i][i] != 0 for i in range(n)):
        raise ValidationError("kleene_star needs a zero diagonal")
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
    if any(w[i][i] != 0 for i in range(n)):
        raise ValidationError("kleene_star needs a matrix without positive cycles")
    return TropMatrix._trusted(tuple(tuple(row) for row in w), True)


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
