"""Small exact simplex method over the rationals.

Solves max c.x subject to A x = b, x >= 0 with Fraction arithmetic, two
phases and Bland's pivoting rule (smallest index), which guarantees
termination.  Problem sizes here are tiny (a handful of barycentric
coordinates and subset slacks), so the dense tableau is recomputed naively.
The library itself solves no LP: this module is an oracle for ``checks``
(simplex membership) and for the tests (``lp_max_min_linear`` against the
lower i-volume).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ValidationError


def _optimize(rows, basis, cost, allowed):
    """Pivot to optimality on the equality tableau; rows[i] = coeffs + [rhs]."""
    ncols = len(rows[0]) - 1
    while True:
        cb = [cost[bi] for bi in basis]
        entering = None
        for j in allowed:
            red = cost[j] - sum(cb[i] * rows[i][j] for i in range(len(rows)))
            if red > 0:
                entering = j
                break
        if entering is None:
            return
        leaving = None
        best = None
        for i, row in enumerate(rows):
            if row[entering] <= 0:
                continue
            ratio = row[-1] / row[entering]
            if best is None or ratio < best or (
                ratio == best and basis[i] < basis[leaving]
            ):
                best = ratio
                leaving = i
        if leaving is None:
            raise ValidationError("linear program is unbounded")
        _pivot(rows, basis, leaving, entering)


def _pivot(rows, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i, row in enumerate(rows):
        if i == r or row[c] == 0:
            continue
        f = row[c]
        rows[i] = [a - f * b for a, b in zip(row, rows[r])]
    basis[r] = c


def simplex_max(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Maximize c.x over {A x = b, x >= 0}; returns (value, x) as Fractions."""
    m = len(A)
    n = len(c)
    rows = []
    for i in range(m):
        row = [Fraction(v) for v in A[i]] + [Fraction(b[i])]
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
    # phase 1: artificial variables n..n+m-1
    for i in range(m):
        for k in range(m):
            rows[i].insert(n + k, Fraction(int(i == k)))
    basis = [n + i for i in range(m)]
    cost1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _optimize(rows, basis, cost1, range(n))
    if any(rows[i][-1] != 0 for i in range(m) if basis[i] >= n):
        raise ValidationError("linear program is infeasible")
    # drive leftover zero-value artificials out of the basis where possible
    for i in range(m):
        if basis[i] < n:
            continue
        piv = next((j for j in range(n) if rows[i][j] != 0), None)
        if piv is not None:
            _pivot(rows, basis, i, piv)
    keep = [i for i in range(m) if basis[i] < n]
    rows = [rows[i][:n] + [rows[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost2 = [Fraction(v) for v in c]
    _optimize(rows, basis, cost2, range(n))
    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = rows[i][-1]
    value = sum(cost2[j] * x[j] for j in range(n))
    return value, x


def lp_max_min_linear(vertices: Sequence[Sequence], i: int):
    """max over conv(vertices) of the sum of the i smallest coordinates.

    Exact concave piecewise-linear maximization: introduce t with
    t <= sum_{r in S} x_r for every i-subset S and maximize t over
    barycentric coordinates.  Returns (value, witness point).
    """
    if not vertices:
        raise ValidationError("need at least one vertex")
    d = len(vertices[0])
    if not 1 <= i <= d:
        raise ValidationError(f"subset size {i} out of range for dimension {d}")
    p = len(vertices)
    subsets = list(itertools.combinations(range(d), i))
    # variables: t+ , t-, lambda_1..lambda_p, slack per subset
    nvars = 2 + p + len(subsets)
    A = []
    b = []
    for si, S in enumerate(subsets):
        row = [Fraction(0)] * nvars
        row[0] = Fraction(1)
        row[1] = Fraction(-1)
        for u, v in enumerate(vertices):
            row[2 + u] = -sum(Fraction(v[r]) for r in S)
        row[2 + p + si] = Fraction(1)
        A.append(row)
        b.append(Fraction(0))
    row = [Fraction(0)] * nvars
    for u in range(p):
        row[2 + u] = Fraction(1)
    A.append(row)
    b.append(Fraction(1))
    c = [Fraction(0)] * nvars
    c[0] = Fraction(1)
    c[1] = Fraction(-1)
    value, x = simplex_max(c, A, b)
    lam = x[2:2 + p]
    witness = tuple(
        sum(lam[u] * Fraction(v[r]) for u, v in enumerate(vertices))
        for r in range(d)
    )
    attained = min(sum(witness[r] for r in S) for S in subsets)
    if attained != value:
        raise ValidationError("optimal witness fails to re-evaluate")  # pragma: no cover
    return value, witness
