"""Named example configurations used in tests, demos and the CLI."""

from __future__ import annotations

from .core import TropMatrix
from .errors import ValidationError


def cube(d: int = 2) -> TropMatrix:
    """The tropical unit cube [-inf, 0]^d.

    Generators: one all minus-infinity column plus, per coordinate i, the
    column with 0 in row i and -inf elsewhere.  (One finite entry per column;
    a single column of all zeros would generate only the max-corner.)
    """
    if d < 1:
        raise ValidationError("cube needs d >= 1")
    cols = [tuple([None] * d)]
    for i in range(d):
        cols.append(tuple(0 if r == i else None for r in range(d)))
    return TropMatrix.from_columns(cols, allow_minus_inf_columns=True)


def fix_l(l: int = 4) -> TropMatrix:
    """Triangle with a diagonal tail: columns (0,0), (0,1), (l-1,l-1)."""
    if l < 2:
        raise ValidationError("fix_l needs l >= 2")
    return TropMatrix.from_rows([[0, 0, l - 1], [0, 1, l - 1]])


def fix_tri(l: int = 3, k: int = 0) -> TropMatrix:
    """Triangle with a horizontal edge of length k attached."""
    if l < 2 or k < 0:
        raise ValidationError("fix_tri needs l >= 2 and k >= 0")
    return TropMatrix.from_rows([[l - 1, l, k + l], [0, 0, k + 1]])


def fix_4d() -> TropMatrix:
    """2-dimensional configuration in dimension 4 with a disconnected 2-trunk."""
    return TropMatrix.from_rows(
        [
            [0, 1, 0, 9, 9, 9],
            [0, 0, 1, 9, 9, 9],
            [9, 9, 9, 0, 1, 0],
            [9, 9, 9, 0, 0, 1],
        ]
    )


def fix_delta2() -> TropMatrix:
    """Standard tropical simplex shifted to have negative entries."""
    return TropMatrix.from_rows([[1, 0, -1], [1, -1, 0]])


def fix_prod(l: int = 3) -> tuple:
    """The two factors of the running product example: a 2x3 M and a 1x2 N."""
    if l < 1:
        raise ValidationError("fix_prod needs l >= 1")
    m = TropMatrix.from_rows([[0, 1, l], [0, 0, l]])
    n = TropMatrix.from_rows([[0, 1]])
    return m, n


def alcove_simplex(a) -> TropMatrix:
    """The full-dimensional alcoved simplex with base point a.

    Generators are the chain a, a+e_1, a+e_1+e_2, ..., a+1; the hull equals
    the classical simplex conv of those d+1 points.
    """
    a = tuple(int(x) for x in a)
    if any(x < 0 for x in a):
        raise ValidationError("alcove base point must be nonnegative")
    d = len(a)
    cols = [a]
    cur = list(a)
    for i in range(d):
        cur[i] += 1
        cols.append(tuple(cur))
    return TropMatrix.from_columns(cols)

