"""Tiny exact-polynomial toolbox: evaluation and interpolation.

Polynomials are coefficient lists [c_0, c_1, ...] over Fraction.  Everything
here is a few dozen lines of textbook algebra over Q; it exists because the
package must not round.  Interpolation goes through the Newton form: the
divided differences f[x_0..x_k] take n(n-1)/2 exact divisions, and Horner's
rule expands a_0 + (x - x_0)(a_1 + (x - x_1)(a_2 + ...)) into the monomial
basis in another O(n^2) operations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ValidationError


def poly_eval(coeffs: Sequence[Fraction], x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def poly_degree(coeffs: Sequence[Fraction]) -> int:
    """Index of the highest nonzero coefficient; -1 for the zero polynomial."""
    deg = -1
    for i, c in enumerate(coeffs):
        if c != 0:
            deg = i
    return deg


def lagrange_interpolate(points: Sequence[tuple]) -> tuple:
    """Coefficients of the unique polynomial through (x_i, y_i), exact.

    len(points) nodes give len(points) coefficients, of a polynomial of
    degree < len(points).  Nodes must be pairwise distinct.
    """
    xs = [Fraction(p[0]) for p in points]
    dd = [Fraction(p[1]) for p in points]
    n = len(points)
    if len(set(xs)) != n:
        raise ValidationError("interpolation nodes must be distinct")
    # dd[i] becomes f[x_0..x_i]; i runs downwards so dd[i - 1] is still of order j - 1
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = dd[-1:]
    for a, x in zip(reversed(dd[:-1]), reversed(xs[:-1])):
        # coeffs := coeffs * (X - x) + a
        coeffs = [
            a - x * coeffs[0],
            *(lo - x * hi for lo, hi in zip(coeffs, coeffs[1:])),
            coeffs[-1],
        ]
    return tuple(coeffs)
