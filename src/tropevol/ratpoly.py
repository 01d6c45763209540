"""Tiny exact-polynomial toolbox: evaluation and interpolation.

Polynomials are coefficient lists [c_0, c_1, ...] over Fraction.  Everything
here is a few dozen lines of textbook algebra over Q; it exists because the
package must not round.  One helper takes the divided differences
f[x_0..x_k] in n(n-1)/2 exact divisions.  The interpolant's degree is the
index of the last nonzero one, as the k-th Newton basis polynomial is monic
of degree k; ehrhart.log_map reads its degrees that way.  The tests' oracle
lagrange_interpolate expands a_0 + (x - x_0)(a_1 + (x - x_1)(a_2 + ...))
into the monomial basis by Horner's rule in another O(n^2) operations.
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


def divided_differences(points: Sequence[tuple]) -> tuple:
    """(nodes, [f[x_0], f[x_0, x_1], ..., f[x_0..x_{n-1}]]) as Fractions;
    nodes must be pairwise distinct."""
    xs = [Fraction(p[0]) for p in points]
    dd = [Fraction(p[1]) for p in points]
    n = len(points)
    if len(set(xs)) != n:
        raise ValidationError("interpolation nodes must be distinct")
    # dd[i] becomes f[x_0..x_i]; i runs downwards so dd[i - 1] is still of order j - 1
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    return xs, dd


def newton_eval(xs: Sequence[Fraction], dd: Sequence[Fraction], x) -> Fraction:
    """The Newton form sum_k dd[k] * (x - x_0)...(x - x_{k-1}) at x."""
    acc = Fraction(0)
    for a, node in zip(reversed(dd), reversed(xs)):
        acc = acc * (x - node) + a
    return acc


def lagrange_interpolate(points: Sequence[tuple]) -> tuple:
    """Coefficients of the unique polynomial through (x_i, y_i), exact.

    len(points) nodes give len(points) coefficients, of a polynomial of
    degree < len(points).  Nodes must be pairwise distinct.
    """
    xs, dd = divided_differences(points)
    coeffs = dd[-1:]
    for a, x in zip(reversed(dd[:-1]), reversed(xs[:-1])):
        # coeffs := coeffs * (X - x) + a
        coeffs = [
            a - x * coeffs[0],
            *(lo - x * hi for lo, hi in zip(coeffs, coeffs[1:])),
            coeffs[-1],
        ]
    return tuple(coeffs)
