"""Tiny exact-polynomial toolbox: evaluation and interpolation.

Polynomials are coefficient lists [c_0, c_1, ...] over Fraction.  Everything
here is a few dozen lines of textbook algebra over Q; it exists because the
package must not round.
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

    len(points) nodes give a polynomial of degree < len(points).  Nodes must
    be pairwise distinct.
    """
    xs = [Fraction(p[0]) for p in points]
    ys = [Fraction(p[1]) for p in points]
    n = len(points)
    if len(set(xs)) != n:
        raise ValidationError("interpolation nodes must be distinct")
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # numerator polynomial prod_{j != i} (x - x_j), then scale
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = _poly_mul_linear(basis, -xs[j])
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    return tuple(coeffs)


def _poly_mul_linear(coeffs, constant):
    """Multiply by (x + constant)."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] += c * constant
        out[k + 1] += c
    return out

