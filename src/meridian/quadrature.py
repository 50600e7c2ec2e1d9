"""Adaptive Simpson quadrature.

The tolerance sits well below the package's verification thresholds so that
quantities defined by quadrature stay usable inside finite-difference
stencils.
"""

from __future__ import annotations

from typing import Callable

#: Tolerance of one integral, relative where the first estimate exceeds 1
#: in magnitude (rounding noise grows with the integral, and an absolute
#: 1e-15 would bisect such panels to MAX_DEPTH); each bisection halves it.
TOL = 1e-15

#: Bisection depth at which a panel is accepted whatever its error.
MAX_DEPTH = 48


def adaptive_simpson(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f over [a, b] by adaptive Simpson with Richardson correction."""
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a)
    c = 0.5 * (a + b)
    fa, fb, fc = f(a), f(b), f(c)
    whole = (b - a) / 6.0 * (fa + 4.0 * fc + fb)
    return _simpson_rec(f, a, b, fa, fb, fc, whole,
                        TOL * max(1.0, abs(whole)), MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fb, fc, whole, tol, depth):
    c = 0.5 * (a + b)
    d = 0.5 * (a + c)
    e = 0.5 * (c + b)
    fd, fe = f(d), f(e)
    left = (c - a) / 6.0 * (fa + 4.0 * fd + fc)
    right = (b - c) / 6.0 * (fc + 4.0 * fe + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return (_simpson_rec(f, a, c, fa, fc, fd, left, half, depth - 1)
            + _simpson_rec(f, c, b, fc, fb, fe, right, half, depth - 1))
