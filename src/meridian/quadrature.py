"""Adaptive quadrature of the profile's gdot.

``adaptive_gauss`` is the package's rule: 10-point Gauss-Legendre panels,
bisected where one panel and its two halves disagree, at one fixed
tolerance (Davis & Rabinowitz, *Methods of Numerical Integration*, 1984).
The tolerance sits well below the package's verification thresholds so that
quantities defined by quadrature stay usable inside finite-difference
stencils.

``adaptive_simpson`` is another name for ``adaptive_gauss``, kept because
the benchmark's tracer finds the rule under that name.
"""

from __future__ import annotations

from typing import Callable

#: Tolerance of one integral, relative where the first estimate exceeds 1
#: in magnitude (rounding noise grows with the integral, and an absolute
#: 1e-15 would bisect such panels to MAX_DEPTH).
TOL = 1e-15

#: Bisection depth at which a panel is accepted whatever its error.
MAX_DEPTH = 48


#: (node, weight) of the 10-point Gauss-Legendre rule on [-1, 1] for its
#: five positive nodes; the roots of P_10 and 2 / ((1 - x^2) P_10'(x)^2),
#: to 25 digits.
_GL10 = ((0.1488743389816312108848260, 0.2955242247147528701738930),
         (0.4333953941292471907992659, 0.2692667193099963550912269),
         (0.6794095682990244062343274, 0.2190863625159820439955349),
         (0.8650633666889845107320967, 0.1494513491505805931457763),
         (0.9739065285171717200779640, 0.0666713443086881375935688))


def _gauss10(f: Callable[[float], float], a: float, b: float) -> float:
    """10-point Gauss-Legendre estimate of the integral of f over [a, b]:
    exact for polynomials of degree 19 or less."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    return h * sum(w * (f(c - h * x) + f(c + h * x)) for x, w in _GL10)


def adaptive_gauss(f: Callable[[float], float], a: float, b: float) -> float:
    """Integrate f over [a, b] by adaptive 10-point Gauss-Legendre.

    A panel is accepted as the sum of its two halves when that sum differs
    from the panel's own estimate by at most TOL * max(1, |first estimate|);
    otherwise each half is refined at that same tolerance, to MAX_DEPTH
    bisections.  A smooth integrand costs 30 evaluations.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_gauss(f, b, a)
    whole = _gauss10(f, a, b)
    return _gauss_rec(f, a, b, whole, TOL * max(1.0, abs(whole)), MAX_DEPTH)


def _gauss_rec(f, a, b, whole, tol, depth):
    c = 0.5 * (a + b)
    left, right = _gauss10(f, a, c), _gauss10(f, c, b)
    if depth <= 0 or abs(left + right - whole) <= tol:
        return left + right
    return (_gauss_rec(f, a, c, left, tol, depth - 1)
            + _gauss_rec(f, c, b, right, tol, depth - 1))


#: The benchmark tracer's target (bench/tracing.py wraps this name) until a
#: benchmark-only change names its span after adaptive_gauss.
adaptive_simpson = adaptive_gauss
