"""Second-order jets with exact arithmetic, plus finite-difference oracles.

A ``Jet2`` carries (value, first derivative, second derivative) of a scalar
function at a point and propagates exactly through arithmetic and the
elementary functions below.  The finite-difference routines are deliberately
independent of the jet arithmetic so the two can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DomainError
from .mink4 import Vec4


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and first two derivatives of a scalar function at a point."""

    v: float
    d1: float
    d2: float

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.v + other.v, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.v + other, self.d1, self.d2)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.v - other.v, self.d1 - other.d1, self.d2 - other.d2)
        return Jet2(self.v - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet2(other - self.v, -self.d1, -self.d2)

    def __neg__(self):
        return Jet2(-self.v, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.v * other.v,
                self.d1 * other.v + self.v * other.d1,
                self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
            )
        return Jet2(self.v * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            w = other.v
            if w == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            q = self.v / w
            q1 = (self.d1 - q * other.d1) / w
            q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / w
            return Jet2(q, q1, q2)
        return Jet2(self.v / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        return Jet2(other, 0.0, 0.0) / self


def const(x: float) -> Jet2:
    return Jet2(float(x), 0.0, 0.0)


def var(u: float) -> Jet2:
    """Jet of the identity function at u: the seed for evaluating a 2-jet."""
    return Jet2(float(u), 1.0, 0.0)


def _chain(x: Jet2, g: float, dg: float, d2g: float) -> Jet2:
    """Compose an elementary g (with derivatives at x.v) after the jet x."""
    return Jet2(g, dg * x.d1, d2g * x.d1 * x.d1 + dg * x.d2)


def sqrt(x):
    jet = isinstance(x, Jet2)
    v = x.v if jet else x
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive value {v!r}")
    r = math.sqrt(v)
    return _chain(x, r, 0.5 / r, -0.25 / (r * v)) if jet else r


def sin(x):
    if not isinstance(x, Jet2):
        return math.sin(x)
    s, c = math.sin(x.v), math.cos(x.v)
    return _chain(x, s, c, -s)


def cos(x):
    if not isinstance(x, Jet2):
        return math.cos(x)
    s, c = math.sin(x.v), math.cos(x.v)
    return _chain(x, c, -s, -c)


def sinh(x):
    if not isinstance(x, Jet2):
        return math.sinh(x)
    s, c = math.sinh(x.v), math.cosh(x.v)
    return _chain(x, s, c, s)


def cosh(x):
    if not isinstance(x, Jet2):
        return math.cosh(x)
    s, c = math.sinh(x.v), math.cosh(x.v)
    return _chain(x, c, s, c)


def exp(x):
    if not isinstance(x, Jet2):
        return math.exp(x)
    e = math.exp(x.v)
    return _chain(x, e, e, e)


def asin(x):
    jet = isinstance(x, Jet2)
    v = x.v if jet else x
    if not -1.0 < v < 1.0:
        raise DomainError(f"asin argument {v!r} outside (-1, 1)")
    if not jet:
        return math.asin(v)
    w = 1.0 - v * v
    d = 1.0 / math.sqrt(w)
    return _chain(x, math.asin(v), d, v * d / w)


def asinh(x):
    if not isinstance(x, Jet2):
        return math.asinh(x)
    w = 1.0 + x.v * x.v
    d = 1.0 / math.sqrt(w)
    return _chain(x, math.asinh(x.v), d, -x.v * d / w)


class ScalarFn:
    """Scalar function of one variable exposing exact 2-jets.

    ``fn`` is one body for both evaluations, written with the arithmetic and
    the elementary functions of this module: a Jet2 in gives a Jet2 out, a
    float in gives the bits of the jet's value.  Squares are written
    ``x * x``: a Jet2 has no ``**``, which on a float calls libm's pow.
    ``domain`` is an optional closed interval; evaluation outside raises
    DomainError.  ``d3`` optionally supplies the exact third derivative
    where needed.
    """

    __slots__ = ("_fn", "domain", "name", "_d3")

    def __init__(self,
                 fn: Callable,
                 domain: Optional[tuple[float, float]] = None,
                 name: str = "",
                 d3: Optional[Callable[[float], float]] = None):
        self._fn = fn
        self.domain = domain
        self.name = name
        self._d3 = d3

    def _check(self, u: float) -> None:
        if self.domain is not None:
            lo, hi = self.domain
            if not lo <= u <= hi:
                raise DomainError(
                    f"{self.name or 'function'} evaluated at {u!r} outside "
                    f"domain [{lo!r}, {hi!r}]")

    def jet2(self, u: float) -> Jet2:
        self._check(u)
        out = self._fn(var(u))
        return out if isinstance(out, Jet2) else const(out)

    def __call__(self, u: float) -> float:
        self._check(u)
        return self._fn(u)

    def d3(self, u: float) -> Optional[float]:
        """Exact third derivative if one was wired in, else None."""
        if self._d3 is None:
            return None
        self._check(u)
        return self._d3(u)

    def scaled(self, factor: float) -> "ScalarFn":
        """This function multiplied by a constant factor."""
        d3 = None if self._d3 is None else (lambda u: self._d3(u) * factor)
        return ScalarFn(lambda t: self._fn(t) * factor, domain=self.domain,
                        name=f"{self.name}*{factor}" if self.name else "",
                        d3=d3)

    @staticmethod
    def constant(c: float, name: str = "") -> "ScalarFn":
        c = float(c)
        return ScalarFn(lambda t: c, name=name or f"const {c}",
                        d3=lambda u: 0.0)


def hermite_fn(xs: list[float], ys: list[float], ds: list[float],
               name: str = "") -> ScalarFn:
    """Cubic Hermite interpolant through (x, value, derivative) samples,
    exposed as a ScalarFn (second derivatives are those of the cubic); it
    reads tabulated kappa and the RK4 table of a slope profile alike."""
    if not (len(xs) == len(ys) == len(ds)) or len(xs) < 2:
        raise ValueError("hermite_fn needs >= 2 aligned samples")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sample abscissae must be strictly increasing")

    from bisect import bisect_right

    def body(u):
        jet = isinstance(u, Jet2)
        x = u.v if jet else u
        i = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
        h = xs[i + 1] - xs[i]
        s = (x - xs[i]) / h
        s2, s3 = s * s, s * s * s
        f0, f1, d0, d1 = ys[i], ys[i + 1], ds[i], ds[i + 1]
        val = ((2.0 * s3 - 3.0 * s2 + 1.0) * f0 + (s3 - 2.0 * s2 + s) * h * d0
               + (-2.0 * s3 + 3.0 * s2) * f1 + (s3 - s2) * h * d1)
        if not jet:
            return val
        dv = ((6 * s - 6) * s * f0 + ((3 * s - 4) * s + 1) * h * d0
              + (6 - 6 * s) * s * f1 + (3 * s - 2) * s * h * d1) / h
        d2v = ((12 * s - 6) * f0 + (6 * s - 4) * h * d0
               + (6 - 12 * s) * f1 + (6 * s - 2) * h * d1) / (h * h)
        return Jet2(val, dv, d2v)

    return ScalarFn(body, domain=(xs[0], xs[-1]), name=name)


def default_step(u: float) -> float:
    """Relative central-difference step guarding large arguments."""
    return max(1e-5, 1e-5 * abs(u))


def lift2(fn: ScalarFn, u: float) -> Jet2:
    """(f(u), f'(u), f''(u)) with derivatives exact for analytic families."""
    return fn.jet2(u)


def fd_jet2(fn: ScalarFn, u: float, h: Optional[float] = None) -> Jet2:
    """Central-difference 2-jet, the independent oracle for lift2.

    d1 = (f(u+h) - f(u-h)) / 2h, d2 = (f(u+h) - 2 f(u) + f(u-h)) / h^2,
    both with O(h^2) truncation error.
    """
    if h is None:
        h = default_step(u)
    if h <= 0.0:
        raise ValueError("h must be positive")
    fm, f0, fp = fn(u - h), fn(u), fn(u + h)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))


def third_derivative(fn: ScalarFn, u: float) -> float:
    """f'''(u), exact when the function carries one, else a central
    difference of the jet's second derivative at default_step(u)."""
    exact = fn.d3(u)
    if exact is not None:
        return exact
    h = default_step(u)
    return (fn.jet2(u + h).d2 - fn.jet2(u - h).d2) / (2.0 * h)


def fd_partials2(grid: Callable[..., Iterable[Sequence[Vec4]]],
                 u: float, v: float,
                 h: Optional[float] = None) -> dict[str, Vec4]:
    """Componentwise central-difference partials of a (u,v) -> Vec4 map.

    ``grid(us, vs)`` evaluates the map on us x vs and yields one row over vs
    per u; it is called once on the 3x3 stencil (u-h, u, u+h) x
    (v-h, v, v+h).  Returns z_u, z_v, z_uu, z_uv, z_vv; the mixed partial
    uses the 4-point cross stencil.
    """
    if h is None:
        h = default_step(max(abs(u), abs(v)))
    if h <= 0.0:
        raise ValueError("h must be positive")
    (zmm, zmu, zmp), (zmv, z00, zpv), (zpm, zpu, zpp) = grid(
        (u - h, u, u + h), (v - h, v, v + h))
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    return {
        "z_u": (zpu - zmu) * inv2h,
        "z_v": (zpv - zmv) * inv2h,
        "z_uu": (zpu - 2.0 * z00 + zmu) * invh2,
        "z_vv": (zpv - 2.0 * z00 + zmv) * invh2,
        "z_uv": (zpp - zpm - zmp + zmm) * (0.25 * invh2),
    }
