"""Second-order jets with exact arithmetic, plus finite-difference oracles.

A ``Jet2`` carries (value, first derivative, second derivative) of a scalar
function at a point and propagates exactly through arithmetic and the
elementary functions below.  The finite-difference routines are deliberately
independent of the jet arithmetic so the two can cross-check each other.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError
from .mink4 import Vec4

#: Builds a Jet2 from a (v, d1, d2) tuple without the Python-level __new__
#: that NamedTuple generates; this module's hot paths build results by it.
_new = tuple.__new__


class Jet2(NamedTuple):
    """Value and first two derivatives of a scalar function at a point: an
    immutable (v, d1, d2) tuple, equal and hashed by value."""

    v: float
    d1: float
    d2: float

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return _new(Jet2, (self.v + other.v, self.d1 + other.d1,
                               self.d2 + other.d2))
        return _new(Jet2, (self.v + other, self.d1, self.d2))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return _new(Jet2, (self.v - other.v, self.d1 - other.d1,
                               self.d2 - other.d2))
        return _new(Jet2, (self.v - other, self.d1, self.d2))

    def __rsub__(self, other):
        return _new(Jet2, (other - self.v, -self.d1, -self.d2))

    def __neg__(self):
        return _new(Jet2, (-self.v, -self.d1, -self.d2))

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return _new(Jet2, (
                self.v * other.v,
                self.d1 * other.v + self.v * other.d1,
                self.d2 * other.v + 2.0 * self.d1 * other.d1 + self.v * other.d2,
            ))
        return _new(Jet2, (self.v * other, self.d1 * other, self.d2 * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            w = other.v
            if w == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            q = self.v / w
            q1 = (self.d1 - q * other.d1) / w
            q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / w
            return _new(Jet2, (q, q1, q2))
        return _new(Jet2, (self.v / other, self.d1 / other, self.d2 / other))

    def __rtruediv__(self, other):
        return _new(Jet2, (other, 0.0, 0.0)) / self


def const(x: float) -> Jet2:
    return _new(Jet2, (float(x), 0.0, 0.0))


def var(u: float) -> Jet2:
    """Jet of the identity function at u: the seed for evaluating a 2-jet."""
    return _new(Jet2, (float(u), 1.0, 0.0))


def _chain(x: Jet2, g: float, dg: float, d2g: float) -> Jet2:
    """Compose an elementary g (with derivatives at x.v) after the jet x."""
    return _new(Jet2, (g, dg * x.d1, d2g * x.d1 * x.d1 + dg * x.d2))


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
    DomainError.  A read (call, jet2, values) tests the domain inline and
    calls _check, the one place that words the error, only for a u outside
    it (NaN included).  ``d3`` optionally supplies the exact third
    derivative; without it, the method d3 takes a central difference.
    ``values`` reads a batch of floats with the bits of one read each; a
    subclass may read the batch its own way (HermiteFn walks its knots).
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
        dom = self.domain
        if dom is not None and not dom[0] <= u <= dom[1]:
            self._check(u)
        out = self._fn(var(u))
        return out if isinstance(out, Jet2) else const(out)

    def __call__(self, u: float) -> float:
        dom = self.domain
        if dom is not None and not dom[0] <= u <= dom[1]:
            self._check(u)
        return self._fn(u)

    def values(self, xs: Sequence[float]) -> list[float]:
        """[self(x) for x in xs] in one call, with the same bits; at the
        first x (in the given order) outside the domain, the DomainError
        that self(x) raises."""
        fn = self._fn
        if self.domain is None:
            return [fn(x) for x in xs]
        lo, hi = self.domain
        # _check raises for every x it is called with here
        return [fn(x) if lo <= x <= hi else self._check(x) for x in xs]

    def d3(self, u: float) -> float:
        """Third derivative at u: the exact one where it was wired in, else
        the central difference of the jet's second derivative at
        h = default_step(u), or, where u - h or u + h leaves the domain, the
        one-sided second-order difference from inside it."""
        if self._d3 is not None:
            self._check(u)
            return self._d3(u)
        h = default_step(u)
        lo, hi = self.domain or (-math.inf, math.inf)
        if lo <= u - h and u + h <= hi:
            return (self.jet2(u + h).d2 - self.jet2(u - h).d2) / (2.0 * h)
        s = -h if u + h > hi else h
        return (4.0 * self.jet2(u + s).d2 - 3.0 * self.jet2(u).d2
                - self.jet2(u + 2.0 * s).d2) / (2.0 * s)

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


def _hermite_cubic(s: float, h: float, f0: float, f1: float, d0: float,
                   d1: float) -> float:
    """The cubic Hermite value at s = (x - a) / h on a segment [a, a + h]
    with end values f0, f1 and end derivatives d0, d1."""
    s2, s3 = s * s, s * s * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * f0 + (s3 - 2.0 * s2 + s) * h * d0
            + (-2.0 * s3 + 3.0 * s2) * f1 + (s3 - s2) * h * d1)


class HermiteFn(ScalarFn):
    """The cubic Hermite interpolant of hermite_fn, holding its knots (xs,
    values ys, derivatives ds).  Its body closes over the knot lists, not
    over the object: no reference cycle keeps the knots alive."""

    __slots__ = ("_xs", "_ys", "_ds")

    def __init__(self, body: Callable, xs: list[float], ys: list[float],
                 ds: list[float], name: str = ""):
        super().__init__(body, domain=(xs[0], xs[-1]), name=name)
        self._xs, self._ys, self._ds = xs, ys, ds

    def values(self, us: Sequence[float]) -> list[float]:
        """ScalarFn.values by a walk over the knots, bisecting them only
        where x leaves the segment of the x before it."""
        xs, ys, ds = self._xs, self._ys, self._ds
        n = len(xs)
        lo, hi = self.domain
        out = []
        put = out.append
        a = b = math.inf    # [a, b): the segment of the last x read
        for x in us:
            if not a <= x < b:
                if not lo <= x <= hi:     # NaN fails this test too
                    self._check(x)
                i = bisect_right(xs, x, 1, n - 1) - 1
                a, b = xs[i], xs[i + 1]
                h = b - a
                f0, f1, d0, d1 = ys[i], ys[i + 1], ds[i], ds[i + 1]
                if i == n - 2:      # the last segment holds its right knot
                    b = math.nextafter(b, math.inf)
            put(_hermite_cubic((x - a) / h, h, f0, f1, d0, d1))
        return out


def hermite_fn(xs: list[float], ys: list[float], ds: list[float],
               name: str = "") -> HermiteFn:
    """Cubic Hermite interpolant through (x, value, derivative) samples,
    a HermiteFn (second derivatives are those of the cubic); it reads
    tabulated kappa and the RK4 table of a slope profile alike.

    A knot belongs to the segment on its right, the last knot to the last
    segment.  A read bisects the knots for its segment; the batch read
    (HermiteFn.values) walks them, and both evaluate the one
    _hermite_cubic.
    """
    if not (len(xs) == len(ys) == len(ds)) or len(xs) < 2:
        raise ValueError("hermite_fn needs >= 2 aligned samples")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("sample abscissae must be strictly increasing")
    n = len(xs)

    def body(u):
        jet = isinstance(u, Jet2)
        x = u.v if jet else u
        i = bisect_right(xs, x, 1, n - 1) - 1    # the segment, 0 <= i <= n-2
        h = xs[i + 1] - xs[i]
        s = (x - xs[i]) / h
        f0, f1, d0, d1 = ys[i], ys[i + 1], ds[i], ds[i + 1]
        val = _hermite_cubic(s, h, f0, f1, d0, d1)
        if not jet:
            return val
        dv = ((6 * s - 6) * s * f0 + ((3 * s - 4) * s + 1) * h * d0
              + (6 - 6 * s) * s * f1 + (3 * s - 2) * s * h * d1) / h
        d2v = ((12 * s - 6) * f0 + (6 * s - 4) * h * d0
               + (6 - 12 * s) * f1 + (6 * s - 2) * h * d1) / (h * h)
        return _new(Jet2, (val, dv, d2v))

    return HermiteFn(body, xs, ys, ds, name=name)


def default_step(u: float) -> float:
    """Relative central-difference step guarding large arguments."""
    return max(1e-5, 1e-5 * abs(u))


def fd_jet2(fn: ScalarFn, u: float, h: Optional[float] = None) -> Jet2:
    """Central-difference 2-jet, the independent oracle for ScalarFn.jet2.

    d1 = (f(u+h) - f(u-h)) / 2h, d2 = (f(u+h) - 2 f(u) + f(u-h)) / h^2,
    both with O(h^2) truncation error.
    """
    if h is None:
        h = default_step(u)
    if h <= 0.0:
        raise ValueError("h must be positive")
    fm, f0, fp = fn(u - h), fn(u), fn(u + h)
    return Jet2(f0, (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h))


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
