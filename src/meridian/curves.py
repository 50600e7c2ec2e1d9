"""Ingredient curves for meridian surfaces.

Two objects live here: the directing curve c on the unit sphere (elliptic
geometry) or the unit de Sitter sphere (hyperbolic geometry), realized in
closed form when it is an elliptic circle and otherwise by RK4 integration
of its Frenet system, and the meridian profile m = (f, g) with its
normalization constraint and curvature.
"""

from __future__ import annotations

import functools
import math
from array import array
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from . import jets
from .errors import DomainError, FrameError, ProfileDomainError
from .jets import Jet2, ScalarFn
from .mink4 import Vec4, gram
from .quadrature import adaptive_gauss

#: Profiles keep |normalization quantity| at or above this margin so that
#: kappa_m and every square-root denominator stays finite.
ADMISSIBILITY_MARGIN = 1e-8

#: Fixed RK4 step shared by the Frenet and slope integrators.
DEFAULT_STEP = 1e-3

#: The |v| every directing curve supports; bounds its Frenet tables.
MAX_ARC = 1e4

#: Most Frenet RK4 steps whose kappa abscissae are read by one
#: ScalarFn.values call: bounds the two lists of a block, about 2.3 floats
#: per step each.
_RK4_BLOCK = 1024

#: Largest u_span a slope build integrates: its three tables then hold
#: 10^6 steps, about 100 MB of floats.
_MAX_SLOPE_SPAN = 1000.0

SQRT2 = math.sqrt(2.0)


class Geometry(Enum):
    """Meridian surface type: rotation axis timelike (elliptic, curve on
    S^2(1) in span{e1,e2,e3}) or spacelike (hyperbolic, curve on S^2_1(1)
    in span{e2,e3,e4}).

    The two are built alike; they differ by the one sign
    s = normalization_sign = -<axis, axis> = <n, n>, +1 elliptic and -1
    hyperbolic, which every geometry-dependent formula reads: t' = s kappa
    n - l, V = s (fdot^2 - 1), the meridian normal n_m = sqrt(V) l +
    s fdot axis and the slope formulas of the families.
    """

    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"

    def __init__(self, value: str):
        elliptic = value == "elliptic"
        #: Coordinate slots carrying the directing curve.
        self.sphere_slots = (0, 1, 2) if elliptic else (1, 2, 3)
        #: Coordinate slot of the rotation axis (e4 resp. e1).
        self.axis_slot = 3 if elliptic else 0
        #: The sign s = -<axis, axis> = <n, n>: +1 elliptic, -1 hyperbolic.
        self.normalization_sign = s = 1.0 if elliptic else -1.0
        #: Expected Gram diagonal of the frame {l, t, n}.
        self.curve_signature = (1.0, 1.0, s)
        #: The admissibility rule in words: on fdot, and on a slope's y(f0).
        self.fdot_rule = "fdot^2 > 1" if elliptic else "fdot^2 < 1"
        self.slope_rule = "y(f0)^2 > 1" if elliptic else "0 < y(f0) < 1"

    def normalization(self, fdot: float) -> float:
        """V = fdot^2 - 1 (elliptic) or 1 - fdot^2 (hyperbolic): positive on
        admissible profiles, and gdot^2 by the normalization constraint."""
        return self.normalization_sign * (fdot * fdot - 1.0)


def _embed(geometry: Geometry, triple: Sequence[float]) -> Vec4:
    coords = [0.0, 0.0, 0.0, 0.0]
    for slot, value in zip(geometry.sphere_slots, triple):
        coords[slot] = value
    return Vec4(*coords)


class FrenetFrame(NamedTuple):
    l: Vec4
    t: Vec4
    n: Vec4


def _validate_initial_frame(geometry: Geometry, l0: Vec4, t0: Vec4,
                            n0: Vec4) -> None:
    axis, tol = geometry.axis_slot, 1e-9
    for name, vec in (("l0", l0), ("t0", t0), ("n0", n0)):
        if abs(vec.coords()[axis]) > tol:
            raise FrameError(
                f"{name} must have zero component along the rotation axis")
    expected = geometry.curve_signature
    g = gram([l0, t0, n0])
    for i in range(3):
        for j in range(3):
            want = expected[i] if i == j else 0.0
            if abs(g[i][j] - want) > tol:
                raise FrameError(
                    f"initial frame Gram entry ({i},{j}) = {g[i][j]!r}, "
                    f"expected {want!r}")


class SphericalCurve:
    """Arc-length curve on S^2(1) or S^2_1(1) given by its spherical
    curvature kappa(v), a ScalarFn, and an initial frame: the unit vectors
    at the sphere slots, or one the caller supplies, which is validated.

    constant_kappa is b for a circle built by circle_curve, which knows at
    construction that its kappa is constant; it is None for a curve built
    from any ScalarFn, ScalarFn.constant included.  state(v) is the frame
    as 9 floats (l, t, n at the sphere slots): the elliptic circle's from
    the latitude circle in closed form, every other curve's, the hyperbolic
    circle's included, from Frenet integration (_state_at).  frame(v)
    embeds that state as a FrenetFrame, a NamedTuple of three Vec4 that
    unpacks as l, t, n = curve.frame(v).  The frame table is integrated
    lazily with classical RK4 at DEFAULT_STEP and cached, so repeated
    evaluations are cheap and deterministic.  One loop
    (_rk4) advances the table and takes the remainder step to v.  It reads
    a circle's b once and calls no ScalarFn; for any other kappa it shares
    kappa at the abscissa where one step ends and the next starts, when the
    two are the same float, within one extension of the table, and reads
    the abscissae of each block of _RK4_BLOCK steps with one kappa.values
    call (a HermiteFn walks its knots there).  Each direction's table is a
    flat array('d') of 9 doubles per step: 72 B per step, 7.2 MB per 100
    units of arc at the default step.  The tables extend only from one
    thread: two threads extending at once would append the same step twice.
    Evaluate from a single thread until the v-range of interest has been
    visited once; reads of covered ranges are safe to share.
    """

    def __init__(self, kappa: ScalarFn, geometry: Geometry,
                 l0: Optional[Vec4] = None, t0: Optional[Vec4] = None,
                 n0: Optional[Vec4] = None):
        self.kappa = kappa
        self.geometry = geometry
        self.constant_kappa: Optional[float] = None
        if l0 is None and t0 is None and n0 is None:   # the unit vectors
            state0 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        elif l0 is None or t0 is None or n0 is None:
            raise FrameError("supply all of l0, t0, n0 or none of them")
        else:
            _validate_initial_frame(geometry, l0, t0, n0)
            state0 = tuple(vec.coords()[i] for vec in (l0, t0, n0)
                           for i in geometry.sphere_slots)
        self._fwd = array("d", state0)   # state j at v = j*step: [9j, 9j+9)
        self._bwd = array("d", state0)   # state j at v = -j*step

    # -- integration --------------------------------------------------------

    def _rk4(self, out: array, start: int, steps: int, grid: float, h: float,
             clamp: Optional[tuple[float, float]] = None) -> None:
        """Append to out the states of `steps` classical RK4 steps of
        l' = t, t' = s*kappa*n - l, n' = -kappa*t from out's last 9-float
        state (l, t, n); step i, for i from start, starts at v = i*grid and
        has length h.

        The system acts on each ambient coordinate alike, so the (l, t, n)
        triples of the coordinates a, b, c are nine local floats, each
        triple advanced by the same straight lines, and out grows once per
        step.  kappa is read at v, v + h/2 and v + h, except that a curve
        built constant (the hyperbolic circle) reads its b once, and that a
        step takes its kappa(v) from the previous step's kappa(v + h) in
        this call when the two abscissae are the same float; the midpoint
        is always read.  The abscissae of each block of at most _RK4_BLOCK
        steps are listed in that order, each clamped into `clamp` when it is
        given, and read by one kappa.values call (a HermiteFn walks its
        knots).  Python evaluates s + 0.5*h*k as s + (0.5*h)*k and -k*t as
        (-k)*t, so hoisting 0.5*h, h/6 and -kappa keeps every rounding of
        the textbook stage-by-stage form, and with it every output byte,
        however the steps are split into calls.
        """
        hh, h6 = 0.5 * h, h / 6.0
        sign, b = self.geometry.normalization_sign, self.constant_kappa
        if b is not None:
            m1 = mm = m4 = -b
            s1 = sm = s4 = sign * b
        la, lb, lc, ta, tb, tc, na, nb, nc = out[-9:]
        end = None
        for first in range(start, start + steps, _RK4_BLOCK):
            block = range(first, min(first + _RK4_BLOCK, start + steps))
            if b is None:
                xs, last = [], end
                for i in block:
                    v = i * grid
                    if v != last:
                        xs.append(v)
                    xs.append(v + hh)
                    last = v + h
                    xs.append(last)
                if clamp is not None:
                    lo, hi = clamp
                    xs = [min(max(x, lo), hi) for x in xs]
                read = iter(self.kappa.values(xs)).__next__
            for i in block:
                if b is None:
                    v = i * grid
                    k1 = k4 if v == end else read()
                    km = read()
                    end = v + h
                    k4 = read()
                    s1, sm, s4 = sign * k1, sign * km, sign * k4
                    m1, mm, m4 = -k1, -km, -k4
                at, an = s1 * na - la, m1 * ta
                l2, t2, n2 = la + hh * ta, ta + hh * at, na + hh * an
                bt, bn = sm * n2 - l2, mm * t2
                l3, t3, n3 = la + hh * t2, ta + hh * bt, na + hh * bn
                ct, cn = sm * n3 - l3, mm * t3
                l4, t4, n4 = la + h * t3, ta + h * ct, na + h * cn
                dt, dn = s4 * n4 - l4, m4 * t4
                la, ta, na = (la + h6 * (ta + 2.0 * t2 + 2.0 * t3 + t4),
                              ta + h6 * (at + 2.0 * bt + 2.0 * ct + dt),
                              na + h6 * (an + 2.0 * bn + 2.0 * cn + dn))
                at, an = s1 * nb - lb, m1 * tb
                l2, t2, n2 = lb + hh * tb, tb + hh * at, nb + hh * an
                bt, bn = sm * n2 - l2, mm * t2
                l3, t3, n3 = lb + hh * t2, tb + hh * bt, nb + hh * bn
                ct, cn = sm * n3 - l3, mm * t3
                l4, t4, n4 = lb + h * t3, tb + h * ct, nb + h * cn
                dt, dn = s4 * n4 - l4, m4 * t4
                lb, tb, nb = (lb + h6 * (tb + 2.0 * t2 + 2.0 * t3 + t4),
                              tb + h6 * (at + 2.0 * bt + 2.0 * ct + dt),
                              nb + h6 * (an + 2.0 * bn + 2.0 * cn + dn))
                at, an = s1 * nc - lc, m1 * tc
                l2, t2, n2 = lc + hh * tc, tc + hh * at, nc + hh * an
                bt, bn = sm * n2 - l2, mm * t2
                l3, t3, n3 = lc + hh * t2, tc + hh * bt, nc + hh * bn
                ct, cn = sm * n3 - l3, mm * t3
                l4, t4, n4 = lc + h * t3, tc + h * ct, nc + h * cn
                dt, dn = s4 * n4 - l4, m4 * t4
                lc, tc, nc = (lc + h6 * (tc + 2.0 * t2 + 2.0 * t3 + t4),
                              tc + h6 * (at + 2.0 * bt + 2.0 * ct + dt),
                              nc + h6 * (an + 2.0 * bn + 2.0 * cn + dn))
                out.extend((la, lb, lc, ta, tb, tc, na, nb, nc))

    def _state_at(self, v: float) -> Sequence[float]:
        h = DEFAULT_STEP if v >= 0.0 else -DEFAULT_STEP
        table = self._fwd if v >= 0.0 else self._bwd
        j = int(abs(v) / DEFAULT_STEP)
        # Only the steps ending at v can round a stage abscissa (i*h + h,
        # j*h + rem) past v.  When kappa's domain holds the arc from 0 to v,
        # they read such an abscissa at the domain's end; else kappa raises.
        dom = self.kappa.domain
        clamp = None
        if dom is not None and dom[0] <= min(v, 0.0) <= max(v, 0.0) <= dom[1]:
            clamp = dom
        i = len(table) // 9 - 1
        if i < j:
            self._rk4(table, i, j - 1 - i, h, h)
            self._rk4(table, j - 1, 1, h, h, clamp)
        state = table[9 * j:9 * j + 9]
        rem = v - j * h
        if abs(rem) <= 1e-15:
            return state
        self._rk4(state, j, 1, h, rem, clamp)
        return state[9:]

    # -- public surface ------------------------------------------------------

    def state(self, v: float) -> Sequence[float]:
        """The 9 floats l, t, n at the sphere slots at arc length v,
        |v| <= 1e4 on every curve.  Not checked for finiteness."""
        if not abs(v) <= MAX_ARC:     # NaN fails this test too
            raise DomainError(f"curve parameter {v!r} exceeds supported range")
        b = self.constant_kappa
        if b is not None and self.geometry.normalization_sign > 0.0:
            # the elliptic circle: the latitude circle of spherical radius
            # rho, cot(rho) = b, from l = (sin rho, 0, cos rho)
            r = math.sqrt(1.0 + b * b)
            sr, cr = 1.0 / r, b / r
            w = v / sr
            cw, sw = math.cos(w), math.sin(w)
            return (sr * cw, sr * sw, cr, -sw, cw, 0.0,
                    -cr * cw, -cr * sw, sr)
        return self._state_at(v)

    def frame(self, v: float) -> FrenetFrame:
        """Frenet frame {l, t, n} at arc length v: state(v) embedded."""
        s, g = self.state(v), self.geometry
        return FrenetFrame(*(_embed(g, s[i:i + 3]) for i in (0, 3, 6)))

    def kappa_jet(self, v: float) -> Jet2:
        return self.kappa.jet2(v)


def circle_curve(b: float, geometry: Geometry) -> SphericalCurve:
    """Constant-curvature curve with kappa(v) = b, arc-length
    parameterized; its constant_kappa is b.

    Elliptic: the latitude circle of spherical radius rho with
    cot(rho) = b, in closed form from l = (sin rho, 0, cos rho, 0),
    t = (-0.0, 1, 0, 0), n = (-cos rho, -0.0, sin rho, 0) at v = 0.
    Hyperbolic: realized by Frenet integration from the standard frame
    (e2, e3, e4); arc-length parameterization forces the tangent to be
    spacelike, so every finite b yields a supported (spacelike) orbit.
    """
    if not math.isfinite(b):
        raise DomainError("constant curvature b must be finite")
    curve = SphericalCurve(ScalarFn.constant(float(b), name="kappa"), geometry)
    curve.constant_kappa = float(b)
    return curve


# ---------------------------------------------------------------------------
# Meridian profiles
# ---------------------------------------------------------------------------


class MeridianProfile:
    """Meridian curve m = (f, g): f is one ScalarFn, whose jets give the
    2-jets of the profile, and g comes by quadrature.  The quantities built
    from the jets at one u, among them the meridian curvature, are a
    ProfileColumn.

    The normalization constraint fixes g up to its sign and its additive
    constant g0.  The profile is the representative gdot = sqrt(fdot^2 - 1)
    (elliptic) or sqrt(1 - fdot^2) (hyperbolic), gdot >= 0, which the
    invariant formulas assume; the other sign reflects the axis coordinate,
    an improper Lorentz motion, and gives a congruent surface.  g is not
    memoized: each call adds the integral over a short tail to lazily
    accumulated panel anchors, at most one per 0.25 of domain width, each
    integral by quadrature.adaptive_gauss.  As with the curve tables, the
    anchors (_g_panels) extend only from one thread.
    """

    def __init__(self, f: ScalarFn, geometry: Geometry,
                 domain: tuple[float, float], g0: float = 0.0):
        if domain[1] <= domain[0]:
            raise ProfileDomainError(f"empty profile domain {domain!r}")
        self.f = f
        self.geometry = geometry
        self.domain = (float(domain[0]), float(domain[1]))
        self.g0 = float(g0)
        self._g_panels: list[float] = [0.0]  # cumulative quadrature anchors

    def _check(self, u: float) -> None:
        lo, hi = self.domain
        if not lo <= u <= hi:
            raise DomainError(f"u = {u!r} outside profile domain [{lo}, {hi}]")

    def f_jet(self, u: float) -> Jet2:
        dom = self.domain
        if not dom[0] <= u <= dom[1]:   # then _check words the error
            self._check(u)
        return self.f.jet2(u)

    def gdot(self, u: float) -> float:
        V = self.geometry.normalization(self.f_jet(u).d1)
        if V <= 0.0:
            raise ProfileDomainError(
                f"normalization violated at u = {u!r}", u=u)
        return math.sqrt(V)

    _G_PANEL = 0.25  # fixed anchor spacing for the cumulative quadrature

    def g(self, u: float) -> float:
        """g(u) = g0 + integral of gdot from the domain's left endpoint.

        The integral accumulates over fixed panels plus a short tail from
        the last anchor, each by adaptive 10-point Gauss-Legendre at one
        fixed tolerance (quadrature.adaptive_gauss), so nearby evaluations
        share their anchors and stay usable inside finite-difference
        stencils; a smooth tail costs 30 gdot evaluations.  The bits of g(u)
        do not depend on which u were visited before.
        """
        self._check(u)
        j = int((u - self.domain[0]) / self._G_PANEL)
        while len(self._g_panels) <= j:
            i = len(self._g_panels) - 1
            a = self.domain[0] + i * self._G_PANEL
            self._g_panels.append(
                self._g_panels[i]
                + adaptive_gauss(self.gdot, a, a + self._G_PANEL))
        anchor = self.domain[0] + j * self._G_PANEL
        return self.g0 + self._g_panels[j] + adaptive_gauss(
            self.gdot, anchor, u)


def _violation(geometry: Geometry, u: float, f: float,
               V: float) -> Optional[str]:
    """Why a profile point with value f and normalization quantity V is
    inadmissible, or None when it is fine."""
    if not f > 0.0:     # NaN fails both tests
        return f"profile requires f(u) > 0, violated at u = {u:.9g}"
    if not V >= ADMISSIBILITY_MARGIN:
        return (f"{geometry.value} normalization requires "
                f"{geometry.fdot_rule}, violated at u = {u:.9g}")
    return None


class ProfileColumn:
    """Every profile quantity the invariants use at one u, from a single
    f_jet call: f, its derivatives, V, sqrt(V) (= gdot),
    phi = f fddot + fdot^2 - 1, the meridian curvature kappa_m and the
    u-factors of k and <H,H>.

    Raises ProfileDomainError naming u where f <= 0 or V is below
    ADMISSIBILITY_MARGIN.  The terms of the geometric frame are computed on
    first use, since only general, untrapped points need them.
    """

    def __init__(self, profile: MeridianProfile, u: float):
        j = profile.f_jet(u)
        geometry = profile.geometry
        self.profile, self.u = profile, u
        self.f, self.fdot, self.fddot = f, fdot, fddot = j.v, j.d1, j.d2
        self.V = V = geometry.normalization(fdot)
        msg = _violation(geometry, u, f, V)
        if msg is not None:
            raise ProfileDomainError(msg, u=u)
        self.sign = sign = geometry.normalization_sign
        self.sqV = sqV = math.sqrt(V)
        self.phi = phi = f * fddot + fdot * fdot - 1.0
        self.phi2, self.ff = phi * phi, f * f
        # fddot/sqrt(V) (elliptic), -fddot/sqrt(V) (hyperbolic)
        self.kappa_m = sign * fddot / sqV
        self.k_factor = -(fddot * fddot / V)    # k = k_factor kappa^2 / f^2
        self.H2_denom = 4.0 * f * f * V         # <H,H> = D / H2_denom
        self.gaussK = -fddot / f

    @functools.cached_property
    def frame_terms(self) -> tuple:
        """(gamma, 2 f sqrt(V), f^2 fddot^2, V^2, phi/sqrt(V), its u-rate),
        the rate from the third derivative of f (ScalarFn.d3)."""
        f, fdot, fddot, V, sqV, phi = (self.f, self.fdot, self.fddot, self.V,
                                       self.sqV, self.phi)
        dphi = 3.0 * fdot * fddot + f * self.profile.f.d3(self.u)
        dV = self.sign * 2.0 * fdot * fddot
        return (-fdot / (SQRT2 * f), 2.0 * f * sqV, self.ff * fddot * fddot,
                V * V, phi / sqV, dphi / sqV - 0.5 * phi * dV / (V * sqV))


def grid_points(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi, or the midpoint when n = 1; the
    last one is hi itself, since lo + (hi - lo) can round past it."""
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


def construction_scan(f: ScalarFn, geometry: Geometry, lo: float,
                      hi: float) -> Iterator[tuple[float, Optional[str]]]:
    """The 512 grid_points of [lo, hi], each with the message saying why it
    is inadmissible, or None when it is fine.  Lazy: a caller that stops at
    the first message evaluates f no further."""
    for u in grid_points(lo, hi, 512):
        try:
            j = f.jet2(u)
        except DomainError as exc:
            yield u, str(exc)
            continue
        yield u, _violation(geometry, u, j.v, geometry.normalization(j.d1))


def profile_from_f(f: ScalarFn, geometry: Geometry, g0: float,
                   domain: tuple[float, float]) -> MeridianProfile:
    """Profile from an explicit f with g supplied by adaptive Gauss-Legendre
    quadrature of gdot (see MeridianProfile.g).  The domain is checked by
    construction_scan; the first violation raises ProfileDomainError naming
    the offending u.
    """
    profile = MeridianProfile(f, geometry, domain, g0)
    for u, msg in construction_scan(f, geometry, *profile.domain):
        if msg is not None:
            raise ProfileDomainError(msg, u=u)
    return profile


#: What a read of the slope y (or of its jet) raises where y has no value.
_SLOPE_READ_ERRORS = (DomainError, ValueError, ZeroDivisionError)


def _slope_value_ok(yv: float, t: float, geometry: Geometry) -> bool:
    """Whether the slope value yv = y(t) keeps the profile admissible at f = t:
    t > 0, yv finite, V(yv) >= ADMISSIBILITY_MARGIN and, where s < 0
    (hyperbolic), yv > 0.  A NaN t passes the test on t.  The one
    admissibility predicate of a slope build."""
    return not (t <= 0.0 or not math.isfinite(yv)
                or geometry.normalization(yv) < ADMISSIBILITY_MARGIN
                or (geometry.normalization_sign < 0.0 and yv <= 0.0))


def _slope_admissible(y, t: float, geometry: Geometry) -> float:
    """Value y(t) if the slope keeps the profile admissible there, else NaN;
    y is the slope ScalarFn, or any function of t that gives its value."""
    try:
        yv = y(t)
    except _SLOPE_READ_ERRORS:
        return math.nan
    return yv if _slope_value_ok(yv, t, geometry) else math.nan


def _slope_rate(geometry: Geometry, j: Jet2) -> float:
    """dV/dt of V(y(t)) = s (y^2 - 1) at t, from the jet j of y there."""
    return geometry.normalization_sign * 2.0 * j.v * j.d1


def _slope_rate_at(y: ScalarFn, geometry: Geometry,
                   t: float) -> Optional[float]:
    """_slope_rate from one jet of y at t, or None where y has none."""
    try:
        return _slope_rate(geometry, y.jet2(t))
    except _SLOPE_READ_ERRORS:
        return None


def _step_dips_inadmissible(y: ScalarFn, geometry: Geometry, a: float,
                            b: float, da, db) -> bool:
    """Whether the normalization margin is violated strictly between a and b
    (in either order) even though both are admissible; da and db are their
    rates by _slope_rate, and None there counts as a violation.

    The margin quantity V(t) can dip through zero inside a single step (it
    is quadratic near a simple root of 1 - y^2); catch that by locating an
    interior extremum of V via a sign change of dV/dt and testing it.
    """
    if da is None or db is None:
        return True
    if da == 0.0 or db == 0.0 or (da < 0.0) == (db < 0.0):
        return False
    for _ in range(60):
        mid = 0.5 * (a + b)
        dm = _slope_rate_at(y, geometry, mid)
        if dm is None:
            return True
        if (dm < 0.0) == (da < 0.0):
            a = mid
        else:
            b = mid
    return math.isnan(_slope_admissible(y, 0.5 * (a + b), geometry))


def _slope_table(
        y: ScalarFn, f0: float, geometry: Geometry,
        u_span: float) -> tuple[list[float], list[float], list[float]]:
    """RK4 table of fdot = y(f) from f0: the abscissae us = i*DEFAULT_STEP,
    the values fs and the slopes ds = y(fs), up to u_span or to the last
    step that keeps the profile admissible and its cubic Hermite read
    monotone; y(f0) itself must be admissible for the geometry (y^2 > 1
    elliptic, 0 < y < 1 hyperbolic).

    An accepted step reads y three times, once per inner RK4 stage
    (y(t), a float), and one jet of y at the new point, whose value is
    the new slope and whose derivative gives the rate of V there; the
    start reads y(f0) and its jet.  Each read is tested by
    _slope_value_ok as it comes, and a step stops at its first
    inadmissible read.  Python evaluates f + 0.5*step*k as
    f + (0.5*step)*k, so hoisting 0.5*step and step/6 keeps every
    rounding of the textbook stage-by-stage form.
    """
    if not 0.0 < u_span < math.inf:
        raise ValueError("u_span must be positive and finite")
    if u_span > _MAX_SLOPE_SPAN:
        raise DomainError(f"u_span = {u_span:.9g} exceeds "
                          f"{_MAX_SLOPE_SPAN:g}, the longest slope build")
    d0 = _slope_admissible(y, f0, geometry)
    if math.isnan(d0):
        raise ProfileDomainError(f"slope inadmissible at f0 = {f0!r}: "
                                 f"geometry requires {geometry.slope_rule}")

    step = DEFAULT_STEP
    hh, h6 = 0.5 * step, step / 6.0
    ok = _slope_value_ok
    n_steps = max(1, round(u_span / step))
    us, fs, ds = [0.0], [f0], [d0]
    f, k1, dV = f0, d0, _slope_rate_at(y, geometry, f0)
    for i in range(n_steps):
        # k1 is the slope at the last accepted point
        try:
            t = f + hh * k1
            k2 = y(t)
            if not ok(k2, t, geometry):
                break
            t = f + hh * k2
            k3 = y(t)
            if not ok(k3, t, geometry):
                break
            t = f + step * k3
            k4 = y(t)
            if not ok(k4, t, geometry):
                break
            f_next = f + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            j = y.jet2(f_next)
        except _SLOPE_READ_ERRORS:
            break
        d_next = j.v
        if not ok(d_next, f_next, geometry):
            break
        # the cubic through (f, k1) and (f_next, d_next) is monotone, so f
        # stays between the two, when both step*d/df lie in (0, 3]
        # (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980)
        df = f_next - f
        if not (df != 0.0 and 0.0 < step * k1 / df <= 3.0
                and 0.0 < step * d_next / df <= 3.0):
            break
        dV_next = _slope_rate(geometry, j)
        if _step_dips_inadmissible(y, geometry, f, f_next, dV, dV_next):
            break
        f, k1, dV = f_next, d_next, dV_next
        us.append((i + 1) * step)
        fs.append(f)
        ds.append(d_next)
    if len(us) < 2:
        raise ProfileDomainError(
            f"slope trajectory from f0 = {f0!r} leaves the admissible set "
            "within one step")
    return us, fs, ds


def profile_from_slope_ode(y: ScalarFn, f0: float, geometry: Geometry,
                           g0: float, u_span: float) -> MeridianProfile:
    """Profile from the substitution fdot = y(f), integrated by RK4 at
    DEFAULT_STEP up to u_span <= 1000.

    f is the cubic Hermite read of the RK4 table (dense output); fdot,
    fddot = y(f)*y'(f) and the third derivative come exactly from the jets
    of y at that f.  Integration stops early with a truncated domain as soon
    as admissibility fails (see _slope_table).
    """
    us, fs, ds = _slope_table(y, f0, geometry, u_span)
    read = jets.hermite_fn(us, fs, ds, name="f")

    def body(u):
        if not isinstance(u, Jet2):
            return read(u)
        # u is the seed var(u), so the jet of f is (f, y(f), y(f) y'(f))
        fv = read(u.v)
        yj = y.jet2(fv)
        return Jet2(fv, yj.v, yj.v * yj.d1)

    def d3(u):
        yj = y.jet2(read(u))
        return yj.v * yj.d1 * yj.d1 + yj.v * yj.v * yj.d2

    f = ScalarFn(body, domain=read.domain, name="f", d3=d3)
    return MeridianProfile(f, geometry, read.domain, g0)
