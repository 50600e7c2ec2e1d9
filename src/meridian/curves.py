"""Ingredient curves for meridian surfaces.

Two objects live here: the directing curve c on the unit sphere (elliptic
geometry) or the unit de Sitter sphere (hyperbolic geometry), realized by
RK4 integration of its Frenet system, and the meridian profile m = (f, g)
with its normalization constraint and curvature.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from . import jets
from .errors import (DomainError, FrameError, MisuseError,
                     ProfileDomainError, UnsupportedGeometryError)
from .jets import Jet2, ScalarFn
from .mink4 import Vec4, gram
from .quadrature import adaptive_simpson

#: Profiles keep |normalization quantity| at or above this margin so that
#: kappa_m and every square-root denominator stays finite.
ADMISSIBILITY_MARGIN = 1e-8

#: Fixed RK4 step shared by the Frenet and slope integrators.
DEFAULT_STEP = 1e-3

_MAX_ARC = 1e4  # runaway guard for lazy Frenet table extension

SQRT2 = math.sqrt(2.0)


class Geometry(Enum):
    """Meridian surface type: rotation axis timelike (elliptic, curve on
    S^2(1) in span{e1,e2,e3}) or spacelike (hyperbolic, curve on S^2_1(1)
    in span{e2,e3,e4})."""

    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"

    @property
    def sphere_slots(self) -> tuple[int, int, int]:
        """Coordinate slots carrying the directing curve."""
        return (0, 1, 2) if self is Geometry.ELLIPTIC else (1, 2, 3)

    @property
    def axis_slot(self) -> int:
        """Coordinate slot of the rotation axis (e4 resp. e1)."""
        return 3 if self is Geometry.ELLIPTIC else 0

    @property
    def frenet_sign(self) -> float:
        """Sign s in the tangent equation t' = s*kappa*n - l."""
        return 1.0 if self is Geometry.ELLIPTIC else -1.0

    @property
    def curve_signature(self) -> tuple[float, float, float]:
        """Expected Gram diagonal of the frame {l, t, n}."""
        return (1.0, 1.0, 1.0) if self is Geometry.ELLIPTIC else (1.0, 1.0, -1.0)

    @property
    def normalization_sign(self) -> float:
        """+1 when the profile constraint reads fdot^2 - 1 > 0 (elliptic),
        -1 when it reads 1 - fdot^2 > 0 (hyperbolic)."""
        return 1.0 if self is Geometry.ELLIPTIC else -1.0

    def normalization(self, fdot: float) -> float:
        """V = fdot^2 - 1 (elliptic) or 1 - fdot^2 (hyperbolic): positive on
        admissible profiles, and gdot^2 by the normalization constraint."""
        return self.normalization_sign * (fdot * fdot - 1.0)


def _embed(geometry: Geometry, triple: Sequence[float]) -> Vec4:
    coords = [0.0, 0.0, 0.0, 0.0]
    for slot, value in zip(geometry.sphere_slots, triple):
        coords[slot] = value
    return Vec4(*coords)


def _project(geometry: Geometry, vec: Vec4) -> tuple[float, float, float]:
    c = vec.coords()
    i, j, k = geometry.sphere_slots
    return (c[i], c[j], c[k])


@dataclass(frozen=True)
class FrenetFrame:
    l: Vec4
    t: Vec4
    n: Vec4


def _default_initial_frame(geometry: Geometry) -> tuple[Vec4, Vec4, Vec4]:
    if geometry is Geometry.ELLIPTIC:
        return (Vec4(1, 0, 0, 0), Vec4(0, 1, 0, 0), Vec4(0, 0, 1, 0))
    return (Vec4(0, 1, 0, 0), Vec4(0, 0, 1, 0), Vec4(0, 0, 0, 1))


def _validate_initial_frame(geometry: Geometry, l0: Vec4, t0: Vec4, n0: Vec4,
                            tol: float = 1e-9) -> None:
    axis = geometry.axis_slot
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
    curvature kappa(v) and an initial frame, realized by Frenet integration.

    The frame table is integrated lazily with fixed-step classical RK4 and
    cached, so repeated evaluations are cheap and deterministic.  Each
    direction's table is a flat array('d') of 9 doubles per step: 72 B per
    step, 7.2 MB per 100 units of arc at the default step.  Extending
    the table counts as construction: evaluate from a single thread until
    the v-range of interest has been visited once; reads of covered ranges
    are safe to share.
    """

    def __init__(self, kappa, geometry: Geometry,
                 l0: Optional[Vec4] = None, t0: Optional[Vec4] = None,
                 n0: Optional[Vec4] = None, step: float = DEFAULT_STEP):
        if step <= 0.0:
            raise ValueError("step must be positive")
        if not isinstance(kappa, ScalarFn):
            kappa = ScalarFn.constant(float(kappa), name="kappa")
        self.kappa = kappa
        self.geometry = geometry
        self.step = step
        if l0 is None and t0 is None and n0 is None:
            l0, t0, n0 = _default_initial_frame(geometry)
        elif l0 is None or t0 is None or n0 is None:
            raise FrameError("supply all of l0, t0, n0 or none of them")
        _validate_initial_frame(geometry, l0, t0, n0)
        state0 = (_project(geometry, l0) + _project(geometry, t0)
                  + _project(geometry, n0))
        self._fwd = array("d", state0)   # state j at v = j*step: [9j, 9j+9)
        self._bwd = array("d", state0)   # state j at v = -j*step
        self._closed_frame = None    # optional exact realization

    # -- integration --------------------------------------------------------

    def _rk4_step(self, v: float, s: Sequence[float], h: float,
                  kappa: Callable[[float], float]) -> list[float]:
        """One classical RK4 step of l' = t, t' = sign*kappa*n - l,
        n' = -kappa*t from the 9-float state s = (l, t, n) at v.

        The system acts on each ambient coordinate alike, so each coordinate's
        (l, t, n) triple is advanced on its own; kappa is evaluated once at
        v, v + h/2 and v + h.  Python evaluates s + 0.5*h*k as
        s + (0.5*h)*k, so hoisting 0.5*h and h/6 keeps every rounding of the
        textbook stage-by-stage form, and with it every output byte.
        """
        hh, h6 = 0.5 * h, h / 6.0
        k1 = kappa(v)
        km = kappa(v + hh)
        k4 = kappa(v + h)
        sign = self.geometry.frenet_sign
        s1, sm, s4 = sign * k1, sign * km, sign * k4
        out = [0.0] * 9
        for i in range(3):
            l, t, n = s[i], s[i + 3], s[i + 6]
            at, an = s1 * n - l, -k1 * t
            l2, t2, n2 = l + hh * t, t + hh * at, n + hh * an
            bt, bn = sm * n2 - l2, -km * t2
            l3, t3, n3 = l + hh * t2, t + hh * bt, n + hh * bn
            ct, cn = sm * n3 - l3, -km * t3
            l4, t4, n4 = l + h * t3, t + h * ct, n + h * cn
            dt, dn = s4 * n4 - l4, -k4 * t4
            out[i] = l + h6 * (t + 2.0 * t2 + 2.0 * t3 + t4)
            out[i + 3] = t + h6 * (at + 2.0 * bt + 2.0 * ct + dt)
            out[i + 6] = n + h6 * (an + 2.0 * bn + 2.0 * cn + dn)
        return out

    def _state_at(self, v: float) -> Sequence[float]:
        if abs(v) > _MAX_ARC:
            raise DomainError(f"curve parameter {v!r} exceeds supported range")
        h = self.step if v >= 0.0 else -self.step
        table = self._fwd if v >= 0.0 else self._bwd
        j = int(abs(v) / self.step)
        # Only the steps ending at v can round a stage abscissa (i*h + h,
        # j*h + rem) past v.  When kappa's domain holds the arc from 0 to v,
        # they read such an abscissa at the domain's end; else kappa raises.
        kappa = last = self.kappa
        dom = kappa.domain
        if dom is not None and dom[0] <= min(v, 0.0) <= max(v, 0.0) <= dom[1]:
            last = lambda x: kappa(min(max(x, dom[0]), dom[1]))
        for i in range(len(table) // 9 - 1, j):
            table.extend(self._rk4_step(i * h, table[-9:], h,
                                        last if i == j - 1 else kappa))
        state = table[9 * j:9 * j + 9]
        rem = v - j * h
        if abs(rem) > 1e-15:
            state = self._rk4_step(j * h, state, rem, last)
        return state

    # -- public surface ------------------------------------------------------

    def frame(self, v: float) -> FrenetFrame:
        """Frenet frame {l, t, n} at arc length v."""
        if self._closed_frame is not None:
            l, t, n = self._closed_frame(v)
            return FrenetFrame(l, t, n)
        s = self._state_at(v)
        g = self.geometry
        return FrenetFrame(_embed(g, s[0:3]), _embed(g, s[3:6]), _embed(g, s[6:9]))

    def kappa_jet(self, v: float) -> Jet2:
        return self.kappa.jet2(v)

    def is_constant_kappa(self) -> bool:
        """Whether kappa agrees with kappa(0) to 1e-12 (relative above 1) at
        32 points of [0, 2 pi]."""
        vs = [2.0 * math.pi * i / 31 for i in range(32)]
        k0 = self.kappa(vs[0])
        return all(abs(self.kappa(v) - k0) <= 1e-12 * max(1.0, abs(k0))
                   for v in vs)


def frenet_frame(curve: SphericalCurve, v: float) -> FrenetFrame:
    """Frame of the directing curve at v (see SphericalCurve.frame)."""
    return curve.frame(v)


def circle_curve(b: float, geometry: Geometry) -> SphericalCurve:
    """Constant-curvature curve with kappa(v) = b, arc-length parameterized.

    Elliptic: the latitude circle of spherical radius rho with cot(rho) = b,
    realized in closed form.  Hyperbolic: realized by Frenet integration from
    the standard frame; arc-length parameterization forces the tangent to be
    spacelike, so every finite b yields a supported (spacelike) orbit.
    """
    if not math.isfinite(b):
        raise UnsupportedGeometryError("constant curvature b must be finite")
    kappa = ScalarFn.constant(float(b), name="kappa")
    curve = SphericalCurve(kappa, geometry)
    if geometry is Geometry.ELLIPTIC:
        sr = 1.0 / math.sqrt(1.0 + b * b)      # sin(rho)
        cr = b / math.sqrt(1.0 + b * b)        # cos(rho)

        def closed(v: float):
            w = v / sr
            cw, sw = math.cos(w), math.sin(w)
            l = Vec4(sr * cw, sr * sw, cr, 0.0)
            t = Vec4(-sw, cw, 0.0, 0.0)
            n = Vec4(-cr * cw, -cr * sw, sr, 0.0)
            return l, t, n

        curve._closed_frame = closed
    return curve


# ---------------------------------------------------------------------------
# Meridian profiles
# ---------------------------------------------------------------------------


class MeridianProfile:
    """Meridian curve m = (f, g): 2-jets of f and quadrature for g.  The
    quantities built from the jets at one u, among them the meridian
    curvature, are a ProfileColumn.

    The normalization constraint fixes g up to its additive constant g0:
    gdot = sqrt(fdot^2 - 1) in the elliptic case, sqrt(1 - fdot^2) in the
    hyperbolic case, with gdot >= 0 by convention.  g is not memoized: each
    call adds a short Simpson tail to lazily accumulated panel anchors, at
    most one per 0.25 of domain width.  As with the curve tables, extending
    those anchors counts as construction and belongs on one thread.
    """

    def __init__(self, geometry: Geometry, domain: tuple[float, float],
                 g0: float = 0.0, g_orientation: int = 1):
        if domain[1] <= domain[0]:
            raise ProfileDomainError(f"empty profile domain {domain!r}")
        if g_orientation not in (1, -1):
            raise ValueError("g_orientation must be +1 or -1")
        self.geometry = geometry
        self.domain = (float(domain[0]), float(domain[1]))
        self.g0 = float(g0)
        self.g_orientation = g_orientation
        self._g_panels: list[float] = [0.0]  # cumulative quadrature anchors

    # subclasses supply these two
    def _f_jet(self, u: float) -> Jet2:
        raise NotImplementedError

    def _f3(self, u: float) -> float:
        raise NotImplementedError

    def _check(self, u: float) -> None:
        lo, hi = self.domain
        if not lo <= u <= hi:
            raise DomainError(f"u = {u!r} outside profile domain [{lo}, {hi}]")

    def f_jet(self, u: float) -> Jet2:
        self._check(u)
        return self._f_jet(u)

    def f3(self, u: float) -> float:
        self._check(u)
        return self._f3(u)

    def gdot(self, u: float) -> float:
        V = self.geometry.normalization(self.f_jet(u).d1)
        if V <= 0.0:
            raise ProfileDomainError(
                f"normalization violated at u = {u!r}", u=u)
        return self.g_orientation * math.sqrt(V)

    _G_PANEL = 0.25  # fixed anchor spacing for the cumulative quadrature

    def g(self, u: float) -> float:
        """g(u) = g0 + integral of gdot from the domain's left endpoint.

        The integral accumulates over fixed panels plus a short adaptive
        Simpson tail, so nearby evaluations share their anchors and stay
        usable inside finite-difference stencils.
        """
        self._check(u)
        j = int((u - self.domain[0]) / self._G_PANEL)
        while len(self._g_panels) <= j:
            i = len(self._g_panels) - 1
            a = self.domain[0] + i * self._G_PANEL
            self._g_panels.append(
                self._g_panels[i]
                + adaptive_simpson(self.gdot, a, a + self._G_PANEL))
        anchor = self.domain[0] + j * self._G_PANEL
        return self.g0 + self._g_panels[j] + adaptive_simpson(
            self.gdot, anchor, u)


def _require_plus_orientation(profile: MeridianProfile) -> None:
    if profile.g_orientation != 1:
        raise MisuseError(
            "invariant formulas assume the gdot >= 0 representative; "
            "rebuild the profile with g_orientation=+1")


def _violation(geometry: Geometry, u: float, f: float,
               V: float) -> Optional[str]:
    """Why a profile point with value f and normalization quantity V is
    inadmissible, or None when it is fine."""
    if f <= 0.0:
        return f"profile requires f(u) > 0, violated at u = {u:.9g}"
    if V < ADMISSIBILITY_MARGIN:
        if geometry is Geometry.ELLIPTIC:
            return ("elliptic normalization requires fdot^2 > 1, "
                    f"violated at u = {u:.9g}")
        return ("hyperbolic normalization requires fdot^2 < 1, "
                f"violated at u = {u:.9g}")
    return None


class ProfileColumn:
    """Every profile quantity the invariants use at one u, from a single
    f_jet call: f, its derivatives, V, sqrt(V), phi = f fddot + fdot^2 - 1,
    the meridian curvature kappa_m and the u-factors of k and <H,H>.

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
        self.gdot = profile.g_orientation * sqV
        self.phi = phi = f * fddot + fdot * fdot - 1.0
        self.phi2, self.ff = phi * phi, f * f
        # fddot/sqrt(V) (elliptic), -fddot/sqrt(V) (hyperbolic), mirrored
        # when g_orientation is -1
        self.kappa_m = profile.g_orientation * sign * fddot / sqV
        self.k_factor = -(fddot * fddot / V)    # k = k_factor kappa^2 / f^2
        self.H2_denom = 4.0 * f * f * V         # <H,H> = D / H2_denom
        self.gaussK = -fddot / f

    @functools.cached_property
    def frame_terms(self) -> tuple:
        """(gamma, 2 f sqrt(V), f^2 fddot^2, V^2, phi/sqrt(V), its u-rate),
        the rate from the exact third derivative of f."""
        _require_plus_orientation(self.profile)
        f, fdot, fddot, V, sqV, phi = (self.f, self.fdot, self.fddot, self.V,
                                       self.sqV, self.phi)
        dphi = 3.0 * fdot * fddot + f * self.profile.f3(self.u)
        dV = self.sign * 2.0 * fdot * fddot
        return (-fdot / (SQRT2 * f), 2.0 * f * sqV, self.ff * fddot * fddot,
                V * V, phi / sqV, dphi / sqV - 0.5 * phi * dV / (V * sqV))


class _ExplicitProfile(MeridianProfile):
    def __init__(self, f: ScalarFn, geometry, domain, g0=0.0, g_orientation=1):
        super().__init__(geometry, domain, g0, g_orientation)
        self._f = f

    def _f_jet(self, u):
        return self._f.jet2(u)

    def _f3(self, u):
        return jets.third_derivative(self._f, u)


def _sample_violation(f_jet, geometry: Geometry, u: float) -> Optional[str]:
    """Message describing why u is inadmissible, or None when it is fine."""
    try:
        j = f_jet(u)
    except DomainError as exc:
        return str(exc)
    return _violation(geometry, u, j.v, geometry.normalization(j.d1))


def profile_from_f(f: ScalarFn, geometry: Geometry, g0: float,
                   domain: tuple[float, float],
                   g_orientation: int = 1) -> MeridianProfile:
    """Profile from an explicit f with g supplied by adaptive Simpson
    quadrature of gdot.  The domain is scanned at 512 points; any
    admissibility violation raises ProfileDomainError naming the offending u.
    """
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise ProfileDomainError(f"empty profile domain {domain!r}")
    for i in range(512):
        u = lo + (hi - lo) * i / 511
        msg = _sample_violation(f.jet2, geometry, u)
        if msg is not None:
            raise ProfileDomainError(msg, u=u)
    return _ExplicitProfile(f, geometry, (lo, hi), g0, g_orientation)


class _SlopeProfile(MeridianProfile):
    """Profile integrated from fdot = y(f); f is tabulated on the RK4 grid
    and interpolated by cubic Hermite, while fdot, fddot, and the third
    derivative come exactly from the jets of y."""

    def __init__(self, y: ScalarFn, geometry, g0, step,
                 us: list[float], fs: list[float], ds: list[float]):
        super().__init__(geometry, (us[0], us[-1]), g0)
        self.y = y
        self._step = step
        self._us = us
        self._fs = fs
        self._ds = ds

    def _f_value(self, u: float) -> float:
        i = min(int((u - self._us[0]) / self._step), len(self._us) - 2)
        i = max(i, 0)
        h = self._us[i + 1] - self._us[i]
        s = (u - self._us[i]) / h
        s2, s3 = s * s, s * s * s
        return ((2.0 * s3 - 3.0 * s2 + 1.0) * self._fs[i]
                + (s3 - 2.0 * s2 + s) * h * self._ds[i]
                + (-2.0 * s3 + 3.0 * s2) * self._fs[i + 1]
                + (s3 - s2) * h * self._ds[i + 1])

    def _f_jet(self, u):
        fv = self._f_value(u)
        yj = self.y.jet2(fv)
        return Jet2(fv, yj.v, yj.v * yj.d1)

    def _f3(self, u):
        fv = self._f_value(u)
        yj = self.y.jet2(fv)
        return yj.v * yj.d1 * yj.d1 + yj.v * yj.v * yj.d2


def _slope_admissible(y: ScalarFn, t: float, geometry: Geometry) -> float:
    """Value y(t) if the slope keeps the profile admissible there, else NaN."""
    try:
        yv = y(t)
    except (DomainError, ValueError, ZeroDivisionError):
        return math.nan
    if t <= 0.0 or not math.isfinite(yv):
        return math.nan
    if (geometry.normalization(yv) < ADMISSIBILITY_MARGIN
            or (geometry is Geometry.HYPERBOLIC and yv <= 0.0)):
        return math.nan
    return yv


def _normalization_rate(y: ScalarFn, geometry: Geometry,
                        t: float) -> Optional[float]:
    """dV/dt of the margin quantity V(y(t)), or None where y has no jet."""
    try:
        j = y.jet2(t)
    except (DomainError, ValueError, ZeroDivisionError):
        return None
    return geometry.normalization_sign * 2.0 * j.v * j.d1


def _step_dips_inadmissible(y: ScalarFn, geometry: Geometry, a: float,
                            b: float, da, db) -> bool:
    """Whether the normalization margin is violated strictly between a and b
    (in either order) even though both are admissible; da and db are their
    _normalization_rate, and None there counts as a violation.

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
        dm = _normalization_rate(y, geometry, mid)
        if dm is None:
            return True
        if (dm < 0.0) == (da < 0.0):
            a = mid
        else:
            b = mid
    return math.isnan(_slope_admissible(y, 0.5 * (a + b), geometry))


def profile_from_slope_ode(y: ScalarFn, f0: float, geometry: Geometry,
                           g0: float, u_span: float,
                           step: float = DEFAULT_STEP) -> MeridianProfile:
    """Profile from the substitution fdot = y(f), integrated by fixed-step RK4.

    fddot is supplied exactly as y(f)*y'(f).  Integration stops early with a
    truncated domain as soon as admissibility fails; y(f0) itself must be
    admissible for the geometry (y > 1 elliptic, 0 < y < 1 hyperbolic).
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if u_span <= 0.0:
        raise ValueError("u_span must be positive")
    d0 = _slope_admissible(y, f0, geometry)
    if math.isnan(d0):
        kind = "y(f0) > 1" if geometry is Geometry.ELLIPTIC else "0 < y(f0) < 1"
        raise ProfileDomainError(
            f"slope inadmissible at f0 = {f0!r}: geometry requires {kind}")

    n_steps = max(1, round(u_span / step))
    us, fs, ds = [0.0], [f0], [d0]
    f, dV = f0, _normalization_rate(y, geometry, f0)
    for i in range(n_steps):
        k1 = ds[-1]  # the slope at the last accepted point
        k2 = _slope_admissible(y, f + 0.5 * step * k1, geometry)
        k3 = _slope_admissible(y, f + 0.5 * step * k2, geometry)
        k4 = _slope_admissible(y, f + step * k3, geometry)
        if any(map(math.isnan, (k2, k3, k4))):
            break
        f_next = f + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d_next = _slope_admissible(y, f_next, geometry)
        if math.isnan(d_next):
            break
        dV_next = _normalization_rate(y, geometry, f_next)
        if _step_dips_inadmissible(y, geometry, f, f_next, dV, dV_next):
            break
        f, dV = f_next, dV_next
        us.append((i + 1) * step)
        fs.append(f)
        ds.append(d_next)
    if len(us) < 2:
        raise ProfileDomainError(
            f"slope trajectory from f0 = {f0!r} leaves the admissible set "
            "within one step")
    return _SlopeProfile(y, geometry, g0, step, us, fs, ds)
