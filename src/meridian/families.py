"""Generators and verifiers for the classification families.

Each family fixes either the profile f in closed form (constant Gauss
curvature, parallel-bundle case (a)) or the slope function y with
fdot = y(f) (constant mean curvature, constant invariant k, Chen,
parallel-bundle case (b)).  ``verify_family`` sweeps the generated surface
and reports the worst residual of the family's defining property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import jets
from .curves import (DEFAULT_STEP, Geometry, MeridianProfile, ProfileColumn,
                     SphericalCurve, circle_curve, profile_from_f,
                     profile_from_slope_ode, _sample_violation)
from .errors import FamilyDomainError, MisuseError
from .jets import ScalarFn
from .surfaces import MeridianSurface, PointRecord, sweep


class FamilyKind(Enum):
    CONSTANT_GAUSS = "constant_gauss"
    CONSTANT_MEAN = "constant_mean"
    CONSTANT_K = "constant_k"
    CHEN = "chen"
    PARALLEL_A = "parallel_a"
    PARALLEL_B = "parallel_b"


@dataclass
class FamilySpec:
    """Parameters selecting one member of a classification family.

    ``epsilon_branch`` applies to the hyperbolic constant-mean family only:
    +1 selects the arcsinh slope (consistent with the plus-sign defining
    ODE), -1 the arcsin slope (consistent with the minus-sign ODE), and the
    string "printed-vs-eq18" asks the verifier to test the arcsin slope
    against the plus-sign ODE; the two belong to opposite sign branches, so
    that combination documents the mismatch and is expected to fail.
    ``slope_scale`` multiplies the slope function and exists so sensitivity
    checks can knock a family off its defining property.
    """

    kind: FamilyKind
    geometry: Geometry
    params: dict = field(default_factory=dict)
    epsilon_branch: object = None
    slope_scale: float = 1.0


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    argmax: tuple[float, float]
    n_samples: int
    property: str
    passed: bool
    tol: float
    skipped: int


# ---------------------------------------------------------------------------
# Profile function library (exact third derivatives wired in)
# ---------------------------------------------------------------------------


def harmonic_fn(alpha: float, beta: float, omega: float) -> ScalarFn:
    """f(u) = alpha cos(omega u) + beta sin(omega u)."""
    def body(t):
        return alpha * jets.cos(omega * t) + beta * jets.sin(omega * t)

    def d3(u):
        fdot = omega * (-alpha * math.sin(omega * u) + beta * math.cos(omega * u))
        return -omega * omega * fdot

    return ScalarFn(body, name="harmonic", d3=d3)


def hyperbolic_harmonic_fn(alpha: float, beta: float, omega: float) -> ScalarFn:
    """f(u) = alpha cosh(omega u) + beta sinh(omega u)."""
    def body(t):
        return alpha * jets.cosh(omega * t) + beta * jets.sinh(omega * t)

    def d3(u):
        fdot = omega * (alpha * math.sinh(omega * u) + beta * math.cosh(omega * u))
        return omega * omega * fdot

    return ScalarFn(body, name="hyperbolic_harmonic", d3=d3)


def sqrt_quadratic_fn(c: float, d: float) -> ScalarFn:
    """f(u) = sqrt(u^2 + 2 c u + d)."""
    def body(t):
        return jets.sqrt(t * t + 2.0 * c * t + d)

    def d3(u):
        q = u * u + 2.0 * c * u + d
        return -3.0 * (d - c * c) * (u + c) / (q * q * math.sqrt(q))

    return ScalarFn(body, name="sqrt_quadratic", d3=d3)


def _validated_family_domain(
        f: ScalarFn, geometry: Geometry,
        domain: tuple[float, float]) -> tuple[float, float]:
    """Largest admissible subinterval of ``domain`` by a 512-point scan,
    shrunk 1% from each admissibility boundary.  Raises FamilyDomainError
    when none exists."""
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise FamilyDomainError(f"empty domain {domain!r}")
    n = 512
    us = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    violations = [_sample_violation(f.jet2, geometry, u) for u in us]
    best_len, best_start = 0, -1
    run_len, run_start = 0, 0
    for i, msg in enumerate(violations + ["end of domain"]):  # closes a run
        if msg is None:
            if run_len == 0:
                run_start = i
            run_len += 1
            if run_len > best_len:
                best_len, best_start = run_len, run_start
        else:
            run_len = 0
    if best_len < 8:
        detail = next((msg for msg in violations if msg is not None),
                      "no admissible samples")
        raise FamilyDomainError(
            f"no admissible subdomain inside [{lo:.9g}, {hi:.9g}]: {detail}")
    a = us[best_start]
    b = us[best_start + best_len - 1]
    width = b - a
    # shrink 1% away from a side only when that side was actually truncated
    if best_start > 0:
        a += 0.01 * width
    if best_start + best_len < n:
        b -= 0.01 * width
    return (a, b)


# ---------------------------------------------------------------------------
# Family generators
# ---------------------------------------------------------------------------


def constant_gauss_profile(K0: float, alpha: float, beta: float,
                           geometry: Geometry,
                           domain: tuple[float, float],
                           g0: float = 0.0) -> MeridianProfile:
    """Profile with constant Gauss curvature K0 != 0.

    f is trigonometric for K0 > 0 and hyperbolic-trigonometric for K0 < 0;
    the requested domain is scanned and shrunk to its admissible core.
    """
    if K0 == 0.0:
        raise FamilyDomainError("constant-Gauss family requires K0 != 0")
    omega = math.sqrt(abs(K0))
    if K0 > 0.0:
        f = harmonic_fn(alpha, beta, omega)
    else:
        f = hyperbolic_harmonic_fn(alpha, beta, omega)
    valid = _validated_family_domain(f, geometry, domain)
    return profile_from_f(f, geometry, g0, valid)


def constant_mean_slope(a: float, b: float, C: float, geometry: Geometry,
                        sign: int = 1, epsilon_branch: int = 1) -> ScalarFn:
    """Slope y(t) of the constant-mean-curvature family with |H| = a and
    directing curvature b.

    Elliptic: the arcsin form (its squared defining ODE carries b^2-4a^2f^2).
    Hyperbolic exposes two variants selected by ``epsilon_branch``:
    -1 is the arcsin form, which satisfies the minus-sign ODE (timelike mean
    curvature vector), +1 is the arcsinh form satisfying the plus-sign ODE
    (spacelike mean curvature vector).  The two +- signs inside each formula
    are coupled and exposed as the single ``sign``.
    """
    if a == 0.0 or b == 0.0:
        raise FamilyDomainError("constant-mean family requires a != 0, b != 0")
    if sign not in (1, -1):
        raise FamilyDomainError("sign must be +1 or -1")
    if geometry is Geometry.ELLIPTIC and epsilon_branch != 1:
        raise FamilyDomainError(
            "elliptic constant-mean family has only the epsilon=+1 branch")
    if epsilon_branch not in (1, -1):
        raise FamilyDomainError("epsilon_branch must be +1 or -1")

    use_arcsin = geometry is Geometry.ELLIPTIC or epsilon_branch == -1
    if use_arcsin:
        t_cap = abs(b / (2.0 * a))
        domain = (t_cap * 1e-9, t_cap * (1.0 - 1e-9))

        def accum(t):
            return (t / 2.0) * jets.sqrt(b * b - 4.0 * a * a * t * t) \
                + (b * b / (4.0 * a)) * jets.asin(2.0 * a * t / b)
    else:
        domain = (1e-12, 1e6)

        def accum(t):
            return (t / 2.0) * jets.sqrt(b * b + 4.0 * a * a * t * t) \
                + (b * b / (4.0 * a)) * jets.asinh(2.0 * a * t / b)

    def body(t):
        ratio = (C + sign * accum(t)) / t
        ratio2 = ratio * ratio
        if geometry is Geometry.ELLIPTIC:
            return jets.sqrt(1.0 + ratio2)
        return jets.sqrt(1.0 - ratio2)

    return ScalarFn(body, domain=domain, name="constant_mean_slope")


def constant_k_slope(a: float, b: float, C: float, geometry: Geometry,
                     sign: int = 1) -> ScalarFn:
    """Slope y(t) of the family with constant invariant k = -a^2 when the
    directing curve has constant curvature b."""
    if a == 0.0 or b == 0.0:
        raise FamilyDomainError("constant-k family requires a != 0, b != 0")
    if sign not in (1, -1):
        raise FamilyDomainError("sign must be +1 or -1")

    def body(t):
        if geometry is Geometry.ELLIPTIC:
            q = C + sign * a * t * t / (2.0 * b)
            return jets.sqrt(1.0 + q * q)
        q = C - sign * a * t * t / (2.0 * b)
        return jets.sqrt(1.0 - q * q)

    return ScalarFn(body, domain=(1e-12, 1e6), name="constant_k_slope")


def chen_slope(a: float, b: float, geometry: Geometry,
               branch: int = 1) -> ScalarFn:
    """Slope y(t) of the Chen family (vanishing invariant lambda) for a
    directing curve of constant curvature b.

    ``branch`` is the +-1 exponent on t.  Admissibility (a positive radicand
    together with the geometry's slope constraint) depends on the sign of the
    free constant a and is scanned by the consumers, not assumed here.
    """
    if a == 0.0 or b == 0.0:
        raise FamilyDomainError("Chen family requires a != 0, b != 0")
    if branch not in (1, -1):
        raise FamilyDomainError("branch must be +1 or -1")
    rad_sign = -1.0 if geometry is Geometry.ELLIPTIC else 1.0

    def body(t):
        tt = t if branch == 1 else 1.0 / t
        tt2 = tt * tt
        w = tt2 - b * b / a
        rad = 4.0 * tt2 + rad_sign * a * (w * w)
        return jets.sqrt(rad) / (2.0 * tt)

    return ScalarFn(body, domain=(1e-12, 1e6), name="chen_slope")


def parallel_profile_case_a(c: float, d: float, geometry: Geometry,
                            domain: tuple[float, float],
                            g_sign: int = 1,
                            g0: float = 0.0) -> MeridianProfile:
    """Case (a) of the parallel-normal-bundle family: f = sqrt(u^2+2cu+d),
    which makes f*fddot + fdot^2 - 1 vanish identically, so both beta
    invariants vanish for any directing curvature kappa(v)."""
    if geometry is Geometry.ELLIPTIC and not c * c > d:
        raise FamilyDomainError(
            "elliptic parallel case (a) requires c^2 > d")
    if geometry is Geometry.HYPERBOLIC and not d > c * c:
        raise FamilyDomainError(
            "hyperbolic parallel case (a) requires d > c^2")
    if g_sign not in (1, -1):
        raise FamilyDomainError("g_sign must be +1 or -1")
    f = sqrt_quadratic_fn(c, d)
    valid = _validated_family_domain(f, geometry, domain)
    return profile_from_f(f, geometry, g0, valid, g_orientation=int(g_sign))


def parallel_slope_case_b(a: float, c: float, geometry: Geometry) -> ScalarFn:
    """Case (b) slope of the parallel-normal-bundle family; the generated
    surface needs a directing curve of constant nonzero curvature."""
    if a == 0.0:
        raise FamilyDomainError("parallel case (b) requires a != 0")

    def body(t):
        if geometry is Geometry.ELLIPTIC:
            rad = (a * a + 1.0) * t * t + 2.0 * a * c * t + c * c
        else:
            rad = (1.0 - a * a) * t * t + 2.0 * a * c * t - c * c
        return jets.sqrt(rad) / t

    return ScalarFn(body, domain=(1e-12, 1e6), name="parallel_b_slope")


# ---------------------------------------------------------------------------
# Defining-ODE residuals (used by tests and the verifier's special mode)
# ---------------------------------------------------------------------------


def cmc_ode_residual(profile: MeridianProfile, a: float, b: float,
                     plus_sign: bool) -> Callable[[float], float]:
    """Residual of (f fddot + fdot^2 - 1)^2 = V (b^2 +- 4 a^2 f^2)."""
    def residual(u: float) -> float:
        c = ProfileColumn(profile, u)
        rad = b * b + (4.0 if plus_sign else -4.0) * a * a * c.f * c.f
        return c.phi * c.phi - c.V * rad

    return residual


def constant_k_ode_residual(profile: MeridianProfile, a: float,
                            b: float) -> Callable[[float], float]:
    """Residual of b^2 fddot^2 - a^2 f^2 V = 0."""
    def residual(u: float) -> float:
        c = ProfileColumn(profile, u)
        return b * b * c.fddot * c.fddot - a * a * c.f * c.f * c.V

    return residual


def chen_ode_residual(profile: MeridianProfile,
                      b: float) -> Callable[[float], float]:
    """Residual of V^2 - f^2 fddot^2 = b^2 V."""
    def residual(u: float) -> float:
        c = ProfileColumn(profile, u)
        return c.V * c.V - c.f * c.f * c.fddot * c.fddot - b * b * c.V

    return residual


def parallel_b_ode_residual(profile: MeridianProfile,
                            a: float) -> Callable[[float], float]:
    """Residual of f fddot + fdot^2 - 1 = a sqrt(V)."""
    def residual(u: float) -> float:
        c = ProfileColumn(profile, u)
        return c.phi - a * c.sqV

    return residual


def parallel_a_ode_residual(profile: MeridianProfile) -> Callable[[float], float]:
    """Residual of f fddot + fdot^2 - 1 = 0."""
    return lambda u: ProfileColumn(profile, u).phi


def max_ode_residual(residual: Callable[[float], float],
                     domain: tuple[float, float]) -> float:
    """Largest |residual| at 201 evenly spaced points of ``domain``."""
    lo, hi = domain
    return max(abs(residual(lo + (hi - lo) * i / 200)) for i in range(201))


# ---------------------------------------------------------------------------
# Assembly and verification
# ---------------------------------------------------------------------------


def _param(spec: FamilySpec, key: str, default=None):
    if key in spec.params:
        return spec.params[key]
    if default is not None:
        return default
    raise FamilyDomainError(
        f"missing parameter {key!r} for {spec.kind.value} family")


def _wavy_kappa() -> ScalarFn:
    return ScalarFn(lambda t: 1.0 + 0.3 * jets.sin(t), name="kappa")


def family_slope(spec: FamilySpec) -> ScalarFn:
    """The slope function of a slope-defined family spec (scaled by
    spec.slope_scale)."""
    kind, g = spec.kind, spec.geometry
    if kind is FamilyKind.CONSTANT_MEAN:
        branch = spec.epsilon_branch
        if branch == "printed-vs-eq18":
            branch = -1
        if branch is None:
            branch = 1
        y = constant_mean_slope(_param(spec, "a"), _param(spec, "b"),
                                _param(spec, "C", 0.0), g,
                                sign=_param(spec, "sign", 1),
                                epsilon_branch=branch)
    elif kind is FamilyKind.CONSTANT_K:
        y = constant_k_slope(_param(spec, "a"), _param(spec, "b"),
                             _param(spec, "C", 0.0), g,
                             sign=_param(spec, "sign", 1))
    elif kind is FamilyKind.CHEN:
        y = chen_slope(_param(spec, "a"), _param(spec, "b"), g,
                       branch=_param(spec, "branch", 1))
    elif kind is FamilyKind.PARALLEL_B:
        y = parallel_slope_case_b(_param(spec, "a"), _param(spec, "c"), g)
    else:
        raise FamilyDomainError(f"{kind.value} is not a slope-defined family")
    if spec.slope_scale != 1.0:
        y = y.scaled(spec.slope_scale)
    return y


def family_profile(spec: FamilySpec) -> MeridianProfile:
    kind, g = spec.kind, spec.geometry
    g0 = float(_param(spec, "g0", 0.0))
    if kind is FamilyKind.CONSTANT_GAUSS:
        return constant_gauss_profile(
            _param(spec, "K0"), _param(spec, "alpha"), _param(spec, "beta"),
            g, (_param(spec, "u_min"), _param(spec, "u_max")), g0=g0)
    if kind is FamilyKind.PARALLEL_A:
        return parallel_profile_case_a(
            _param(spec, "c"), _param(spec, "d"), g,
            (_param(spec, "u_min"), _param(spec, "u_max")),
            g_sign=_param(spec, "g_sign", 1), g0=g0)
    y = family_slope(spec)
    f0 = float(_param(spec, "f0"))
    u_span = float(_param(spec, "u_span", 1.0))
    step = float(_param(spec, "step", DEFAULT_STEP))
    for key, value in (("u_span", u_span), ("step", step)):
        if not 0.0 < value < math.inf:
            raise FamilyDomainError(
                f"{key} must be positive and finite, got {value!r}")
    return profile_from_slope_ode(y, f0, g, g0, u_span, step=step)


def family_curve(spec: FamilySpec) -> SphericalCurve:
    """Default directing curve: constant curvature b for the families that
    require it, a non-constant curvature for parallel case (a), which holds
    for arbitrary kappa(v)."""
    if spec.kind is FamilyKind.PARALLEL_A:
        return SphericalCurve(_wavy_kappa(), spec.geometry)
    return circle_curve(float(_param(spec, "b")), spec.geometry)


def build_family_surface(spec: FamilySpec,
                         curve: Optional[SphericalCurve] = None) -> MeridianSurface:
    if curve is None:
        curve = family_curve(spec)
    elif spec.kind is FamilyKind.PARALLEL_B and not curve.is_constant_kappa():
        raise MisuseError(
            "parallel case (b) requires a directing curve of constant "
            "curvature")
    return MeridianSurface(family_profile(spec), curve)


_PROPERTY_TAGS = {
    FamilyKind.CONSTANT_GAUSS: "|K - K0|",
    FamilyKind.CONSTANT_MEAN: "||H| - a|",
    FamilyKind.CONSTANT_K: "|k + a^2|",
    FamilyKind.CHEN: "|lambda|",
    FamilyKind.PARALLEL_A: "max(|beta1|, |beta2|)",
    FamilyKind.PARALLEL_B: "max(|beta1|, |beta2|)",
}


def _point_residual(spec: FamilySpec, rec: PointRecord) -> float:
    kind = spec.kind
    if kind is FamilyKind.CONSTANT_GAUSS:
        return abs(rec.column.gaussK - _param(spec, "K0"))
    if kind is FamilyKind.CONSTANT_MEAN:
        return abs(rec.meanH - abs(_param(spec, "a")))
    if kind is FamilyKind.CONSTANT_K:
        a = _param(spec, "a")
        return abs(rec.k + a * a)
    if kind is FamilyKind.CHEN:
        return abs(rec.frame.lam)
    return max(abs(rec.frame.beta1), abs(rec.frame.beta2))


def verify_family(spec: FamilySpec, grid: tuple[int, int] = (33, 33),
                  tol: float = 1e-6,
                  v_range: tuple[float, float] = (0.0, 2.0 * math.pi),
                  curve: Optional[SphericalCurve] = None) -> ResidualReport:
    """Sweep the generated surface on a grid and report the worst residual
    of the family's defining property.  Flat and marginally trapped samples
    are skipped and counted.

    With epsilon_branch = "printed-vs-eq18" (hyperbolic constant mean) the
    arcsin slope is tested against the plus-sign defining ODE; the two
    belong to opposite sign branches, so this check is expected to fail.
    """
    if (spec.kind is FamilyKind.CONSTANT_MEAN
            and spec.epsilon_branch == "printed-vs-eq18"):
        if spec.geometry is not Geometry.HYPERBOLIC:
            raise FamilyDomainError(
                "printed-vs-eq18 applies to the hyperbolic family only")
        profile = family_profile(spec)
        residual = cmc_ode_residual(profile, _param(spec, "a"),
                                    _param(spec, "b"), plus_sign=True)
        return _sweep_profile_residual(profile, residual, grid[0], tol,
                                       "plus-sign ODE residual of arcsin slope")

    surface = build_family_surface(spec, curve)
    u_lo, us = _inset_samples(surface.profile.domain, grid[0])
    v_lo, v_hi = v_range
    vs = [v_lo + (v_hi - v_lo) * (j / (grid[1] - 1) if grid[1] > 1 else 0.5)
          for j in range(grid[1])]
    worst, arg = -1.0, (u_lo, v_lo)
    n_eval, skipped = 0, 0
    for rec in sweep(surface, us, vs):
        if rec.frame is None:
            skipped += 1
            continue
        r = _point_residual(spec, rec)
        n_eval += 1
        if r > worst:
            worst, arg = r, (rec.column.u, rec.v)
    if n_eval == 0:
        worst = math.nan    # fails the comparison below
    return ResidualReport(worst, arg, n_eval, _PROPERTY_TAGS[spec.kind],
                          worst <= tol, tol, skipped)


def _inset_samples(domain: tuple[float, float],
                   n: int) -> tuple[float, list[float]]:
    """The domain shrunk by 1% of its width at each end: its left end and
    n evenly spaced samples (the midpoint when n = 1)."""
    width = domain[1] - domain[0]
    lo, hi = domain[0] + 0.01 * width, domain[1] - 0.01 * width
    return lo, [lo + (hi - lo) * (i / (n - 1) if n > 1 else 0.5)
                for i in range(n)]


def _sweep_profile_residual(profile: MeridianProfile,
                            residual: Callable[[float], float],
                            n: int, tol: float, tag: str) -> ResidualReport:
    u_lo, us = _inset_samples(profile.domain, n)
    worst, arg = -1.0, (u_lo, 0.0)
    for u in us:
        r = abs(residual(u))
        if r > worst:
            worst, arg = r, (u, 0.0)
    return ResidualReport(worst, arg, n, tag, worst <= tol, tol, 0)
