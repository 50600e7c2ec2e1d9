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
from typing import Callable, NamedTuple, Optional

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


# ---------------------------------------------------------------------------
# Parameter tables: which values each family takes, and their defaults
# ---------------------------------------------------------------------------

REQUIRED = None     # the default of a parameter that has none
_POSITIVE, DOMAIN_PARAMS = ("u_span", "step"), ("u_min", "u_max")
_AB = {"a": REQUIRED, "b": REQUIRED}
_CLOSED = {"u_min": REQUIRED, "u_max": REQUIRED, "g0": 0.0}
_SLOPE = {"f0": REQUIRED, "u_span": 1.0, "step": DEFAULT_STEP, "g0": 0.0}
_BETAS = "max(|beta1|, |beta2|)"


class FamilyRow(NamedTuple):
    """A family's parameters (name -> default or REQUIRED); whether f comes
    from the slope ODE, else in closed form on [u_min, u_max]; the residual
    verify_family reports.  Verify's default directing curve is the circle
    of curvature b for a family that takes b."""

    params: dict
    slope_ode: bool
    property: str


FAMILY_TABLE = {
    FamilyKind.CONSTANT_GAUSS: FamilyRow(
        {"K0": REQUIRED, "alpha": 0.0, "beta": 0.0, **_CLOSED, "b": REQUIRED},
        False, "|K - K0|"),
    FamilyKind.CONSTANT_MEAN: FamilyRow(
        {**_AB, "C": 0.0, "sign": 1, **_SLOPE}, True, "||H| - a|"),
    FamilyKind.CONSTANT_K: FamilyRow(
        {**_AB, "C": 0.0, "sign": 1, **_SLOPE}, True, "|k + a^2|"),
    FamilyKind.CHEN: FamilyRow({**_AB, "branch": 1, **_SLOPE}, True,
                               "|lambda|"),
    FamilyKind.PARALLEL_A: FamilyRow(
        {"c": REQUIRED, "d": REQUIRED, **_CLOSED}, False, _BETAS),
    FamilyKind.PARALLEL_B: FamilyRow({**_AB, "c": REQUIRED, **_SLOPE}, True,
                                     _BETAS),
}


class _Values(dict):
    """Checked values; reading a required one not given raises, naming it."""

    owner = ""

    def __missing__(self, key):
        raise FamilyDomainError(f"missing parameter {key!r} for {self.owner}")


def _checked(fields: dict, given: dict, owner: str) -> _Values:
    """``given`` checked against ``fields`` (name -> default or REQUIRED),
    as floats, the defaults filled in."""
    for key, value in given.items():
        if key not in fields:
            raise FamilyDomainError(f"{owner} takes no parameter {key!r}")
        positive = key in _POSITIVE
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and (value > 0.0 or not positive)):
            need = "positive and finite" if positive else "a finite number"
            raise FamilyDomainError(f"{key} must be {need}, got {value!r}")
    values = _Values((k, float(d)) for k, d in fields.items()
                     if d is not REQUIRED)
    values.update((k, float(v)) for k, v in given.items())
    values.owner = owner
    return values


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
    Construction checks ``params`` against the family's FAMILY_TABLE row
    and fills in its defaults.
    """

    kind: FamilyKind
    geometry: Geometry
    params: dict = field(default_factory=dict)
    epsilon_branch: object = None
    slope_scale: float = 1.0

    def __post_init__(self):
        row, name = FAMILY_TABLE[self.kind], self.kind.value
        self.params = _checked(row.params, self.params, f"{name} family")
        eps, scale = self.epsilon_branch, self.slope_scale
        if eps is not None and self.kind is not FamilyKind.CONSTANT_MEAN:
            raise FamilyDomainError(f"{name} family takes no epsilon_branch")
        if not (math.isfinite(scale) and (row.slope_ode or scale == 1.0)):
            raise FamilyDomainError(f"slope_scale must be finite, and 1 in "
                                    f"closed form; got {scale!r} for {name}")


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


_HARMONIC = {"alpha": REQUIRED, "beta": REQUIRED, "omega": 1.0}
#: Profiles of a config's kind explicit_f: name -> (parameters, in the order
#: the builder of f takes them).  Each also takes g0.
EXPLICIT_PROFILES = {
    "sinh": ({}, lambda: ScalarFn(jets.sinh, name="sinh", d3=math.cosh)),
    "cosh": ({}, lambda: ScalarFn(jets.cosh, name="cosh", d3=math.sinh)),
    "cos": ({}, lambda: ScalarFn(jets.cos, name="cos", d3=math.sin)),
    "linear": ({"a0": 0.0, "a1": 1.0}, lambda a0, a1: ScalarFn(
        lambda t: a0 + a1 * t, name="linear", d3=lambda u: 0.0)),
    "harmonic": (_HARMONIC, harmonic_fn),
    "hyperbolic_harmonic": (_HARMONIC, hyperbolic_harmonic_fn),
    "sqrt_quadratic": ({"c": REQUIRED, "d": REQUIRED}, sqrt_quadratic_fn),
}


def explicit_f(name: str, params: dict) -> tuple[ScalarFn, float]:
    """f and g0 of explicit profile ``name``, ``params`` checked first."""
    if name not in EXPLICIT_PROFILES:
        raise FamilyDomainError(f"unknown explicit_f family {name!r}")
    fields, build = EXPLICIT_PROFILES[name]
    p = _checked({**fields, "g0": 0.0}, params, f"{name} profile")
    return build(*(p[k] for k in fields)), p["g0"]


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
    f = sqrt_quadratic_fn(c, d)
    valid = _validated_family_domain(f, geometry, domain)
    return profile_from_f(f, geometry, g0, valid)


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


def _wavy_kappa() -> ScalarFn:
    return ScalarFn(lambda t: 1.0 + 0.3 * jets.sin(t), name="kappa")


def family_slope(spec: FamilySpec) -> ScalarFn:
    """The slope function of a slope-defined family spec (scaled by
    spec.slope_scale)."""
    kind, g, p = spec.kind, spec.geometry, spec.params
    if kind is FamilyKind.CONSTANT_MEAN:
        branch = spec.epsilon_branch
        branch = (-1 if branch == "printed-vs-eq18"
                  else 1 if branch is None else branch)
        y = constant_mean_slope(p["a"], p["b"], p["C"], g, sign=p["sign"],
                                epsilon_branch=branch)
    elif kind is FamilyKind.CONSTANT_K:
        y = constant_k_slope(p["a"], p["b"], p["C"], g, sign=p["sign"])
    elif kind is FamilyKind.CHEN:
        y = chen_slope(p["a"], p["b"], g, branch=p["branch"])
    elif kind is FamilyKind.PARALLEL_B:
        y = parallel_slope_case_b(p["a"], p["c"], g)
    else:
        raise FamilyDomainError(f"{kind.value} is not a slope-defined family")
    if spec.slope_scale != 1.0:
        y = y.scaled(spec.slope_scale)
    return y


def family_profile(spec: FamilySpec) -> MeridianProfile:
    kind, g, p = spec.kind, spec.geometry, spec.params
    if kind is FamilyKind.CONSTANT_GAUSS:
        return constant_gauss_profile(
            p["K0"], p["alpha"], p["beta"], g, (p["u_min"], p["u_max"]),
            g0=p["g0"])
    if kind is FamilyKind.PARALLEL_A:
        return parallel_profile_case_a(
            p["c"], p["d"], g, (p["u_min"], p["u_max"]), g0=p["g0"])
    return profile_from_slope_ode(family_slope(spec), p["f0"], g, p["g0"],
                                  p["u_span"], step=p["step"])


def family_curve(spec: FamilySpec) -> SphericalCurve:
    """Default directing curve: constant curvature b for the families that
    require it, a non-constant curvature for parallel case (a), which holds
    for arbitrary kappa(v)."""
    if "b" not in FAMILY_TABLE[spec.kind].params:
        return SphericalCurve(_wavy_kappa(), spec.geometry)
    return circle_curve(spec.params["b"], spec.geometry)


def build_family_surface(spec: FamilySpec,
                         curve: Optional[SphericalCurve] = None) -> MeridianSurface:
    if curve is None:
        curve = family_curve(spec)
    elif spec.kind is FamilyKind.PARALLEL_B and not curve.is_constant_kappa():
        raise MisuseError(
            "parallel case (b) requires a directing curve of constant "
            "curvature")
    return MeridianSurface(family_profile(spec), curve)


def _point_residual(spec: FamilySpec, rec: PointRecord) -> float:
    kind, p = spec.kind, spec.params
    if kind is FamilyKind.CONSTANT_GAUSS:
        return abs(rec.column.gaussK - p["K0"])
    if kind is FamilyKind.CONSTANT_MEAN:
        return abs(rec.meanH - abs(p["a"]))
    if kind is FamilyKind.CONSTANT_K:
        a = p["a"]
        return abs(rec.k + a * a)
    if kind is FamilyKind.CHEN:
        return abs(rec.frame.lam)
    return max(abs(rec.frame.beta1), abs(rec.frame.beta2))


def verify_family(spec: FamilySpec, grid: tuple[int, int] = (33, 33),
                  tol: float = 1e-6,
                  curve: Optional[SphericalCurve] = None) -> ResidualReport:
    """Sweep the generated surface on a grid over v in [0, 2 pi] and report
    the worst residual of the family's defining property.  Flat and
    marginally trapped samples are skipped and counted.

    With epsilon_branch = "printed-vs-eq18" (hyperbolic constant mean) the
    arcsin slope is tested against the plus-sign defining ODE; the two
    belong to opposite sign branches, so this check is expected to fail.
    """
    p = spec.params
    if spec.epsilon_branch == "printed-vs-eq18":   # constant mean only
        if spec.geometry is not Geometry.HYPERBOLIC:
            raise FamilyDomainError(
                "printed-vs-eq18 applies to the hyperbolic family only")
        profile = family_profile(spec)
        residual = cmc_ode_residual(profile, p["a"], p["b"], plus_sign=True)
        return _sweep_profile_residual(profile, residual, grid[0], tol,
                                       "plus-sign ODE residual of arcsin slope")

    surface = build_family_surface(spec, curve)
    u_lo, us = _inset_samples(surface.profile.domain, grid[0])
    vs = [2.0 * math.pi * (j / (grid[1] - 1) if grid[1] > 1 else 0.5)
          for j in range(grid[1])]
    worst, arg = -1.0, (u_lo, 0.0)
    n_eval, skipped = 0, 0
    for rec in sweep(surface, us, vs):
        if rec.frame is None:
            skipped += 1
            continue
        r = _point_residual(spec, rec)
        n_eval += 1
        if not r <= worst and worst == worst:   # a NaN r stays the worst
            worst, arg = r, (rec.column.u, rec.v)
    if n_eval == 0:
        worst = math.nan    # fails the comparison below
    return ResidualReport(worst, arg, n_eval, FAMILY_TABLE[spec.kind].property,
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
        if not r <= worst and worst == worst:   # a NaN r stays the worst
            worst, arg = r, (u, 0.0)
    return ResidualReport(worst, arg, n, tag, worst <= tol, tol, 0)
