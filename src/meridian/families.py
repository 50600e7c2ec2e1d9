"""Generators and verifiers for the classification families.

Each family fixes either the profile f in closed form (constant Gauss
curvature, parallel-bundle case (a)) or the slope function y with
fdot = y(f) (constant mean curvature, constant invariant k, Chen,
parallel-bundle case (b)).  A family is one FAMILY_TABLE row: its
parameters, its builder, its defining ODE, the directing curve it needs
and the residual that ``verify_family`` reports, the worst over a sweep of
its surface.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable, NamedTuple, Optional

from . import jets
from .curves import (Geometry, MeridianProfile, ProfileColumn,
                     SphericalCurve, circle_curve, construction_scan,
                     grid_points, profile_from_f, profile_from_slope_ode)
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
# The family table: what each family is
# ---------------------------------------------------------------------------

REQUIRED = None     # the default of a parameter that has none
DOMAIN_PARAMS = ("u_min", "u_max")
_AB = {"a": REQUIRED, "b": REQUIRED}
_CLOSED = {"u_min": REQUIRED, "u_max": REQUIRED, "g0": 0.0}
_SLOPE = {"f0": REQUIRED, "u_span": 1.0, "g0": 0.0}
_BETAS = "max(|beta1|, |beta2|)"


class FamilyRow(NamedTuple):
    """What a family is, in one place.

    params: name -> default or REQUIRED.  build(params, geometry,
    epsilon_branch): the slope y of fdot = y(f) when slope_ode, else the
    closed-form profile on [u_min, u_max].  ode(column, params, plus): the
    family's defining ODE, as its residual at one ProfileColumn; plus picks
    the sign of the constant-mean ODE, and the other rows ignore it.
    residual(record, params): the value at a PointRecord that verify_family
    reports as property.  The curve rule: a slope family needs a directing
    curve built constant, one of |kappa| = |b| when kappa_b; a closed-form
    family takes any curve.  Verify's default curve is the circle of
    curvature b for a family that takes b."""

    params: dict
    build: Callable
    ode: Callable[[ProfileColumn, dict, bool], float]
    slope_ode: bool
    kappa_b: bool
    residual: Callable[[PointRecord, dict], float]
    property: str


def _betas(rec: PointRecord, p: dict) -> float:
    return max(abs(rec.frame.beta1), abs(rec.frame.beta2))


FAMILY_TABLE = {
    FamilyKind.CONSTANT_GAUSS: FamilyRow(
        {"K0": REQUIRED, "alpha": 0.0, "beta": 0.0, **_CLOSED, "b": REQUIRED},
        lambda p, g, eps: constant_gauss_profile(
            p["K0"], p["alpha"], p["beta"], g, (p["u_min"], p["u_max"]),
            p["g0"]),
        # fddot + K0 f = 0
        lambda c, p, plus: c.fddot + p["K0"] * c.f,
        False, False, lambda rec, p: abs(rec.column.gaussK - p["K0"]),
        "|K - K0|"),
    FamilyKind.CONSTANT_MEAN: FamilyRow(
        {**_AB, "C": 0.0, "sign": 1, **_SLOPE},
        lambda p, g, eps: constant_mean_slope(p["a"], p["b"], p["C"], g,
                                              p["sign"], eps),
        # (f fddot + fdot^2 - 1)^2 = V (b^2 +- 4 a^2 f^2)
        lambda c, p, plus: c.phi * c.phi - c.V * (
            p["b"] * p["b"]
            + (4.0 if plus else -4.0) * p["a"] * p["a"] * c.f * c.f),
        True, True, lambda rec, p: abs(rec.meanH - abs(p["a"])),
        "||H| - a|"),
    FamilyKind.CONSTANT_K: FamilyRow(
        {**_AB, "C": 0.0, "sign": 1, **_SLOPE},
        lambda p, g, eps: constant_k_slope(p["a"], p["b"], p["C"], g,
                                           p["sign"]),
        # b^2 fddot^2 = a^2 f^2 V
        lambda c, p, plus: (p["b"] * p["b"] * c.fddot * c.fddot
                            - p["a"] * p["a"] * c.f * c.f * c.V),
        True, True, lambda rec, p: abs(rec.k + p["a"] * p["a"]),
        "|k + a^2|"),
    FamilyKind.CHEN: FamilyRow(
        {**_AB, "branch": 1, **_SLOPE},
        lambda p, g, eps: chen_slope(p["a"], p["b"], g, p["branch"]),
        # V^2 - f^2 fddot^2 = b^2 V
        lambda c, p, plus: (c.V * c.V - c.f * c.f * c.fddot * c.fddot
                            - p["b"] * p["b"] * c.V),
        True, True, lambda rec, p: abs(rec.frame.lam), "|lambda|"),
    FamilyKind.PARALLEL_A: FamilyRow(
        {"c": REQUIRED, "d": REQUIRED, **_CLOSED},
        lambda p, g, eps: parallel_profile_case_a(
            p["c"], p["d"], g, (p["u_min"], p["u_max"]), p["g0"]),
        # f fddot + fdot^2 - 1 = 0
        lambda c, p, plus: c.phi,
        False, False, _betas, _BETAS),
    FamilyKind.PARALLEL_B: FamilyRow(
        {**_AB, "c": REQUIRED, **_SLOPE},
        lambda p, g, eps: parallel_slope_case_b(p["a"], p["c"], g),
        # f fddot + fdot^2 - 1 = a sqrt(V)
        lambda c, p, plus: c.phi - p["a"] * c.sqV,
        True, False, _betas, _BETAS),
}


class _Values(dict):
    """Checked values; reading a required one not given raises, naming it."""

    owner = ""

    def __missing__(self, key):
        raise FamilyDomainError(f"missing parameter {key!r} for {self.owner}")


def finite_number(value) -> Optional[float]:
    """value as a float if it is an int or a float (no bool) within the float
    range, else None; NaN, an infinity or a larger int fails without raising."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    return None


def _checked(fields: dict, given: dict, owner: str) -> _Values:
    """``given`` checked against ``fields`` (name -> default or REQUIRED),
    as floats, the defaults filled in."""
    values = _Values((k, float(d)) for k, d in fields.items()
                     if d is not REQUIRED)
    for key, value in given.items():
        if key not in fields:
            raise FamilyDomainError(f"{owner} takes no parameter {key!r}")
        x, positive = finite_number(value), key == "u_span"
        if x is None or (positive and x <= 0.0):
            need = "positive and finite" if positive else "a finite number"
            raise FamilyDomainError(f"{key} must be {need}, got {value!r}")
        values[key] = x
    values.owner = owner
    return values


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

    def __init__(self, kind: FamilyKind, geometry: Geometry,
                 params: Optional[dict] = None, epsilon_branch: object = None,
                 slope_scale: float = 1.0):
        self.kind, self.geometry = kind, geometry
        self.epsilon_branch = eps = epsilon_branch
        self.slope_scale = scale = slope_scale
        row, name = FAMILY_TABLE[kind], kind.value
        self.params = _checked(row.params, {} if params is None else params,
                               f"{name} family")
        if eps is not None and kind is not FamilyKind.CONSTANT_MEAN:
            raise FamilyDomainError(f"{name} family takes no epsilon_branch")
        if finite_number(scale) is None or not (row.slope_ode or scale == 1.0):
            raise FamilyDomainError(f"slope_scale must be finite, and 1 in "
                                    f"closed form; got {scale!r} for {name}")


class ResidualReport(NamedTuple):
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


def _validated_family_profile(
        f: ScalarFn, geometry: Geometry, domain: tuple[float, float],
        g0: float) -> MeridianProfile:
    """The profile of f on the largest admissible subinterval of ``domain``
    by construction_scan, shrunk 1% from each admissibility boundary.
    Raises FamilyDomainError when none exists.  An untruncated domain is
    scanned once; a truncated one again by profile_from_f, at its points."""
    lo, hi = float(domain[0]), float(domain[1])
    if hi <= lo:
        raise FamilyDomainError(f"empty domain {domain!r}")
    us, violations = zip(*construction_scan(f, geometry, lo, hi))
    best_len, best_start = 0, -1
    run_len, run_start = 0, 0
    for i, msg in enumerate(violations + ("end of domain",)):  # closes a run
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
    if best_len == len(us):     # profile_from_f would scan the same points
        return MeridianProfile(f, geometry, (a, b), g0)
    width = b - a
    # shrink 1% away from a side only when that side was actually truncated
    if best_start > 0:
        a += 0.01 * width
    if best_start + best_len < len(us):
        b -= 0.01 * width
    return profile_from_f(f, geometry, g0, (a, b))


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
    return _validated_family_profile(f, geometry, domain, g0)


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

    s = geometry.normalization_sign

    def body(t):
        ratio = (C + sign * accum(t)) / t
        return jets.sqrt(1.0 + s * (ratio * ratio))

    return ScalarFn(body, domain=domain, name="constant_mean_slope")


def constant_k_slope(a: float, b: float, C: float, geometry: Geometry,
                     sign: int = 1) -> ScalarFn:
    """Slope y(t) of the family with constant invariant k = -a^2 when the
    directing curve has constant curvature b."""
    if a == 0.0 or b == 0.0:
        raise FamilyDomainError("constant-k family requires a != 0, b != 0")
    if sign not in (1, -1):
        raise FamilyDomainError("sign must be +1 or -1")
    s = geometry.normalization_sign
    sa = s * sign * a

    def body(t):
        q = C + sa * t * t / (2.0 * b)
        return jets.sqrt(1.0 + s * q * q)

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
    rad_sign = -geometry.normalization_sign

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
    return _validated_family_profile(f, geometry, domain, g0)


def parallel_slope_case_b(a: float, c: float, geometry: Geometry) -> ScalarFn:
    """Case (b) slope of the parallel-normal-bundle family; the generated
    surface needs a directing curve of constant nonzero curvature."""
    if a == 0.0:
        raise FamilyDomainError("parallel case (b) requires a != 0")
    s = geometry.normalization_sign
    k2, k1, k0 = 1.0 + s * a * a, 2.0 * a * c, s * c * c

    def body(t):
        return jets.sqrt(k2 * t * t + k1 * t + k0) / t

    return ScalarFn(body, domain=(1e-12, 1e6), name="parallel_b_slope")


# ---------------------------------------------------------------------------
# Defining-ODE residuals (used by tests and the verifier's special mode)
# ---------------------------------------------------------------------------


def ode_residual(spec: FamilySpec,
                 profile: MeridianProfile) -> Callable[[float], float]:
    """The residual at u of the defining ODE of spec's family, its
    FAMILY_TABLE row's ode, on the column of ``profile`` at u.

    The constant-mean ODE takes its plus sign for a hyperbolic spec whose
    epsilon_branch is not -1 (the arcsinh slope, and printed-vs-eq18's test
    of the arcsin slope), else its minus sign."""
    ode, p = FAMILY_TABLE[spec.kind].ode, spec.params
    plus = spec.geometry.normalization_sign < 0.0 and spec.epsilon_branch != -1
    return lambda u: ode(ProfileColumn(profile, u), p, plus)


def max_ode_residual(residual: Callable[[float], float],
                     domain: tuple[float, float]) -> float:
    """Largest |residual| at the 201 grid_points of ``domain``."""
    return max(abs(residual(u)) for u in grid_points(*domain, 201))


# ---------------------------------------------------------------------------
# Assembly and verification
# ---------------------------------------------------------------------------


def _wavy_kappa() -> ScalarFn:
    return ScalarFn(lambda t: 1.0 + 0.3 * jets.sin(t), name="kappa")


def family_slope(spec: FamilySpec) -> ScalarFn:
    """The slope function of a slope-defined family spec (scaled by
    spec.slope_scale)."""
    row, eps = FAMILY_TABLE[spec.kind], spec.epsilon_branch
    if not row.slope_ode:
        raise FamilyDomainError(
            f"{spec.kind.value} is not a slope-defined family")
    eps = -1 if eps == "printed-vs-eq18" else 1 if eps is None else eps
    y = row.build(spec.params, spec.geometry, eps)
    if spec.slope_scale != 1.0:
        y = y.scaled(spec.slope_scale)
    return y


def family_profile(spec: FamilySpec) -> MeridianProfile:
    row, p = FAMILY_TABLE[spec.kind], spec.params
    if not row.slope_ode:
        return row.build(p, spec.geometry, spec.epsilon_branch)
    return profile_from_slope_ode(family_slope(spec), p["f0"], spec.geometry,
                                  p["g0"], p["u_span"])


def build_family_surface(spec: FamilySpec,
                         curve: Optional[SphericalCurve] = None) -> MeridianSurface:
    """The family's surface over ``curve``.  By default that is the circle
    of curvature b for a family that takes b, and a non-constant curvature
    for parallel case (a), which holds for arbitrary kappa(v).

    A given curve must be one the family's FAMILY_TABLE row allows.  A slope
    family needs a directing curve of constant curvature, and a curve knows
    that only when it was built as one (circle_curve): one whose
    constant_kappa is None (any ScalarFn kappa, ScalarFn.constant included)
    raises MisuseError naming the family.  Constant mean, constant k and
    Chen also need |kappa| = |b|, else MisuseError names that curvature.
    Parallel case (b) takes any constant kappa, and the closed-form families
    any curve.
    """
    row, p = FAMILY_TABLE[spec.kind], spec.params
    if curve is None:
        curve = (circle_curve(p["b"], spec.geometry) if "b" in row.params
                 else SphericalCurve(_wavy_kappa(), spec.geometry))
    elif row.slope_ode:
        kappa = curve.constant_kappa
        b = abs(p["b"]) if row.kappa_b else None   # parallel (b): any kappa
        if kappa is None or b is not None and abs(kappa) != b:
            need = "" if b is None else f" |kappa| = {b!r}"
            raise MisuseError(
                f"{spec.kind.value} family requires a directing curve of "
                f"constant curvature{need}, built by circle_curve")
    return MeridianSurface(family_profile(spec), curve)


def verify_family(spec: FamilySpec, grid: tuple[int, int] = (33, 33),
                  tol: float = 1e-6,
                  curve: Optional[SphericalCurve] = None) -> ResidualReport:
    """Sweep the surface of build_family_surface(spec, curve) on a grid over
    v in [0, 2 pi] and report the worst residual of the family's defining
    property, as its FAMILY_TABLE row computes it.  The grid's u values are
    its profile domain shrunk by 1% of its width at each end (the midpoint
    when grid[0] = 1).  Flat and marginally trapped samples are skipped and
    counted; a NaN residual is the worst, and no evaluated sample fails.

    With epsilon_branch = "printed-vs-eq18" (hyperbolic constant mean) the
    arcsin slope is tested against the plus-sign defining ODE at the grid's
    u values, through the same worst-residual loop; the two belong to
    opposite sign branches, so this check is expected to fail.  That check
    reads the profile alone, so a given curve raises MisuseError.
    """
    row, p, (nu, nv) = FAMILY_TABLE[spec.kind], spec.params, grid
    u_only = spec.epsilon_branch == "printed-vs-eq18"   # constant mean only
    if u_only and spec.geometry is not Geometry.HYPERBOLIC:
        raise FamilyDomainError(
            "printed-vs-eq18 applies to the hyperbolic family only")
    if u_only and curve is not None:
        raise MisuseError("printed-vs-eq18 checks the profile alone; the "
                          "given curve is not used there")
    surface = None if u_only else build_family_surface(spec, curve)
    profile = family_profile(spec) if u_only else surface.profile
    lo, hi = profile.domain
    lo, hi = lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo)
    us = grid_points(lo, hi, nu)
    # (residual, or None where skipped, samples it stands for, u, v): a
    # residual is evaluated once per sweep record, so once per column over
    # a curve built constant, and its v is the first of its run
    if u_only:
        ode = ode_residual(spec, profile)
        samples = ((abs(ode(u)), 1, u, 0.0) for u in us)
        tag = "plus-sign ODE residual of arcsin slope"
    else:
        vs = grid_points(0.0, 2.0 * math.pi, nv)
        samples = ((None if rec.frame is None else row.residual(rec, p),
                    len(js), rec.column.u, vs[js[0]])
                   for rec, js in sweep(surface, us, vs))
        tag = row.property
    worst, arg = -1.0, (lo, 0.0)
    n_eval, skipped = 0, 0
    for r, n, u, v in samples:
        if r is None:
            skipped += n
            continue
        n_eval += n
        if not r <= worst and worst == worst:   # a NaN r stays the worst
            worst, arg = r, (u, v)
    if n_eval == 0:
        worst = math.nan    # fails the comparison below
    return ResidualReport(worst, arg, n_eval, tag, worst <= tol, tol, skipped)
