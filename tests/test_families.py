import hashlib
import math
import pathlib
import re

import pytest

from conftest import close, wavy_kappa
from meridian.curves import (Geometry, ProfileColumn, SphericalCurve,
                             _slope_table, circle_curve, grid_points)
from meridian.errors import (FamilyDomainError, MisuseError,
                             ProfileDomainError)
from meridian.families import (FamilyKind, FamilySpec, build_family_surface,
                               chen_slope, constant_gauss_profile,
                               constant_k_slope, constant_mean_slope,
                               family_profile, max_ode_residual, ode_residual,
                               parallel_profile_case_a, parallel_slope_case_b,
                               verify_family)
from meridian.cli import _json_float
from meridian.families import EXPLICIT_PROFILES, FAMILY_TABLE
from meridian import families, jets
from meridian.jets import ScalarFn, fd_jet2
from meridian.surfaces import (MeridianSurface, allied_coefficient,
                               eight_invariants)

E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC


def spec(kind, geometry, eps=None, scale=1.0, **params):
    return FamilySpec(FamilyKind(kind), geometry, params=params,
                      epsilon_branch=eps, slope_scale=scale)


# -- constant Gauss curvature -------------------------------------------------


def test_constant_gauss_elliptic_negative():
    rep = verify_family(spec("constant_gauss", E, K0=-1.0, alpha=0.0,
                             beta=1.0, u_min=0.5, u_max=2.0, b=1.0),
                        tol=1e-8)
    assert rep.passed


def test_constant_gauss_hyperbolic_positive():
    rep = verify_family(spec("constant_gauss", H, K0=1.0, alpha=1.0, beta=0.0,
                             u_min=0.3, u_max=1.2, b=1.0), tol=1e-8)
    assert rep.passed


def test_constant_gauss_elliptic_positive_inadmissible():
    # fdot = -sin has fdot^2 <= 1: elliptic normalization cannot hold
    with pytest.raises(FamilyDomainError) as err:
        constant_gauss_profile(1.0, 1.0, 0.0, E, (0.3, 1.2))
    assert "fdot^2 > 1" in str(err.value)


def test_family_domain_error_names_first_violating_sample():
    # cos u is admissible only at the first sample; f < 0 from the second on
    lo = math.pi / 2 - 1e-3
    hi = lo + 1.0
    with pytest.raises(FamilyDomainError) as err:
        constant_gauss_profile(1.0, 1.0, 0.0, H, (lo, hi))
    u1 = lo + (hi - lo) * 1 / 511
    assert str(err.value) == (
        f"no admissible subdomain inside [{lo:.9g}, {hi:.9g}]: "
        f"profile requires f(u) > 0, violated at u = {u1:.9g}")


def test_constant_gauss_rejects_zero():
    with pytest.raises(FamilyDomainError):
        constant_gauss_profile(0.0, 1.0, 0.0, E, (0.5, 2.0))


def test_constant_gauss_echoes_admissible_domain():
    p = constant_gauss_profile(-1.0, 0.0, 1.0, E, (0.5, 2.0))
    assert p.domain == (0.5, 2.0)  # fully admissible: no shrink


def _jet2_calls(monkeypatch):
    """The u of every ScalarFn.jet2 call from now on."""
    calls, jet2 = [], ScalarFn.jet2

    def counted(self, u):
        calls.append(u)
        return jet2(self, u)

    monkeypatch.setattr(ScalarFn, "jet2", counted)
    return calls


@pytest.mark.parametrize("build", [
    lambda: constant_gauss_profile(-1.0, 0.0, 1.0, E, (0.5, 2.0)),
    lambda: parallel_profile_case_a(0.0, 1.0, H, (0.1, 0.9))],
    ids=["constant_gauss", "parallel_a"])
def test_untruncated_family_profile_is_scanned_once(monkeypatch, build):
    # the admissible domain is the one requested, so the scan that found it
    # is the construction scan: its 512 jets are not read a second time
    calls = _jet2_calls(monkeypatch)
    p = build()
    assert calls == grid_points(*p.domain, 512)


def test_truncated_family_profile_scans_its_own_points(monkeypatch):
    # cos u leaves f > 0 at pi/2: the shrunk domain is scanned again, at
    # its own 512 points
    calls = _jet2_calls(monkeypatch)
    p = constant_gauss_profile(1.0, 1.0, 0.0, H, (0.3, 2.0))
    assert p.domain[1] < math.pi / 2
    assert calls == grid_points(0.3, 2.0, 512) + grid_points(*p.domain, 512)


# -- constant mean curvature --------------------------------------------------


def test_cmc_elliptic_ode_and_invariant():
    s = spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-7
    rep = verify_family(s, tol=1e-6)
    assert rep.passed and rep.n_samples > 500


def test_cmc_hyperbolic_arcsinh_branch():
    s = spec("constant_mean", H, eps=1, a=0.5, b=1.0, C=-0.6, f0=0.8,
             u_span=2.0)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-7
    rep = verify_family(s, tol=1e-6)
    assert rep.passed
    surf = build_family_surface(s)
    u = 0.5 * (prof.domain[0] + prof.domain[1])
    assert eight_invariants(surf, u, 1.0).epsilon == 1


def test_cmc_hyperbolic_arcsin_branch():
    s = spec("constant_mean", H, eps=-1, a=0.5, b=1.0, C=0.0, f0=0.5,
             u_span=2.0)
    prof = family_profile(s)
    # the arcsin slope solves the minus-sign ODE ...
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-7
    # ... and misses the plus-sign one, printed-vs-eq18's, by a wide margin
    printed = spec("constant_mean", H, eps="printed-vs-eq18", a=0.5, b=1.0,
                   C=0.0, f0=0.5, u_span=2.0)
    assert max_ode_residual(ode_residual(printed, prof), prof.domain) > 1e-2
    rep = verify_family(s, tol=1e-6)
    assert rep.passed
    surf = build_family_surface(s)
    u = 0.5 * (prof.domain[0] + prof.domain[1])
    assert eight_invariants(surf, u, 1.0).epsilon == -1


def test_cmc_mismatched_branch_documented_failure():
    rep = verify_family(spec("constant_mean", H, eps="printed-vs-eq18",
                             a=0.5, b=1.0, C=0.0, f0=0.5, u_span=2.0),
                        tol=1e-7)
    assert not rep.passed
    assert rep.max_abs_residual > 1e-2


def test_cmc_printed_vs_eq18_takes_no_curve():
    # that route checks the profile alone: a given curve would be ignored
    s = spec("constant_mean", H, eps="printed-vs-eq18", a=0.5, b=1.0,
             f0=0.5, u_span=0.5)
    for curve in (SphericalCurve(ScalarFn(lambda t: 1.0 + 0.3 * t), H),
                  circle_curve(1.0, H)):
        with pytest.raises(MisuseError, match="curve is not used"):
            verify_family(s, curve=curve)
    assert not verify_family(s).passed


def test_cmc_rejects_degenerate_parameters():
    with pytest.raises(FamilyDomainError):
        constant_mean_slope(0.0, 1.0, 0.0, E)
    with pytest.raises(FamilyDomainError):
        constant_mean_slope(1.0, 1.0, 0.0, E, epsilon_branch=-1)


# -- constant invariant k -----------------------------------------------------


def test_constant_k_elliptic():
    s = spec("constant_k", E, a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed


def test_constant_k_hyperbolic():
    s = spec("constant_k", H, a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed


# -- Chen surfaces ------------------------------------------------------------


def test_chen_elliptic_lambda_and_allied():
    s = spec("chen", E, a=-1.0, b=1.0, f0=1.2, u_span=0.8)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed
    surf = build_family_surface(s)
    for u in (0.2, 0.5):
        for v in (0.4, 1.9):
            assert abs(allied_coefficient(surf, u, v)) <= 1e-7


def test_chen_hyperbolic():
    s = spec("chen", H, a=-1.0, b=0.5, f0=0.7, u_span=1.2)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed


def test_chen_elliptic_positive_a_inadmissible():
    # a > 0 puts y^2 below 1: the elliptic slope constraint cannot hold
    with pytest.raises(ProfileDomainError):
        family_profile(spec("chen", E, a=1.0, b=1.0, f0=1.2, u_span=0.5))


# -- parallel normal bundle ---------------------------------------------------


def test_parallel_a_elliptic_closed_form_g():
    g0 = 0.3
    p = parallel_profile_case_a(0.0, -1.0, E, (1.1, 3.0), g0=g0)
    assert p.domain == (1.1, 3.0)
    ref = math.log(1.1 + math.sqrt(1.1 ** 2 - 1.0))
    for u in (1.3, 2.0, 2.9):
        expected = math.log(u + math.sqrt(u * u - 1.0)) - ref + g0
        assert abs(p.g(u) - expected) <= 1e-8
    for u in (1.2, 2.5):
        assert abs(ProfileColumn(p, u).phi) <= 1e-12


def test_parallel_a_betas_vanish_for_wavy_kappa():
    rep = verify_family(spec("parallel_a", E, c=0.0, d=-1.0,
                             u_min=1.1, u_max=3.0), tol=1e-8)
    assert rep.passed
    rep = verify_family(spec("parallel_a", H, c=0.0, d=1.0,
                             u_min=0.1, u_max=0.9), tol=1e-8)
    assert rep.passed


def test_parallel_a_constraint_checked():
    with pytest.raises(FamilyDomainError):
        parallel_profile_case_a(0.0, 1.0, E, (1.1, 3.0))   # needs c^2 > d
    with pytest.raises(FamilyDomainError):
        parallel_profile_case_a(0.0, -1.0, H, (0.1, 0.9))  # needs d > c^2


def test_parallel_a_hyperbolic_scan_keeps_admissible_domain():
    p = parallel_profile_case_a(0.0, 1.0, H, (0.1, 0.9))
    assert p.domain == (0.1, 0.9)


@pytest.mark.parametrize("build,domain", [
    # f = sin u is not positive left of 0 nor right of pi
    (lambda: constant_gauss_profile(1.0, 0.0, 1.0, H, (-0.5, 1.0)),
     (0.011937377690802404, 1.0)),
    (lambda: constant_gauss_profile(1.0, 0.0, 1.0, H, (1.0, 3.5)),
     (1.0, 3.1165851272015654)),
    # f = sqrt(u^2 - 1) has no value on (-1, 1)
    (lambda: parallel_profile_case_a(0.0, -1.0, E, (0.5, 2.0)),
     (1.0119373776908023, 2.0)),
    (lambda: parallel_profile_case_a(0.0, -1.0, E, (-2.0, -0.5)),
     (-2.0, -1.0119373776908023)),
])
def test_truncated_domain_shrinks_one_percent_on_its_cut_side(build, domain):
    # the admissible run of the 512-point scan, shrunk by 1% of its width
    # from each side where the scan found a violation, and only there
    assert build().domain == domain


def test_empty_family_domain_rejected():
    with pytest.raises(FamilyDomainError, match="empty domain"):
        constant_gauss_profile(1.0, 0.0, 1.0, H, (1.0, 1.0))
    with pytest.raises(FamilyDomainError, match="empty domain"):
        parallel_profile_case_a(0.0, -1.0, E, (2.0, 1.5))


def test_parallel_b_elliptic_simple_slope():
    y = parallel_slope_case_b(1.0, 0.0, E)
    assert abs(y(2.0) - math.sqrt(2.0)) <= 1e-12  # sqrt(2 t^2) / t


def test_parallel_b_elliptic_family():
    s = spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)
    prof = family_profile(s)
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-7)
    assert rep.passed


def test_parallel_b_hyperbolic_truncates_at_boundary():
    s = spec("parallel_b", H, a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25)
    prof = family_profile(s)
    # fdot^2 -> 1 as f -> c/a = 0.2: integration must stop short of it
    assert prof.f_jet(prof.domain[1]).v < 0.2
    assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-8)
    assert rep.passed


def test_parallel_b_rejects_nonconstant_kappa():
    s = spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)
    curve = SphericalCurve(wavy_kappa(), E)
    with pytest.raises(MisuseError):
        build_family_surface(s, curve=curve)


def test_parallel_b_needs_a_curve_built_constant():
    # 1 + 0.3 sin(15.5 v) equals 1 at the 32 points 2 pi i / 31 that a
    # sampled constancy check would read, yet is not constant
    s = spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)
    aliased = SphericalCurve(
        ScalarFn(lambda t: 1.0 + 0.3 * jets.sin(15.5 * t)), E)
    with pytest.raises(MisuseError):
        build_family_surface(s, curve=aliased)
    with pytest.raises(MisuseError):
        verify_family(s, curve=aliased)
    for geometry in (E, H):
        for b in (2.0, 0.7, 0.0, -1.3):
            assert circle_curve(b, geometry).constant_kappa == b
            assert SphericalCurve(ScalarFn.constant(b),
                                  geometry).constant_kappa is None
    assert verify_family(s, curve=circle_curve(0.7, E)).passed
    # b only picks the default curve of parallel (b)
    no_b = spec("parallel_b", E, a=1.0, c=1.0, f0=2.0, u_span=1.0)
    assert verify_family(no_b, curve=circle_curve(0.7, E)).passed


_CURVE_B = [
    spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5),
    spec("constant_k", E, a=1.0, b=1.0, f0=1.0),
    spec("chen", E, a=-1.0, b=1.0, f0=1.2, u_span=0.8),
]


@pytest.mark.parametrize("s", _CURVE_B, ids=[s.kind.value for s in _CURVE_B])
def test_slope_built_for_b_needs_a_circle_of_b(s):
    # these slopes solve their defining ODE only when kappa = +-b
    b = s.params["b"]
    wrong = [circle_curve(0.5 * b, E), circle_curve(2.0 * b, E),
             SphericalCurve(ScalarFn(lambda t: b + 0.3 * jets.sin(t)), E),
             SphericalCurve(ScalarFn.constant(b), E)]
    need = re.escape(f"{s.kind.value} family requires a directing curve of "
                     f"constant curvature |kappa| = {abs(b)!r}")
    for curve in wrong:
        with pytest.raises(MisuseError, match=need):
            build_family_surface(s, curve=curve)
        with pytest.raises(MisuseError, match=need):
            verify_family(s, curve=curve)
    for kappa in (b, -b):
        assert verify_family(s, curve=circle_curve(kappa, E)).passed


@pytest.mark.parametrize("kind", ["constant_mean", "constant_k", "chen",
                                  "parallel_b"])
def test_slope_family_takes_no_step(kind):
    # the slope build integrates at the fixed DEFAULT_STEP; a step of any
    # value, the default included, is an unknown parameter
    for step in (1e-3, 0.01, 0.0, math.nan):
        with pytest.raises(FamilyDomainError,
                           match=f"{kind} family takes no parameter 'step'"):
            spec(kind, E, a=1.0, b=1.0, f0=1.0, step=step)


def test_parallel_b_fails_for_nonconstant_kappa():
    prof = family_profile(spec("parallel_b", E, a=1.0, c=1.0, b=2.0,
                               f0=2.0, u_span=1.0))
    surf = MeridianSurface(prof, SphericalCurve(wavy_kappa(), E))
    inv = eight_invariants(surf, 0.5, 1.0)
    assert max(abs(inv.beta1), abs(inv.beta2)) > 1e-6


# -- verifier behavior --------------------------------------------------------


SLOPE_SPECS = [
    spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5),
    spec("constant_k", E, a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0),
    spec("chen", E, a=-1.0, b=1.0, f0=1.2, u_span=0.8),
    spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0),
]


@pytest.mark.parametrize("base", SLOPE_SPECS,
                         ids=[s.kind.value for s in SLOPE_SPECS])
def test_perturbed_slope_fails_verification(base):
    perturbed = FamilySpec(base.kind, base.geometry, params=dict(base.params),
                           epsilon_branch=base.epsilon_branch,
                           slope_scale=1.001)
    rep = verify_family(perturbed, tol=1e-6)
    assert not rep.passed


def test_all_trapped_sweep_reports_failure():
    # kappa^2 = a^2 makes <H,H> vanish identically for case (b)
    rep = verify_family(spec("parallel_b", E, a=1.0, c=1.0, b=1.0,
                             f0=2.0, u_span=1.0), tol=1e-8)
    assert not rep.passed
    assert rep.n_samples == 0
    assert rep.skipped > 0


def test_max_ode_residual_ends_at_hi():
    # lo + (hi - lo) * 200 / 200 rounds one ulp past hi on this domain,
    # outside the profile
    dom = (0.21398298479448208, 0.6380763462871376)
    p = constant_gauss_profile(1.0, 1.0, 0.0, H, dom)
    assert p.domain == dom
    pa = spec("parallel_a", H, c=0.0, d=1.0, u_min=0.1, u_max=0.9)
    phi, us = ode_residual(pa, p), []

    def residual(u):
        us.append(u)
        return phi(u)

    worst = max_ode_residual(residual, dom)
    assert (len(us), us[0], us[-1]) == (201, dom[0], dom[1])
    assert worst == max(abs(phi(u)) for u in us)


def test_missing_parameter_reported():
    with pytest.raises(FamilyDomainError) as err:
        verify_family(spec("constant_k", E, a=1.0, b=1.0))
    assert "f0" in str(err.value)


_K_ELL = dict(a=1.0, b=1.0, C=0.0, f0=1.0)
_PA_ELL = dict(c=0.0, d=-1.0, u_min=1.1, u_max=3.0)


@pytest.mark.parametrize("kind,params,needle", [
    ("parallel_a", dict(_PA_ELL, g_sign=2), "g_sign"),
    ("parallel_a", dict(_PA_ELL, g_sign=0.5), "g_sign"),
    ("parallel_a", dict(_PA_ELL, g_sign=1.7), "g_sign"),
    ("parallel_a", dict(_PA_ELL, g_sign=math.nan), "g_sign"),
    ("constant_k", dict(_K_ELL, sign=-1.5), "sign"),
    ("chen", dict(a=-1.0, b=1.0, f0=1.2, branch=1.5), "branch"),
    ("constant_k", dict(_K_ELL, step=0.0), "step"),
    ("constant_k", dict(_K_ELL, step=-1e-3), "step"),
    ("constant_k", dict(_K_ELL, step=math.inf), "step"),
    ("constant_k", dict(_K_ELL, step=math.nan), "step"),
    ("constant_k", dict(_K_ELL, u_span=0.0), "u_span"),
    ("constant_k", dict(_K_ELL, u_span=-1.0), "u_span"),
    ("constant_k", dict(_K_ELL, u_span=math.inf), "u_span"),
    ("constant_k", dict(_K_ELL, u_span=math.nan), "u_span"),
    ("chen", dict(a=-1.0, b=1.0, f0=1.2, K0=1.0), "takes no parameter 'K0'"),
    ("chen", dict(a=-1.0, b=1.0, f0=1.2, g_sign=1), "'g_sign'"),
    ("parallel_a", dict(_PA_ELL, b=1.0), "takes no parameter 'b'"),
    ("constant_k", dict(_K_ELL, C=math.nan), "C must be a finite number"),
    ("constant_k", dict(_K_ELL, a=math.inf), "a must be a finite number"),
    ("constant_k", dict(_K_ELL, f0="1"), "f0 must be a finite number"),
    ("constant_k", dict(_K_ELL, a=True), "a must be a finite number"),
    ("chen", dict(a=-1.0, b=1.0, f0=1.2, branch=10 ** 400),
     "branch must be a finite number"),
])
def test_family_rejects_bad_inputs(kind, params, needle):
    # a sign is +-1 exactly, not truncated to it
    with pytest.raises(FamilyDomainError, match=needle):
        family_profile(spec(kind, E, **params))


_CG_ELL = dict(K0=-1.0, beta=1.0, u_min=0.5, u_max=2.0, b=1.0)


@pytest.mark.parametrize("kind,params,eps,scale,needle", [
    ("constant_gauss", _CG_ELL, -1, 1.0, "takes no epsilon_branch"),
    ("constant_k", _K_ELL, 1, 1.0, "takes no epsilon_branch"),
    ("constant_gauss", _CG_ELL, None, 3.0, "slope_scale"),
    ("parallel_a", _PA_ELL, None, 0.5, "slope_scale"),
    ("constant_k", _K_ELL, None, math.nan, "slope_scale"),
])
def test_family_spec_rejects_unread_fields(kind, params, eps, scale, needle):
    with pytest.raises(FamilyDomainError, match=needle):
        spec(kind, E, eps=eps, scale=scale, **params)


def test_family_spec_fills_defaults():
    s = spec("constant_gauss", E, **_CG_ELL)
    assert s.params["alpha"] == 0.0 and s.params["g0"] == 0.0
    # a field that rebuilds as its own type from its pairs, as a deep
    # copy of the spec (dataclasses.asdict, say) rebuilds it
    assert type(vars(s)["params"])(s.params.items()) == dict(s.params)
    assert verify_family(s, tol=1e-8).passed
    with pytest.raises(FamilyDomainError, match="missing parameter 'b'"):
        build_family_surface(spec("constant_gauss", E, K0=-1.0, beta=1.0,
                                  u_min=0.5, u_max=2.0))


def test_nan_residual_fails_verification(monkeypatch):
    # every residual is NaN: the report must fail, not pass at -1; parallel
    # (a) takes any directing curve, this one of NaN curvature included
    curve = SphericalCurve(ScalarFn(lambda t: 0.0 * t + math.nan), E)
    rep = verify_family(spec("parallel_a", E, **_PA_ELL), grid=(5, 5),
                        curve=curve)
    assert not rep.passed
    assert math.isnan(rep.max_abs_residual)
    assert _json_float(rep.max_abs_residual) is None
    # the u-only printed-vs-eq18 route goes through the same loop
    monkeypatch.setattr(families, "ode_residual",
                        lambda *args: lambda u: math.nan)
    rep = verify_family(spec("constant_mean", H, eps="printed-vs-eq18",
                             a=0.5, b=1.0, C=0.0, f0=0.5, u_span=0.5),
                        grid=(5, 5))
    assert not rep.passed and math.isnan(rep.max_abs_residual)
    assert rep.n_samples == 5 and rep.skipped == 0


@pytest.mark.parametrize("kind, params", [("parallel_a", _PA_ELL),
                                          ("constant_gauss", _CG_ELL)])
@pytest.mark.parametrize("nan_from", [None, 0.5])
def test_verify_over_circle_and_scalarfn_constant_alike(monkeypatch, kind,
                                                        params, nan_from):
    # one record per column over the circle, one per (u, v) over the same
    # constant as a ScalarFn: the reports are equal, argmax and counts too.
    # With nan_from, residuals past that fraction of the u-range are NaN and
    # the loop keeps the first NaN sample as the worst.
    s = spec(kind, E, **params)
    if nan_from is not None:
        row = FAMILY_TABLE[s.kind]
        lo, hi = family_profile(s).domain
        cut = lo + nan_from * (hi - lo)
        monkeypatch.setitem(FAMILY_TABLE, s.kind, row._replace(
            residual=lambda rec, p: math.nan if rec.column.u > cut
            else row.residual(rec, p)))
    b = params.get("b", 1.0)
    reps = [verify_family(s, grid=(9, 7), curve=curve)
            for curve in (circle_curve(b, E),
                          SphericalCurve(ScalarFn.constant(b), E))]
    assert reps[0] == reps[1]
    assert reps[0].n_samples + reps[0].skipped == 63
    if nan_from is not None:
        assert math.isnan(reps[0].max_abs_residual)
        assert reps[0].argmax[0] > cut and reps[0].argmax[1] == 0.0


def test_family_accepts_float_signs():
    # JSON configs give every number as a float
    for kind, params, key in (("constant_k", _K_ELL, "sign"),
                              ("chen", dict(a=-1.0, b=1.0, f0=1.2),
                               "branch")):
        for sign in (1, -1):
            want = family_profile(spec(kind, E, **params, **{key: sign}))
            got = family_profile(spec(kind, E, **params,
                                      **{key: float(sign)}))
            us = [got.domain[0] + (got.domain[1] - got.domain[0]) * i / 8
                  for i in range(9)]
            assert got.domain == want.domain
            assert [got.f_jet(u) for u in us] == [want.f_jet(u) for u in us]
            assert [got.g(u) for u in us] == [want.g(u) for u in us]


def test_slope_ode_second_derivative_matches_fd():
    s = spec("constant_k", E, a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0)
    prof = family_profile(s)
    for frac in (0.1, 0.3, 0.5):
        u = prof.domain[0] + frac * (prof.domain[1] - prof.domain[0])
        fd = fd_jet2(prof.f, u, 1e-3)
        assert close(fd.d2, prof.f_jet(u).d2, 1e-6)


def _every_slope():
    """Each slope builder in both geometries, with both signs, both Chen
    branches and each epsilon branch the geometry allows."""
    for g in (E, H):
        for sign in (1, -1):
            yield constant_k_slope(1.3, 0.7, 0.2, g, sign)
            for eps in (1,) if g is E else (1, -1):
                yield constant_mean_slope(0.9, 1.7, 0.1, g, sign, eps)
        for branch in (1, -1):
            yield chen_slope(-0.8, 1.2, g, branch)
        for a, c in ((0.6, 0.3), (-1.4, -0.2)):
            yield parallel_slope_case_b(a, c, g)


def _value_bits(evaluate):
    try:
        out = evaluate()
    except Exception as exc:    # an exception is recorded by its type
        return type(exc).__name__
    return " ".join(x.hex() for x in (out if isinstance(out, tuple)
                                      else (out,)))


#: sha256 of the float.hex bits of y(t) and y.jet2(t) at t = 0.013 i,
#: i = 1..199, for every slope of _every_slope, recorded while each slope
#: body decided its geometry on every call: a rewrite of the slope formulas
#: must keep every bit, which the 9-digit verify goldens cannot see
GOLDEN_SLOPE_BITS = \
    "b2c9fa774357b9ca7e2ec6f4335b3ea086427a7819d2d5969f8d620ea9c38dfd"


def test_slope_body_bits_golden():
    lines, n_values = [], 0
    for y in _every_slope():
        for i in range(1, 200):
            t = 0.013 * i
            for evaluate in (lambda: y(t), lambda: y.jet2(t)):
                line = _value_bits(evaluate)
                n_values += "." in line
                lines.append(line)
    assert (len(lines), n_values) == (7164, 3460)   # the rest raised
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SLOPE_BITS


#: The slope tables (us, fs, ds) of the nine acceptance slope sets and of
#: the constant_k set that blows up before u_span 2 (its table ends at
#: u = 1.644): the number of points and the sha256 of their float.hex bits,
#: recorded while each accepted step read y(f_next) and y.jet2(f_next)
GOLDEN_SLOPE_TABLES = {
    "constant_mean-ell": (
        "constant_mean", E, None, dict(a=1, b=4, C=0, f0=0.5, u_span=0.5),
        396,
        "dbcef3dab04a318bfbb187eebf730b712d12c1ddfe87e0aafc0e5adc392218ef"),
    "constant_mean-hyp-plus": (
        "constant_mean", H, 1, dict(a=0.5, b=1, C=-0.6, f0=0.8, u_span=2),
        1787,
        "e624baf052c78812c552303d59bfeea873f4ffcdb7168f0d8e5963aeeaef1f53"),
    "constant_mean-hyp-minus": (
        "constant_mean", H, -1, dict(a=0.5, b=1, C=0, f0=0.5, u_span=2),
        1171,
        "75a05cdbf4e93fc8cb1c84a71b7d569948e852e73b43cab8c3984b73eb482fda"),
    "constant_k-ell": (
        "constant_k", E, None, dict(a=1, b=1, C=0, f0=1, u_span=1),
        1001,
        "388a29ca65e91323e4f9b89318fbed346cd1ea46ff2c7858af4c4baf1b07e347"),
    "constant_k-hyp": (
        "constant_k", H, None, dict(a=1, b=2, C=0, f0=0.5, u_span=0.7),
        701,
        "2c261c4699f3dcaa77f4fca667fdd452233006e3bbf2319e95850c8cb52cbafc"),
    "chen-ell": (
        "chen", E, None, dict(a=-1, b=1, f0=1.2, u_span=0.8),
        801,
        "166d32594314744322bf4ff11e24be561a848e8f36742889d865a231a06df14c"),
    "chen-hyp": (
        "chen", H, None, dict(a=-1, b=0.5, f0=0.7, u_span=1.2),
        1201,
        "3914ac675566b489eba9edc638d5d422e17ccab682e3853e458ef5ce43672823"),
    "parallel_b-ell": (
        "parallel_b", E, None, dict(a=1, c=1, b=2, f0=2, u_span=1),
        1001,
        "268d51792704e18baff532356b5535e01f247d34d0e036469108aed76da7bb67"),
    "parallel_b-hyp": (
        "parallel_b", H, None, dict(a=0.5, c=0.1, b=1, f0=0.1, u_span=0.25),
        104,
        "41824a2e91e74a5d0934f5b55c8ba3c2431fac20a5f13ad5606898fbce4bfe02"),
    "constant_k-ell-blowup": (
        "constant_k", E, None, dict(a=1, b=1, C=0, f0=1, u_span=2),
        1645,
        "d8056b5eee02198aeaafe3d3b63cee2fde63cd09324cfa296eb3a42f545ba7fe"),
}


def _slope_table_of(name):
    kind, geometry, eps, params, _, _ = GOLDEN_SLOPE_TABLES[name]
    s = spec(kind, geometry, eps, **params)
    y = families.family_slope(s)
    return y, _slope_table(y, s.params["f0"], geometry, s.params["u_span"])


@pytest.mark.parametrize("name", sorted(GOLDEN_SLOPE_TABLES))
def test_slope_table_bits_golden(name):
    *_, n, digest = GOLDEN_SLOPE_TABLES[name]
    _, table = _slope_table_of(name)
    text = "\n".join(" ".join(x.hex() for x in col) for col in table)
    assert len(table[0]) == n
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_slope_table_reads_y_four_times_per_step(monkeypatch):
    # y at the three inner RK4 stages, then one jet at the new point gives
    # both its slope and the rate of V there; the start reads y(f0) and
    # its jet
    y, _ = _slope_table_of("constant_k-ell")
    reads, call, jet2 = [], ScalarFn.__call__, ScalarFn.jet2

    def counted(method):
        def read(self, t):
            if self is y:
                reads.append(t)
            return method(self, t)
        return read

    monkeypatch.setattr(ScalarFn, "__call__", counted(call))
    monkeypatch.setattr(ScalarFn, "jet2", counted(jet2))
    us, _, _ = _slope_table(y, 1.0, E, 1.0)
    assert len(us) == 1001      # every step accepted
    assert len(reads) == 2 + 4 * (len(us) - 1)


# -- defining-ODE residuals read one profile column --------------------------


def _ref_phi(p, u):
    j = p.f_jet(u)
    return j.v * j.d2 + j.d1 * j.d1 - 1.0


def _ref_normalization(p, u):
    j = p.f_jet(u)
    return p.geometry.normalization_sign * (j.d1 * j.d1 - 1.0)


def _reference_residuals(p, a, b):
    """(kind, ref(u, plus)): each row's ode as written on per-quantity f_jet
    calls, before the residuals read a ProfileColumn, at K0 = a; each must
    agree bit for bit."""
    def cmc(u, plus):
        f = p.f_jet(u).v
        phi = _ref_phi(p, u)
        V = _ref_normalization(p, u)
        rad = b * b + (4.0 if plus else -4.0) * a * a * f * f
        return phi * phi - V * rad

    def constant_k(u, plus):
        j = p.f_jet(u)
        V = _ref_normalization(p, u)
        return b * b * j.d2 * j.d2 - a * a * j.v * j.v * V

    def chen(u, plus):
        j = p.f_jet(u)
        V = _ref_normalization(p, u)
        return V * V - j.v * j.v * j.d2 * j.d2 - b * b * V

    def constant_gauss(u, plus):
        j = p.f_jet(u)
        return j.d2 + a * j.v

    return [(FamilyKind.CONSTANT_GAUSS, constant_gauss),
            (FamilyKind.CONSTANT_MEAN, cmc),
            (FamilyKind.CONSTANT_K, constant_k),
            (FamilyKind.CHEN, chen),
            (FamilyKind.PARALLEL_A, lambda u, plus: _ref_phi(p, u)),
            (FamilyKind.PARALLEL_B, lambda u, plus: _ref_phi(p, u)
             - a * math.sqrt(_ref_normalization(p, u)))]


@pytest.mark.parametrize("profile", [
    lambda: family_profile(spec("constant_gauss", E, K0=-1.0, alpha=0.0,
                                beta=1.0, u_min=0.5, u_max=2.0)),
    lambda: family_profile(spec("constant_gauss", H, K0=1.0, alpha=1.0,
                                beta=0.0, u_min=0.3, u_max=1.2)),
    lambda: parallel_profile_case_a(0.0, -1.0, E, (1.1, 3.0)),
    lambda: family_profile(spec("constant_mean", E, a=1.0, b=4.0, C=0.0,
                                f0=0.5, u_span=0.5)),
    lambda: family_profile(spec("constant_k", H, a=1.0, b=2.0, C=0.0,
                                f0=0.5, u_span=0.7)),
    lambda: family_profile(spec("chen", H, a=-1.0, b=0.5, f0=0.7,
                                u_span=1.2)),
    lambda: family_profile(spec("parallel_b", E, a=1.0, c=1.0, b=2.0,
                                f0=2.0, u_span=1.0)),
], ids=["gauss-ell", "gauss-hyp", "parallel_a-ell", "cmc-ell-slope",
        "constant_k-hyp-slope", "chen-hyp-slope", "parallel_b-ell-slope"])
def test_ode_residuals_equal_f_jet_formulas(profile):
    p = profile()
    lo, hi = p.domain
    us = [lo + (hi - lo) * i / 40 for i in range(41)]
    for a, b in ((0.7, 1.3), (1.0, 4.0)):
        params, refs = {"a": a, "b": b, "K0": a}, _reference_residuals(p, a, b)
        assert [kind for kind, _ in refs] == list(FAMILY_TABLE)
        for kind, ref in refs:
            ode = FAMILY_TABLE[kind].ode
            for plus in (True, False):
                assert ([ode(ProfileColumn(p, u), params, plus) for u in us]
                        == [ref(u, plus) for u in us]), (kind, plus)


#: Each family's acceptance set (criteria 04-08): (geometry, epsilon_branch,
#: params), every constant-mean branch included
_ACCEPTANCE_SETS = {
    FamilyKind.CONSTANT_GAUSS: [
        (E, None, dict(K0=-1.0, alpha=0.0, beta=1.0, u_min=0.5, u_max=2.0,
                       b=1.0)),
        (H, None, dict(K0=1.0, alpha=1.0, beta=0.0, u_min=0.3, u_max=1.2,
                       b=1.0))],
    FamilyKind.CONSTANT_MEAN: [
        (E, None, dict(a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5)),
        (H, 1, dict(a=0.5, b=1.0, C=-0.6, f0=0.8, u_span=2.0)),
        (H, -1, dict(a=0.5, b=1.0, C=0.0, f0=0.5, u_span=2.0))],
    FamilyKind.CONSTANT_K: [
        (E, None, dict(a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0)),
        (H, None, dict(a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7))],
    FamilyKind.CHEN: [
        (E, None, dict(a=-1.0, b=1.0, f0=1.2, u_span=0.8)),
        (H, None, dict(a=-1.0, b=0.5, f0=0.7, u_span=1.2))],
    FamilyKind.PARALLEL_A: [
        (E, None, dict(c=0.0, d=-1.0, u_min=1.1, u_max=3.0)),
        (H, None, dict(c=0.0, d=1.0, u_min=0.1, u_max=0.9))],
    FamilyKind.PARALLEL_B: [
        (E, None, dict(a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)),
        (H, None, dict(a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25))],
}


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_every_row_ode_vanishes_on_its_family(kind):
    assert set(_ACCEPTANCE_SETS) == set(FAMILY_TABLE) == set(FamilyKind)
    for geometry, eps, params in _ACCEPTANCE_SETS[kind]:
        s = FamilySpec(kind, geometry, params=params, epsilon_branch=eps)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof),
                                prof.domain) <= 1e-7, (geometry, eps)


def test_readme_table_names_each_family_parameter():
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = line.split("|")
        if len(cells) == 5 and cells[2].strip() in ("`family`",
                                                    "`slope_ode`",
                                                    "`explicit_f`"):
            for name in re.findall(r"`(\w+)`", cells[1]):
                rows[name] = set(re.findall(r"`(\w+)`", cells[3]))
    for kind, row in FAMILY_TABLE.items():
        assert rows[kind.value] == set(row.params), kind
    for name, (fields, _) in EXPLICIT_PROFILES.items():
        assert rows[name] == {*fields, "g0"}, name
