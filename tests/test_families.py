import dataclasses
import math
import pathlib
import re

import pytest

from conftest import close, wavy_kappa
from meridian.curves import (Geometry, ProfileColumn, SphericalCurve,
                             circle_curve)
from meridian.errors import (FamilyDomainError, MisuseError,
                             ProfileDomainError)
from meridian.families import (FamilyKind, FamilySpec, build_family_surface,
                               chen_ode_residual, chen_slope,
                               cmc_ode_residual, constant_gauss_profile,
                               constant_k_ode_residual, constant_k_slope,
                               constant_mean_slope, family_profile,
                               max_ode_residual, parallel_a_ode_residual,
                               parallel_b_ode_residual,
                               parallel_profile_case_a, parallel_slope_case_b,
                               verify_family)
from meridian.cli import _json_float
from meridian.families import (EXPLICIT_PROFILES, FAMILY_TABLE,
                               _sweep_profile_residual)
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


# -- constant mean curvature --------------------------------------------------


def test_cmc_elliptic_ode_and_invariant():
    s = spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5)
    prof = family_profile(s)
    assert max_ode_residual(cmc_ode_residual(prof, 1.0, 4.0, plus_sign=False),
                            prof.domain) <= 1e-7
    rep = verify_family(s, tol=1e-6)
    assert rep.passed and rep.n_samples > 500


def test_cmc_hyperbolic_arcsinh_branch():
    s = spec("constant_mean", H, eps=1, a=0.5, b=1.0, C=-0.6, f0=0.8,
             u_span=2.0)
    prof = family_profile(s)
    assert max_ode_residual(cmc_ode_residual(prof, 0.5, 1.0, plus_sign=True),
                            prof.domain) <= 1e-7
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
    assert max_ode_residual(cmc_ode_residual(prof, 0.5, 1.0, plus_sign=False),
                            prof.domain) <= 1e-7
    # ... and misses the plus-sign one by a wide margin
    assert max_ode_residual(cmc_ode_residual(prof, 0.5, 1.0, plus_sign=True),
                            prof.domain) > 1e-2
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


def test_cmc_rejects_degenerate_parameters():
    with pytest.raises(FamilyDomainError):
        constant_mean_slope(0.0, 1.0, 0.0, E)
    with pytest.raises(FamilyDomainError):
        constant_mean_slope(1.0, 1.0, 0.0, E, epsilon_branch=-1)


# -- constant invariant k -----------------------------------------------------


def test_constant_k_elliptic():
    s = spec("constant_k", E, a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0)
    prof = family_profile(s)
    assert max_ode_residual(constant_k_ode_residual(prof, 1.0, 1.0),
                            prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed


def test_constant_k_hyperbolic():
    s = spec("constant_k", H, a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7)
    prof = family_profile(s)
    assert max_ode_residual(constant_k_ode_residual(prof, 1.0, 2.0),
                            prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed


# -- Chen surfaces ------------------------------------------------------------


def test_chen_elliptic_lambda_and_allied():
    s = spec("chen", E, a=-1.0, b=1.0, f0=1.2, u_span=0.8)
    prof = family_profile(s)
    assert max_ode_residual(chen_ode_residual(prof, 1.0), prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-6)
    assert rep.passed
    surf = build_family_surface(s)
    for u in (0.2, 0.5):
        for v in (0.4, 1.9):
            assert abs(allied_coefficient(surf, u, v)) <= 1e-7


def test_chen_hyperbolic():
    s = spec("chen", H, a=-1.0, b=0.5, f0=0.7, u_span=1.2)
    prof = family_profile(s)
    assert max_ode_residual(chen_ode_residual(prof, 0.5), prof.domain) <= 1e-8
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


def test_parallel_b_elliptic_simple_slope():
    y = parallel_slope_case_b(1.0, 0.0, E)
    assert abs(y(2.0) - math.sqrt(2.0)) <= 1e-12  # sqrt(2 t^2) / t


def test_parallel_b_elliptic_family():
    s = spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)
    prof = family_profile(s)
    assert max_ode_residual(parallel_b_ode_residual(prof, 1.0),
                            prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-7)
    assert rep.passed


def test_parallel_b_hyperbolic_truncates_at_boundary():
    s = spec("parallel_b", H, a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25)
    prof = family_profile(s)
    # fdot^2 -> 1 as f -> c/a = 0.2: integration must stop short of it
    assert prof.f_jet(prof.domain[1]).v < 0.2
    assert max_ode_residual(parallel_b_ode_residual(prof, 0.5),
                            prof.domain) <= 1e-8
    rep = verify_family(s, tol=1e-8)
    assert rep.passed


def test_parallel_b_rejects_nonconstant_kappa():
    s = spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)
    curve = SphericalCurve(wavy_kappa(), E)
    with pytest.raises(MisuseError):
        build_family_surface(s, curve=curve)


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
    assert dataclasses.asdict(s)["params"] == dict(s.params)
    assert verify_family(s, tol=1e-8).passed
    with pytest.raises(FamilyDomainError, match="missing parameter 'b'"):
        build_family_surface(spec("constant_gauss", E, K0=-1.0, beta=1.0,
                                  u_min=0.5, u_max=2.0))


def test_nan_residual_fails_verification():
    # every residual is NaN: the report must fail, not pass at -1
    curve = SphericalCurve(ScalarFn(lambda t: 0.0 * t + math.nan), E)
    rep = verify_family(spec("constant_k", E, **_K_ELL), grid=(5, 5),
                        curve=curve)
    assert not rep.passed
    assert math.isnan(rep.max_abs_residual)
    assert _json_float(rep.max_abs_residual) is None
    prof = family_profile(spec("constant_k", E, **_K_ELL))
    rep = _sweep_profile_residual(prof, lambda u: math.nan, 5, 1e-6, "nan")
    assert not rep.passed and math.isnan(rep.max_abs_residual)


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


# -- defining-ODE residuals read one profile column --------------------------


def _ref_phi(p, u):
    j = p.f_jet(u)
    return j.v * j.d2 + j.d1 * j.d1 - 1.0


def _ref_normalization(p, u):
    j = p.f_jet(u)
    return p.geometry.normalization_sign * (j.d1 * j.d1 - 1.0)


def _reference_residuals(p, a, b):
    """The five residuals as written on per-quantity f_jet calls, before
    they read a ProfileColumn; each must agree bit for bit."""
    def cmc(plus_sign):
        def residual(u):
            f = p.f_jet(u).v
            phi = _ref_phi(p, u)
            V = _ref_normalization(p, u)
            rad = b * b + (4.0 if plus_sign else -4.0) * a * a * f * f
            return phi * phi - V * rad
        return residual

    def constant_k(u):
        j = p.f_jet(u)
        V = _ref_normalization(p, u)
        return b * b * j.d2 * j.d2 - a * a * j.v * j.v * V

    def chen(u):
        j = p.f_jet(u)
        V = _ref_normalization(p, u)
        return V * V - j.v * j.v * j.d2 * j.d2 - b * b * V

    return [(cmc(True), cmc_ode_residual(p, a, b, plus_sign=True)),
            (cmc(False), cmc_ode_residual(p, a, b, plus_sign=False)),
            (constant_k, constant_k_ode_residual(p, a, b)),
            (chen, chen_ode_residual(p, b)),
            (lambda u: _ref_phi(p, u)
             - a * math.sqrt(_ref_normalization(p, u)),
             parallel_b_ode_residual(p, a)),
            (lambda u: _ref_phi(p, u), parallel_a_ode_residual(p))]


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
        for ref, residual in _reference_residuals(p, a, b):
            assert [residual(u) for u in us] == [ref(u) for u in us]


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
