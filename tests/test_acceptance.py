"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import math
import random

import pytest

from conftest import (cos_profile, interior_point, random_surface,
                      sinh_profile, wavy_kappa)
from meridian.curves import (Geometry, SphericalCurve, circle_curve,
                             profile_from_slope_ode)
from meridian.errors import TrappedPointError
from meridian.families import (FamilyKind, FamilySpec, build_family_surface,
                               family_profile, max_ode_residual,
                               ode_residual, verify_family)
from meridian.jets import ScalarFn
from meridian.mink4 import gram, inner
from meridian.surfaces import (MeridianSurface, PointTag, basic_invariants,
                               classify_point, eight_invariants,
                               fundamental_forms_numeric, geometric_frame,
                               invariants_from_forms, mean_curvature_vector)

E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC
TWO_PI = 2.0 * math.pi
SQ2 = math.sqrt(2.0)


def spec(kind, geometry, eps=None, scale=1.0, **params):
    return FamilySpec(FamilyKind(kind), geometry, params=params,
                      epsilon_branch=eps, slope_scale=scale)


@pytest.fixture(scope="module")
def sample_pool():
    """50 randomized surfaces (both geometries, constant and non-constant
    directing curvature) with two interior sample points each."""
    rng = random.Random(20260810)
    pool = []
    for _ in range(50):
        s = random_surface(rng)
        pts = [interior_point(rng, s) for _ in range(2)]
        pool.append((s, pts))
    return pool


def test_criterion_01_oracle_equivalence(sample_pool):
    worst_k, worst_vk = 0.0, 0.0
    for s, pts in sample_pool:
        for u, v in pts:
            k_closed = basic_invariants(s, u, v).k
            k_num, vk_num = invariants_from_forms(
                fundamental_forms_numeric(s, u, v))
            worst_k = max(worst_k, abs(k_num - k_closed) / abs(k_closed))
            worst_vk = max(worst_vk, abs(vk_num))
    assert worst_k <= 1e-5
    assert worst_vk <= 1e-6
    print(f"\nACCEPTANCE 1 PASS: oracle equivalence over 50 surfaces "
          f"(k rel err {worst_k:.2e} <= 1e-5, |varkappa| {worst_vk:.2e} <= 1e-6)")


def test_criterion_02_cross_relations(sample_pool):
    checked = skipped = 0
    for s, pts in sample_pool:
        for u, v in pts:
            cls = classify_point(s, u, v)
            if cls.tag is not PointTag.GENERAL or cls.trapped:
                skipped += 1
                continue
            inv = eight_invariants(s, u, v)
            assert abs(inv.k - (-4.0 * inv.nu1 * inv.nu2 * inv.mu ** 2)) \
                <= 1e-7 * abs(inv.k)
            assert abs(inv.varkappa - (inv.nu1 - inv.nu2) * inv.mu) <= 1e-9
            assert abs(inv.gaussK - inv.epsilon *
                       (inv.nu1 * inv.nu2 - inv.lam ** 2 + inv.mu ** 2)) \
                <= 1e-7 * max(1.0, abs(inv.gaussK))
            assert abs(inv.meanH - abs(inv.nu1 + inv.nu2) / 2.0) <= 1e-9
            checked += 1
    assert checked >= 80
    print(f"\nACCEPTANCE 2 PASS: cross-relations at {checked} general "
          f"non-trapped points ({skipped} skipped)")


def test_criterion_03_worked_point_regression(worked_surface):
    # Hand evaluation at u = pi/4, kappa = 1 for f = cos u:
    #   f = c, fdot = -c, fddot = -c with c = sqrt(2)/2;
    #   V = 1 - fdot^2 = 1/2,  sqrt(V) = c;
    #   phi = f fddot + fdot^2 - 1 = -1/2 + 1/2 - 1 = -1;
    #   D = phi^2 - kappa^2 V = 1 - 1/2 = 1/2 > 0  =>  epsilon = +1;
    #   gamma = -fdot/(sqrt2 f) = c;  nu = sqrt(D)/(2 f sqrt(V)) = c;
    #   lambda = (-kappa^2 V - f^2 fddot^2 + V^2)/(2 f sqrt(V) sqrt(D))
    #          = (-1/2 - 1/4 + 1/4)/(1/sqrt2) = -c;
    #   mu = kappa fddot / sqrt(D) = -c/c = -1;
    #   phi/sqrt(V) = -2 cos u, so d/du = 2 sin u = sqrt2 at pi/4, giving
    #   beta1 = -V kappa (2 sin u)/(sqrt2 D) = -1,  beta2 = +1;
    #   k = -kappa_m^2 kappa^2/f^2 = -2,  K = -fddot/f = 1,  <H,H> = 1/2.
    u = math.pi / 4
    for v in (0.3, 1.8, 4.4):
        inv = eight_invariants(worked_surface, u, v)
        expected = {
            "gamma1": SQ2 / 2, "gamma2": SQ2 / 2,
            "nu1": SQ2 / 2, "nu2": SQ2 / 2,
            "lam": -SQ2 / 2, "mu": -1.0,
            "beta1": -1.0, "beta2": 1.0,
            "k": -2.0, "gaussK": 1.0,
        }
        for field, want in expected.items():
            assert abs(getattr(inv, field) - want) <= 1e-9, field
        assert inv.epsilon == 1
        assert abs(inv.H2 - 0.5) <= 1e-9
    print("\nACCEPTANCE 3 PASS: worked-point regression at (pi/4, v) "
          "within 1e-9")


def test_criterion_04_constant_gauss():
    for K0, geometry, params in (
            (-1.0, E, dict(alpha=0.0, beta=1.0, u_min=0.5, u_max=2.0)),
            (1.0, H, dict(alpha=1.0, beta=0.0, u_min=0.3, u_max=1.2))):
        s = spec("constant_gauss", geometry, K0=K0, b=1.0, **params)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
        rep = verify_family(s, grid=(33, 33), tol=1e-8)
        assert rep.passed, rep
    print("\nACCEPTANCE 4 PASS: constant Gauss curvature families at 1e-8 "
          "and defining-ODE residual <= 1e-8 (K0 = -1 elliptic, K0 = +1 "
          "hyperbolic)")


def test_criterion_05_constant_mean():
    # elliptic branch
    s_e = spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5)
    prof = family_profile(s_e)
    assert max_ode_residual(ode_residual(s_e, prof), prof.domain) <= 1e-7
    assert verify_family(s_e, tol=1e-6).passed
    # hyperbolic, arcsinh variant: passes the plus-sign defining ODE, eps=+1
    s_plus = spec("constant_mean", H, eps=1, a=0.5, b=1.0, C=-0.6, f0=0.8,
                  u_span=2.0)
    prof = family_profile(s_plus)
    assert max_ode_residual(ode_residual(s_plus, prof), prof.domain) <= 1e-7
    assert verify_family(s_plus, tol=1e-6).passed
    surf = build_family_surface(s_plus)
    assert eight_invariants(surf, 0.5 * sum(prof.domain), 1.0).epsilon == 1
    # hyperbolic, arcsin variant: minus-sign ODE, eps=-1
    s_minus = spec("constant_mean", H, eps=-1, a=0.5, b=1.0, C=0.0, f0=0.5,
                   u_span=2.0)
    prof = family_profile(s_minus)
    assert max_ode_residual(ode_residual(s_minus, prof),
                            prof.domain) <= 1e-7
    assert verify_family(s_minus, tol=1e-6).passed
    surf = build_family_surface(s_minus)
    assert eight_invariants(surf, 0.5 * sum(prof.domain), 1.0).epsilon == -1
    # arcsin slope against the plus-sign ODE: must fail loudly
    rep = verify_family(spec("constant_mean", H, eps="printed-vs-eq18",
                             a=0.5, b=1.0, C=0.0, f0=0.5, u_span=2.0),
                        tol=1e-7)
    assert not rep.passed
    assert rep.max_abs_residual > 1e-2
    print("\nACCEPTANCE 5 PASS: constant mean curvature families "
          "(elliptic + both hyperbolic branches; mismatched branch "
          f"check fails with residual {rep.max_abs_residual:.3f})")


def test_criterion_06_constant_k():
    for geometry, params in ((E, dict(a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0)),
                             (H, dict(a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7))):
        s = spec("constant_k", geometry, **params)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
        assert verify_family(s, tol=1e-6).passed
    print("\nACCEPTANCE 6 PASS: constant-k families, |k + a^2| <= 1e-6 "
          "and defining-ODE residual <= 1e-8, both geometries")


def test_criterion_07_chen():
    from meridian.surfaces import allied_coefficient
    for geometry, params in ((E, dict(a=-1.0, b=1.0, f0=1.2, u_span=0.8)),
                             (H, dict(a=-1.0, b=0.5, f0=0.7, u_span=1.2))):
        s = spec("chen", geometry, **params)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
        assert verify_family(s, tol=1e-6).passed
        surf = build_family_surface(s)
        lo, hi = prof.domain
        for frac in (0.2, 0.5, 0.8):
            for v in (0.4, 2.9):
                a = allied_coefficient(surf, lo + frac * (hi - lo), v)
                assert abs(a) <= 1e-7
    print("\nACCEPTANCE 7 PASS: Chen families, |lambda| <= 1e-6 and "
          "allied coefficient <= 1e-7, both geometries")


def test_criterion_08_parallel_normal_bundle():
    # case (a): closed-form profiles, betas vanish for non-constant kappa
    for geometry, params in ((E, dict(c=0.0, d=-1.0, u_min=1.1, u_max=3.0)),
                             (H, dict(c=0.0, d=1.0, u_min=0.1, u_max=0.9))):
        s = spec("parallel_a", geometry, **params)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
        assert verify_family(s, tol=1e-8).passed  # wavy default curve
    # case (b): slope profiles with constant kappa
    for geometry, params in (
            (E, dict(a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0)),
            (H, dict(a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25))):
        s = spec("parallel_b", geometry, **params)
        prof = family_profile(s)
        assert max_ode_residual(ode_residual(s, prof), prof.domain) <= 1e-8
        assert verify_family(s, tol=1e-8).passed
    # sensitivity: case (b) must fail when kappa is not constant
    prof = family_profile(spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0,
                               u_span=1.0))
    surf = MeridianSurface(prof, SphericalCurve(wavy_kappa(), E))
    worst = 0.0
    for frac in (0.2, 0.5, 0.8):
        u = prof.domain[0] + frac * (prof.domain[1] - prof.domain[0])
        for v in (0.5, 1.7, 3.9):
            inv = eight_invariants(surf, u, v)
            worst = max(worst, abs(inv.beta1), abs(inv.beta2))
    assert worst > 1e-6
    print("\nACCEPTANCE 8 PASS: parallel-normal-bundle families, "
          f"betas <= 1e-8; non-constant kappa breaks case (b) "
          f"(worst beta {worst:.2e})")


def test_criterion_09_frenet_integrator():
    worst_drift = 0.0
    for geometry, b in ((E, 1.3), (H, 0.8)):
        c = SphericalCurve(ScalarFn.constant(b), geometry)
        sig = geometry.curve_signature
        for i in range(33):
            v = TWO_PI * i / 32
            fr = c.frame(v)
            G = gram([fr.l, fr.t, fr.n])
            drift = max(abs(G[a][j] - (sig[a] if a == j else 0.0))
                        for a in range(3) for j in range(3))
            assert drift <= 1e-9 * max(1.0, v)
            worst_drift = max(worst_drift, drift)
    closed = circle_curve(1.0, E)
    start = closed.frame(0.0)
    integrated = SphericalCurve(ScalarFn.constant(1.0), E, l0=start.l,
                                t0=start.t, n0=start.n)
    worst_circle = 0.0
    for i in range(33):
        v = TWO_PI * i / 32
        a, b2 = closed.frame(v), integrated.frame(v)
        for x, y in ((a.l, b2.l), (a.t, b2.t), (a.n, b2.n)):
            worst_circle = max(worst_circle,
                               max(abs(p - q) for p, q in
                                   zip(x.coords(), y.coords())))
    assert worst_circle <= 1e-8
    print(f"\nACCEPTANCE 9 PASS: Frenet integrator (Gram drift "
          f"{worst_drift:.2e} <= 1e-9/unit v; circle match "
          f"{worst_circle:.2e} <= 1e-8)")


def test_criterion_10_guard_rails(sample_pool, worked_surface):
    # marginally trapped sample raises
    u0 = 0.6
    trapped = MeridianSurface(
        cos_profile(), circle_curve(2.0 * math.cos(u0), H))
    with pytest.raises(TrappedPointError):
        geometric_frame(trapped, u0, 0.5)
    # a trapped H is lightlike, not zero
    assert classify_point(trapped, u0, 0.5).trapped
    H_trapped = mean_curvature_vector(trapped, u0, 0.5)
    assert max(abs(c) for c in H_trapped.coords()) > 0.0
    # flat classifications
    flat1 = MeridianSurface(sinh_profile(), circle_curve(0.0, E))
    assert classify_point(flat1, 1.0, 0.5).tag is PointTag.FLAT_CASE_I
    flat2 = MeridianSurface(
        profile_from_slope_ode(ScalarFn.constant(SQ2), 1.0, E, 0.0, 1.0),
        circle_curve(1.0, E))
    assert classify_point(flat2, 0.5, 0.5).tag is PointTag.FLAT_CASE_II
    # H vanishes at no general sample, trapped ones included
    checked = 0
    for s, pts in sample_pool:
        for u, v in pts:
            cls = classify_point(s, u, v)
            if cls.tag is PointTag.GENERAL:
                H_vec = mean_curvature_vector(s, u, v)
                assert max(abs(c) for c in H_vec.coords()) > 0.0
                if not cls.trapped:
                    assert basic_invariants(s, u, v).meanH > 0.0
                checked += 1
    assert checked >= 80
    print(f"\nACCEPTANCE 10 PASS: guard rails (trapped error, flat cases "
          f"I/II, H nonzero at {checked} general samples)")


def test_criterion_11_verifier_sensitivity():
    bases = [
        spec("constant_mean", E, a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5),
        spec("constant_mean", H, eps=-1, a=0.5, b=1.0, C=0.0, f0=0.5,
             u_span=2.0),
        spec("constant_k", E, a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0),
        spec("constant_k", H, a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7),
        spec("chen", E, a=-1.0, b=1.0, f0=1.2, u_span=0.8),
        spec("chen", H, a=-1.0, b=0.5, f0=0.7, u_span=1.2),
        spec("parallel_b", E, a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0),
        spec("parallel_b", H, a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25),
    ]
    for base in bases:
        assert verify_family(base, tol=1e-6).passed, base.kind
        perturbed = FamilySpec(base.kind, base.geometry,
                               params=dict(base.params),
                               epsilon_branch=base.epsilon_branch,
                               slope_scale=1.001)
        rep = verify_family(perturbed, tol=1e-6)
        assert not rep.passed, (base.kind, rep)
    print("\nACCEPTANCE 11 PASS: every slope family flips to FAIL at "
          "tol 1e-6 under a (1 + 1e-3) slope perturbation")
