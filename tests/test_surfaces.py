import dataclasses
import math
import random

import pytest

from conftest import (boosted_hyperbolic_frame, close, cos_profile,
                      interior_point, random_surface, sinh_profile,
                      wavy_kappa)
from meridian import jets, surfaces
from meridian.curves import (Geometry, ProfileColumn, SphericalCurve,
                             circle_curve, profile_from_slope_ode)
from meridian.errors import FlatPointError, MisuseError, TrappedPointError
from meridian.families import parallel_profile_case_a
from meridian.jets import ScalarFn
from meridian.mink4 import Vec4, gram, inner
from meridian.surfaces import (KType, MeridianSurface, PointTag,
                               adapted_frame, allied_coefficient,
                               basic_invariants, classify_point,
                               eight_invariants, fundamental_forms_numeric,
                               geometric_frame, invariants_from_forms,
                               mean_curvature_vector, position)

SQ2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def rng():
    return random.Random(991)


@pytest.fixture(scope="module")
def elliptic_sinh_surface():
    # f = sinh u, g = cosh u (g0 chosen accordingly), great circle directrix
    prof = sinh_profile(g0=math.cosh(0.5))
    return MeridianSurface(prof, circle_curve(0.0, Geometry.ELLIPTIC))


@pytest.fixture(scope="module")
def elliptic_sinh_b1_surface():
    prof = sinh_profile(g0=math.cosh(0.5))
    return MeridianSurface(prof, circle_curve(1.0, Geometry.ELLIPTIC))


@pytest.fixture(scope="module")
def hyperbolic_cos_surface(worked_surface):
    return worked_surface


# -- position -----------------------------------------------------------------


def test_position_elliptic_example(elliptic_sinh_surface):
    z = position(elliptic_sinh_surface, 1.0, 0.0)
    assert max(abs(a - b) for a, b in zip(
        z.coords(), (math.sinh(1.0), 0.0, 0.0, math.cosh(1.0)))) <= 1e-10
    assert abs(inner(z, z) - (-1.0)) <= 1e-10  # sinh^2 - cosh^2


def test_position_hyperbolic_example(hyperbolic_cos_surface):
    z = position(hyperbolic_cos_surface, math.pi / 4, 0.0)
    assert max(abs(a - b) for a, b in zip(
        z.coords(), (SQ2 / 2, SQ2 / 2, 0.0, 0.0))) <= 1e-10


def test_position_mismatched_geometry_rejected():
    with pytest.raises(MisuseError):
        MeridianSurface(sinh_profile(), circle_curve(1.0, Geometry.HYPERBOLIC))


# -- adapted frame ------------------------------------------------------------


def test_adapted_frame_elliptic_example(elliptic_sinh_surface):
    fr = adapted_frame(elliptic_sinh_surface, 1.0, 0.0)
    assert max(abs(a - b) for a, b in zip(
        fr.X.coords(), (math.cosh(1.0), 0, 0, math.sinh(1.0)))) <= 1e-10
    assert max(abs(a - b) for a, b in zip(fr.Y.coords(), (0, 1, 0, 0))) <= 1e-10
    assert max(abs(a - b) for a, b in zip(
        fr.n2.coords(), (math.sinh(1.0), 0, 0, math.cosh(1.0)))) <= 1e-10


def test_adapted_frame_hyperbolic_example(hyperbolic_cos_surface):
    fr = adapted_frame(hyperbolic_cos_surface, math.pi / 4, 0.0)
    assert max(abs(a - b) for a, b in zip(
        fr.n1.coords(), (SQ2 / 2, SQ2 / 2, 0.0, 0.0))) <= 1e-10
    assert abs(inner(fr.n1, fr.n1) - 1.0) <= 1e-12


def test_adapted_frame_gram_random_samples(rng):
    expected = [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, -1.0]]
    for _ in range(100):
        s = random_surface(rng)
        u, v = interior_point(rng, s)
        fr = adapted_frame(s, u, v)
        G = gram([fr.X, fr.Y, fr.n1, fr.n2])
        worst = max(abs(G[i][j] - expected[i][j])
                    for i in range(4) for j in range(4))
        assert worst <= 1e-9


# -- fundamental forms --------------------------------------------------------


def test_first_form_matches_closed_values(rng):
    for _ in range(6):
        s = random_surface(rng)
        u, v = interior_point(rng, s)
        ff = fundamental_forms_numeric(s, u, v)
        f = s.profile.f_jet(u).v
        assert abs(ff.E - 1.0) <= 1e-6
        assert abs(ff.F) <= 1e-6
        assert abs(ff.G - f * f) <= 1e-6 * max(1.0, f * f)


def test_flat_case_has_vanishing_second_form(elliptic_sinh_surface):
    # kappa = 0 (great circle): every point is flat, L = M = N = 0
    ff = fundamental_forms_numeric(elliptic_sinh_surface, 1.2, 0.8)
    assert max(abs(ff.L), abs(ff.M), abs(ff.N)) <= 1e-6


def test_numeric_k_matches_worked_value(hyperbolic_cos_surface):
    ff = fundamental_forms_numeric(hyperbolic_cos_surface, math.pi / 4, 0.3)
    k_num, vk_num = invariants_from_forms(ff)
    assert abs(k_num - (-2.0)) <= 1e-5
    assert abs(vk_num) <= 1e-6


def _nine_call_partials(surf, u, v, h):
    """The point stencil: nine separate calls of the position map, the
    bitwise reference for fd_partials2's single 3x3 grid call."""
    z00 = surf(u, v)
    zpu, zmu = surf(u + h, v), surf(u - h, v)
    zpv, zmv = surf(u, v + h), surf(u, v - h)
    zpp, zpm = surf(u + h, v + h), surf(u + h, v - h)
    zmp, zmm = surf(u - h, v + h), surf(u - h, v - h)
    inv2h = 1.0 / (2.0 * h)
    invh2 = 1.0 / (h * h)
    return {
        "z_u": (zpu - zmu) * inv2h,
        "z_v": (zpv - zmv) * inv2h,
        "z_uu": (zpu - 2.0 * z00 + zmu) * invh2,
        "z_vv": (zpv - 2.0 * z00 + zmv) * invh2,
        "z_uv": (zpp - zpm - zmp + zmm) * (0.25 * invh2),
    }


def _forms_test_surface(geometry, kappa_kind, profile_kind):
    elliptic = geometry is Geometry.ELLIPTIC
    b = 1.2 if elliptic else 0.6
    if kappa_kind == "constant":
        curve = circle_curve(b, geometry)
    elif kappa_kind == "hermite":
        xs = [0.25 * i - 2.0 for i in range(40)]
        curve = SphericalCurve(jets.hermite_fn(
            xs, [b + 0.2 * math.sin(x) for x in xs],
            [0.2 * math.cos(x) for x in xs], name="kappa"), geometry)
    else:
        curve = SphericalCurve(wavy_kappa(b, 0.2, 0.7), geometry)
    if profile_kind == "explicit":
        profile = sinh_profile(g0=0.3) if elliptic else cos_profile()
    else:
        y = (ScalarFn(lambda t: 1.0 + 0.5 * t * t, name="y") if elliptic
             else ScalarFn(lambda t: 0.2 + 0.5 / (1.0 + t * t), name="y"))
        profile = profile_from_slope_ode(y, 0.5, geometry, 0.1, 0.6)
    return MeridianSurface(profile, curve)


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("kappa_kind", ["constant", "hermite", "jets"])
@pytest.mark.parametrize("profile_kind", ["explicit", "slope_ode"])
def test_fd_forms_match_nine_call_stencil_bitwise(monkeypatch, geometry,
                                                  kappa_kind, profile_kind):
    rng = random.Random(f"{geometry.value}/{kappa_kind}/{profile_kind}")
    s = _forms_test_surface(geometry, kappa_kind, profile_kind)
    lo, hi = s.profile.domain
    points = [(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)),
               rng.uniform(-1.5, 7.5)) for _ in range(6)]
    got = [dataclasses.astuple(fundamental_forms_numeric(s, u, v))
           for u, v in points]
    ref = _forms_test_surface(geometry, kappa_kind, profile_kind)
    monkeypatch.setattr(surfaces, "fd_partials2", lambda grid, u, v, h:
                        _nine_call_partials(ref.position, u, v, h))
    want = [dataclasses.astuple(fundamental_forms_numeric(ref, u, v))
            for u, v in points]
    assert got == want


# -- basic invariants ---------------------------------------------------------


def test_basic_invariants_elliptic_example(elliptic_sinh_b1_surface):
    inv = basic_invariants(elliptic_sinh_b1_surface, 1.0, 0.4)
    assert abs(inv.gaussK - (-1.0)) <= 1e-12
    assert abs(inv.k - (-1.0 / math.sinh(1.0) ** 2)) <= 1e-12
    assert inv.varkappa == 0.0


def test_basic_invariants_hyperbolic_example(hyperbolic_cos_surface):
    inv = basic_invariants(hyperbolic_cos_surface, math.pi / 4, 1.1)
    assert abs(inv.gaussK - 1.0) <= 1e-12
    assert abs(inv.k - (-2.0)) <= 1e-12
    assert abs(inv.H2 - 0.5) <= 1e-12
    assert abs(inv.meanH - SQ2 / 2) <= 1e-12


def test_numeric_oracle_agreement_sample(rng):
    for _ in range(8):
        s = random_surface(rng)
        u, v = interior_point(rng, s)
        k_cf = basic_invariants(s, u, v).k
        k_num, vk_num = invariants_from_forms(fundamental_forms_numeric(s, u, v))
        assert abs(k_num - k_cf) <= 1e-5 * abs(k_cf)
        assert abs(vk_num) <= 1e-6


# -- mean curvature vector ----------------------------------------------------


def test_mean_curvature_hyperbolic_worked_point(hyperbolic_cos_surface):
    u = math.pi / 4
    H = mean_curvature_vector(hyperbolic_cos_surface, u, 0.8)
    fr = adapted_frame(hyperbolic_cos_surface, u, 0.8)
    assert abs(inner(H, fr.n1) - (-1.0)) <= 1e-12          # coefficient on n1
    assert abs(-inner(H, fr.n2) - (-1.0 / SQ2)) <= 1e-12   # coefficient on n2
    assert abs(inner(H, H) - basic_invariants(
        hyperbolic_cos_surface, u, 0.8).H2) <= 1e-9


def test_parallel_case_a_mean_curvature_along_n1():
    prof = parallel_profile_case_a(0.0, -1.0, Geometry.ELLIPTIC, (1.1, 3.0))
    s = MeridianSurface(prof, circle_curve(1.0, Geometry.ELLIPTIC))
    u = 1.7
    # (f^2)'' = 2 forces f fddot + fdot^2 = 1
    assert abs(ProfileColumn(prof, u).phi) <= 1e-12
    H = mean_curvature_vector(s, u, 0.5)
    fr = adapted_frame(s, u, 0.5)
    f = prof.f_jet(u).v
    kap = 1.0
    expected = (kap / (2 * f)) * fr.n1
    assert max(abs(a - b) for a, b in zip(H.coords(), expected.coords())) <= 1e-12


def test_mean_curvature_rejects_flat_points(elliptic_sinh_surface):
    with pytest.raises(FlatPointError):
        mean_curvature_vector(elliptic_sinh_surface, 1.0, 0.5)


# -- geometric frame ----------------------------------------------------------


def test_geometric_frame_epsilon_branches(hyperbolic_cos_surface):
    gf = geometric_frame(hyperbolic_cos_surface, math.pi / 4, 0.6)
    assert gf.epsilon == 1  # <H,H> = 1/2 > 0
    u_neg = math.acos(0.4)  # <H,H> = 1 - 1/(4*0.16) < 0
    gf_neg = geometric_frame(hyperbolic_cos_surface, u_neg, 0.6)
    assert gf_neg.epsilon == -1


@pytest.mark.parametrize("u,eps", [(math.pi / 4, 1), (math.acos(0.4), -1)])
def test_geometric_frame_gram_structure(hyperbolic_cos_surface, u, eps):
    gf = geometric_frame(hyperbolic_cos_surface, u, 1.3)
    G = gram([gf.x, gf.y, gf.b, gf.l])
    expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, eps, 0], [0, 0, 0, -eps]]
    worst = max(abs(G[i][j] - expected[i][j]) for i in range(4) for j in range(4))
    assert worst <= 1e-9
    # epsilon-branch consistency: <b,b> = eps and <l,l> = -eps
    assert abs(inner(gf.b, gf.b) - eps) <= 1e-9
    assert abs(inner(gf.l, gf.l) + eps) <= 1e-9


def test_b_collinear_with_h(hyperbolic_cos_surface):
    u, v = math.pi / 4, 0.9
    gf = geometric_frame(hyperbolic_cos_surface, u, v)
    H = mean_curvature_vector(hyperbolic_cos_surface, u, v)
    assert inner(H, gf.b) > 0.0
    norm = math.sqrt(abs(inner(H, H)))
    assert max(abs(a - b) for a, b in
               zip(H.coords(), (norm * gf.b).coords())) <= 1e-9


def test_marginally_trapped_rejected():
    u0 = 0.6
    prof = cos_profile()
    s = MeridianSurface(prof, circle_curve(2.0 * math.cos(u0),
                                           Geometry.HYPERBOLIC))
    with pytest.raises(TrappedPointError):
        geometric_frame(s, u0, 0.5)
    with pytest.raises(TrappedPointError):
        eight_invariants(s, u0, 0.5)


# -- eight invariants ---------------------------------------------------------


def test_worked_point_invariants(hyperbolic_cos_surface):
    for v in (0.4, 2.1):
        inv = eight_invariants(hyperbolic_cos_surface, math.pi / 4, v)
        assert abs(inv.gamma1 - SQ2 / 2) <= 1e-9
        assert abs(inv.gamma2 - SQ2 / 2) <= 1e-9
        assert abs(inv.nu1 - SQ2 / 2) <= 1e-9
        assert abs(inv.nu2 - SQ2 / 2) <= 1e-9
        assert abs(inv.lam - (-SQ2 / 2)) <= 1e-9
        assert abs(inv.mu - (-1.0)) <= 1e-9
        assert abs(inv.beta1 - (-1.0)) <= 1e-9
        assert abs(inv.beta2 - 1.0) <= 1e-9
        assert inv.epsilon == 1
        assert abs(inv.k - (-2.0)) <= 1e-9
        assert abs(inv.gaussK - 1.0) <= 1e-9


def test_constant_kappa_betas_antisymmetric(rng):
    for _ in range(6):
        s = random_surface(rng)
        if not s.curve.is_constant_kappa():
            continue
        u, v = interior_point(rng, s)
        try:
            inv = eight_invariants(s, u, v)
        except TrappedPointError:
            continue
        assert abs(inv.beta1 + inv.beta2) <= 1e-9


def test_parallel_case_a_betas_vanish_nonconstant_kappa():
    prof = parallel_profile_case_a(0.0, -1.0, Geometry.ELLIPTIC, (1.1, 3.0))
    s = MeridianSurface(prof, SphericalCurve(wavy_kappa(), Geometry.ELLIPTIC))
    for u in (1.2, 1.8, 2.7):
        for v in (0.5, 2.0, 4.4):
            inv = eight_invariants(s, u, v)
            assert max(abs(inv.beta1), abs(inv.beta2)) <= 1e-8


def test_cross_relations_random(rng):
    checked = 0
    while checked < 25:
        s = random_surface(rng)
        u, v = interior_point(rng, s)
        try:
            inv = eight_invariants(s, u, v)
        except TrappedPointError:
            continue
        checked += 1
        assert abs(inv.nu1 - inv.nu2) <= 1e-12
        assert abs(inv.k - (-4 * inv.nu1 * inv.nu2 * inv.mu ** 2)) \
            <= 1e-7 * abs(inv.k)
        assert abs(inv.varkappa - (inv.nu1 - inv.nu2) * inv.mu) <= 1e-9
        assert abs(inv.gaussK - inv.epsilon *
                   (inv.nu1 * inv.nu2 - inv.lam ** 2 + inv.mu ** 2)) \
            <= 1e-7 * max(1.0, abs(inv.gaussK))
        assert abs(inv.meanH - abs(inv.nu1 + inv.nu2) / 2) <= 1e-9


def test_invariants_independent_of_initial_frame():
    kappa = wavy_kappa(1.0, 0.3)
    prof = cos_profile()
    standard = SphericalCurve(wavy_kappa(1.0, 0.3), Geometry.HYPERBOLIC)
    l0, t0, n0 = boosted_hyperbolic_frame()
    boosted = SphericalCurve(kappa, Geometry.HYPERBOLIC, l0=l0, t0=t0, n0=n0)
    s1 = MeridianSurface(prof, standard)
    s2 = MeridianSurface(cos_profile(), boosted)
    u, v = 0.8, 0.9
    a, b = eight_invariants(s1, u, v), eight_invariants(s2, u, v)
    for field in ("gamma1", "gamma2", "nu1", "nu2", "lam", "mu",
                  "beta1", "beta2", "k", "gaussK", "meanH"):
        assert close(getattr(a, field), getattr(b, field), 1e-7)
    k1, _ = invariants_from_forms(fundamental_forms_numeric(s1, u, v))
    k2, _ = invariants_from_forms(fundamental_forms_numeric(s2, u, v))
    assert close(k1, k2, 1e-5)


# -- allied coefficient -------------------------------------------------------


def test_allied_coefficient_worked_point(hyperbolic_cos_surface):
    a = allied_coefficient(hyperbolic_cos_surface, math.pi / 4, 0.7)
    assert abs(a - (-0.5)) <= 1e-9  # sqrt(-k)/2 * lambda = (sqrt2/2)(-sqrt2/2)


# -- classification -----------------------------------------------------------


def test_classify_flat_case_one(elliptic_sinh_surface):
    cls = classify_point(elliptic_sinh_surface, 1.0, 0.5)
    assert cls.tag is PointTag.FLAT_CASE_I
    assert cls.ktype is KType.PARABOLIC_PT


def test_classify_flat_case_two():
    from meridian.curves import profile_from_slope_ode
    prof = profile_from_slope_ode(ScalarFn.constant(math.sqrt(2.0)), 1.0,
                                  Geometry.ELLIPTIC, 0.0, 1.0)
    s = MeridianSurface(prof, circle_curve(1.0, Geometry.ELLIPTIC))
    cls = classify_point(s, 0.5, 0.5)
    assert cls.tag is PointTag.FLAT_CASE_II
    assert cls.ktype is KType.PARABOLIC_PT


def test_classify_general_point(hyperbolic_cos_surface):
    cls = classify_point(hyperbolic_cos_surface, math.pi / 4, 0.5)
    assert cls.tag is PointTag.GENERAL
    assert cls.ktype is KType.HYPERBOLIC_PT
    assert not cls.trapped
    assert not cls.minimal


def test_classify_trapped_flag():
    u0 = 0.6
    s = MeridianSurface(cos_profile(),
                        circle_curve(2.0 * math.cos(u0), Geometry.HYPERBOLIC))
    assert classify_point(s, u0, 0.5).trapped
