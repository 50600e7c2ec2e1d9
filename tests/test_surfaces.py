import hashlib
import math
import random

import pytest

from conftest import (boosted_hyperbolic_frame, close, cos_profile,
                      interior_point, random_surface, sinh_profile,
                      wavy_kappa)
from meridian import jets, surfaces
from meridian.curves import (Geometry, ProfileColumn, SphericalCurve,
                             circle_curve, profile_from_f,
                             profile_from_slope_ode)
from meridian.errors import FlatPointError, MisuseError, TrappedPointError
from meridian.families import (harmonic_fn, hyperbolic_harmonic_fn,
                               parallel_profile_case_a)
from meridian.jets import ScalarFn
from meridian.mink4 import Vec4, gram, inner
from meridian.surfaces import (KType, MeridianSurface, PointTag,
                               adapted_frame, allied_coefficient,
                               basic_invariants, classify_point,
                               eight_invariants, fundamental_forms_numeric,
                               geometric_frame, invariants_from_forms,
                               mean_curvature_vector)

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
    z = elliptic_sinh_surface.position(1.0, 0.0)
    assert max(abs(a - b) for a, b in zip(
        z.coords(), (math.sinh(1.0), 0.0, 0.0, math.cosh(1.0)))) <= 1e-10
    assert abs(inner(z, z) - (-1.0)) <= 1e-10  # sinh^2 - cosh^2


def test_position_hyperbolic_example(hyperbolic_cos_surface):
    z = hyperbolic_cos_surface.position(math.pi / 4, 0.0)
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
    got = [tuple(fundamental_forms_numeric(s, u, v)) for u, v in points]
    ref = _forms_test_surface(geometry, kappa_kind, profile_kind)
    monkeypatch.setattr(surfaces, "fd_partials2", lambda grid, u, v, h:
                        _nine_call_partials(ref.position, u, v, h))
    want = [tuple(fundamental_forms_numeric(ref, u, v)) for u, v in points]
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


#: sha256 of the float.hex bits of the point API below, pinned so that a
#: rewrite of its formulas must keep every bit.
POINT_API_BITS = \
    "4fef1edd33ff95b2bbb07122ece9511b38fd53b54f071c6171da4bab829b4d8c"


def test_point_api_bits_golden():
    # both geometries, kappa = +-b and a wavy kappa, both epsilon branches
    E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC
    surfs = ([(sinh_profile(), c) for c in (
        circle_curve(2.5, E), circle_curve(-2.5, E),
        SphericalCurve(wavy_kappa(2.5, 0.3), E))]
        + [(cos_profile(), c) for c in (
            circle_curve(1.5, H), circle_curve(-1.5, H),
            SphericalCurve(wavy_kappa(1.5, 0.1), H))])
    lines, eps_seen = [], set()
    for prof, curve in surfs:
        s = MeridianSurface(prof, curve)
        lo, hi = prof.domain
        for u in (lo + 0.25 * (hi - lo), lo + 0.6 * (hi - lo)):
            for v in (0.4, 2.3):
                fr = adapted_frame(s, u, v)
                gf = geometric_frame(s, u, v)
                ff = fundamental_forms_numeric(s, u, v)
                vecs = (fr.X, fr.Y, fr.n1, fr.n2,
                        mean_curvature_vector(s, u, v),
                        gf.x, gf.y, gf.b, gf.l)
                vals = [c for w in vecs for c in w.coords()]
                vals += [ff.E, ff.F, ff.G, ff.L, ff.M, ff.N, float(gf.epsilon)]
                lines.append(" ".join(x.hex() for x in vals))
                eps_seen.add((s.geometry, gf.epsilon))
    assert len(eps_seen) == 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == POINT_API_BITS


def test_meridian_normal_keeps_the_sign_of_each_zero():
    # the meridian normal adds +0.0 off the axis (elliptic) or subtracts it
    # (hyperbolic); at v = 0 the frame is the initial one, whose -0.0
    # coordinate of l shows which, for fdot < 0 in both geometries
    E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC
    line = profile_from_f(ScalarFn(lambda t: 3.0 - 1.5 * t), E, 0.0,
                          (0.1, 1.0))
    for prof, frame in (
            (line, (Vec4(1.0, -0.0, 0.0, 0.0), Vec4(0.0, 1.0, 0.0, 0.0),
                    Vec4(0.0, 0.0, 1.0, 0.0))),
            (cos_profile(), (Vec4(0.0, 1.0, -0.0, 0.0),
                             Vec4(0.0, 0.0, 1.0, 0.0),
                             Vec4(0.0, 0.0, 0.0, 1.0)))):
        g = prof.geometry
        s = MeridianSurface(prof, SphericalCurve(ScalarFn.constant(0.5), g,
                                                 *frame))
        c = ProfileColumn(prof, 0.5)
        assert c.fdot < 0.0
        l = s.curve.frame(0.0).l
        if g is E:
            want = c.sqV * l + Vec4(0.0, 0.0, 0.0, c.fdot)
            got = adapted_frame(s, 0.5, 0.0).n2
        else:
            want = c.sqV * l - Vec4(c.fdot, 0.0, 0.0, 0.0)
            got = adapted_frame(s, 0.5, 0.0).n1
        assert [x.hex() for x in got.coords()] == \
            [x.hex() for x in want.coords()]
        zero = got.coords()[g.sphere_slots[1]]    # where l holds -0.0
        assert math.copysign(1.0, zero) == (1.0 if g is E else -1.0)


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


def test_betas_at_profile_domain_ends_without_exact_d3():
    # f''' by difference stays inside f's domain: at both ends beta1 and
    # beta2 are finite and within 4.7e-11 (relative, measured) of the exact
    # third derivative's
    curve = circle_curve(1.0, Geometry.HYPERBOLIC)
    got, want = (MeridianSurface(profile_from_f(
        ScalarFn(jets.cos, domain=(0.3, 1.2), d3=d3), Geometry.HYPERBOLIC,
        0.0, (0.3, 1.2)), curve) for d3 in (None, math.sin))
    for u in (0.3, 1.2):
        for v in (0.0, 0.7, -1.3):
            a, b = eight_invariants(got, u, v), eight_invariants(want, u, v)
            for x, y in ((a.beta1, b.beta1), (a.beta2, b.beta2)):
                assert math.isfinite(x) and abs(x - y) <= 1e-9 * abs(y)


def test_constant_kappa_betas_antisymmetric(rng):
    for _ in range(6):
        s = random_surface(rng)
        if s.curve.constant_kappa is None:
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


#: (geometry, f, domain, kappa = b0 + b1 sin(v + p) as (b0, b1, p), (u, v))
#: at general points with kappa' != 0 and |beta1|, |beta2| > 0.1, one for each
#: geometry and epsilon, the epsilon of the id
FRAME_FD_POINTS = {
    "elliptic-1": (Geometry.ELLIPTIC,
                   hyperbolic_harmonic_fn(0.9345, 0.8444, 0.8602),
                   (0.6975, 2.3251), (2.1773, 0.5393, 5.6847),
                   (1.6814, 0.7081)),
    "elliptic+1": (Geometry.ELLIPTIC,
                   hyperbolic_harmonic_fn(0.7574, 0.8226, 0.9588),
                   (0.6258, 2.086), (-3.4384, 0.5918, 4.7979),
                   (0.8708, 0.7624)),
    "hyperbolic+1": (Geometry.HYPERBOLIC,
                     harmonic_fn(0.6582, -0.1272, 1.3251), (0.0755, 0.9811),
                     (-0.4913, 0.0709, 4.5428), (0.2761, 0.6423)),
    "hyperbolic-1": (Geometry.HYPERBOLIC,
                     harmonic_fn(0.6989, -0.167, 1.2398), (0.0807, 1.0485),
                     (0.6656, 0.0716, 3.0761), (0.8709, 0.3924)),
}


@pytest.mark.parametrize("case", FRAME_FD_POINTS)
def test_eight_invariants_match_frame_derivatives(case):
    # the eight invariants as derivatives of the geometric frame, by central
    # differences of geometric_frame along x = (X + Y)/sqrt2 and
    # y = (-X + Y)/sqrt2, X = d/du and Y = (1/f) d/dv
    geometry, f, dom, (b0, b1, p), (u, v) = FRAME_FD_POINTS[case]
    s = MeridianSurface(profile_from_f(f, geometry, 0.0, dom),
                        SphericalCurve(wavy_kappa(b0, b1, p), geometry))
    h, fr, inv = 1e-4, geometric_frame(s, u, v), eight_invariants(s, u, v)
    assert f"{s.geometry.value}{fr.epsilon:+d}" == case
    assert wavy_kappa(b0, b1, p).jet2(v).d1 != 0.0
    assert min(abs(inv.beta1), abs(inv.beta2)) > 0.1

    def rates(name):
        """(D_x, D_y) of frame vector ``name``: the flat connection."""
        at = [getattr(geometric_frame(s, u + du, v + dv), name)
              for du, dv in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
        d_u = (at[0] - at[1]) / (2.0 * h)
        d_v = (at[2] - at[3]) / (2.0 * h * f(u))
        return (d_u + d_v) / SQ2, (-1.0 * d_u + d_v) / SQ2

    (xx, _), (yx, yy), (bx, by) = rates("x"), rates("y"), rates("b")
    eps = fr.epsilon
    fd = {"gamma1": -inner(xx, fr.y), "gamma2": inner(yy, fr.x),
          "nu1": inner(xx, fr.b), "nu2": inner(yy, fr.b),
          "lam": inner(yx, fr.b), "mu": inner(yx, fr.l),
          "beta1": eps * inner(bx, fr.l), "beta2": eps * inner(by, fr.l)}
    for name, value in fd.items():
        exact = getattr(inv, name)
        tol = 1e-4 if name.startswith("beta") else 1e-6
        assert abs(value - exact) <= tol * max(1.0, abs(exact)), (name, value,
                                                                  exact)


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


def test_classify_trapped_flag():
    u0 = 0.6
    s = MeridianSurface(cos_profile(),
                        circle_curve(2.0 * math.cos(u0), Geometry.HYPERBOLIC))
    assert classify_point(s, u0, 0.5).trapped


# -- package exports ----------------------------------------------------------


def test_every_exported_name_resolves():
    import meridian
    assert [n for n in meridian.__all__ if not hasattr(meridian, n)] == []
    assert len(set(meridian.__all__)) == len(meridian.__all__)
