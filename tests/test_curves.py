import math
from array import array

import pytest

from conftest import (boosted_hyperbolic_frame, close, cos_fn, cos_profile,
                      rotated_elliptic_frame, sinh_fn, sinh_profile,
                      wavy_kappa)
from meridian import jets
from meridian.curves import (_MAX_SLOPE_STEPS, ADMISSIBILITY_MARGIN,
                             DEFAULT_STEP, Geometry, MeridianProfile,
                             ProfileColumn, SphericalCurve, _slope_table,
                             circle_curve, frenet_frame, profile_from_f,
                             profile_from_slope_ode)
from meridian.errors import DomainError, FrameError, ProfileDomainError
from meridian.families import (constant_k_ode_residual, constant_k_slope,
                               harmonic_fn, max_ode_residual)
from meridian.jets import Jet2, ScalarFn
from meridian.mink4 import Vec4, gram, inner

TWO_PI = 2.0 * math.pi


def coords_close(vec, expected, tol=1e-9):
    return max(abs(a - b) for a, b in zip(vec.coords(), expected)) <= tol


# -- Frenet integration ------------------------------------------------------


def test_elliptic_great_circle_quarter_turn():
    c = SphericalCurve(ScalarFn.constant(0.0), Geometry.ELLIPTIC)
    fr = frenet_frame(c, math.pi / 2)
    assert coords_close(fr.l, (0, 1, 0, 0))
    assert coords_close(fr.t, (-1, 0, 0, 0))
    assert coords_close(fr.n, (0, 0, 1, 0))


def test_hyperbolic_flat_curve_half_turn():
    c = SphericalCurve(ScalarFn.constant(0.0), Geometry.HYPERBOLIC)
    fr = c.frame(math.pi)
    assert coords_close(fr.l, (0, -1, 0, 0))
    assert coords_close(fr.n, (0, 0, 0, 1))  # kappa = 0 decouples n


def test_invalid_initial_frame_rejected():
    with pytest.raises(FrameError):
        SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC,
                       l0=Vec4(2, 0, 0, 0), t0=Vec4(0, 1, 0, 0),
                       n0=Vec4(0, 0, 1, 0))
    with pytest.raises(FrameError):  # nonzero axis component
        SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC,
                       l0=Vec4(1, 0, 0, 0.1), t0=Vec4(0, 1, 0, 0),
                       n0=Vec4(0, 0, 1, 0))


def test_integration_matches_closed_form_circle():
    closed = circle_curve(1.0, Geometry.ELLIPTIC)
    start = closed.frame(0.0)
    integrated = SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC,
                                l0=start.l, t0=start.t, n0=start.n)
    worst = 0.0
    for i in range(25):
        v = TWO_PI * i / 24
        a, b = closed.frame(v), integrated.frame(v)
        for x, y in ((a.l, b.l), (a.t, b.t), (a.n, b.n)):
            worst = max(worst, max(abs(p - q)
                                   for p, q in zip(x.coords(), y.coords())))
    assert worst <= 1e-8


@pytest.mark.parametrize("geometry,b", [
    (Geometry.ELLIPTIC, 1.3),
    (Geometry.HYPERBOLIC, 0.8),
])
def test_gram_preserved_along_integration(geometry, b):
    for kappa in (ScalarFn.constant(b), wavy_kappa(b, 0.1)):
        c = SphericalCurve(kappa, geometry)
        sig = geometry.curve_signature
        worst = 0.0
        for i in range(17):
            fr = c.frame(TWO_PI * i / 16)
            G = gram([fr.l, fr.t, fr.n])
            for a in range(3):
                for j in range(3):
                    want = sig[a] if a == j else 0.0
                    worst = max(worst, abs(G[a][j] - want))
        assert worst <= 1e-9 * TWO_PI


def test_curve_stays_on_unit_sphere():
    for geometry, b in ((Geometry.ELLIPTIC, 1.1), (Geometry.HYPERBOLIC, 0.7)):
        c = circle_curve(b, geometry)
        for i in range(9):
            l = c.frame(TWO_PI * i / 8).l
            assert abs(inner(l, l) - 1.0) <= 1e-9


def _reference_rhs(curve, v, s):
    # reference for the fused step: the generic stage-by-stage RK4 of the
    # Frenet system, with kappa read through jet2
    k = curve.kappa.jet2(v).v
    sk = curve.geometry.frenet_sign * k
    return [
        s[3], s[4], s[5],
        sk * s[6] - s[0], sk * s[7] - s[1], sk * s[8] - s[2],
        -k * s[3], -k * s[4], -k * s[5],
    ]


def _reference_rk4_step(curve, v, s, h):
    k1 = _reference_rhs(curve, v, s)
    k2 = _reference_rhs(curve, v + 0.5 * h,
                        [si + 0.5 * h * ki for si, ki in zip(s, k1)])
    k3 = _reference_rhs(curve, v + 0.5 * h,
                        [si + 0.5 * h * ki for si, ki in zip(s, k2)])
    k4 = _reference_rhs(curve, v + h, [si + h * ki for si, ki in zip(s, k3)])
    return [si + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for si, a, b, c, d in zip(s, k1, k2, k3, k4)]


def _bits(values):
    return array("d", values).tobytes()


def _wavy_hermite():
    xs = [0.25 * i - 3.0 for i in range(25)]
    return jets.hermite_fn(xs, [0.8 + 0.4 * math.sin(x) for x in xs],
                           [0.4 * math.cos(x) for x in xs], name="kappa")


@pytest.mark.parametrize("geometry", list(Geometry))
@pytest.mark.parametrize("make_kappa", [
    lambda: ScalarFn.constant(1.3), _wavy_hermite,
    lambda: wavy_kappa(0.6, 0.5, 0.4)], ids=["constant", "hermite", "jets"])
def test_frenet_table_matches_reference_step_bitwise(geometry, make_kappa):
    curve = SphericalCurve(make_kappa(), geometry)
    for h, table in ((DEFAULT_STEP, curve._fwd), (-DEFAULT_STEP, curve._bwd)):
        vs = [h * x for x in (456.7, 1999.5, 2000.0, 0.4)]
        states = [curve._state_at(v) for v in vs]
        ref = [list(table[0:9])]
        while len(ref) < len(table) // 9:
            i = len(ref) - 1
            ref.append(_reference_rk4_step(curve, i * h, ref[i], h))
        assert table.tobytes() == _bits([x for s in ref for x in s])
        for v, state in zip(vs, states):
            j = int(abs(v) / DEFAULT_STEP)
            rem = v - j * h
            want = ref[j] if abs(rem) <= 1e-15 else _reference_rk4_step(
                curve, j * h, ref[j], rem)
            assert _bits(state) == _bits(want)


def test_hermite_value_path_equals_jet_value():
    kappa = _wavy_hermite()
    knots = [0.25 * i - 3.0 for i in range(25)]
    mids = [0.5 * (a + b) for a, b in zip(knots, knots[1:])]
    for u in knots + mids + [math.nextafter(3.0, 0.0), -3.0, 3.0]:
        assert kappa(u) == kappa.jet2(u).v


# -- circle_curve -------------------------------------------------------------


def test_great_circle_closed_form():
    c = circle_curve(0.0, Geometry.ELLIPTIC)
    for v in (0.0, 0.7, 2.9):
        assert coords_close(c.frame(v).l, (math.cos(v), math.sin(v), 0, 0),
                            1e-12)


def test_latitude_circle_b1_and_curvature():
    c = circle_curve(1.0, Geometry.ELLIPTIC)
    sr = 1.0 / math.sqrt(2.0)  # sin(rho) with cot(rho) = 1
    v = 0.9
    expected = (sr * math.cos(v / sr), sr * math.sin(v / sr), sr, 0.0)
    assert coords_close(c.frame(v).l, expected, 1e-12)
    # <t', n> = kappa = 1, via finite differences of the frame
    h = 1e-5
    tp = (c.frame(v + h).t - c.frame(v - h).t) * (1.0 / (2 * h))
    assert abs(inner(tp, c.frame(v).n) - 1.0) <= 1e-8


def test_hyperbolic_circle_curvature_via_fd():
    c = circle_curve(1.0, Geometry.HYPERBOLIC)
    v, h = 1.0, 1e-5
    tp = (c.frame(v + h).t - c.frame(v - h).t) * (1.0 / (2 * h))
    assert abs(inner(tp, c.frame(v).n) - 1.0) <= 1e-8


def test_constant_curve_has_zero_kappa_rate():
    c = circle_curve(1.0, Geometry.ELLIPTIC)
    assert c.kappa_jet(1.7).d1 == 0.0
    assert c.is_constant_kappa()
    assert not SphericalCurve(wavy_kappa(), Geometry.ELLIPTIC).is_constant_kappa()


# -- profiles -----------------------------------------------------------------


def test_profile_quadrature_matches_closed_form_elliptic():
    g0 = 0.25
    p = sinh_profile(g0=g0)
    for u in (0.5, 0.9, 1.4, 2.0):
        assert abs(p.g(u) - (math.cosh(u) - math.cosh(0.5) + g0)) <= 1e-8


def test_profile_quadrature_matches_closed_form_hyperbolic():
    g0 = -0.4
    p = profile_from_f(cos_fn(), Geometry.HYPERBOLIC, g0, (0.3, 1.2))
    for u in (0.3, 0.6, 1.2):
        assert abs(p.g(u) - (math.sin(u) - math.sin(0.3) + g0)) <= 1e-8


def test_g_quadrature_work_is_bounded_above_unit_integrals():
    # g(10) = cosh(10) - cosh(0.5), about 1.1e4: under an absolute 1e-15 the
    # rounding noise of such panels never met the tolerance, and one call
    # took 136,298 gdot evaluations; relative above 1, adaptive Simpson took
    # 19,262, and Gauss-Legendre panels take 1,140 (30 per panel)
    p = profile_from_f(sinh_fn(), Geometry.ELLIPTIC, 0.0, (0.5, 10.0))
    calls, gdot = [], p.gdot
    p.gdot = lambda u: calls.append(u) or gdot(u)
    g = p.g(10.0)
    assert len(calls) <= 2_000
    assert abs(g - (math.cosh(10.0) - math.cosh(0.5))) <= 1e-12 * g


@pytest.mark.parametrize("make_profile", [sinh_profile, cos_profile],
                         ids=["elliptic", "hyperbolic"])
def test_g_bits_independent_of_visiting_order(make_profile):
    lo, hi = make_profile().domain
    us = [lo + (hi - lo) * i / 29 for i in range(30)]
    cold = [make_profile().g(u) for u in us]
    p = make_profile()
    ascending = [p.g(u) for u in us]
    repeated = [p.g(u) for u in us]
    q = make_profile()  # descending: all panel anchors exist at the first call
    descending = [q.g(u) for u in reversed(us)][::-1]
    shuffled = sorted(us, key=lambda u: math.sin(97.0 * u))
    r = make_profile()
    after_others = dict(zip(shuffled, [r.g(u) for u in shuffled]))
    want = _bits(cold)
    assert _bits(ascending) == want
    assert _bits(repeated) == want
    assert _bits(descending) == want
    assert _bits([after_others[u] for u in us]) == want


def test_profile_normalization_identity():
    pe = sinh_profile()
    ph = cos_profile()
    for i in range(9):
        ue = 0.5 + 1.5 * i / 8
        uh = 0.3 + 0.9 * i / 8
        je, jh = pe.f_jet(ue), ph.f_jet(uh)
        assert abs(je.d1 ** 2 - pe.gdot(ue) ** 2 - 1.0) <= 1e-10
        assert abs(jh.d1 ** 2 + ph.gdot(uh) ** 2 - 1.0) <= 1e-10


def test_linear_profile_rejected_elliptic():
    linear = ScalarFn(lambda t: t, name="identity", d3=lambda u: 0.0)
    with pytest.raises(ProfileDomainError) as err:
        profile_from_f(linear, Geometry.ELLIPTIC, 0.0, (0.5, 2.0))
    assert "fdot^2 > 1" in str(err.value)


def test_profile_error_reports_offending_u():
    with pytest.raises(ProfileDomainError) as err:
        profile_from_f(cos_fn(), Geometry.ELLIPTIC, 0.0, (0.3, 1.2))
    assert err.value.u is not None


# -- slope ODE profiles -------------------------------------------------------


def test_constant_slope_is_linear():
    p = profile_from_slope_ode(ScalarFn.constant(math.sqrt(2.0)), 1.0,
                               Geometry.ELLIPTIC, 0.0, 1.0)
    for u in (0.0, 0.25, 0.8):
        assert abs(p.f_jet(u).v - (1.0 + math.sqrt(2.0) * u)) <= 1e-12
    # fddot = 0: the developable case
    assert abs(ProfileColumn(p, 0.5).kappa_m) <= 1e-12


def test_constant_k_slope_ode_residual():
    def slope(t):
        q = t * t / 2.0
        return jets.sqrt(1.0 + q * q)

    y = ScalarFn(slope)
    p = profile_from_slope_ode(y, 1.0, Geometry.ELLIPTIC, 0.0, 1.0)
    assert max_ode_residual(constant_k_ode_residual(p, 1.0, 1.0),
                            p.domain) <= 1e-8


def test_parallel_b_slope_ode_residual():
    def slope(t):  # a = 1, c = 0
        r = (0.0 + t) / t
        return jets.sqrt(1.0 + r * r)

    y = ScalarFn(slope)
    p = profile_from_slope_ode(y, 2.0, Geometry.ELLIPTIC, 0.0, 1.0)
    for i in range(11):
        u = p.domain[0] + (p.domain[1] - p.domain[0]) * i / 10
        c = ProfileColumn(p, u)
        assert abs(c.phi - math.sqrt(c.V)) <= 1e-8


def test_slope_ode_rejects_bad_inputs():
    with pytest.raises(ValueError):
        profile_from_slope_ode(ScalarFn.constant(2.0), 1.0,
                               Geometry.ELLIPTIC, 0.0, 1.0, step=0.0)
    for u_span, step in ((1.0, math.inf), (1.0, math.nan), (math.inf, 1e-3),
                         (math.nan, 1e-3), (-1.0, 1e-3)):
        with pytest.raises(ValueError, match="positive and finite"):
            profile_from_slope_ode(ScalarFn.constant(2.0), 1.0,
                                   Geometry.ELLIPTIC, 0.0, u_span, step=step)
    with pytest.raises(ProfileDomainError):  # y(f0) = 0.5 not > 1
        profile_from_slope_ode(ScalarFn.constant(0.5), 1.0,
                               Geometry.ELLIPTIC, 0.0, 1.0)
    with pytest.raises(ProfileDomainError):  # hyperbolic needs y < 1
        profile_from_slope_ode(ScalarFn.constant(1.5), 1.0,
                               Geometry.HYPERBOLIC, 0.0, 1.0)


def test_slope_ode_step_count_is_bounded():
    # just above the bound the build fails before y is first evaluated,
    # so no table is allocated
    calls = []
    y = ScalarFn(lambda t: calls.append(t) or 2.0)
    for u_span, step in ((math.nextafter(float(_MAX_SLOPE_STEPS), math.inf),
                          1.0),
                         (1.0, 1e-300), (1e300, 1e-300)):
        with pytest.raises(DomainError, match="steps of a slope build"):
            profile_from_slope_ode(y, 1.0, Geometry.ELLIPTIC, 0.0, u_span,
                                   step=step)
    assert calls == []


def test_slope_table_stops_before_a_non_monotone_step():
    # constant k = -1 from f0 = 1 blows up near u = 1.645: the step from
    # u = 1.644 takes f from 2,539 to 70,018 with step*d/df = 36.3, and the
    # cubic Hermite of that step dips to f = -230,978
    y = constant_k_slope(1.0, 1.0, 0.0, Geometry.ELLIPTIC)
    us, fs, ds = _slope_table(y, 1.0, Geometry.ELLIPTIC, 2.0, DEFAULT_STEP)
    assert len(us) == 1645 and 2539.0 < fs[-1] < 2540.0
    for i in range(len(us) - 1):
        df = fs[i + 1] - fs[i]
        assert 0.0 < DEFAULT_STEP * ds[i] / df <= 3.0
        assert 0.0 < DEFAULT_STEP * ds[i + 1] / df <= 3.0
    p = profile_from_slope_ode(y, 1.0, Geometry.ELLIPTIC, 0.0, 2.0)
    assert p.domain == (0.0, us[-1])
    for i in range(1000):
        f = p.f_jet(us[-2] + (us[-1] - us[-2]) * i / 999).v
        assert fs[-2] <= f <= fs[-1]


def test_slope_profile_matches_explicit_profile():
    # fdot = sqrt(1 + f^2) integrates to f = sinh(u + asinh(f0))
    y = ScalarFn(lambda t: jets.sqrt(1.0 + t * t))
    f0 = math.sinh(0.5)
    p = profile_from_slope_ode(y, f0, Geometry.ELLIPTIC, 0.0, 1.0)
    explicit = sinh_profile()
    for u in (0.1, 0.5, 0.9):
        assert abs(p.f_jet(u).v - math.sinh(u + 0.5)) <= 1e-9
        km = ProfileColumn(p, u).kappa_m
        assert close(km, ProfileColumn(explicit, u + 0.5).kappa_m, 1e-6)
        assert close(km, 1.0, 1e-6)


# -- the profile column -------------------------------------------------------


@pytest.mark.parametrize("geometry,jet,needle", [
    (Geometry.ELLIPTIC, Jet2(0.0, 2.0, 0.0), "f(u) > 0"),
    (Geometry.ELLIPTIC, Jet2(-0.5, 2.0, 0.0), "f(u) > 0"),
    (Geometry.HYPERBOLIC, Jet2(-1.0, 0.5, 0.0), "f(u) > 0"),
    (Geometry.ELLIPTIC, Jet2(1.0, 1.0, 0.0), "fdot^2 > 1"),
    (Geometry.ELLIPTIC, Jet2(1.0, math.sqrt(1.0 + 5e-9), 0.0), "fdot^2 > 1"),
    (Geometry.HYPERBOLIC, Jet2(1.0, 1.5, 0.0), "fdot^2 < 1"),
    (Geometry.HYPERBOLIC, Jet2(1.0, math.sqrt(1.0 - 5e-9), 0.0),
     "fdot^2 < 1"),
    (Geometry.ELLIPTIC, Jet2(math.nan, 2.0, 0.0), "f(u) > 0"),
    (Geometry.ELLIPTIC, Jet2(1.0, math.nan, 0.0), "fdot^2 > 1"),
    (Geometry.HYPERBOLIC, Jet2(1.0, math.nan, 0.0), "fdot^2 < 1"),
])
def test_column_rejects_inadmissible_u(geometry, jet, needle):
    # one 2-jet everywhere on [0, 1], built without the admissibility scan,
    # so only the column can catch a bad point
    profile = MeridianProfile(ScalarFn(lambda t: jet), geometry, (0.0, 1.0))
    with pytest.raises(ProfileDomainError) as err:
        ProfileColumn(profile, 0.25)
    assert err.value.u == 0.25
    assert f"{needle}, violated at u = 0.25" in str(err.value)


def test_column_margin_cases_lie_inside_the_margin():
    # the two sqrt(1 -+ 5e-9) slopes above have 0 < V < ADMISSIBILITY_MARGIN
    for geometry, fdot in ((Geometry.ELLIPTIC, math.sqrt(1.0 + 5e-9)),
                           (Geometry.HYPERBOLIC, math.sqrt(1.0 - 5e-9))):
        assert 0.0 < geometry.normalization(fdot) < ADMISSIBILITY_MARGIN


def test_column_checks_points_between_scan_samples():
    # cos(4u) passes profile_from_f's 512-point scan of this domain
    p = profile_from_f(harmonic_fn(1.0, 0.0, 4.0), Geometry.ELLIPTIC, 0.0,
                       (-0.2, 802.4))
    for u, needle in ((200.45, "f(u) > 0"), (20 * math.pi, "fdot^2 > 1")):
        with pytest.raises(ProfileDomainError) as err:
            ProfileColumn(p, u)
        assert err.value.u == u
        assert needle in str(err.value)


# -- kappa_m ------------------------------------------------------------------


def test_kappa_m_examples():
    assert abs(ProfileColumn(sinh_profile(), 1.0).kappa_m - 1.0) <= 1e-12
    assert abs(ProfileColumn(cos_profile(), math.pi / 4).kappa_m
               - 1.0) <= 1e-12


@pytest.mark.parametrize("mirror", [1, -1])
@pytest.mark.parametrize("geometry,f,domain", [
    (Geometry.ELLIPTIC, sinh_fn(), (0.5, 2.0)),
    (Geometry.HYPERBOLIC, cos_fn(), (0.3, 1.2)),
])
def test_kappa_m_matches_cross_product_form(geometry, f, domain, mirror):
    # the reduced form against fdot gddot - gdot fddot, with gddot taken
    # by central differences of gdot; the mirror (f, -g), which the package
    # does not build, has the opposite meridian curvature
    p = profile_from_f(f, geometry, 0.0, domain)
    h = 1e-5
    for i in range(1, 10):
        u = domain[0] + (domain[1] - domain[0]) * i / 10
        j = p.f_jet(u)
        gddot = mirror * (p.gdot(u + h) - p.gdot(u - h)) / (2 * h)
        cross = j.d1 * gddot - mirror * p.gdot(u) * j.d2
        km = ProfileColumn(p, u).kappa_m
        assert close(mirror * km, cross, 1e-7)
        assert km > 0.0


def test_frames_from_custom_initial_conditions():
    l0, t0, n0 = rotated_elliptic_frame()
    SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC,
                   l0=l0, t0=t0, n0=n0)
    l0, t0, n0 = boosted_hyperbolic_frame()
    SphericalCurve(ScalarFn.constant(1.0), Geometry.HYPERBOLIC,
                   l0=l0, t0=t0, n0=n0)
