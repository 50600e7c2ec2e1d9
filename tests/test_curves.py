import math
import tracemalloc
from array import array

import pytest

from conftest import (boosted_hyperbolic_frame, close, cos_fn, cos_profile,
                      rotated_elliptic_frame, sinh_fn, sinh_profile,
                      wavy_kappa)
from meridian import jets
from meridian.curves import (_MAX_SLOPE_SPAN, _RK4_BLOCK,
                             ADMISSIBILITY_MARGIN, DEFAULT_STEP, Geometry,
                             MeridianProfile, ProfileColumn, SphericalCurve,
                             _slope_table, circle_curve, construction_scan,
                             profile_from_f, profile_from_slope_ode)
from meridian.errors import DomainError, FrameError, ProfileDomainError
from meridian.families import (FamilyKind, FamilySpec, constant_k_slope,
                               harmonic_fn, max_ode_residual, ode_residual)
from meridian.jets import Jet2, ScalarFn
from meridian.mink4 import Vec4, gram, inner

TWO_PI = 2.0 * math.pi


def coords_close(vec, expected, tol=1e-9):
    return max(abs(a - b) for a, b in zip(vec.coords(), expected)) <= tol


# -- Frenet integration ------------------------------------------------------


#: Geometry's per-member constants, recorded while they were properties:
#: (sphere_slots, axis_slot, curve_signature, normalization_sign)
GEOMETRY_CONSTANTS = {
    Geometry.ELLIPTIC: ((0, 1, 2), 3, (1.0, 1.0, 1.0), 1.0),
    Geometry.HYPERBOLIC: ((1, 2, 3), 0, (1.0, 1.0, -1.0), -1.0),
}


@pytest.mark.parametrize("geometry", list(Geometry))
def test_geometry_constants(geometry):
    got = (geometry.sphere_slots, geometry.axis_slot,
           geometry.curve_signature, geometry.normalization_sign)
    assert got == GEOMETRY_CONSTANTS[geometry]
    assert [type(x) for x in got] == [tuple, int, tuple, float]
    for fdot in (0.0, 0.5, 1.0, 2.0):
        assert (geometry.normalization(fdot)
                == got[3] * (fdot * fdot - 1.0))
    assert Geometry(geometry.value) is geometry


def test_elliptic_great_circle_quarter_turn():
    c = SphericalCurve(ScalarFn.constant(0.0), Geometry.ELLIPTIC)
    fr = c.frame(math.pi / 2)
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


def _reference_rhs(kappa, sign, v, s):
    # reference for the fused loop: the generic stage-by-stage RK4 of the
    # Frenet system, reading kappa at every stage
    k = kappa(v)
    sk = sign * k
    return [
        s[3], s[4], s[5],
        sk * s[6] - s[0], sk * s[7] - s[1], sk * s[8] - s[2],
        -k * s[3], -k * s[4], -k * s[5],
    ]


def _reference_rk4_step(kappa, sign, v, s, h):
    k1 = _reference_rhs(kappa, sign, v, s)
    k2 = _reference_rhs(kappa, sign, v + 0.5 * h,
                        [si + 0.5 * h * ki for si, ki in zip(s, k1)])
    k3 = _reference_rhs(kappa, sign, v + 0.5 * h,
                        [si + 0.5 * h * ki for si, ki in zip(s, k2)])
    k4 = _reference_rhs(kappa, sign, v + h,
                        [si + h * ki for si, ki in zip(s, k3)])
    return [si + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for si, a, b, c, d in zip(s, k1, k2, k3, k4)]


def _bits(values):
    return array("d", values).tobytes()


def _wavy_hermite(xs=tuple(0.25 * i - 3.0 for i in range(25))):
    return jets.hermite_fn(list(xs), [0.8 + 0.4 * math.sin(x) for x in xs],
                           [0.4 * math.cos(x) for x in xs], name="kappa")


#: A table to v = +-0.577 ends with the stage abscissa 576*h + h =
#: 0.5770000000000001, one ulp past the samples' end, which the last step
#: reads through the clamp.
_SAMPLES_END = 0.577


def _hermite_to_end():
    return _wavy_hermite([_SAMPLES_END * (i - 8) / 8 for i in range(17)])


def _jet_value_reader(kappa):
    # the reference reads kappa.jet2; past the samples' end, at the end
    lo, hi = kappa.domain or (-math.inf, math.inf)
    return lambda x: kappa.jet2(min(max(x, lo), hi)).v


def _irregular_hermite():
    # knots at uneven spacings, none of them a multiple of the step
    xs = [-3.05]
    for i in range(36):
        xs.append(xs[-1] + 0.0937 + 0.061 * (i % 5))
    return _wavy_hermite(xs)


_TABLE_VS = (456.7, 1999.5, 2000.0, 0.4)   # in steps: table and remainder


def _table_case(name, geometry, make_kappa, steps=_TABLE_VS, make_curve=None):
    if make_curve is None:
        make_curve = lambda: SphericalCurve(make_kappa(), geometry)
    return pytest.param(make_curve, make_kappa, steps, geometry,
                        id=f"{name}-{geometry}")


_TABLE_CASES = [
    _table_case(name, g, make)
    for name, make in (
        ("constant", lambda: ScalarFn.constant(1.3)), ("hermite", _wavy_hermite),
        ("jets", lambda: wavy_kappa(0.6, 0.5, 0.4)))
    for g in Geometry
] + [
    # a circle reads its b once; the reference reads ScalarFn.constant
    _table_case("circle", Geometry.HYPERBOLIC, lambda: ScalarFn.constant(1.3),
                make_curve=lambda: circle_curve(1.3, Geometry.HYPERBOLIC)),
] + [
    _table_case("hermite_end", g, _hermite_to_end,
                steps=(_SAMPLES_END / DEFAULT_STEP, 300.5, 123.0))
    for g in Geometry
] + [
    _table_case("hermite_irregular", g, _irregular_hermite) for g in Geometry
] + [
    # each extension, of more than 2,000 steps, reads kappa in two blocks,
    # and a block's first step may take its k1 from the block before
    _table_case("hermite_blocks", g,
                lambda: _wavy_hermite([0.25 * i - 5.0 for i in range(41)]),
                steps=(2 * _RK4_BLOCK + 0.5, 4 * _RK4_BLOCK - 0.25))
    for g in Geometry
]


@pytest.mark.parametrize("make_curve,make_kappa,steps,geometry", _TABLE_CASES)
def test_frenet_table_matches_reference_step_bitwise(make_curve, make_kappa,
                                                     steps, geometry):
    curve = make_curve()
    ref_kappa = _jet_value_reader(make_kappa())
    sign = geometry.normalization_sign
    for h, table in ((DEFAULT_STEP, curve._fwd), (-DEFAULT_STEP, curve._bwd)):
        vs = [h * x for x in steps]
        states = [curve._state_at(v) for v in vs]
        ref = [list(table[0:9])]
        while len(ref) < len(table) // 9:
            i = len(ref) - 1
            ref.append(_reference_rk4_step(ref_kappa, sign, i * h, ref[i], h))
        assert table.tobytes() == _bits([x for s in ref for x in s])
        for v, state in zip(vs, states):
            j = int(abs(v) / DEFAULT_STEP)
            rem = v - j * h
            want = ref[j] if abs(rem) <= 1e-15 else _reference_rk4_step(
                ref_kappa, sign, j * h, ref[j], rem)
            assert _bits(state) == _bits(want)


def test_hermite_to_end_table_reads_past_its_samples():
    # the case above exercises the clamp: unclamped, its last step raises
    n = int(_SAMPLES_END / DEFAULT_STEP)
    kappa = _hermite_to_end()
    assert kappa.domain == (-_SAMPLES_END, _SAMPLES_END)
    for h in (DEFAULT_STEP, -DEFAULT_STEP):
        assert n * h == math.copysign(_SAMPLES_END, h)
        with pytest.raises(DomainError):
            kappa((n - 1) * h + h)


@pytest.mark.parametrize("make_curve", [
    lambda: circle_curve(1.3, Geometry.HYPERBOLIC),
    lambda: SphericalCurve(_wavy_hermite(), Geometry.ELLIPTIC),
    lambda: SphericalCurve(wavy_kappa(0.6, 0.5, 0.4), Geometry.HYPERBOLIC),
], ids=["circle", "hermite", "jets"])
def test_frame_bits_independent_of_visiting_order(make_curve):
    # kappa is shared only between the steps of one extension of a table,
    # never across calls or into a remainder step
    vs = [sign * (0.05 + 2.0 * i / 23) for i in range(24) for sign in (1, -1)]
    vs += [sign * DEFAULT_STEP * n for n in (1, 700, 1500) for sign in (1, -1)]
    ascending = make_curve()
    want = {v: _bits(ascending._state_at(v)) for v in sorted(vs, key=abs)}
    shuffled = make_curve()
    for v in sorted(vs, key=lambda v: math.sin(97.0 * v)):
        assert _bits(shuffled._state_at(v)) == want[v], v
    assert shuffled._fwd.tobytes() == ascending._fwd.tobytes()
    assert shuffled._bwd.tobytes() == ascending._bwd.tobytes()


def _counting(kappa, calls):
    return ScalarFn(lambda t: calls.append(t) or kappa(t),
                    domain=kappa.domain, name=kappa.name)


@pytest.mark.parametrize("make_kappa", [
    _wavy_hermite, lambda: wavy_kappa(0.6, 0.5, 0.4)], ids=["hermite", "jets"])
def test_frenet_loop_shares_kappa_between_steps(make_kappa):
    # a step reads kappa at v + h/2, at v + h and, unless the previous step
    # ended at the same float, at v: 2000 steps from 0 share 74% of their
    # starts, so they read kappa 4,523 times instead of 6,000
    calls = []
    for geometry in Geometry:
        curve = SphericalCurve(_counting(make_kappa(), calls), geometry)
        for v in (2000 * DEFAULT_STEP, -2000 * DEFAULT_STEP):
            calls.clear()
            curve.frame(v)
            assert len(calls) <= 2.4 * 2000, (geometry, v, len(calls))


def _scalar_read_order(steps, h):
    """The abscissae a table of `steps` steps from 0 reads, in order, by the
    sharing rule: one extension of steps - 1 steps, then the last step."""
    out = []
    for first, n in ((0, steps - 1), (steps - 1, 1)):
        end = None
        for i in range(first, first + n):
            v = i * h
            if v != end:
                out.append(v)
            end = v + h
            out += [v + 0.5 * h, end]
    return out


@pytest.mark.parametrize("make_kappa", [
    _wavy_hermite, lambda: wavy_kappa(0.6, 0.5, 0.4)], ids=["hermite", "jets"])
def test_frenet_blocks_read_kappa_in_the_scalar_order(make_kappa):
    # reading kappa a block at a time keeps the order and the sharing of
    # the step-by-step reads: 4,523 reads for 2,000 steps
    calls = []
    for geometry in Geometry:
        curve = SphericalCurve(_counting(make_kappa(), calls), geometry)
        for h in (DEFAULT_STEP, -DEFAULT_STEP):
            calls.clear()
            curve.frame(2000 * h)
            assert len(calls) == 4523
            assert _bits(calls) == _bits(_scalar_read_order(2000, h))


def test_cold_frame_allocates_its_table_and_one_block():
    # a cold frame(8.0) holds 8,000 steps of table, 72 B each (an array
    # grows by 1/16 at a time), and the abscissae and kappa values of one
    # block of _RK4_BLOCK steps, about 150 kB: one list over all 8,000
    # steps would take about 1.2 MB.  The span is short because the loop
    # runs about 40 times slower under tracemalloc.
    curve = SphericalCurve(_wavy_hermite([0.25 * i for i in range(40)]),
                           Geometry.ELLIPTIC)
    tracemalloc.start()
    try:
        curve.frame(8.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(curve._fwd) == 9 * 8001
    assert peak <= 72 * 8000 * 17 // 16 + 256 * 1024


def test_frenet_loop_reads_a_circles_b_once():
    calls = []
    curve = circle_curve(1.3, Geometry.HYPERBOLIC)
    curve.kappa = _counting(curve.kappa, calls)
    for v in (2.0, -2.0, 0.9876):
        curve.frame(v)
    assert len(curve._fwd) == len(curve._bwd) == 9 * 2001
    assert calls == []


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


#: The frame (l, t, n) of circle_curve(1.3, geometry) at v = 0 as
#: float.hex, signed zeros included.  The elliptic circle starts on its
#: latitude, l = (sin rho, 0, cos rho, 0) with cot(rho) = 1.3, not at the
#: standard frame; the hyperbolic one starts at the standard frame e2, e3, e4.
CIRCLE_FRAMES_AT_0 = {
    Geometry.ELLIPTIC: (
        ("0x1.382c0243bcc70p-1", "0x0.0p+0", "0x1.95d2cfbe75692p-1",
         "0x0.0p+0"),
        ("-0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
        ("-0x1.95d2cfbe75692p-1", "-0x0.0p+0", "0x1.382c0243bcc70p-1",
         "0x0.0p+0")),
    Geometry.HYPERBOLIC: (
        ("0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
}


@pytest.mark.parametrize("geometry", list(Geometry))
def test_circle_frame_at_zero_bits(geometry):
    fr = circle_curve(1.3, geometry).frame(0.0)
    got = tuple(tuple(c.hex() for c in vec.coords())
                for vec in (fr.l, fr.t, fr.n))
    assert got == CIRCLE_FRAMES_AT_0[geometry]
    if geometry is Geometry.ELLIPTIC:
        rho = math.atan2(1.0, 1.3)
        assert coords_close(fr.l, (math.sin(rho), 0, math.cos(rho), 0),
                            1e-15)


def test_hyperbolic_circle_curvature_via_fd():
    c = circle_curve(1.0, Geometry.HYPERBOLIC)
    v, h = 1.0, 1e-5
    tp = (c.frame(v + h).t - c.frame(v - h).t) * (1.0 / (2 * h))
    assert abs(inner(tp, c.frame(v).n) - 1.0) <= 1e-8


def _hyperbolic_circle_frame(kappa, v):
    """Exact frame of circle_curve(kappa, HYPERBOLIC) at v.  From l' = t,
    t' = -kappa n - l and n' = -kappa t, t'' = -w2 t with w2 = 1 - kappa^2,
    so t = t0 C + t0' S, l = l0 + t0 S + t0' D and n = n0 - kappa (l - l0),
    where t0' = -kappa n0 - l0, C = cos(w v), S = sin(w v) / w and
    D = (1 - C) / w2 (cosh and sinh for w2 < 0; S = v, D = v^2/2 at 0)."""
    l0, t0, n0 = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                  (0.0, 0.0, 0.0, 1.0))
    dt0 = [-kappa * n - l for l, n in zip(l0, n0)]
    w2 = 1.0 - kappa * kappa
    if w2 > 0.0:
        w = math.sqrt(w2)
        C, S = math.cos(w * v), math.sin(w * v) / w
        D = (1.0 - C) / w2
    elif w2 < 0.0:
        w = math.sqrt(-w2)
        C, S = math.cosh(w * v), math.sinh(w * v) / w
        D = (1.0 - C) / w2
    else:
        C, S, D = 1.0, v, v * v / 2.0
    l = [a + b * S + c * D for a, b, c in zip(l0, t0, dt0)]
    t = [b * C + c * S for b, c in zip(t0, dt0)]
    n = [c - kappa * (x - a) for a, c, x in zip(l0, n0, l)]
    return l, t, n


@pytest.mark.parametrize("kappa", [0.3, 0.7, 1.0, 1.5])
def test_hyperbolic_circle_matches_closed_form(kappa):
    # the hyperbolic circle is integrated by RK4; its trigonometric (0.3,
    # 0.7), polynomial (1.0) and hyperbolic (1.5) exact frames agree to
    # about 2e-13 relative on both tables
    c = circle_curve(kappa, Geometry.HYPERBOLIC)
    for i in range(-64, 65):
        v = 4.0 * math.pi * i / 64
        fr, exact = c.frame(v), _hyperbolic_circle_frame(kappa, v)
        for got, want in zip((fr.l, fr.t, fr.n), exact):
            scale = max(1.0, max(abs(x) for x in want))
            assert max(abs(g - w) for g, w in zip(got.coords(), want)) \
                <= 1e-10 * scale, (v, got, want)


def test_constant_curve_has_zero_kappa_rate():
    c = circle_curve(1.0, Geometry.ELLIPTIC)
    assert c.kappa_jet(1.7).d1 == 0.0
    assert c.constant_kappa == 1.0
    wavy = SphericalCurve(wavy_kappa(), Geometry.ELLIPTIC)
    assert wavy.constant_kappa is None


@pytest.mark.parametrize("make", [
    lambda: circle_curve(1.0, Geometry.ELLIPTIC),
    lambda: circle_curve(1.0, Geometry.HYPERBOLIC),
    lambda: SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC),
], ids=["elliptic-circle", "hyperbolic-circle", "scalarfn-constant"])
def test_frame_range_is_the_same_for_every_curve(make):
    # |v| <= 1e4 is the curve's contract, checked before any RK4 step (an
    # RK4 table out to 1e4 would hold about 0.72 GB, so none is built here);
    # NaN fails the check too, instead of reaching the frame arithmetic
    c = make()
    for v in (2e4, -2e4, math.nan):
        with pytest.raises(DomainError,
                           match=f"curve parameter {v!r} exceeds supported "
                                 f"range"):
            c.frame(v)
    assert len(c._fwd) == 9 and len(c._bwd) == 9


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


def test_construction_scan_samples():
    scan = list(construction_scan(sinh_fn(), Geometry.ELLIPTIC, 0.5, 2.0))
    assert [u for u, _ in scan] == [0.5 + 1.5 * i / 511 for i in range(512)]
    assert scan[-1][0] == 2.0 and all(msg is None for _, msg in scan)
    u, msg = next(construction_scan(cos_fn(), Geometry.ELLIPTIC, 0.3, 1.2))
    assert (u, msg) == (0.3, "elliptic normalization requires fdot^2 > 1, "
                        "violated at u = 0.3")


def test_construction_scan_ends_at_hi():
    # lo + (hi - lo) * 511 / 511 rounds one ulp past hi on this domain, and
    # f is not defined there
    dom = (0.47287498875745093, 0.8063098888744918)
    f = ScalarFn(jets.cos, domain=dom, d3=math.sin)
    scan = list(construction_scan(f, Geometry.HYPERBOLIC, *dom))
    assert scan[0] == (dom[0], None) and scan[-1] == (dom[1], None)
    assert profile_from_f(f, Geometry.HYPERBOLIC, 0.0, dom).domain == dom


def test_profile_scan_stops_at_the_first_violation():
    # fdot = 1 fails the elliptic rule at the first sample; the samples
    # after it raise ValueError, which profile_from_f must not reach
    def body(t):
        if (t.v if isinstance(t, Jet2) else t) > 0.6:
            raise ValueError("evaluated past the first violation")
        return t

    f = ScalarFn(body, name="identity", d3=lambda u: 0.0)
    with pytest.raises(ProfileDomainError, match="fdot\\^2 > 1") as err:
        profile_from_f(f, Geometry.ELLIPTIC, 0.0, (0.5, 2.0))
    assert err.value.u == 0.5


@pytest.mark.parametrize("domain", [(1.0, 1.0), (1.0, 0.5)])
def test_profile_empty_domain_rejected(domain):
    with pytest.raises(ProfileDomainError, match="empty profile domain"):
        profile_from_f(sinh_fn(), Geometry.ELLIPTIC, 0.0, domain)
    with pytest.raises(ProfileDomainError, match="empty profile domain"):
        MeridianProfile(sinh_fn(), Geometry.ELLIPTIC, domain)


def test_profile_f_jet_outside_domain_raises():
    p = sinh_profile()
    lo, hi = p.domain
    assert p.f_jet(lo).v == math.sinh(lo) and p.f_jet(hi).v == math.sinh(hi)
    for u in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
        with pytest.raises(DomainError, match="outside profile domain"):
            p.f_jet(u)


def test_profile_gdot_rejects_non_positive_normalization():
    # built without the construction scan: fdot^2 < 1 fails the elliptic rule
    p = MeridianProfile(cos_fn(), Geometry.ELLIPTIC, (0.3, 1.2))
    with pytest.raises(ProfileDomainError, match="normalization violated") \
            as err:
        p.gdot(0.5)
    assert err.value.u == 0.5


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
    s = FamilySpec(FamilyKind.CONSTANT_K, Geometry.ELLIPTIC,
                   params=dict(a=1.0, b=1.0, f0=1.0))
    assert max_ode_residual(ode_residual(s, p), p.domain) <= 1e-8


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
    for u_span in (math.inf, math.nan, -1.0, 0.0):
        with pytest.raises(ValueError, match="positive and finite"):
            profile_from_slope_ode(ScalarFn.constant(2.0), 1.0,
                                   Geometry.ELLIPTIC, 0.0, u_span)
    with pytest.raises(ProfileDomainError):  # y(f0)^2 = 0.25 not > 1
        profile_from_slope_ode(ScalarFn.constant(0.5), 1.0,
                               Geometry.ELLIPTIC, 0.0, 1.0)
    with pytest.raises(ProfileDomainError):  # hyperbolic needs y < 1
        profile_from_slope_ode(ScalarFn.constant(1.5), 1.0,
                               Geometry.HYPERBOLIC, 0.0, 1.0)


@pytest.mark.parametrize("geometry,y0,rule", [
    (Geometry.ELLIPTIC, 0.5, "y(f0)^2 > 1"),
    (Geometry.HYPERBOLIC, 1.5, "0 < y(f0) < 1"),
    (Geometry.HYPERBOLIC, -0.5, "0 < y(f0) < 1"),
])
def test_slope_inadmissible_start_names_the_rule(geometry, y0, rule):
    with pytest.raises(ProfileDomainError) as err:
        profile_from_slope_ode(ScalarFn.constant(y0), 1.0, geometry, 0.0, 1.0)
    assert str(err.value) == ("slope inadmissible at f0 = 1.0: geometry "
                              f"requires {rule}")


def test_slope_ode_step_count_is_bounded():
    # u_span <= 1000 holds the table to 10^6 steps of DEFAULT_STEP; just
    # above it the build fails before y is first evaluated, so no table is
    # allocated
    assert _MAX_SLOPE_SPAN == 1000.0
    assert round(_MAX_SLOPE_SPAN / DEFAULT_STEP) == 10**6
    calls = []
    y = ScalarFn(lambda t: calls.append(t) or 2.0)
    for u_span in (math.nextafter(_MAX_SLOPE_SPAN, math.inf), 1001.0,
                   1e300):
        with pytest.raises(DomainError, match="the longest slope build"):
            profile_from_slope_ode(y, 1.0, Geometry.ELLIPTIC, 0.0, u_span)
    assert calls == []


def test_slope_table_stops_before_a_non_monotone_step():
    # constant k = -1 from f0 = 1 blows up near u = 1.645: the step from
    # u = 1.644 takes f from 2,539 to 70,018 with step*d/df = 36.3, and the
    # cubic Hermite of that step dips to f = -230,978
    y = constant_k_slope(1.0, 1.0, 0.0, Geometry.ELLIPTIC)
    us, fs, ds = _slope_table(y, 1.0, Geometry.ELLIPTIC, 2.0)
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
