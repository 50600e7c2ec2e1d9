import gc
import hashlib
import math

import pytest

from conftest import close, cos_profile, sinh_fn
from meridian import jets
from meridian.errors import DomainError
from meridian.families import (chen_slope, constant_k_slope,
                               constant_mean_slope, harmonic_fn,
                               parallel_slope_case_b, sqrt_quadratic_fn)
from meridian.jets import Jet2, ScalarFn, fd_jet2, fd_partials2, hermite_fn
from meridian.mink4 import Vec4
from meridian.curves import Geometry
from meridian.surfaces import MeridianSurface


def test_lift2_square():
    fn = ScalarFn(lambda t: t * t)
    assert fn.jet2(3.0) == Jet2(9.0, 6.0, 2.0)


def test_lift2_sinh_at_zero():
    j = sinh_fn().jet2(0.0)
    assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)


def test_lift2_sqrt_composite_vs_hand_and_fd():
    fn = ScalarFn(lambda t: jets.sqrt(t * t - 1.0))
    j = fn.jet2(2.0)
    # by hand: f = sqrt(u^2-1), f' = u/sqrt(u^2-1), f'' = -1/(u^2-1)^(3/2)
    assert abs(j.v - math.sqrt(3)) < 1e-12
    assert abs(j.d1 - 2 / math.sqrt(3)) < 1e-12
    assert abs(j.d2 - (-1 / (3 * math.sqrt(3)))) < 1e-12
    fd = fd_jet2(fn, 2.0, 3e-4)
    for a, b in zip((j.v, j.d1, j.d2), (fd.v, fd.d1, fd.d2)):
        assert abs(a - b) < 1e-7


def test_product_rule_hand_derived():
    fn = ScalarFn(lambda t: t * t * jets.sin(t))
    u = 1.3
    j = fn.jet2(u)
    assert close(j.d1, 2 * u * math.sin(u) + u * u * math.cos(u), 1e-14)
    assert close(j.d2, 2 * math.sin(u) + 4 * u * math.cos(u)
                 - u * u * math.sin(u), 1e-14)


def test_quotient_rule_hand_derived():
    fn = ScalarFn(lambda t: jets.sin(t) / (t * t))
    u = 0.9
    j = fn.jet2(u)
    d1 = math.cos(u) / u ** 2 - 2 * math.sin(u) / u ** 3
    d2 = (-math.sin(u) / u ** 2 - 4 * math.cos(u) / u ** 3
          + 6 * math.sin(u) / u ** 4)
    assert close(j.d1, d1, 1e-13)
    assert close(j.d2, d2, 1e-13)


def test_chain_rule_hand_derived():
    fn = ScalarFn(lambda t: jets.exp(jets.cos(2.0 * t)))
    u = 0.4
    j = fn.jet2(u)
    val = math.exp(math.cos(2 * u))
    d1 = val * (-2 * math.sin(2 * u))
    d2 = val * (4 * math.sin(2 * u) ** 2 - 4 * math.cos(2 * u))
    assert close(j.v, val, 1e-14)
    assert close(j.d1, d1, 1e-13)
    assert close(j.d2, d2, 1e-13)


def test_fd_jet2_cubic_first_derivative():
    fn = ScalarFn(lambda t: t * t * t)
    assert abs(fd_jet2(fn, 1.0, 1e-4).d1 - 3.0) < 1e-7


def test_fd_jet2_cos_second_derivative():
    fn = ScalarFn(jets.cos)
    assert abs(fd_jet2(fn, 0.0, 1e-3).d2 - (-1.0)) < 1e-5


def test_fd_jet2_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_jet2(ScalarFn(jets.cos), 0.0, h=-1.0)


FAMILY_FNS = [
    (harmonic_fn(1.0, 0.5, 1.2), 0.8),
    (sqrt_quadratic_fn(0.2, -1.0), 1.5),
    (constant_mean_slope(1.0, 4.0, 0.0, Geometry.ELLIPTIC), 1.0),
    (constant_k_slope(1.0, 1.0, 0.0, Geometry.ELLIPTIC), 1.1),
    (chen_slope(-1.0, 1.0, Geometry.ELLIPTIC), 1.3),
    (parallel_slope_case_b(1.0, 1.0, Geometry.ELLIPTIC), 1.7),
]


@pytest.mark.parametrize("fn,u", FAMILY_FNS)
def test_family_fns_lift2_matches_fd(fn, u):
    j, fd = fn.jet2(u), fd_jet2(fn, u, 3e-4)
    assert close(fd.d1, j.d1, 1e-6)
    assert close(fd.d2, j.d2, 1e-6)


@pytest.mark.parametrize("fn,u", FAMILY_FNS)
def test_family_fns_richardson_slope(fn, u):
    # halving h should quarter the O(h^2) truncation error (within 20%)
    h = 2e-3
    exact = fn.jet2(u)
    err = lambda hh: abs(fd_jet2(fn, u, hh).d1 - exact.d1)
    e1, e2 = err(h), err(h / 2)
    assert e1 > 1e-12  # otherwise the ratio is noise
    assert 3.2 <= e1 / e2 <= 4.8


def grid_of(surf):
    """The grid form fd_partials2 reads: one row over vs per u."""
    return lambda us, vs: [[surf(a, b) for b in vs] for a in us]


def test_fd_partials2_linear_map():
    surf = lambda u, v: Vec4(u, v, 0.0, 0.0)
    p = fd_partials2(grid_of(surf), 0.3, -0.2)
    assert p["z_u"].coords() == pytest.approx((1, 0, 0, 0), abs=1e-10)
    assert p["z_v"].coords() == pytest.approx((0, 1, 0, 0), abs=1e-10)
    for key in ("z_uu", "z_uv", "z_vv"):
        assert max(abs(c) for c in p[key].coords()) < 1e-8


def test_fd_partials2_cross_term():
    surf = lambda u, v: Vec4(u * v, 0.0, 0.0, 0.0)
    p = fd_partials2(grid_of(surf), 0.7, 1.1, 1e-3)
    assert abs(p["z_uv"].x1 - 1.0) < 1e-8


def test_fd_partials2_quadratic_exact():
    surf = lambda u, v: Vec4(u * u, u * v, v * v, u + v)
    p = fd_partials2(grid_of(surf), 0.4, 0.9, 1e-3)
    assert abs(p["z_uu"].x1 - 2.0) < 1e-8
    assert abs(p["z_uv"].x2 - 1.0) < 1e-8
    assert abs(p["z_vv"].x3 - 2.0) < 1e-8


def test_fd_partials2_meridian_tangent():
    from meridian.curves import circle_curve
    prof = cos_profile()
    s = MeridianSurface(prof, circle_curve(1.0, Geometry.HYPERBOLIC))
    u, v = 0.8, 0.6
    p = fd_partials2(lambda us, vs: [[Vec4(*z) for z in row] for row in
                                     s.grid_positions(us, vs)], u, v, 1e-4)
    j = prof.f_jet(u)
    l = s.curve.frame(v).l
    expected = j.d1 * l + Vec4(prof.gdot(u), 0, 0, 0)
    assert max(abs(a - b) for a, b in
               zip(p["z_u"].coords(), expected.coords())) < 1e-6


def test_scalarfn_domain_enforced():
    fn = ScalarFn(jets.sqrt, domain=(1.0, 4.0))
    with pytest.raises(DomainError):
        fn.jet2(0.5)


def test_scalarfn_scaled():
    fn = sinh_fn().scaled(2.0)
    j = fn.jet2(0.7)
    assert close(j.v, 2 * math.sinh(0.7), 1e-14)
    assert close(fn.d3(0.7), 2 * math.cosh(0.7), 1e-14)


def test_third_derivative_exact_and_fd_agree():
    exact = sinh_fn().d3(1.1)
    fd = ScalarFn(jets.sinh).d3(1.1)
    assert close(exact, math.cosh(1.1), 1e-14)
    assert close(fd, math.cosh(1.1), 1e-5)


def test_third_derivative_fd_stays_inside_the_domain():
    # within default_step of an end the difference is one-sided from inside
    # (measured error 2.8e-11 against sin u); elsewhere it is the central
    # difference, bit for bit that of the same body without a domain
    fn = ScalarFn(jets.cos, domain=(0.3, 1.2))
    for u in (0.3, 0.3 + 5e-6, 1.2 - 5e-6, 1.2):
        assert close(fn.d3(u), math.sin(u), 1e-9)
    for u in (0.3 + 2e-5, 0.7, 1.2 - 2e-5):
        assert fn.d3(u) == ScalarFn(jets.cos).d3(u)
    for u in (0.3 - 1e-9, 1.2 + 1e-9):
        with pytest.raises(DomainError):
            fn.d3(u)


def test_hermite_fn_reproduces_cubic():
    cubic = lambda x: ((2 * x - 1) * x + 3) * x - 0.5
    dcubic = lambda x: (6 * x - 2) * x + 3
    xs = [0.0, 0.4, 1.1, 2.0]
    fn = hermite_fn(xs, [cubic(x) for x in xs], [dcubic(x) for x in xs])
    for u in (0.13, 0.77, 1.62):
        j = fn.jet2(u)
        assert close(j.v, cubic(u), 1e-12)
        assert close(j.d1, dcubic(u), 1e-12)
        assert close(j.d2, 12 * u - 2, 1e-10)


# -- batch reads --------------------------------------------------------------


_KNOTS = [-3.0, -2.1, -1.25, -0.2, 0.0, 0.3, 1.7, 2.0, 3.5]


def _batch_fns():
    """A Hermite over irregular knots, a 2-sample Hermite, a jets body with
    and without a domain, and ScalarFn.constant."""
    return [
        hermite_fn(_KNOTS, [0.8 + 0.4 * math.sin(x) for x in _KNOTS],
                   [0.4 * math.cos(x) for x in _KNOTS], name="kappa"),
        hermite_fn([0.5, 2.0], [1.0, -0.5], [0.3, 2.0], name="two"),
        ScalarFn(jets.cos, domain=(-3.0, 3.5), name="cos"),
        ScalarFn(lambda t: 0.6 + 0.5 * jets.sin(t + 0.4), name="wavy"),
        ScalarFn.constant(1.3),
    ]


def _probe_points(fn):
    """Knots, the float below each, segment midpoints and both domain
    ends (for a function without knots, those of _KNOTS)."""
    lo, hi = fn.domain or (_KNOTS[0], _KNOTS[-1])
    xs = sorted({lo, hi} | {x for x in _KNOTS if lo <= x <= hi})
    below = [math.nextafter(x, -math.inf) for x in xs[1:]]
    mids = [0.5 * (a + b) for a, b in zip(xs, xs[1:])]
    return sorted(xs + below + mids)


@pytest.mark.parametrize("order", ["ascending", "descending", "repeated",
                                   "zigzag"])
@pytest.mark.parametrize("fn", _batch_fns(), ids=lambda fn: fn.name)
def test_values_equals_the_scalar_read_bitwise(fn, order):
    pts = _probe_points(fn)
    pts = {"ascending": pts, "descending": pts[::-1],
           "repeated": [x for x in pts for _ in range(3)] + pts[::-2],
           "zigzag": pts[::2] + pts[1::2][::-1] + pts[::3]}[order]
    assert [x.hex() for x in fn.values(pts)] == [fn(x).hex() for x in pts]
    assert fn.values([]) == []


@pytest.mark.parametrize("descending", [False, True],
                         ids=["ascending", "descending"])
@pytest.mark.parametrize("fn", [f for f in _batch_fns() if f.domain],
                         ids=lambda fn: fn.name)
def test_values_raises_at_the_first_abscissa_outside(fn, descending):
    lo, hi = fn.domain
    mid = 0.5 * (lo + hi)
    pts = [lo, mid, hi, math.nextafter(hi, math.inf), hi + 1.0, math.nan]
    if descending:
        pts = [hi, mid, lo, math.nextafter(lo, -math.inf), lo - 1.0,
               math.nan]
    with pytest.raises(DomainError) as want:
        fn(pts[3])
    with pytest.raises(DomainError) as got:
        fn.values(pts)
    assert str(got.value) == str(want.value)
    assert repr(pts[3]) in str(got.value)
    with pytest.raises(DomainError, match="evaluated at nan outside"):
        fn.values([mid, math.nan, hi + 1.0])


def test_hermite_fn_is_freed_without_the_cycle_collector():
    # a slope profile's samples go as soon as its last reference does
    gc.collect()
    gc.disable()
    try:
        fn = hermite_fn(_KNOTS, _KNOTS, _KNOTS)
        fn.values(_KNOTS)
        del fn
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- Jet2 as a value ----------------------------------------------------------


def test_jet2_fields_cannot_be_set_or_deleted():
    j = Jet2(1.0, 2.0, 3.0)
    for field in ("v", "d1", "d2"):
        with pytest.raises(AttributeError):
            setattr(j, field, 5.0)
        with pytest.raises(AttributeError):
            delattr(j, field)
    with pytest.raises(AttributeError):
        j.d3 = 0.0
    assert (j.v, j.d1, j.d2) == (1.0, 2.0, 3.0)


def test_jet2_equality_hash_and_repr_by_value():
    a, b = Jet2(1.0, 2.0, 3.0), Jet2(1.0, 2.0, 3.0)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, Jet2(1.0, 2.0, 3.5)}) == 2
    assert a != Jet2(1.0, 2.0, -3.0)
    assert repr(Jet2(1.5, -0.25, 0.0)) == "Jet2(v=1.5, d1=-0.25, d2=0.0)"
    assert jets.var(2.0) == Jet2(2.0, 1.0, 0.0)
    assert jets.const(2) == Jet2(2.0, 0.0, 0.0)


def test_jet2_arithmetic_leaves_operands_alone():
    a, b = Jet2(1.5, -0.5, 2.0), Jet2(0.75, 3.0, -1.0)
    ops = [lambda: a + b, lambda: a + 2.0, lambda: 2.0 + a, lambda: a - b,
           lambda: a - 2.0, lambda: 2.0 - a, lambda: -a, lambda: a * b,
           lambda: a * 2.0, lambda: 2.0 * a, lambda: a / b, lambda: a / 2.0,
           lambda: 2.0 / a, lambda: jets.sqrt(a), lambda: jets.sin(a),
           lambda: jets.cos(a), lambda: jets.sinh(a), lambda: jets.cosh(a),
           lambda: jets.exp(a), lambda: jets.asinh(a),
           lambda: jets.asin(b)]
    for op in ops:
        out = op()
        assert type(out) is Jet2
        assert a == Jet2(1.5, -0.5, 2.0) and b == Jet2(0.75, 3.0, -1.0)


def _every_op(t):
    """A body that takes each Jet2 operation and elementary function."""
    a = jets.sin(t) * jets.cosh(t) + 2.0
    b = 1.5 + t * t - t / 3.0
    c = 3.0 / jets.exp(t) - 0.5 * (-t)
    d = jets.sqrt(t + 2.0) - 1.0
    e = jets.asin(t * 0.25) + jets.asinh(t) * jets.cos(t) - jets.sinh(t)
    return (a + b) / c * d + (2.0 - e) / b


#: sha256 of the float.hex bits of 41 jets of _every_op and of a Hermite
#: read, recorded while Jet2 was a dataclass: the arithmetic must keep
#: every bit, which the 9-digit golden outputs cannot see
GOLDEN_JET_BITS = \
    "fa0baa26b70effdab5934a12a1258750a123e5942097529550e6546fcfa5abe7"


def test_jet_arithmetic_bits_unchanged():
    xs = [-2.0, -0.5, 0.25, 1.0, 2.0]
    read = hermite_fn(xs, [math.sin(x) for x in xs], [math.cos(x) for x in xs])
    fn = ScalarFn(_every_op)
    bits = []
    for i in range(41):
        u = -1.9 + 0.095 * i
        for j in (fn.jet2(u), read.jet2(u)):
            bits += [x.hex() for x in (j.v, j.d1, j.d2)]
    digest = hashlib.sha256(" ".join(bits).encode()).hexdigest()
    assert digest == GOLDEN_JET_BITS
