import math

import pytest

from conftest import close, cos_profile, sinh_fn
from meridian import jets
from meridian.errors import DomainError
from meridian.families import (chen_slope, constant_k_slope,
                               constant_mean_slope, harmonic_fn,
                               parallel_slope_case_b, sqrt_quadratic_fn)
from meridian.jets import (Jet2, ScalarFn, fd_jet2, fd_partials2, hermite_fn,
                           lift2, third_derivative)
from meridian.mink4 import Vec4
from meridian.curves import Geometry
from meridian.surfaces import MeridianSurface


def test_lift2_square():
    fn = ScalarFn(lambda t: t * t)
    assert lift2(fn, 3.0) == Jet2(9.0, 6.0, 2.0)


def test_lift2_sinh_at_zero():
    j = lift2(sinh_fn(), 0.0)
    assert (j.v, j.d1, j.d2) == (0.0, 1.0, 0.0)


def test_lift2_sqrt_composite_vs_hand_and_fd():
    fn = ScalarFn(lambda t: jets.sqrt(t * t - 1.0))
    j = lift2(fn, 2.0)
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
    j = lift2(fn, u)
    assert close(j.d1, 2 * u * math.sin(u) + u * u * math.cos(u), 1e-14)
    assert close(j.d2, 2 * math.sin(u) + 4 * u * math.cos(u)
                 - u * u * math.sin(u), 1e-14)


def test_quotient_rule_hand_derived():
    fn = ScalarFn(lambda t: jets.sin(t) / (t * t))
    u = 0.9
    j = lift2(fn, u)
    d1 = math.cos(u) / u ** 2 - 2 * math.sin(u) / u ** 3
    d2 = (-math.sin(u) / u ** 2 - 4 * math.cos(u) / u ** 3
          + 6 * math.sin(u) / u ** 4)
    assert close(j.d1, d1, 1e-13)
    assert close(j.d2, d2, 1e-13)


def test_chain_rule_hand_derived():
    fn = ScalarFn(lambda t: jets.exp(jets.cos(2.0 * t)))
    u = 0.4
    j = lift2(fn, u)
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
    j, fd = lift2(fn, u), fd_jet2(fn, u, 3e-4)
    assert close(fd.d1, j.d1, 1e-6)
    assert close(fd.d2, j.d2, 1e-6)


@pytest.mark.parametrize("fn,u", FAMILY_FNS)
def test_family_fns_richardson_slope(fn, u):
    # halving h should quarter the O(h^2) truncation error (within 20%)
    h = 2e-3
    exact = lift2(fn, u)
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
    p = fd_partials2(s.grid_positions, u, v, 1e-4)
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
    exact = third_derivative(sinh_fn(), 1.1)
    fd = third_derivative(ScalarFn(jets.sinh), 1.1)
    assert close(exact, math.cosh(1.1), 1e-14)
    assert close(fd, math.cosh(1.1), 1e-5)


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
