"""The separable point kernel: sweep records against the one-point views."""

import math
import random

import pytest

from conftest import cos_profile, random_surface, sinh_profile
from meridian import jets
from meridian.curves import Geometry, circle_curve, profile_from_f
from meridian.errors import FlatPointError, TrappedPointError
from meridian.jets import ScalarFn
from meridian.surfaces import (MeridianSurface, PointTag, basic_invariants,
                               classify_point, eight_invariants, sweep)


def grid(surface, nu=7, nv=6):
    lo, hi = surface.profile.domain
    us = [lo + (hi - lo) * i / (nu - 1) for i in range(nu)]
    vs = [0.3 + 5.5 * j / (nv - 1) for j in range(nv)]
    return us, vs


def assert_matches_views(surface, us, vs):
    """Every sweep record equals the one-point views bit for bit."""
    records = list(sweep(surface, us, vs))
    assert [(r.column.u, r.v) for r in records] == \
        [(u, v) for u in us for v in vs]
    for rec in records:
        u, v = rec.column.u, rec.v
        basic = basic_invariants(surface, u, v)
        assert (rec.k, rec.H2, rec.meanH, rec.column.gaussK) == \
            (basic.k, basic.H2, basic.meanH, basic.gaussK)
        cls = classify_point(surface, u, v)
        assert (rec.tag, rec.trapped) == (cls.tag, cls.trapped)
        if rec.frame is None:
            with pytest.raises((FlatPointError, TrappedPointError)):
                eight_invariants(surface, u, v)
            continue
        assert rec.frame == eight_invariants(surface, u, v)
        assert (rec.k, rec.H2, rec.meanH) == \
            (rec.frame.k, rec.frame.H2, rec.frame.meanH)
    return records


@pytest.mark.parametrize("seed", range(8))
def test_sweep_equals_views_on_random_surfaces(seed):
    surface = random_surface(random.Random(1000 + seed))
    records = assert_matches_views(surface, *grid(surface))
    assert any(r.frame is not None for r in records)


def test_sweep_equals_views_flat_case_I():
    surface = MeridianSurface(cos_profile(),
                              circle_curve(0.0, Geometry.HYPERBOLIC))
    records = assert_matches_views(surface, *grid(surface))
    assert {r.tag for r in records} == {PointTag.FLAT_CASE_I}


def test_sweep_equals_views_flat_case_II():
    # f = 1 + 2u has fddot = 0, so kappa_m vanishes everywhere
    f = ScalarFn(lambda t: 1.0 + 2.0 * t, d3=lambda u: 0.0)
    profile = profile_from_f(f, Geometry.ELLIPTIC, 0.0, (0.0, 1.0))
    surface = MeridianSurface(profile, circle_curve(1.0, Geometry.ELLIPTIC))
    records = assert_matches_views(surface, *grid(surface))
    assert {r.tag for r in records} == {PointTag.FLAT_CASE_II}


def test_sweep_equals_views_trapped_column():
    u0 = 0.6  # <H,H> = 0 at u0 for f = cos u and kappa = 2 cos u0
    surface = MeridianSurface(cos_profile(),
                              circle_curve(2.0 * math.cos(u0),
                                           Geometry.HYPERBOLIC))
    records = assert_matches_views(surface, [0.4, u0, 0.9], [0.5, 2.0])
    trapped = [r for r in records if r.trapped]
    assert [r.column.u for r in trapped] == [u0, u0]
    assert all(r.tag is PointTag.GENERAL and r.frame is None for r in trapped)


def test_sweep_flat_tolerance_guards_the_frame():
    # |kappa| = 1e-10: flat at the default tolerance, general at 1e-12
    surface = MeridianSurface(sinh_profile(),
                              circle_curve(1e-10, Geometry.ELLIPTIC))
    us, vs = [0.8, 1.5], [0.0, 1.0]
    assert all(r.tag is PointTag.FLAT_CASE_I and r.frame is None
               for r in sweep(surface, us, vs))
    records = list(sweep(surface, us, vs, flat_tol=1e-12))
    assert all(r.tag is PointTag.GENERAL for r in records)
    assert all(math.isfinite(x) for r in records for x in r.frame)


def test_sweep_evaluates_each_jet_once():
    calls = {"f": 0, "kappa": 0}
    f = ScalarFn(jets.sinh, d3=math.cosh)
    profile = profile_from_f(f, Geometry.ELLIPTIC, 0.0, (0.5, 2.0))
    curve = circle_curve(1.0, Geometry.ELLIPTIC)
    surface = MeridianSurface(profile, curve)
    f_jet, kappa_jet = profile.f_jet, curve.kappa_jet

    def counted_f(u):
        calls["f"] += 1
        return f_jet(u)

    def counted_kappa(v):
        calls["kappa"] += 1
        return kappa_jet(v)

    profile.f_jet = counted_f
    curve.kappa_jet = counted_kappa
    records = list(sweep(surface, [0.6, 1.0, 1.4, 1.8], [0.0, 1.0, 2.0]))
    assert len(records) == 12
    assert calls == {"f": 4, "kappa": 3}
