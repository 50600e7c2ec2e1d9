"""The separable point kernel: sweep records against the one-point views."""

import math
import random

import pytest

from conftest import cos_profile, random_surface, sinh_profile
from meridian import jets, surfaces
from meridian.curves import (Geometry, SphericalCurve, circle_curve,
                             profile_from_f)
from meridian.errors import FlatPointError, TrappedPointError
from meridian.families import FamilyKind, FamilySpec, family_profile
from meridian.jets import ScalarFn
from meridian.surfaces import (MeridianSurface, PointTag, basic_invariants,
                               classify_point, eight_invariants, sweep)

E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC


def grid(surface, nu=7, nv=6):
    lo, hi = surface.profile.domain
    us = [lo + (hi - lo) * i / (nu - 1) for i in range(nu)]
    vs = [0.3 + 5.5 * j / (nv - 1) for j in range(nv)]
    return us, vs


def expand(stream, nv):
    """The records of a sweep stream, one per (u, v) in row-major order;
    checks that each row's runs tile range(nv) in order."""
    records, at = [], 0
    for rec, js in stream:
        assert js == range(at, js.stop) and at < js.stop <= nv
        records += [rec] * len(js)
        at = js.stop % nv
    assert at == 0
    return records


def assert_matches_views(surface, us, vs):
    """Every sweep record equals the one-point views bit for bit, and every
    field but the column of the views' one cell, surfaces._point."""
    records = expand(sweep(surface, us, vs), len(vs))
    assert [r.column.u for r in records] == [u for u in us for v in vs]
    for rec, v in zip(records, vs * len(us)):
        u = rec.column.u
        assert surfaces._point(surface, u, v)[1:] == rec[1:], (u, v)
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
               for r in expand(sweep(surface, us, vs), len(vs)))
    records = expand(sweep(surface, us, vs, flat_tol=1e-12), len(vs))
    assert all(r.tag is PointTag.GENERAL for r in records)
    assert all(math.isfinite(x) for r in records for x in r.frame)


def test_sweep_evaluates_each_jet_once():
    # a curve built constant needs its curvature jet once, any other curve,
    # ScalarFn.constant included, once per v
    f = ScalarFn(jets.sinh, d3=math.cosh)
    for curve, kappa_calls in (
            (circle_curve(1.0, Geometry.ELLIPTIC), 1),
            (SphericalCurve(ScalarFn.constant(1.0), Geometry.ELLIPTIC), 3)):
        calls = {"f": 0, "kappa": 0}
        profile = profile_from_f(f, Geometry.ELLIPTIC, 0.0, (0.5, 2.0))
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
        records = expand(sweep(surface, [0.6, 1.0, 1.4, 1.8],
                               [0.0, 1.0, 2.0]), 3)
        assert len(records) == 12
        assert calls == {"f": 4, "kappa": kappa_calls}


@pytest.mark.parametrize("geometry", [E, H])
def test_sweep_evaluates_one_cell_per_column_over_a_circle(monkeypatch,
                                                           geometry):
    profile = sinh_profile() if geometry is E else cos_profile()
    cell, calls = surfaces._cell, [0]

    def counted_cell(*args):
        calls[0] += 1
        return cell(*args)

    monkeypatch.setattr(surfaces, "_cell", counted_cell)
    us, vs = grid(MeridianSurface(profile, circle_curve(1.0, geometry)))
    for curve, cells in ((circle_curve(1.0, geometry), len(us)),
                         (SphericalCurve(ScalarFn.constant(1.0), geometry),
                          len(us) * len(vs))):
        calls[0] = 0
        records = expand(sweep(MeridianSurface(profile, curve), us, vs),
                         len(vs))
        assert len(records) == len(us) * len(vs)
        assert calls[0] == cells
        # one record object per cell: a circle repeats it across v
        assert len({id(r) for r in records}) == cells


def _slope_profile(kind, geometry, **params):
    return lambda: family_profile(FamilySpec(FamilyKind(kind), geometry,
                                             params=params))


_ROUTES = {
    "elliptic-sinh": (E, sinh_profile, 1.3, None),
    "hyperbolic-cos": (H, cos_profile, 0.8, None),
    "elliptic-flat-I": (E, sinh_profile, 0.0, None),
    "hyperbolic-flat-I": (H, cos_profile, 0.0, None),
    "trapped-column": (H, cos_profile, 2.0 * math.cos(0.6), [0.4, 0.6, 0.9]),
    "elliptic-slope": (E, _slope_profile("constant_k", E, a=1.0, b=1.0,
                                         f0=1.0), 1.0, None),
    "hyperbolic-slope": (H, _slope_profile("chen", H, a=-1.0, b=0.5, f0=0.7,
                                           u_span=1.2), 0.5, None),
}


@pytest.mark.parametrize("name", sorted(_ROUTES))
def test_circle_and_scalarfn_constant_sweep_alike(name):
    # the one-cell-per-column route against the per-(u, v) route: the same
    # arithmetic on the same inputs, so every field is equal
    geometry, profile, b, us = _ROUTES[name]
    prof = profile()
    circle = MeridianSurface(prof, circle_curve(b, geometry))
    plain = MeridianSurface(prof, SphericalCurve(ScalarFn.constant(b),
                                                 geometry))
    vs = grid(circle)[1]
    us = grid(circle)[0] if us is None else us
    fast = expand(sweep(circle, us, vs), len(vs))
    slow = expand(sweep(plain, us, vs), len(vs))
    assert len(fast) == len(slow) == len(us) * len(vs)
    for a, c, (u, v) in zip(fast, slow, [(u, v) for u in us for v in vs]):
        assert a.column.u == c.column.u == u
        assert a[1:] == c[1:], (u, v)     # the frame as a tuple, or None
    if b == 0.0:
        assert {r.tag for r in fast} == {PointTag.FLAT_CASE_I}
    if name == "trapped-column":
        assert [r.trapped for r in fast] == [r.column.u == 0.6 for r in fast]
