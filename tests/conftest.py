"""Shared builders for the test suite."""

import math
import random

import pytest

from meridian import jets
from meridian.curves import Geometry, SphericalCurve, circle_curve, profile_from_f
from meridian.families import (harmonic_fn, hyperbolic_harmonic_fn,
                               sqrt_quadratic_fn)
from meridian.jets import ScalarFn
from meridian.mink4 import Vec4
from meridian.surfaces import MeridianSurface


#: f = sqrt(u^2 - 1) from 1e-4 past its branch point: gdot = 1/sqrt(u^2 - 1)
#: rises like 1/sqrt(u - 1) at the domain's left end, and g = acosh(u) -
#: acosh(1.0001).  A quadrature tolerance halved at each bisection chased
#: that rise without end: its export ran for minutes.
NEAR_BRANCH = {"geometry": "elliptic", "curve": {"kind": "constant", "b": 1.2},
               "profile": {"kind": "explicit_f", "family": "sqrt_quadratic",
                           "c": 0, "d": -1},
               "domain": {"u": [1.0001, 2.0001], "v": [0, 1]}}


def close(a, b, tol):
    """Mixed absolute/relative comparison: |a-b| <= tol*max(1, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def sinh_fn() -> ScalarFn:
    return ScalarFn(jets.sinh, name="sinh", d3=math.cosh)


def cos_fn() -> ScalarFn:
    return ScalarFn(jets.cos, name="cos", d3=math.sin)


def sinh_profile(g0=0.0, domain=(0.5, 2.0)):
    return profile_from_f(sinh_fn(), Geometry.ELLIPTIC, g0, domain)


def cos_profile(g0=None, domain=(0.3, 1.2)):
    if g0 is None:
        g0 = math.sin(domain[0])
    return profile_from_f(cos_fn(), Geometry.HYPERBOLIC, g0, domain)


@pytest.fixture(scope="session")
def worked_surface():
    """Hyperbolic f = cos u with kappa = 1: the hand-derived regression point
    lives at u = pi/4 on this surface."""
    return MeridianSurface(cos_profile(), circle_curve(1.0, Geometry.HYPERBOLIC))


def wavy_kappa(b0=1.0, b1=0.3, phase=0.0) -> ScalarFn:
    return ScalarFn(lambda t: b0 + b1 * jets.sin(t + phase), name="kappa")


def rotated_elliptic_frame(a=0.4, b=0.9):
    """Orthonormal {l0, t0, n0} in span{e1,e2,e3}: standard frame rotated."""
    ca, sa, cb, sb = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
    # rotate about e3 by a, then about e1 by b
    rows = [
        (ca, -sa, 0.0),
        (sa * cb, ca * cb, -sb),
        (sa * sb, ca * sb, cb),
    ]
    cols = list(zip(*rows))
    return tuple(Vec4(c[0], c[1], c[2], 0.0) for c in cols)


def boosted_hyperbolic_frame(a=0.3, b=0.7):
    """Orthonormal {l0, t0, n0} in span{e2,e3,e4} with n0 timelike."""
    ch, sh, cb, sb = math.cosh(a), math.sinh(a), math.cos(b), math.sin(b)
    l0 = Vec4(0.0, ch * cb, ch * sb, sh)
    t0 = Vec4(0.0, -sb, cb, 0.0)
    n0 = Vec4(0.0, sh * cb, sh * sb, ch)
    return l0, t0, n0


def random_surface(rng: random.Random) -> MeridianSurface:
    """A randomized admissible meridian surface; hyperbolic directing curves
    keep |kappa| < 1 so their orbits (and the fd oracle's conditioning) stay
    bounded."""
    geometry = rng.choice([Geometry.ELLIPTIC, Geometry.HYPERBOLIC])
    while True:
        if geometry is Geometry.ELLIPTIC:
            if rng.random() < 0.5:
                om = rng.uniform(0.8, 1.5)
                f = hyperbolic_harmonic_fn(rng.uniform(0.6, 1.4),
                                           rng.uniform(0.7, 1.3), om)
                dom = (0.6 / om, 2.0 / om)
            else:
                c = rng.uniform(-0.3, 0.3)
                r = rng.uniform(0.5, 1.5)
                f = sqrt_quadratic_fn(c, c * c - r * r)
                lo = -c + 1.05 * r
                dom = (lo, lo + 1.0)
        else:
            if rng.random() < 0.5:
                om = rng.uniform(0.8, 1.4)
                f = harmonic_fn(rng.uniform(0.5, 0.95 / om), 0.0, om)
                dom = (0.1 / om, 1.3 / om)
            else:
                c = rng.uniform(-0.2, 0.2)
                r = rng.uniform(0.6, 1.4)
                f = sqrt_quadratic_fn(c, c * c + r * r)
                dom = (-c + 0.2, -c + 1.2)
        try:
            profile = profile_from_f(f, geometry, 0.0, dom)
            break
        except Exception:
            continue
    if geometry is Geometry.ELLIPTIC:
        if rng.random() < 0.5:
            curve = circle_curve(rng.choice([-1, 1]) * rng.uniform(0.7, 1.8),
                                 geometry)
        else:
            curve = SphericalCurve(
                wavy_kappa(rng.choice([-1, 1]) * rng.uniform(0.9, 1.6),
                           rng.uniform(0.1, 0.35), rng.uniform(0.0, 6.0)),
                geometry)
    else:
        if rng.random() < 0.5:
            curve = circle_curve(rng.choice([-1, 1]) * rng.uniform(0.35, 0.9),
                                 geometry)
        else:
            curve = SphericalCurve(
                wavy_kappa(rng.choice([-1, 1]) * rng.uniform(0.45, 0.8),
                           rng.uniform(0.05, 0.1), rng.uniform(0.0, 6.0)),
                geometry)
    return MeridianSurface(profile, curve)


def interior_point(rng: random.Random, surface: MeridianSurface):
    lo, hi = surface.profile.domain
    u = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
    v = rng.uniform(0.3, 5.8)
    return u, v
