"""g against a 30-digit reference.

The reference integrates gdot = sqrt(+-(fdot^2 - 1)) by ``mpmath.quad``,
with fdot written here in mpmath from each profile's formula, so it shares
neither the package's quadrature nor its jets.  The cases are the profile
kinds the benchmark's ``oracle`` and ``mesh`` workloads draw, plus profiles
near the admissibility margin: sqrt(u^2 - 1) starting 1e-4 and 1e-8 past
its branch point, where gdot rises like 1/sqrt(u - 1), and the hyperbolic
f = 0.99 cos(u) (alpha omega = 0.99), where gdot^2 falls to 0.025.
"""

import pytest

mp = pytest.importorskip("mpmath")

from conftest import cos_fn, sinh_fn  # noqa: E402
from meridian.curves import Geometry, profile_from_f  # noqa: E402
from meridian.families import (constant_gauss_profile,  # noqa: E402
                               harmonic_fn, hyperbolic_harmonic_fn,
                               parallel_profile_case_a, sqrt_quadratic_fn)

ELL, HYP = Geometry.ELLIPTIC, Geometry.HYPERBOLIC


def _explicit(fn, geometry, domain):
    return lambda: profile_from_f(fn, geometry, 0.0, domain)


def _harmonic_dot(alpha, beta, omega):
    return lambda u: omega * (-alpha * mp.sin(omega * u)
                              + beta * mp.cos(omega * u))


def _hyperbolic_harmonic_dot(alpha, beta, omega):
    return lambda u: omega * (alpha * mp.sinh(omega * u)
                              + beta * mp.cosh(omega * u))


def _sqrt_quadratic_dot(c, d):
    return lambda u: (u + c) / mp.sqrt(u * u + 2 * c * u + d)


def _sqrt_quadratic(c, d, geometry, domain):
    return (_explicit(sqrt_quadratic_fn(c, d), geometry, domain),
            _sqrt_quadratic_dot(c, d))


#: id -> (profile builder, fdot in mpmath); parameters at the centres of the
#: workloads' ranges
CASES = {
    "oracle-ell-hyperbolic_harmonic": (
        _explicit(hyperbolic_harmonic_fn(1.0, 1.0, 1.2), ELL,
                  (0.6 / 1.2, 2.0 / 1.2)),
        _hyperbolic_harmonic_dot(1.0, 1.0, 1.2)),
    "oracle-ell-sqrt_quadratic": _sqrt_quadratic(
        0.05, 0.05 * 0.05 - 1.0, ELL, (-0.05 + 1.05, -0.05 + 2.05)),
    "oracle-hyp-harmonic": (
        _explicit(harmonic_fn(0.7, 0.0, 1.1), HYP, (0.1 / 1.1, 1.3 / 1.1)),
        _harmonic_dot(0.7, 0.0, 1.1)),
    "oracle-hyp-sqrt_quadratic": _sqrt_quadratic(
        -0.05, 0.05 * 0.05 + 1.0, HYP, (0.05 + 0.2, 0.05 + 1.2)),
    "mesh-cos": (_explicit(cos_fn(), HYP, (0.3, 1.2)),
                 lambda u: -mp.sin(u)),
    "mesh-harmonic": (
        _explicit(harmonic_fn(0.8, 0.0, 1.0), HYP, (0.2, 1.2)),
        _harmonic_dot(0.8, 0.0, 1.0)),
    "mesh-sqrtq": _sqrt_quadratic(0.0, 1.0, HYP, (0.1, 0.9)),
    "mesh-parallel_a": (
        lambda: parallel_profile_case_a(0.02, 1.02, HYP, (0.1, 0.9)),
        _sqrt_quadratic_dot(0.02, 1.02)),
    "mesh-gauss": (
        lambda: constant_gauss_profile(-1.0, 0.02, 1.0, ELL, (0.5, 2.0)),
        _hyperbolic_harmonic_dot(0.02, 1.0, 1.0)),
    "mesh-sinh": (_explicit(sinh_fn(), ELL, (0.5, 2.0)),
                  lambda u: mp.cosh(u)),
    "branch+1e-4": _sqrt_quadratic(0.0, -1.0, ELL, (1.0 + 1e-4, 2.0 + 1e-4)),
    "branch+1e-8": _sqrt_quadratic(0.0, -1.0, ELL, (1.0 + 1e-8, 2.0 + 1e-8)),
    "harmonic-alpha-omega-0.99": (
        _explicit(harmonic_fn(0.99, 0.0, 1.0), HYP, (0.1, 1.5)),
        _harmonic_dot(0.99, 0.0, 1.0)),
}


@pytest.mark.parametrize("build,fdot", CASES.values(), ids=CASES.keys())
def test_g_matches_30_digit_reference(build, fdot):
    profile = build()
    lo, hi = profile.domain
    sign = profile.geometry.normalization_sign
    us = [lo + (hi - lo) * i / 11 for i in range(1, 11)] + [hi]
    with mp.workdps(30):
        def gdot(u):
            return mp.sqrt(sign * (fdot(u) ** 2 - 1))

        g_ref, a = mp.mpf(0), mp.mpf(lo)
        for u in us:
            piece, err = mp.quad(gdot, [a, mp.mpf(u)], error=True)
            assert err <= 1e-25
            g_ref, a = g_ref + piece, mp.mpf(u)
            want = float(g_ref)
            assert abs(profile.g(u) - want) <= 1e-13 * max(1.0, abs(want)), u
