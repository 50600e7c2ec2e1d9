"""Symbolic oracle: the closed forms of the package derived from the
surface's definition, independently of its floating-point code.

The directing curve is the moving basis {l, t, n, axis} with l' = t,
t' = s kappa n - l, n' = -kappa t and axis' = 0, whose Gram matrix is
diag(1, 1, 1, -1) (elliptic, s = +1) or diag(1, 1, -1, 1) (hyperbolic,
s = -1, spacelike axis).  The surface is z = f(u) l(v) + g(u) axis with
gdot = sqrt(V), V = s (fdot^2 - 1).

The classification of arXiv:1402.6112 is checked in the same way: each
slope y of families.py, with f = t, fdot = y(t) and fddot = y y', solves
its family's defining ODE identically, and each closed-form profile solves
its own.
"""

import pytest

sp = pytest.importorskip("sympy")

from conftest import cos_profile, sinh_profile, wavy_kappa  # noqa: E402
from meridian.curves import Geometry, SphericalCurve  # noqa: E402
from meridian.families import (FamilyKind, FamilySpec,  # noqa: E402
                               family_profile, family_slope)
from meridian.surfaces import MeridianSurface, eight_invariants  # noqa: E402

u, v = sp.symbols("u v", real=True)
F0 = sp.Symbol("f", positive=True)
F1, F2, K = sp.symbols("fdot fddot kappa", real=True)


class Surface:
    """Vectors are columns of coefficients on (l, t, n, axis)."""

    def __init__(self, geometry):
        self.s = s = int(geometry.normalization_sign)
        self.gram = sp.diag(1, 1, 1, -1) if s == 1 else sp.diag(1, 1, -1, 1)
        self.f = f = sp.Function("f")(u)
        self.kappa = sp.Function("kappa")(v)
        self.gdot = sp.sqrt(s * (f.diff(u) ** 2 - 1))
        # d/dv of the basis: column j holds the coefficients of e_j'
        k = self.kappa
        self.basis_rate = sp.Matrix([[0, -1, 0, 0],
                                     [1, 0, -k, 0],
                                     [0, s * k, 0, 0],
                                     [0, 0, 0, 0]])

    def dv(self, w):
        return w.diff(v) + self.basis_rate * w

    def inner(self, a, b):
        return (a.T * self.gram * b)[0]

    def point(self, expr):
        """expr at a point: f, its derivatives and kappa as plain symbols."""
        f = self.f
        return sp.simplify(expr.subs({f.diff(u, 2): F2, f.diff(u): F1,
                                      f: F0, self.kappa: K}))


@pytest.fixture(params=list(Geometry), ids=lambda g: g.value)
def surface(request):
    return Surface(request.param)


def test_moving_basis_keeps_its_gram(surface):
    # the Frenet equations are those of a frame with this signature
    A, G = surface.basis_rate, surface.gram
    assert sp.simplify(A.T * G + G * A) == sp.zeros(4, 4)


def test_first_fundamental_form(surface):
    S, f = surface, surface.f
    z_u = sp.Matrix([f.diff(u), 0, 0, S.gdot])
    z_v = sp.Matrix([0, f, 0, 0])
    assert S.point(S.inner(z_u, z_u)) == 1
    assert S.point(S.inner(z_u, z_v)) == 0
    assert S.point(S.inner(z_v, z_v)) == F0 ** 2


def _forms(S):
    """E, F, G and, for the normals n1 and n2 of adapted_frame, their
    Gram signs eps_i = <n_i, n_i> and coefficients <z_uu, n_i>, <z_uv, n_i>,
    <z_vv, n_i>, as fundamental_forms_numeric builds them."""
    f = S.f
    fdot = f.diff(u)
    z_u = sp.Matrix([fdot, 0, 0, S.gdot])
    z_v = sp.Matrix([0, f, 0, 0])
    curve_normal = sp.Matrix([0, 0, 1, 0])
    if S.s == 1:
        n1, n2 = curve_normal, sp.Matrix([S.gdot, 0, 0, fdot])
    else:
        n1, n2 = sp.Matrix([S.gdot, 0, 0, -fdot]), curve_normal
    for n in (n1, n2):
        assert S.point(S.inner(n, z_u)) == 0
        assert S.point(S.inner(n, z_v)) == 0
    E = S.point(S.inner(z_u, z_u))
    F = S.point(S.inner(z_u, z_v))
    G = S.point(S.inner(z_v, z_v))
    seconds = (z_u.diff(u), S.dv(z_u), S.dv(z_v))      # z_uu, z_uv, z_vv
    normals = [(S.point(S.inner(n, n)), [S.point(S.inner(z, n))
                                         for z in seconds])
               for n in (n1, n2)]
    return E, F, G, normals


def test_k_closed_form_and_varkappa_zero(surface):
    S = surface
    E, F, G, ((eps1, c1), (eps2, c2)) = _forms(S)
    assert (eps1, eps2) == (1, -1)
    W = sp.sqrt(E * G - F * F)
    L = 2 / W * (c1[0] * c2[1] - c1[1] * c2[0])
    M = 1 / W * (c1[0] * c2[2] - c1[2] * c2[0])
    N = 2 / W * (c1[1] * c2[2] - c1[2] * c2[1])
    denom = E * G - F * F
    k = (L * N - M * M) / denom
    varkappa = (E * N + G * L - 2 * F * M) / (2 * denom)
    V = S.s * (F1 ** 2 - 1)
    assert sp.simplify(k - (-F2 ** 2 * K ** 2 / (V * F0 ** 2))) == 0
    assert sp.simplify(varkappa) == 0


def test_gauss_curvature_and_mean_curvature_norm(surface):
    # K by the Gauss equation and <H,H> from H = sum eps_i tr(h^i)/2 n_i:
    # -fddot/f, and _cell's D / (4 f^2 V)
    S = surface
    E, F, G, normals = _forms(S)
    denom = E * G - F * F
    gaussK = sum(eps * (c[0] * c[2] - c[1] ** 2)
                 for eps, c in normals) / denom
    H2 = sum(eps * ((G * c[0] - 2 * F * c[1] + E * c[2]) / (2 * denom)) ** 2
             for eps, c in normals)
    V = S.s * (F1 ** 2 - 1)
    phi = F0 * F2 + F1 ** 2 - 1
    assert sp.simplify(gaussK + F2 / F0) == 0
    assert sp.simplify(H2 - S.s * (K ** 2 * V - phi ** 2)
                       / (4 * F0 ** 2 * V)) == 0


# -- the eight invariants from the geometric frame ----------------------------

F3, K1 = sp.symbols("fdddot kappa_v", real=True)
EPS = sp.Symbol("epsilon", nonzero=True)
Q = sp.Symbol("Q", positive=True)      # sqrt(eps D), the norm of b and l


def _closed_invariants(s):
    """_cell's closed forms in the point symbols, with |D| = Q^2: gamma, nu,
    lambda, mu, beta1, beta2, and D itself."""
    V = s * (F1 ** 2 - 1)
    sqV = sp.sqrt(V)
    phi = F0 * F2 + F1 ** 2 - 1
    P = phi / sqV
    Pdu = (3 * F1 * F2 + F0 * F3) / sqV - phi * 2 * s * F1 * F2 / (2 * V * sqV)
    r2 = sp.sqrt(2)
    return (-F1 / (r2 * F0), Q / (2 * F0 * sqV),
            EPS * s * (K ** 2 * V + F0 ** 2 * F2 ** 2 - V * V)
            / (2 * F0 * sqV * Q),
            K * F2 / Q,
            -V * (K * Pdu - K1 * P / F0) / (r2 * Q ** 2),
            V * (K * Pdu + K1 * P / F0) / (r2 * Q ** 2),
            s * (K ** 2 * V - phi ** 2))


def test_frame_invariants_from_frame_derivatives(surface):
    # x = (X + Y)/sqrt2, y = (-X + Y)/sqrt2 with X = z_u, Y = z_v/f, and
    # b = eps B/Q, l = L/Q as geometric_frame builds them from n and n_m;
    # the ambient derivative along X is d/du and along Y it is (d/dv)/f.
    # gamma1 = -<D_x x, y>, gamma2 = <D_y y, x>, nu1 = <D_x x, b>,
    # nu2 = <D_y y, b>, lambda = <D_x y, b>, mu = <D_x y, l> and
    # beta1,2 = eps <D_{x,y} b, l>; <B, L> = 0, so the rate of Q drops out
    # of beta, and each minus _cell's closed form is 0 once Q^2 = eps D
    S, f = surface, surface.f
    fdot = f.diff(u)
    X = sp.Matrix([fdot, 0, 0, S.gdot])
    Y, n = sp.Matrix([0, 1, 0, 0]), sp.Matrix([0, 0, 1, 0])
    n_m = sp.Matrix([S.gdot, 0, 0, S.s * fdot])
    x, y = (X + Y) / sp.sqrt(2), (-X + Y) / sp.sqrt(2)

    def along_x(w):
        return (w.diff(u) + S.dv(w) / f) / sp.sqrt(2)

    def along_y(w):
        return (-w.diff(u) + S.dv(w) / f) / sp.sqrt(2)

    skV, phi = S.s * S.kappa * S.gdot, f * f.diff(u, 2) + fdot ** 2 - 1
    B, L = skV * n + phi * n_m, phi * n + skV * n_m
    b, l = EPS * B / Q, L / Q
    assert S.point(S.inner(B, L)) == 0
    gamma, nu, lam, mu, beta1, beta2, D = _closed_invariants(S.s)
    third = {f.diff(u, 3): F3, S.kappa.diff(v): K1}
    xx, yy, xy = along_x(x), along_y(y), along_x(y)
    for power, got, want in (
            (1, -S.inner(xx, y), gamma), (1, S.inner(yy, x), gamma),
            (1, S.inner(xx, b), nu), (1, S.inner(yy, b), nu),
            (1, S.inner(xy, b), lam), (1, S.inner(xy, l), mu),
            (2, EPS * S.inner(along_x(b), l), beta1),
            (2, EPS * S.inner(along_y(b), l), beta2)):
        cleared = sp.expand((S.point(got.subs(third)) - want) * Q ** power)
        assert sp.simplify(cleared.subs({Q ** 2: EPS * D, EPS ** 2: 1})) == 0


@pytest.mark.parametrize("geometry,profile,f,u0,eps", [
    (Geometry.ELLIPTIC, sinh_profile, sp.sinh(u), 1.0, -1),
    (Geometry.HYPERBOLIC, cos_profile, sp.cos(u), 0.7, 1),
], ids=["elliptic", "hyperbolic"])
def test_closed_invariants_are_the_kernels(geometry, profile, f, u0, eps):
    # the transcription above is the kernel's: equal to eight_invariants at
    # a point with kappa' != 0 (kappa = 1 + 0.3 sin v), in each eps class
    kappa = 1 + sp.Rational(3, 10) * sp.sin(v)
    inv = eight_invariants(MeridianSurface(
        profile(), SphericalCurve(wavy_kappa(), geometry)), u0, 0.7)
    point = {sym: f.diff(u, i).subs(u, u0)
             for i, sym in enumerate((F0, F1, F2, F3))}
    point.update({K: kappa.subs(v, 0.7), K1: kappa.diff(v).subs(v, 0.7)})
    *closed, D = _closed_invariants(int(geometry.normalization_sign))
    assert inv.epsilon == eps
    point.update({EPS: eps, Q: sp.sqrt(eps * D.subs(point))})
    got = (inv.gamma1, inv.nu1, inv.lam, inv.mu, inv.beta1, inv.beta2)
    for g, c in zip(got, closed):
        want = float(sp.N(c.subs(point), 20))
        assert abs(g - want) <= 1e-12 * max(1.0, abs(want))
    assert (inv.gamma2, inv.nu2) == (inv.gamma1, inv.nu1)


# -- the classification -------------------------------------------------------

t = sp.Symbol("t", positive=True)
E, H = Geometry.ELLIPTIC, Geometry.HYPERBOLIC
CMC, CK, CHEN, PB = (FamilyKind.CONSTANT_MEAN, FamilyKind.CONSTANT_K,
                     FamilyKind.CHEN, FamilyKind.PARALLEL_B)


def _slope(kind, s, p, eps):
    """SymPy transcription of the slope y(t) of a slope family."""
    a, b = p["a"], p["b"]
    if kind is CMC:    # arcsin, or arcsinh for the hyperbolic eps = +1
        plus = s == -1 and eps != -1
        arc = sp.asinh if plus else sp.asin
        rad = b ** 2 + (4 if plus else -4) * a ** 2 * t ** 2
        accum = t / 2 * sp.sqrt(rad) + b ** 2 / (4 * a) * arc(2 * a * t / b)
        return sp.sqrt(1 + s * ((p["C"] + p["sign"] * accum) / t) ** 2)
    if kind is CK:
        q = p["C"] + s * p["sign"] * a * t ** 2 / (2 * b)
        return sp.sqrt(1 + s * q ** 2)
    if kind is CHEN:
        tt = t ** p["branch"]
        w = tt ** 2 - b ** 2 / a
        return sp.sqrt(4 * tt ** 2 - s * a * w ** 2) / (2 * tt)
    c = p["c"]
    return sp.sqrt((1 + s * a ** 2) * t ** 2 + 2 * a * c * t + s * c ** 2) / t


def _ode(name, s, p, y):
    """Residual of a defining ODE along f = t, fdot = y, fddot = y y'."""
    a, b = p["a"], p["b"]
    fdot, fddot = y, y * y.diff(t)
    V = s * (fdot ** 2 - 1)
    phi = t * fddot + fdot ** 2 - 1
    if name in ("cmc+", "cmc-"):    # phi^2 = V (b^2 +- 4 a^2 f^2)
        c = 4 if name == "cmc+" else -4
        return phi ** 2 - V * (b ** 2 + c * a ** 2 * t ** 2)
    if name == "k":
        return b ** 2 * fddot ** 2 - a ** 2 * t ** 2 * V
    if name == "chen":
        return V ** 2 - t ** 2 * fddot ** 2 - b ** 2 * V
    return phi - a * sp.sqrt(sp.factor(V))     # parallel (b)


def _cases():
    """(id, kind, geometry, params, eps, ode, holds, simplify, ts): three
    admissible t each; one case per family, geometry and slope form is
    simplified, the others are evaluated at 30 digits."""
    cases = []
    for sign in (1, -1):
        first = sign == 1
        for geometry, eps, p, ts, ode, other in (
                (E, None, dict(a="1", b="4", C="0"), ("0.3", "1", "1.5"),
                 "cmc-", "cmc+"),
                (H, -1, dict(a="0.5", b="1", C="0"), ("0.5", "0.7", "0.9"),
                 "cmc-", "cmc+"),      # the second is printed-vs-eq18
                (H, 1, dict(a="0.5", b="1", C=str(-0.6 * sign)),
                 ("0.8", "1", "1.2"), "cmc+", "cmc-")):
            tag = f"cmc-{geometry.value}-eps{eps or 1}-sign{sign}"
            p = dict(p, sign=sign)
            cases.append((tag, CMC, geometry, p, eps, ode, True, first, ts))
            cases.append((tag + "-" + other, CMC, geometry, p, eps, other,
                          False, False, ts))
        for geometry, p, ts in (
                (E, dict(a="1", b="1", C="0"), ("0.5", "1", "1.5")),
                (H, dict(a="1", b="2", C="0"), ("0.5", "1", "1.5"))):
            cases.append((f"k-{geometry.value}-sign{sign}", CK, geometry,
                          dict(p, sign=sign), None, "k", True, first, ts))
        for geometry, p, ts in (
                (E, dict(a="-1", b="1"), ("0.8", "1.2", "1.5")),
                (H, dict(a="-1", b="0.5"), ("0.7", "1", "1.2"))):
            cases.append((f"chen-{geometry.value}-branch{sign}", CHEN,
                          geometry, dict(p, branch=sign), None, "chen", True,
                          first, ts))
    for geometry, p, ts in ((E, dict(a="1", c="1", b="2"), ("0.5", "1", "2")),
                            (H, dict(a="-0.5", c="0.5", b="1"),
                             ("1.5", "2", "3"))):
        cases.append((f"parallel_b-{geometry.value}", PB, geometry, p, None,
                      "parallel_b", True, True, ts))
    return cases


@pytest.mark.parametrize("case", _cases(), ids=lambda c: c[0])
def test_slope_solves_its_family_ode(case):
    _, kind, geometry, params, eps, ode, holds, simplify, ts = case
    s = int(geometry.normalization_sign)
    exact = {k: sp.Rational(v) for k, v in params.items()}
    y = _slope(kind, s, exact, eps)
    code = family_slope(FamilySpec(kind, geometry, epsilon_branch=eps, params={
        k: int(v) if k in ("sign", "branch") else float(v)
        for k, v in params.items()}))
    for t0 in ts:
        want = float(y.subs(t, sp.Rational(t0)))
        assert abs(code(float(t0)) - want) <= 1e-13 * max(1.0, abs(want))
    residual = _ode(ode, s, exact, y)
    if simplify:
        assert sp.simplify(residual) == 0
    for t0 in ts:
        r = abs(sp.N(residual.subs(t, sp.Rational(t0)), 30))
        assert r < 1e-20 if holds else r > 1e-3, (t0, r)


@pytest.mark.parametrize("kind,geometry,params,f", [
    (FamilyKind.CONSTANT_GAUSS, E, dict(K0=-1.0, alpha=0.0, beta=1.0),
     sp.sinh(t)),
    (FamilyKind.CONSTANT_GAUSS, H, dict(K0=1.0, alpha=1.0, beta=0.0),
     sp.cos(t)),
    (FamilyKind.PARALLEL_A, E, dict(c=0.0, d=-1.0), sp.sqrt(t ** 2 - 1)),
    (FamilyKind.PARALLEL_A, H, dict(c=0.0, d=1.0), sp.sqrt(t ** 2 + 1)),
], ids=["gauss-elliptic", "gauss-hyperbolic", "parallel_a-elliptic",
        "parallel_a-hyperbolic"])
def test_closed_form_profile_solves_its_family_ode(kind, geometry, params, f):
    # constant Gauss: K = -fddot/f = K0; parallel (a): f fddot + fdot^2 = 1
    profile = family_profile(FamilySpec(kind, geometry, params=dict(
        params, u_min=1.1, u_max=1.4)))
    for u in (1.1, 1.25, 1.4):
        assert abs(profile.f_jet(u).v - float(f.subs(t, u))) <= 1e-13
    if kind is FamilyKind.CONSTANT_GAUSS:
        residual = -f.diff(t, 2) / f - params["K0"]
    else:
        residual = f * f.diff(t, 2) + f.diff(t) ** 2 - 1
    assert sp.simplify(residual) == 0
