"""Symbolic oracle: the closed forms of the package derived from the
surface's definition, independently of its floating-point code.

The directing curve is the moving basis {l, t, n, axis} with l' = t,
t' = s kappa n - l, n' = -kappa t and axis' = 0, whose Gram matrix is
diag(1, 1, 1, -1) (elliptic, s = +1) or diag(1, 1, -1, 1) (hyperbolic,
s = -1, spacelike axis).  The surface is z = f(u) l(v) + g(u) axis with
gdot = sqrt(V), V = s (fdot^2 - 1).
"""

import pytest

sp = pytest.importorskip("sympy")

from meridian.curves import Geometry  # noqa: E402

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
