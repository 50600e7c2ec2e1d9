"""Meridian surfaces and their invariants.

A surface is assembled from a meridian profile and a directing spherical
curve of matching geometry.  Closed-form invariants are computed from the
profile jets and the curve's curvature; an independent finite-difference
route through the fundamental forms is provided as an oracle.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .curves import SQRT2, MeridianProfile, ProfileColumn, SphericalCurve
from .errors import (DomainError, FlatPointError, MisuseError,
                     TrappedPointError)
from .jets import Jet2, fd_partials2
from .mink4 import Vec4, inner

#: |kappa| or |kappa_m| at or below this marks a flat point (case I / II);
#: the geometric frame's denominators degenerate there.
FLAT_TOL = 1e-9

#: |<H,H>| at or below this marks a marginally trapped point, which is
#: rejected rather than approximated.
TRAPPED_TOL = 1e-10

_new = tuple.__new__    # a NamedTuple from its fields, no Python __new__

#: Step of the finite-difference fundamental forms: wide enough that g's
#: quadrature error, which the second differences amplify by 1/h^2, stays
#: below the stencil's truncation error.
FORMS_STEP = 5e-4


class MeridianSurface:
    """z(u,v) = f(u) l(v) + g(u) axis, with axis e4 (elliptic) or e1
    (hyperbolic)."""

    def __init__(self, profile: MeridianProfile, curve: SphericalCurve):
        if profile.geometry is not curve.geometry:
            raise MisuseError(
                f"profile geometry {profile.geometry.value} does not match "
                f"curve geometry {curve.geometry.value}")
        self.profile = profile
        self.curve = curve
        self.geometry = profile.geometry

    def position(self, u: float, v: float) -> Vec4:
        return Vec4(*next(self.grid_positions((u,), (v,)))[0])

    def grid_positions(self, us: Sequence[float],
                       vs: Sequence[float]) -> Iterator[list[list[float]]]:
        """f(u) l(v) + g(u) axis on the grid us x vs as plain [x1, x2, x3,
        x4] lists, one list of them over vs per u; l is read from the curve
        state once per v, the profile column (which checks u) and g once
        per u.  Nothing here checks that a coordinate is finite."""
        a, b, c = self.geometry.sphere_slots
        ls = []
        for v in vs:
            l = [0.0, 0.0, 0.0, 0.0]
            l[a], l[b], l[c] = self.curve.state(v)[:3]
            ls.append(l)
        axis = self.geometry.axis_slot
        for u in us:
            f, g = ProfileColumn(self.profile, u).f, self.profile.g(u)
            row = [[f * c for c in l] for l in ls]
            for z in row:
                z[axis] += g
            yield row


class AdaptedFrame(NamedTuple):
    """Orthonormal frame {X, Y, n1, n2} with Gram diag(1, 1, 1, -1)."""

    X: Vec4
    Y: Vec4
    n1: Vec4
    n2: Vec4


class GeometricFrame(NamedTuple):
    """Canonical frame {x, y, b, l} with b collinear to H and Gram
    diag(1, 1, epsilon, -epsilon)."""

    x: Vec4
    y: Vec4
    b: Vec4
    l: Vec4
    epsilon: int


class FundamentalForms(NamedTuple):
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float


class BasicInvariants(NamedTuple):
    k: float
    varkappa: float
    gaussK: float
    H2: float
    meanH: float


class InvariantSet(NamedTuple):
    """The eight frame invariants plus the derived scalar invariants at a
    point (lam is the invariant the surrounding literature calls lambda)."""

    gamma1: float
    gamma2: float
    nu1: float
    nu2: float
    lam: float
    mu: float
    beta1: float
    beta2: float
    epsilon: int
    k: float
    varkappa: float
    gaussK: float
    meanH: float
    H2: float


class PointTag(Enum):
    FLAT_CASE_I = "flat_case_I"     # kappa = 0: planar
    FLAT_CASE_II = "flat_case_II"   # kappa_m = 0: developable ruled
    GENERAL = "general"


class KType(Enum):   # k = -kappa_m^2 kappa^2 / f^2 <= 0: no elliptic point
    PARABOLIC_PT = "parabolic_pt"
    HYPERBOLIC_PT = "hyperbolic_pt"


class PointClass(NamedTuple):
    tag: PointTag
    ktype: KType
    trapped: bool


class PointRecord(NamedTuple):
    """One cell of the point kernel; ``frame`` holds the frame invariants at
    general, untrapped points and is None elsewhere.  A record carries no v:
    sweep pairs it with the indices of the v at which it holds."""

    column: ProfileColumn
    kappa: float
    k: float
    D: float          # signed discriminant; <H,H> = D / (4 f^2 V)
    H2: float
    meanH: float
    tag: PointTag
    trapped: bool
    frame: Optional[InvariantSet]


def _cell(col: ProfileColumn, kj: Jet2, flat_tol: float) -> PointRecord:
    """Combine a u-column with a curvature jet kj: O(1) arithmetic."""
    kappa = kj.v
    kkV = kappa * kappa * col.V
    D = kkV - col.phi2 if col.sign > 0.0 else col.phi2 - kkV
    H2 = D / col.H2_denom
    tag = (PointTag.FLAT_CASE_I if abs(kappa) <= flat_tol else
           PointTag.FLAT_CASE_II if abs(col.kappa_m) <= flat_tol else
           PointTag.GENERAL)
    trapped = abs(H2) <= TRAPPED_TOL
    k = col.k_factor * kappa * kappa / col.ff
    meanH = math.sqrt(abs(H2))
    inv = None
    if tag is PointTag.GENERAL and not trapped:
        gamma, nu_denom, ffdd, VV, P, Pdu = col.frame_terms
        V, eps = col.V, 1 if H2 > 0.0 else -1
        absD = eps * D
        sqD = math.sqrt(absD)
        nu = sqD / nu_denom
        dkP = kj.d1 * P / col.f
        inv = _new(InvariantSet, (
            gamma, gamma, nu, nu,
            eps * col.sign * (kkV + ffdd - VV) / (nu_denom * sqD),
            kappa * col.fddot / sqD,
            -V * (kappa * Pdu - dkP) / (SQRT2 * absD),
            V * (kappa * Pdu + dkP) / (SQRT2 * absD),
            eps, k, 0.0, col.gaussK, meanH, H2))
    return _new(PointRecord, (col, kappa, k, D, H2, meanH, tag, trapped,
                              inv))


def sweep(s: MeridianSurface, us: Sequence[float], vs: Sequence[float],
          flat_tol: float = FLAT_TOL) -> Iterator[tuple[PointRecord, range]]:
    """(record, js) over the grid us x vs, streamed in row-major (u-outer)
    order: each distinct cell once, with the range js of indices into vs at
    which it holds.  The profile jets are evaluated once per u and the
    curvature jet once per v; each cell is O(1) arithmetic.  Over a curve
    built constant (its constant_kappa is set) the curvature jet is
    evaluated once and the cell once per u, with js = range(len(vs));
    over any other curve each js is one index.  The flat-point tag and the
    frame-invariant guard both use ``flat_tol``."""
    if s.curve.constant_kappa is not None and vs:
        rows = [(s.curve.kappa_jet(vs[0]), range(len(vs)))]
    else:
        rows = [(s.curve.kappa_jet(v), range(j, j + 1))
                for j, v in enumerate(vs)]
    for u in us:
        col = ProfileColumn(s.profile, u)
        for kj, js in rows:
            yield _cell(col, kj, flat_tol), js


def _point(s: MeridianSurface, u: float, v: float) -> PointRecord:
    return _cell(ProfileColumn(s.profile, u), s.curve.kappa_jet(v), FLAT_TOL)


def _require_general(rec: PointRecord) -> None:
    if rec.tag is PointTag.FLAT_CASE_I:
        raise FlatPointError(
            "kappa = 0: flat point of case I (planar surface)")
    if rec.tag is PointTag.FLAT_CASE_II:
        raise FlatPointError(
            "kappa_m = 0: flat point of case II (developable ruled surface)")


def _require_untrapped(rec: PointRecord) -> None:
    if rec.trapped:
        raise TrappedPointError(
            f"<H,H> = {rec.H2:.3e} is lightlike within tolerance; marginally "
            "trapped points are outside the invariant frame construction")


def _moving_frame(s: MeridianSurface, c: ProfileColumn,
                  v: float) -> tuple[Vec4, Vec4, Vec4, Vec4]:
    """(X, Y, n, n_m) at (c.u, v): X = z_u = fdot l + sqrt(V) axis,
    Y = z_v / f = t, the curve normal n and the meridian normal
    n_m = sqrt(V) l + s fdot axis, with s = normalization_sign;
    <n, n> = s and <n_m, n_m> = -s."""
    fr = s.curve.frame(v)
    # the axis terms keep +0.0 off the axis slot, and s scales those zeros
    # too, so X and n_m carry the bits of the explicit per-geometry vectors
    axis = [0.0, 0.0, 0.0, 0.0]
    axis[s.geometry.axis_slot] = c.sqV
    X = c.fdot * fr.l + Vec4(*axis)
    axis[s.geometry.axis_slot] = c.fdot
    n_m = c.sqV * fr.l + c.sign * Vec4(*axis)
    return X, fr.t, fr.n, n_m


def adapted_frame(s: MeridianSurface, u: float, v: float) -> AdaptedFrame:
    """{X = z_u, Y = z_v / f, n1, n2}: n1 is the spacelike and n2 the
    timelike one of the curve normal n and the meridian normal n_m, so
    (n1, n2) = (n, n_m) elliptic and (n_m, n) hyperbolic."""
    X, Y, n, n_m = _moving_frame(s, ProfileColumn(s.profile, u), v)
    if s.geometry.normalization_sign > 0.0:
        return AdaptedFrame(X, Y, n, n_m)
    return AdaptedFrame(X, Y, n_m, n)


def fundamental_forms_numeric(s: MeridianSurface, u: float,
                              v: float) -> FundamentalForms:
    """E, F, G, L, M, N from central-difference partials of the position map.

    This is the oracle route: first/second partials are finite differences
    over one 3x3 ``grid_positions`` call; only the normal directions n1, n2
    come from the closed-form frame.
    """
    part = fd_partials2(
        lambda us, vs: [[Vec4(*z) for z in row]
                        for row in s.grid_positions(us, vs)],
        u, v, FORMS_STEP)
    zu, zv = part["z_u"], part["z_v"]
    E = inner(zu, zu)
    F = inner(zu, zv)
    G = inner(zv, zv)
    w2 = E * G - F * F
    if w2 <= 0.0:
        raise DomainError(
            f"degenerate induced metric at (u,v)=({u},{v}): EG - F^2 = {w2!r}")
    W = math.sqrt(w2)
    fr = adapted_frame(s, u, v)
    c1 = {key: inner(part[key], fr.n1) for key in ("z_uu", "z_uv", "z_vv")}
    c2 = {key: inner(part[key], fr.n2) for key in ("z_uu", "z_uv", "z_vv")}
    L = 2.0 / W * (c1["z_uu"] * c2["z_uv"] - c1["z_uv"] * c2["z_uu"])
    M = 1.0 / W * (c1["z_uu"] * c2["z_vv"] - c1["z_vv"] * c2["z_uu"])
    N = 2.0 / W * (c1["z_uv"] * c2["z_vv"] - c1["z_vv"] * c2["z_uv"])
    return FundamentalForms(E, F, G, L, M, N)


def invariants_from_forms(forms: FundamentalForms) -> tuple[float, float]:
    """(k, varkappa) from fundamental forms: the numeric route."""
    denom = forms.E * forms.G - forms.F * forms.F
    k = (forms.L * forms.N - forms.M * forms.M) / denom
    varkappa = (forms.E * forms.N + forms.G * forms.L
                - 2.0 * forms.F * forms.M) / (2.0 * denom)
    return k, varkappa


def basic_invariants(s: MeridianSurface, u: float, v: float) -> BasicInvariants:
    """Closed forms: k = -kappa_m^2 kappa^2 / f^2, varkappa = 0,
    K = -fddot/f, plus <H,H> and its norm."""
    rec = _point(s, u, v)
    return BasicInvariants(k=rec.k, varkappa=0.0, gaussK=rec.column.gaussK,
                           H2=rec.H2, meanH=rec.meanH)


def mean_curvature_vector(s: MeridianSurface, u: float, v: float) -> Vec4:
    """H = (s kappa/2f) n + (phi/(2f sqrt(V))) n_m, s = normalization_sign.

    Requires a general point: the reduced coefficients assume case III.
    """
    rec = _point(s, u, v)
    _require_general(rec)
    col = rec.column
    n, n_m = _moving_frame(s, col, v)[2:]
    return (col.sign * rec.kappa / (2.0 * col.f)) * n \
        + (col.phi / (2.0 * col.f * col.sqV)) * n_m


def geometric_frame(s: MeridianSurface, u: float, v: float) -> GeometricFrame:
    """Principal tangents x, y and the normal pair b, l with b collinear
    (same orientation for epsilon = +1) with H: b and l are the normalized
    s kappa sqrt(V) n + phi n_m and phi n + s kappa sqrt(V) n_m."""
    rec = _point(s, u, v)
    _require_general(rec)
    _require_untrapped(rec)
    eps = 1 if rec.H2 > 0.0 else -1
    col = rec.column
    X, Y, n, n_m = _moving_frame(s, col, v)
    x = (X + Y) / SQRT2
    y = (-1.0 * X + Y) / SQRT2
    norm = math.sqrt(eps * rec.D)
    skV = col.sign * rec.kappa * col.sqV
    b = (eps / norm) * (skV * n + col.phi * n_m)
    l = (1.0 / norm) * (col.phi * n + skV * n_m)
    return GeometricFrame(x=x, y=y, b=b, l=l, epsilon=eps)


def eight_invariants(s: MeridianSurface, u: float, v: float) -> InvariantSet:
    """The eight invariants of the geometric frame, by their closed forms,
    with dkappa/dv taken from the curve's jet."""
    rec = _point(s, u, v)
    _require_general(rec)
    _require_untrapped(rec)
    return rec.frame


def allied_coefficient(s: MeridianSurface, u: float, v: float) -> float:
    """Magnitude coefficient of the allied mean curvature field along l:
    sqrt(varkappa^2 - k)/2 * lambda, which vanishes exactly on Chen
    surfaces."""
    inv = eight_invariants(s, u, v)
    return math.sqrt(inv.varkappa * inv.varkappa - inv.k) / 2.0 * inv.lam


def classify_point(s: MeridianSurface, u: float, v: float) -> PointClass:
    """Flat-case tag and point type by the sign of k, each decided at
    FLAT_TOL, and the trapped flag (|<H,H>| <= TRAPPED_TOL)."""
    rec = _point(s, u, v)
    ktype = (KType.PARABOLIC_PT if abs(rec.k) <= FLAT_TOL
             else KType.HYPERBOLIC_PT)
    return PointClass(tag=rec.tag, ktype=ktype, trapped=rec.trapped)
