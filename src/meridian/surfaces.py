"""Meridian surfaces and their invariants.

A surface is assembled from a meridian profile and a directing spherical
curve of matching geometry.  Closed-form invariants are computed from the
profile jets and the curve's curvature; an independent finite-difference
route through the fundamental forms is provided as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

from .curves import (SQRT2, Geometry, MeridianProfile, ProfileColumn,
                     SphericalCurve)
from .errors import (FlatPointError, MisuseError, NotSpacelikeError,
                     TrappedPointError)
from .jets import Jet2, fd_partials2
from .mink4 import Vec4, inner

#: |kappa| or |kappa_m| at or below this marks a flat point (case I / II);
#: the geometric frame's denominators degenerate there.
FLAT_TOL = 1e-9

#: |<H,H>| at or below this marks a marginally trapped point, which is
#: rejected rather than approximated.
TRAPPED_TOL = 1e-10

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
        return next(self.grid_positions((u,), (v,)))[0]

    def grid_positions(self, us: Sequence[float],
                       vs: Sequence[float]) -> Iterator[list[Vec4]]:
        """f(u) l(v) + g(u) axis on the grid us x vs, one list over vs per
        u; the curve frame is evaluated once per v, the profile column
        (which checks u) and g once per u."""
        ls = [self.curve.frame(v).l.coords() for v in vs]
        axis = self.geometry.axis_slot
        for u in us:
            f, g = ProfileColumn(self.profile, u).f, self.profile.g(u)
            row = []
            for l in ls:
                coords = [f * c for c in l]
                coords[axis] += g
                row.append(Vec4(*coords))
            yield row


def position(surface: MeridianSurface, u: float, v: float) -> Vec4:
    return surface.position(u, v)


@dataclass(frozen=True)
class AdaptedFrame:
    """Orthonormal frame {X, Y, n1, n2} with Gram diag(1, 1, 1, -1)."""

    X: Vec4
    Y: Vec4
    n1: Vec4
    n2: Vec4


@dataclass(frozen=True)
class GeometricFrame:
    """Canonical frame {x, y, b, l} with b collinear to H and Gram
    diag(1, 1, epsilon, -epsilon)."""

    x: Vec4
    y: Vec4
    b: Vec4
    l: Vec4
    epsilon: int


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float


@dataclass(frozen=True)
class BasicInvariants:
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


class KType(Enum):
    ELLIPTIC_PT = "elliptic_pt"
    PARABOLIC_PT = "parabolic_pt"
    HYPERBOLIC_PT = "hyperbolic_pt"


@dataclass(frozen=True)
class PointClass:
    tag: PointTag
    ktype: KType
    trapped: bool
    minimal: bool


class PointRecord(NamedTuple):
    """One cell of the point kernel; ``frame`` holds the frame invariants at
    general, untrapped points and is None elsewhere."""

    column: ProfileColumn
    v: float
    kappa: float
    k: float
    D: float          # signed discriminant; <H,H> = D / (4 f^2 V)
    H2: float
    meanH: float
    tag: PointTag
    trapped: bool
    frame: Optional[InvariantSet]


def _cell(col: ProfileColumn, v: float, kj: Jet2, flat_tol: float,
          frame: bool) -> PointRecord:
    """Combine a u-column with the curvature jet kj at v: O(1) arithmetic."""
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
    if frame and tag is PointTag.GENERAL and not trapped:
        gamma, nu_denom, ffdd, VV, P, Pdu = col.frame_terms
        V, eps = col.V, 1 if H2 > 0.0 else -1
        absD = eps * D
        sqD = math.sqrt(absD)
        nu = sqD / nu_denom
        dkP = kj.d1 * P / col.f
        inv = InvariantSet(
            gamma, gamma, nu, nu,
            eps * col.sign * (kkV + ffdd - VV) / (nu_denom * sqD),
            kappa * col.fddot / sqD,
            -V * (kappa * Pdu - dkP) / (SQRT2 * absD),
            V * (kappa * Pdu + dkP) / (SQRT2 * absD),
            eps, k, 0.0, col.gaussK, meanH, H2)
    return PointRecord(col, v, kappa, k, D, H2, meanH, tag, trapped, inv)


def sweep(s: MeridianSurface, us: Sequence[float], vs: Sequence[float],
          flat_tol: float = FLAT_TOL) -> Iterator[PointRecord]:
    """Point records over the grid us x vs, streamed in row-major (u-outer)
    order.  The profile jets are evaluated once per u and the curvature jet
    once per v; each cell is O(1) arithmetic.  The flat-point tag and the
    frame-invariant guard both use ``flat_tol``."""
    rows = [s.curve.kappa_jet(v) for v in vs]
    for u in us:
        col = ProfileColumn(s.profile, u)
        for v, kj in zip(vs, rows):
            yield _cell(col, v, kj, flat_tol, True)


def _point(s: MeridianSurface, u: float, v: float,
           frame: bool) -> PointRecord:
    return _cell(ProfileColumn(s.profile, u), v, s.curve.kappa_jet(v),
                 FLAT_TOL, frame)


def _require_general(rec: PointRecord) -> None:
    if rec.tag is PointTag.FLAT_CASE_I:
        raise FlatPointError(
            "kappa = 0: flat point of case I (planar surface)")
    if rec.tag is PointTag.FLAT_CASE_II:
        raise FlatPointError(
            "kappa_m = 0: flat point of case II (developable ruled surface)")


def _require_untrapped(H2: float) -> None:
    if abs(H2) <= TRAPPED_TOL:
        raise TrappedPointError(
            f"<H,H> = {H2:.3e} is lightlike within tolerance; marginally "
            "trapped points are outside the invariant frame construction")


def adapted_frame(s: MeridianSurface, u: float, v: float) -> AdaptedFrame:
    """{X = z_u, Y = z_v / f, n1, n2} per the construction of each geometry."""
    c = ProfileColumn(s.profile, u)
    fdot, gd = c.fdot, c.sqV
    fr = s.curve.frame(v)
    if s.geometry is Geometry.ELLIPTIC:
        X = fdot * fr.l + Vec4(0.0, 0.0, 0.0, gd)
        n1 = fr.n
        n2 = gd * fr.l + Vec4(0.0, 0.0, 0.0, fdot)
    else:
        X = fdot * fr.l + Vec4(gd, 0.0, 0.0, 0.0)
        n1 = gd * fr.l - Vec4(fdot, 0.0, 0.0, 0.0)
        n2 = fr.n
    return AdaptedFrame(X, fr.t, n1, n2)


def fundamental_forms_numeric(s: MeridianSurface, u: float,
                              v: float) -> FundamentalForms:
    """E, F, G, L, M, N from central-difference partials of the position map.

    This is the oracle route: first/second partials are finite differences
    over one 3x3 ``grid_positions`` call; only the normal directions n1, n2
    come from the closed-form frame.
    """
    part = fd_partials2(s.grid_positions, u, v, FORMS_STEP)
    zu, zv = part["z_u"], part["z_v"]
    E = inner(zu, zu)
    F = inner(zu, zv)
    G = inner(zv, zv)
    w2 = E * G - F * F
    if w2 <= 0.0:
        raise NotSpacelikeError(
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
    rec = _point(s, u, v, frame=False)
    return BasicInvariants(k=rec.k, varkappa=0.0, gaussK=rec.column.gaussK,
                           H2=rec.H2, meanH=rec.meanH)


def mean_curvature_vector(s: MeridianSurface, u: float, v: float) -> Vec4:
    """The mean curvature vector in the adapted normal frame.

    Requires a general point: the reduced coefficients assume case III.
    """
    rec = _point(s, u, v, frame=False)
    _require_general(rec)
    col = rec.column
    fr = adapted_frame(s, u, v)
    if s.geometry is Geometry.ELLIPTIC:
        return (rec.kappa / (2.0 * col.f)) * fr.n1 \
            + (col.phi / (2.0 * col.f * col.sqV)) * fr.n2
    return (col.phi / (2.0 * col.f * col.sqV)) * fr.n1 \
        - (rec.kappa / (2.0 * col.f)) * fr.n2


def geometric_frame(s: MeridianSurface, u: float, v: float) -> GeometricFrame:
    """Principal tangents x, y and the normal pair b, l with b collinear
    (same orientation for epsilon = +1) with H."""
    rec = _point(s, u, v, frame=False)
    _require_general(rec)
    _require_untrapped(rec.H2)
    eps = 1 if rec.H2 > 0.0 else -1
    fr = adapted_frame(s, u, v)
    x = (fr.X + fr.Y) / SQRT2
    y = (-1.0 * fr.X + fr.Y) / SQRT2
    norm = math.sqrt(eps * rec.D)
    col = rec.column
    if s.geometry is Geometry.ELLIPTIC:
        pb = (rec.kappa * col.sqV, col.phi)
    else:
        pb = (col.phi, -rec.kappa * col.sqV)
    b = (eps / norm) * (pb[0] * fr.n1 + pb[1] * fr.n2)
    l = (1.0 / norm) * (pb[1] * fr.n1 + pb[0] * fr.n2)
    return GeometricFrame(x=x, y=y, b=b, l=l, epsilon=eps)


def eight_invariants(s: MeridianSurface, u: float, v: float) -> InvariantSet:
    """The eight invariants of the geometric frame, by their closed forms,
    with dkappa/dv taken from the curve's jet."""
    rec = _point(s, u, v, frame=True)
    _require_general(rec)
    _require_untrapped(rec.H2)
    return rec.frame


def allied_coefficient(s: MeridianSurface, u: float, v: float) -> float:
    """Magnitude coefficient of the allied mean curvature field along l:
    sqrt(varkappa^2 - k)/2 * lambda, which vanishes exactly on Chen
    surfaces."""
    inv = eight_invariants(s, u, v)
    return math.sqrt(inv.varkappa * inv.varkappa - inv.k) / 2.0 * inv.lam


def classify_point(s: MeridianSurface, u: float, v: float) -> PointClass:
    """Flat-case tag, point type by the sign of k, and trapped/minimal flags,
    each decided at FLAT_TOL."""
    rec = _point(s, u, v, frame=False)
    if rec.k > FLAT_TOL:
        ktype = KType.ELLIPTIC_PT
    elif abs(rec.k) <= FLAT_TOL:
        ktype = KType.PARABOLIC_PT
    else:
        ktype = KType.HYPERBOLIC_PT
    minimal = (rec.tag is PointTag.GENERAL and not rec.trapped
               and rec.meanH <= FLAT_TOL)
    return PointClass(tag=rec.tag, ktype=ktype, trapped=rec.trapped,
                      minimal=minimal)
