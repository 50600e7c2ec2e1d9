"""Meridian surfaces of elliptic and hyperbolic type in Minkowski 4-space.

Construction of one-parameter systems of meridians on rotational
hypersurfaces with timelike or spacelike axis, closed-form and
finite-difference computation of their invariants, and generators plus
verifiers for the classification families with constant Gauss curvature,
constant mean curvature, constant invariant k, vanishing allied mean
curvature (Chen), and parallel normal bundle.
"""

from .curves import (Geometry, FrenetFrame, MeridianProfile, ProfileColumn,
                     SphericalCurve, circle_curve, profile_from_f,
                     profile_from_slope_ode)
from .errors import (DomainError, FamilyDomainError, FlatPointError,
                     FrameError, MeridianError, MisuseError,
                     ProfileDomainError, TrappedPointError)
from .families import (FamilyKind, FamilySpec, ResidualReport,
                       build_family_surface, chen_slope,
                       constant_gauss_profile, constant_k_slope,
                       constant_mean_slope, parallel_profile_case_a,
                       parallel_slope_case_b, verify_family)
from .jets import Jet2, ScalarFn, fd_jet2, fd_partials2
from .mink4 import Vec4, gram, inner
from .surfaces import (AdaptedFrame, BasicInvariants, FundamentalForms,
                       GeometricFrame, InvariantSet, KType, MeridianSurface,
                       PointClass, PointRecord, PointTag, adapted_frame,
                       allied_coefficient, basic_invariants, classify_point,
                       eight_invariants, fundamental_forms_numeric,
                       geometric_frame, invariants_from_forms,
                       mean_curvature_vector, sweep)

__version__ = "0.1.0"

__all__ = [
    "Vec4", "inner", "gram",
    "Jet2", "ScalarFn", "fd_jet2", "fd_partials2",
    "Geometry", "FrenetFrame", "SphericalCurve", "MeridianProfile",
    "circle_curve", "profile_from_f",
    "profile_from_slope_ode", "ProfileColumn",
    "MeridianSurface", "AdaptedFrame", "GeometricFrame", "FundamentalForms",
    "BasicInvariants", "InvariantSet", "PointClass", "PointTag", "KType",
    "adapted_frame", "fundamental_forms_numeric",
    "invariants_from_forms", "basic_invariants", "mean_curvature_vector",
    "geometric_frame", "eight_invariants", "allied_coefficient",
    "classify_point", "sweep", "PointRecord",
    "FamilyKind", "FamilySpec", "ResidualReport", "constant_gauss_profile",
    "constant_mean_slope", "constant_k_slope", "chen_slope",
    "parallel_profile_case_a", "parallel_slope_case_b",
    "build_family_surface", "verify_family",
    "MeridianError", "DomainError", "ProfileDomainError", "FamilyDomainError",
    "FrameError", "FlatPointError", "TrappedPointError", "MisuseError",
]
