"""Exception hierarchy for the meridian package."""


class MeridianError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MeridianError):
    """A function was evaluated outside its domain."""


class ProfileDomainError(MeridianError):
    """A meridian profile violates its normalization or positivity constraint.

    Carries the offending parameter value in ``u`` when known.
    """

    def __init__(self, message: str, u: float | None = None):
        super().__init__(message)
        self.u = u


class FamilyDomainError(MeridianError):
    """Family parameters admit no valid profile domain."""


class FrameError(MeridianError):
    """An initial Frenet frame fails its orthonormality/signature check."""


class FlatPointError(MeridianError):
    """Operation requires a general (non-flat) point."""


class TrappedPointError(MeridianError):
    """The mean curvature vector is lightlike here; the invariant frame
    does not exist and the point is rejected rather than approximated."""


class MisuseError(MeridianError):
    """API combination that is structurally invalid (for example a
    parallel-bundle case (b) family paired with a non-constant curvature
    directing curve)."""
