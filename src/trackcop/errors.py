"""Exception hierarchy for trackcop.

Every error raised by the library derives from :class:`TrackcopError` so
callers (and the CLI) can distinguish bad input from genuine bugs.
"""


class TrackcopError(Exception):
    """Base class for all trackcop errors."""


class MalformedKnots(TrackcopError):
    """Knot lists do not describe a valid piecewise-linear function on [0, 1]."""


class OutOfDomain(TrackcopError):
    """An evaluation point, interval or blend weight lies outside [0, 1]."""


class BadTolerance(TrackcopError):
    """A tolerance is not a finite number >= 0."""


class NotStrictlyIncreasing(TrackcopError):
    """A track function has a non-increasing segment, so no inverse exists."""


class EndpointViolation(TrackcopError):
    """A track function does not map 0 to 0 and 1 to 1."""


class DiagonalConditionViolated(TrackcopError):
    """A proposed diagonal fails one of the admissibility conditions.

    Attributes:
        condition: one of "a", "b", "c", "d".
        where: abscissa (or segment start) at which the check failed.
    """

    def __init__(self, condition, where, message=None):
        self.condition = condition
        self.where = where
        super().__init__(message or f"diagonal condition ({condition}) violated near x={where}")


class PsiNotAnchored(TrackcopError):
    """A proposed sub-track mass function does not vanish at 0."""


class NoCopulaExists(TrackcopError):
    """No copula with the requested track section exists."""


class SpecMismatch(TrackcopError):
    """Two objects built for different track/diagonal specifications were combined."""


class IneligiblePsi(TrackcopError):
    """The proposed mass function has a non-monotone canonical companion."""


class BadMesh(TrackcopError):
    """An evaluation mesh is unsorted, too short, or misses required points."""


class MeshMismatch(TrackcopError):
    """Two grids do not share the same mesh."""


class NotACopula(TrackcopError):
    """A grid fails the copula axioms."""


class TrackSectionMismatch(TrackcopError):
    """A grid's track section deviates from the prescribed diagonal."""


class IneligibleExtractedPsi(TrackcopError):
    """The mass function extracted from a grid is not eligible (grid too coarse)."""
