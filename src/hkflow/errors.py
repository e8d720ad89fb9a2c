"""Exception types raised by the geometry and flow kernels.

Everything derives from GeometryError so callers (and the CLI) can map any
numerical-domain failure to a single exit path while tests can still assert
the precise condition.
"""


class GeometryError(Exception):
    """Base class for all numerical-domain errors in this package."""


class NonRotation(GeometryError):
    """A matrix expected to lie in SO(3) fails orthogonality or det=+1."""


class DegenerateJet(GeometryError):
    """First derivatives of an immersion are linearly dependent at a point."""


class DegenerateDerivative(GeometryError):
    """A curve derivative vanishes where a direction is required."""


class DegenerateTriangle(GeometryError):
    """A mesh triangle has (numerically) zero area."""


class NonOrientableMesh(GeometryError):
    """Triangle windings cannot be made globally consistent."""


class FoldedVertex(GeometryError):
    """A vertex's one-ring folds over itself: the summed winding bivector
    has a vanishing self-dual or anti-self-dual part, so no tangent plane."""


class NonClosedSurface(GeometryError):
    """An operation requiring a closed surface received one with boundary."""


class NonNormalInput(GeometryError):
    """A vector expected to lie in the normal plane has a tangential part."""


class IdentityViolation(GeometryError):
    """A structural identity that must hold to tolerance failed."""


class OnForbiddenSet(GeometryError):
    """A phase direction lies on the removed half great circle of the chart."""


class StencilOutOfDomain(GeometryError):
    """A finite-difference stencil leaves the parameter domain."""


class StabilityViolation(GeometryError):
    """A curve flow rk4 step exceeds STEP_BOUND * (min spacing)^2."""


class SolveFailure(GeometryError):
    """An iterative linear solve did not converge."""


class OriginCollision(GeometryError):
    """A profile curve touched the guard band around the origin."""


class PointOnCurve(GeometryError):
    """Winding number requested for a point lying on the polyline."""


class NotBlowingUp(GeometryError):
    """Blow-up time estimation requested for a history with no growth."""


class InsufficientHistory(GeometryError):
    """Too few history samples for the requested diagnostic."""
