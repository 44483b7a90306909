"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteValue(GeometryError):
    """A scalar field returned a non-finite value."""


class DegenerateBox(GeometryError):
    """The guarded interior of a chart box is empty."""


class NonOrthonormalFrame(GeometryError):
    """A frame failed the orthonormality check for its metric."""


class DegenerateImmersion(GeometryError):
    """The differential of a parametrized surface has rank < 2."""


class NotCMC(GeometryError):
    """Mean curvature varies beyond tolerance where a constant is required."""


class SingularCoefficient(GeometryError):
    """An ODE coefficient is evaluated inside its singular margin."""


class ImmediateSingularity(GeometryError):
    """Initial data for the angle ODE violates a singularity margin."""


class OutOfProfile(GeometryError):
    """A query point lies outside the integrated angle profile."""


class EmptyRange(GeometryError):
    """A scan interval is empty, under-sampled or not finite, or its
    curvature is not finite."""


class SingularProfile(GeometryError):
    """An angle profile is unusable for building a warped construction."""
