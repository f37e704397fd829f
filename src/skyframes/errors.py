"""Exception types shared across the toolkit."""


class SkyframesError(Exception):
    """Base class for all toolkit errors."""


class NonHermitianError(SkyframesError):
    """Matrix input is not Hermitian within tolerance."""


class NotNullError(SkyframesError):
    """Vector (or twistor) fails the nullity requirement."""


class NotFutureDirectedError(SkyframesError):
    """Null vector points into the past half of the cone."""


class NotUnimodularError(SkyframesError):
    """Matrix is not an element of SL(2, C)."""


class UnsupportedSignatureError(SkyframesError):
    """Homogeneity bidegree outside the supported set."""


class BadCountError(SkyframesError):
    """Sky sample size below the supported minimum."""


class ZeroSpinorError(SkyframesError):
    """A sky point needs a nonzero covector representative."""


class ZeroPiError(SkyframesError):
    """Twistor operation needs a nonzero pi part."""


class OutOfDomainError(SkyframesError):
    """Chart point outside the declared metric domain."""


class DivergentIntegralError(SkyframesError):
    """A scale-factor integral does not converge."""


class NoIntersectionError(SkyframesError):
    """Geodesic leaves the domain without meeting the target surface."""


class DegenerateTangentPlaneError(SkyframesError):
    """Image tangent plane has rank below 2."""


class InsufficientSamplesError(SkyframesError):
    """Too few samples projected successfully to build a region."""
