"""Exception types shared across the package.

Everything derives from OrtholagError so callers can catch domain errors
with a single except clause; most are also ValueError subclasses.
"""


class OrtholagError(Exception):
    """Base class for all domain errors raised by this package."""


class MixedContexts(OrtholagError, ValueError):
    """Two scalars from different field contexts were combined."""


class DivisionByZero(OrtholagError, ZeroDivisionError):
    """Division by the zero scalar."""


class UnsupportedContext(OrtholagError, ValueError):
    """Operation is not defined over the given field context."""


class AmbientMismatch(OrtholagError, ValueError):
    """Subspaces live in ambient spaces of different dimensions."""


class DimMismatch(OrtholagError, ValueError):
    """Matrix or space dimensions are incompatible."""


class ZeroScalar(OrtholagError, ValueError):
    """A nonzero scalar was required."""


class DegenerateForm(OrtholagError, ValueError):
    """The bilinear form is degenerate where a nondegenerate one is required."""


class IsotropicSearchExhausted(OrtholagError, RuntimeError):
    """Bounded search found no isotropic vector and cannot certify anisotropy."""


class NotSplit(OrtholagError, ValueError):
    """The form does not have maximal Witt index."""


class NotLagrangian(OrtholagError, ValueError):
    """The subspace is not Lagrangian in the given space."""


class OddAmbient(OrtholagError, ValueError):
    """An even-dimensional space was required."""


class NonSplitExtension(OrtholagError, ValueError):
    """The rank-one extension is not split, so no Lagrangian lift exists."""


class DegenerateRestriction(OrtholagError, ValueError):
    """The form restricts degenerately to the chosen hyperplane."""


class CapExceeded(OrtholagError, ValueError):
    """Requested enumeration exceeds the configured size cap."""


class OutOfRange(OrtholagError, ValueError):
    """A numeric parameter lies outside the documented domain."""


class NotSymmetric(OrtholagError, ValueError):
    """A Gram matrix is not symmetric."""


class MalformedInput(OrtholagError, ValueError):
    """A JSON payload or a number given as text cannot be read."""
