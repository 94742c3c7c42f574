"""Exception types shared across the package."""


class PwlError(Exception):
    """Base class for all library-specific errors."""


class EmptyInput(PwlError):
    """A lift needs at least one marked point."""


class NonMonotone(PwlError):
    """Break points out of order, or a slope came out non-positive."""


class BackendMismatch(PwlError):
    """Mixed exact/float data, or a float fed to the exact backend."""


class Overflow(PwlError):
    """A size limit was exceeded: the piece cap of a composition, or the
    digit limit of Python's integer-to-string conversion when an exact
    scalar is written out."""


class PrecisionLoss(PwlError):
    """Float rounding collapsed a composition that is monotone in exact terms."""


class NotABreak(PwlError):
    """The marked point has equal one-sided slopes."""


class OutOfDomain(PwlError):
    """Parameters violate a family's admissibility constraints."""


class NotBracketed(PwlError):
    """The requested transition does not occur inside the given bracket."""


class RotationIrrational(PwlError):
    """No exact rational rotation number was certified within the cap."""


class NotConjugateError(PwlError):
    """Operation requires a map conjugate to a rigid rational rotation."""


class InternalMismatch(PwlError):
    """A partition handed to ``build_conjugacy`` or ``invariant_density`` is
    inconsistent: a run of its orbit points misses an orbit, or its mass is not 1."""


class SegmentCollision(PwlError):
    """:func:`scaling.kappa` was handed a segment with no interior."""


class LogDomain(PwlError):
    """Logarithm argument non-positive in the passage-time formula."""
