"""Exception types shared across the package."""


class GFAlignError(Exception):
    """Base class for all package-specific errors."""


class NotPrime(GFAlignError, ValueError):
    """The requested characteristic is not a prime number."""


class NotPrimitive(GFAlignError, ValueError):
    """A supplied modulus polynomial is not primitive over F_p."""


class FieldMismatch(GFAlignError, ValueError):
    """Operands belong to different field contexts."""


class NotInImage(GFAlignError, ValueError):
    """A matrix is not the representation of any field element."""


class Singular(GFAlignError, ValueError):
    """A square matrix required to be invertible is singular."""


class DimensionMismatch(GFAlignError, ValueError):
    """Matrix dimensions are not conformable for the requested operation."""


class InconsistentSystem(GFAlignError, ValueError):
    """An overdetermined linear system admits no exact solution."""


class DegenerateSpectrum(GFAlignError, ValueError):
    """A matrix has repeated eigenvalues (characteristic polynomial not squarefree)."""


class SingularChannel(GFAlignError, ValueError):
    """A channel matrix (or a compound hop matrix) required to be invertible
    is singular."""


class TooLarge(GFAlignError, ValueError):
    """An exhaustive enumeration would exceed the configured guard."""
