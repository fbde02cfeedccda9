"""Exception types raised across the library: one class per kind of failure.

A refusal names the class or regime the input missed.  Every
precondition failure is a ValueError, so callers can tell bad inputs
from numerical breakdown (RootCountMismatch) and from the float range
(Python's OverflowError: a quantity, a block or the spectrum of H past
it).  A class means one thing whichever function finds the failure;
where two failures share a class, the message tells them apart.  Each
certificate hypothesis has one class and one message, both in
`bounds.HYPOTHESES`; every parameter of the chain model or a closed
form outside its domain is an OutOfRegime.  The command line exits 2 on
ParseError (or an unreadable file) and 3, with the message as its one
`error:` line, on any other class and on OverflowError.  A result that
would print a NaN or an infinity is refused there as an OverflowError.
"""


class ParseError(ValueError):
    """Malformed matrix or block-matrix text input."""


class NotFinite(ValueError):
    """Input contains NaN or infinite entries."""


class NotSymmetric(ValueError):
    """Square matrix exceeds the symmetry tolerance."""


class NotPSD(ValueError):
    """Symmetric matrix has an eigenvalue below the semidefinite tolerance."""


class NotDefinite(ValueError):
    """A block that must be positive definite is singular or indefinite."""


class RankDeficient(ValueError):
    """A block lacks the rank its method needs: B, B between N(A) and N(C), or [A B] where N(A) meets N(B^T)."""


class DimensionMismatch(ValueError):
    """Shapes that do not fit: blocks, null-space dimensions, a band pair or a stack of specs of mixed sizes."""


class FormMismatch(ValueError):
    """The saddle lacks the form a method needs: C = 0 (Stokes) or C bit-equal to A (Kirsch)."""


class OutOfRegime(ValueError):
    """A model or closed-form parameter outside the domain where its formula is defined."""


class RootCountMismatch(RuntimeError):
    """A count or a symmetry that a theorem fixes did not hold: roots, Sturm counts or mirrored bands."""
