"""Exception types raised across the library: one class per kind of failure.

Every precondition failure is a ValueError, so callers can tell bad
inputs from numerical breakdown (RootCountMismatch).  A class means one
thing whichever certificate finds the failure; where two failures share
a class, the message tells them apart.  Each certificate hypothesis
has one class and one message, both in `bounds.HYPOTHESES`.  The command
line exits 2 on ParseError (or an unreadable file) and 3, with the
message as its one `error:` line, on any other class and on
OverflowError: a block or the spectrum of H past the float range.  A
result that would print a NaN or an infinity is refused there like a
failed hypothesis.
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
    """A block lacks the rank the certificate needs (B, or B between the null spaces of A and C)."""


class DimensionMismatch(ValueError):
    """Block shapes, or the null-space dimensions of the two diagonal blocks, do not fit."""


class FormMismatch(ValueError):
    """The saddle lacks the form a method needs: C = 0 (Stokes) or C bit-equal to A (Kirsch)."""


class NegativeDiscriminant(ValueError):
    """Closed-form quartic discriminant is negative; parameter set inconsistent."""


class NABViolated(ValueError):
    """Null spaces of A and B^T intersect nontrivially."""


class OutOfRegime(ValueError):
    """Parameter outside the regime where the estimate is defined."""


class RootCountMismatch(RuntimeError):
    """A root or eigenvalue count did not match."""
