"""Exception types raised across the library.

Every precondition failure derives from ValueError so callers (and the
command line driver) can distinguish bad inputs from genuine numerical
breakdown, which is signalled by RootCountMismatch.
"""


class ParseError(ValueError):
    """Malformed matrix or block-matrix text input."""


class NotFinite(ValueError):
    """Input contains NaN or infinite entries."""


class NotSymmetric(ValueError):
    """Matrix exceeds the symmetry tolerance."""


class NotPSD(ValueError):
    """Symmetric matrix has an eigenvalue below the semidefinite tolerance."""


class NotDefinite(ValueError):
    """Block that must be positive definite is singular or indefinite."""


class BNotInvertible(ValueError):
    """Off-diagonal block is not square, or is singular, so it cannot be inverted."""


class UnboundedRelativeBound(ValueError):
    """Relative bound is infinite because the coupling block is rank deficient."""


class DimensionMismatch(ValueError):
    """Block shapes, or the null-space dimensions of the two diagonal blocks, do not match."""


class B22Singular(ValueError):
    """Restriction of B between the null spaces of A and C is singular."""


class BothSemidefiniteSingular(ValueError):
    """Both blocks have smallest eigenvalue zero, so the radius vanishes."""


class NegativeDiscriminant(ValueError):
    """Closed-form quartic discriminant is negative; parameter set inconsistent."""


class NABViolated(ValueError):
    """Null spaces of A and B^T intersect nontrivially."""


class RankDeficient(ValueError):
    """Block lacks the full rank the estimate requires."""


class OutOfRegime(ValueError):
    """Parameter outside the regime where the estimate is defined."""


class RootCountMismatch(RuntimeError):
    """A root or eigenvalue count did not match."""
