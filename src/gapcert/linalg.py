"""Dense symmetric and bidiagonal kernels the certificates are built on.

All routines work on real matrices.  Eigenvalues come out ascending,
singular values descending, matching the conventions of numpy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotFinite, NotPSD, NotSymmetric, UnboundedRelativeBound

EPS = float(np.finfo(np.float64).eps)


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Bidiagonal:
    """Bidiagonal matrix stored by bands; orientation is "upper" or "lower".

    Bands with leading axes hold a stack of bidiagonals of one order:
    diag has shape (..., n) and offdiag (..., n - 1).
    """

    diag: np.ndarray
    offdiag: np.ndarray
    orientation: str = "lower"

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        e = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)
        if self.orientation not in ("upper", "lower"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if d.ndim < 1 or e.shape != d.shape[:-1] + (max(d.shape[-1] - 1, 0),):
            raise ValueError("bands must satisfy offdiag.shape == diag.shape[:-1] + (n - 1,)")

    def dense(self) -> np.ndarray:
        n = self.diag.shape[-1]
        M = np.zeros(self.diag.shape + (n,))
        i = np.arange(n)
        M[..., i, i] = self.diag
        if n > 1:
            j = np.arange(n - 1)
            rows, cols = (j, j + 1) if self.orientation == "upper" else (j + 1, j)
            M[..., rows, cols] = self.offdiag
        return M


def require_finite(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NotFinite(f"{name} contains non-finite entries")
    return M


def _require_symmetric(M: np.ndarray, name: str) -> tuple[np.ndarray, float]:
    # the symmetry half of sym_eig; returns M and the scale its tolerances use
    M = require_finite(M, name)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"{name} must be square, got shape {M.shape}")
    scale = op_norm_bound(M)
    defect = np.max(np.abs(M - M.T)) if M.size else 0.0
    if defect > 1e-12 * scale:
        raise NotSymmetric(f"{name} is not symmetric (defect {defect:.3e})")
    return M, scale


def sym_eig(M: np.ndarray, name: str = "matrix", psd: bool = False) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix, values ascending.

    The package's one symmetry and semidefiniteness check.  Both
    tolerances are relative to the matrix's own scale: a symmetry defect
    above 1e-12 of it fails, and with psd=True so does an eigenvalue below
    -1e-10 of it.
    """
    M, scale = _require_symmetric(M, name)
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    if psd and w.size and w[0] < -1e-10 * scale:
        raise NotPSD(f"{name} has eigenvalue {w[0]:.3e}, not positive semidefinite")
    return EigenDecomposition(w, V)


def op_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value)."""
    M = require_finite(M)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def op_norm_bound(M: np.ndarray) -> float:
    # cheap upper proxy used only to scale tolerances
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(M)) * max(M.shape))


def negligible(x: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Which of the eigenvalues or singular values x count as zero.

    The package's one rank and definiteness rule: x_i <= tol_rank * max|x|,
    with tol_rank = len(x) * EPS unless given; nonpositive values always count.
    """
    if tol_rank is None:
        tol_rank = x.size * EPS
    return x <= tol_rank * (float(np.max(np.abs(x))) if x.size else 0.0)


def definite(x: np.ndarray, tol_rank: float | None = None) -> bool:
    """Whether eigenvalues x are positive definite, or singular values x of full rank."""
    return x.size > 0 and not np.any(negligible(x, tol_rank))


def relative_size(M: np.ndarray, U: np.ndarray, s: np.ndarray) -> float:
    """Largest eigenvalue of G^{-1/2} M G^{-1/2}, clipped at zero, for G = U diag(s) U^T.

    U, s come from a thin SVD B = U diag(s) V^T, so G = (B B^T)^{1/2}; with
    V in place of U it is (B^T B)^{1/2}.  The value is taken from
    diag(s)^{-1/2} U^T M U diag(s)^{-1/2}: B B^T is never formed, so scaling
    M and B by one factor leaves it unchanged at any magnitude.
    """
    if U.shape[0] != s.size or not definite(s):
        raise UnboundedRelativeBound("coupling is rank deficient; relative bound is infinite")
    d = s**-0.5
    w = np.linalg.eigvalsh(d[:, None] * (U.T @ ((M + M.T) / 2.0) @ U) * d)
    return max(float(w[-1]), 0.0)


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues that `sym_eig` accepts as rounding below zero are clipped
    to zero.
    """
    w, V = sym_eig(M, psd=True)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def complex_svd_via_embedding(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Singular values of A + iB, both real symmetric, via a real embedding.

    Each block is checked for symmetry at its own scale.  The matrix
    E = [[A, B], [B, -A]] then has spectrum +-sigma(A + iB), so the n
    largest eigenvalues are the wanted singular values, returned descending.
    """
    A, _ = _require_symmetric(A, "A")
    B, _ = _require_symmetric(B, "B")
    if A.shape != B.shape:
        raise NotSymmetric(f"blocks must be equal-shaped, got {A.shape} and {B.shape}")
    w = np.linalg.eigvalsh(np.block([[A, B], [B, -A]]))
    return w[A.shape[0]:][::-1]


def bidiag_svd_hra(T: Bidiagonal) -> np.ndarray:
    """Singular values of a bidiagonal matrix (or a stack) to high relative accuracy.

    The dense upper bidiagonal goes to numpy's SVD without vectors.  Its
    bidiagonal reduction is a no-op on that input, and LAPACK's
    values-only path (dgesdd with JOBZ='N': dbdsdc -> dlasdq -> dbdsqr ->
    dlasq1) ends in dqds, which determines every singular value of a
    bidiagonal to a relative accuracy independent of the condition number
    (Demmel-Kahan 1990; Fernando-Parlett 1994).  Lower bidiagonal input
    is transposed first.  A stack goes to one stacked SVD, which runs the
    same LAPACK call on each matrix.
    """
    d = require_finite(T.diag, "diag")
    require_finite(T.offdiag, "offdiag")
    if d.size == 0:
        return np.zeros(d.shape)
    M = T.dense()
    if T.orientation == "lower":
        M = M.swapaxes(-1, -2)
    return np.linalg.svd(M, compute_uv=False)


def null_space_basis(M: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Orthonormal basis of {x : ||Mx|| <= tol_rank ||M|| ||x||}, as columns.

    Returns an (n, r) array; r may be zero.
    """
    M = require_finite(M)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    n = M.shape[1]
    if tol_rank is None:
        tol_rank = n * EPS
    if M.size == 0 or not np.any(M):
        return np.eye(n)
    _, s, vt = np.linalg.svd(M, full_matrices=True)
    # rows of vt beyond min(m, n) span directions M maps to zero exactly
    null = np.ones(n, dtype=bool)
    null[: s.size] = negligible(s, tol_rank)
    return vt[null].T
