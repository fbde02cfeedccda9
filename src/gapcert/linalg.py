"""Dense symmetric and bidiagonal kernels the certificates are built on.

All routines work on real matrices.  Eigenvalues come out ascending,
singular values descending, matching the conventions of numpy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NotFinite, NotPSD, NotSymmetric, Singular, UnboundedRelativeBound

EPS = float(np.finfo(np.float64).eps)


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class Bidiagonal:
    """Bidiagonal matrix stored by bands; orientation is "upper" or "lower"."""

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
        if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
            raise ValueError("bands must be vectors with len(offdiag) == len(diag) - 1")

    def dense(self) -> np.ndarray:
        n = self.diag.size
        M = np.diag(self.diag)
        if n > 1:
            k = 1 if self.orientation == "upper" else -1
            M += np.diag(self.offdiag, k=k)
        return M


def require_finite(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NotFinite(f"{name} contains non-finite entries")
    return M


def sym_eig(M: np.ndarray, tol_sym: float | None = None) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix, values ascending."""
    M = require_finite(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {M.shape}")
    scale = op_norm_bound(M)
    if tol_sym is None:
        tol_sym = 1e-12 * max(scale, 1.0)
    defect = np.max(np.abs(M - M.T)) if M.size else 0.0
    if defect > tol_sym:
        raise NotSymmetric(f"symmetry defect {defect:.3e} exceeds tolerance {tol_sym:.3e}")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
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


def psd_sqrt(M: np.ndarray, tol_psd: float | None = None) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues in [-tol_psd, 0) are treated as rounding and clipped to
    zero; anything below -tol_psd raises NotPSD.
    """
    w, V = sym_eig(M)
    if tol_psd is None:
        tol_psd = 1e-10 * max(op_norm_bound(M), 1.0)
    if w.size and w[0] < -tol_psd:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol_psd:.3e}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


def psd_factor(M: np.ndarray, tol_rank: float | None = None) -> np.ndarray:
    """Factor a PSD matrix as M = L L^T with rank(M) columns in L."""
    w, V = sym_eig(M)
    if tol_rank is None:
        tol_rank = w.size * EPS
    tol_psd = 1e-10 * max(op_norm_bound(M), 1.0)
    if w.size and w[0] < -tol_psd:
        raise NotPSD(f"eigenvalue {w[0]:.3e} below -{tol_psd:.3e}")
    wmax = float(w[-1]) if w.size else 0.0
    if wmax <= 0.0:
        return np.zeros((w.size, 0))
    keep = w > tol_rank * wmax
    return V[:, keep] * np.sqrt(w[keep])


def polar_factors(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition B = U P with U orthogonal and P symmetric PD."""
    B = require_finite(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise Singular(f"polar factors need a square matrix, got {B.shape}")
    u, s, vt = np.linalg.svd(B)
    n = B.shape[0]
    if s.size == 0 or s[-1] <= n * EPS * (s[0] if s.size else 0.0):
        raise Singular("matrix is singular to working precision")
    U = u @ vt
    P = (vt.T * s) @ vt
    return U, P


def complex_svd_via_embedding(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Singular values of A + iB, both real symmetric, via a real embedding.

    The symmetric matrix [[A, B], [B, -A]] has spectrum +-sigma(A + iB),
    so the n largest eigenvalues are the wanted singular values, returned
    descending.
    """
    A = require_finite(A, "A")
    B = require_finite(B, "B")
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"blocks must be square and equal-shaped, got {A.shape} and {B.shape}")
    for name, M in (("A", A), ("B", B)):
        defect = np.max(np.abs(M - M.T)) if M.size else 0.0
        if defect > 1e-12 * max(op_norm_bound(M), 1.0):
            raise NotSymmetric(f"block {name} is not symmetric (defect {defect:.3e})")
    n = A.shape[0]
    E = np.block([[A, B], [B, -A]])
    w = np.linalg.eigvalsh(E)
    return w[n:][::-1]


def bidiag_svd_hra(T: Bidiagonal) -> np.ndarray:
    """Singular values of a bidiagonal matrix to high relative accuracy.

    The dense matrix is handed to the QR-based SVD driver, whose
    bidiagonal reduction is a no-op on upper bidiagonal input, so the
    zero-shift QR sweep determines every singular value to a relative
    accuracy independent of the condition number.  Lower bidiagonal input
    is transposed first.
    """
    d = require_finite(T.diag, "diag")
    require_finite(T.offdiag, "offdiag")
    if d.size == 0:
        return np.zeros(0)
    M = T.dense()
    if T.orientation == "lower":
        M = M.T
    s = scipy.linalg.svd(M, compute_uv=False, lapack_driver="gesvd")
    return s


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
    cutoff = tol_rank * s[0]
    # rows of vt beyond min(m, n) span directions M maps to zero exactly
    null_rows = [i for i in range(n) if i >= s.size or s[i] <= cutoff]
    return vt[null_rows].T if null_rows else np.zeros((n, 0))
