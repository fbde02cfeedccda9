"""Dense symmetric and bidiagonal kernels the certificates are built on.

All routines work on real matrices.  Eigenvalues come out ascending,
singular values descending, matching the conventions of numpy.linalg.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotPSD, NotSymmetric

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)


class EigenDecomposition(NamedTuple):
    values: np.ndarray
    vectors: np.ndarray


def require_finite(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise NotFinite(f"{name} contains non-finite entries")
    return M


def require_square(shape: tuple[int, ...], name: str = "matrix") -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {shape}")


def sym_eig(M: np.ndarray, name: str = "matrix") -> EigenDecomposition:
    """Eigendecomposition of a symmetric positive semidefinite matrix, values ascending.

    The package's one symmetry and semidefiniteness check.  Both
    tolerances are relative to the matrix's own scale: a symmetry defect
    above 1e-12 of it fails, and so does an eigenvalue below -1e-10 of it.
    A matrix of +0.0 entries gets (0, I) without LAPACK.  OverflowError
    where twice the scale, and so M +- M^T, would leave the float range.
    """
    M = require_finite(M, name)
    require_square(M.shape, name)
    if not M.any() and not np.signbit(M).any():
        # what LAPACK returns for a +0.0 matrix; a -0.0 entry gives -0.0 eigenvalues
        return EigenDecomposition(np.zeros(M.shape[0]), np.eye(M.shape[0]))
    # a Python float: past the float range it is inf, without a warning
    scale = float(np.max(np.abs(M))) * M.shape[0]
    if 2.0 * scale == np.inf:
        raise OverflowError(f"{name} overflows the float range")
    defect = np.max(np.abs(M - M.T))
    if defect > 1e-12 * scale:
        raise NotSymmetric(f"{name} is not symmetric (defect {defect:.3e})")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    if w[0] < -1e-10 * scale:
        raise NotPSD(f"{name} has eigenvalue {w[0]:.3e}, not positive semidefinite")
    return EigenDecomposition(w, V)


def op_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value); inf for a matrix that holds a NaN or an infinity."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    if not np.isfinite(M).all():
        return np.inf
    return float(np.linalg.norm(M, 2))


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
    M and B by one factor leaves it unchanged at any magnitude.  G must be
    invertible (U square, s of full rank): `BlockSaddle.B_full_rank` owns
    that rank decision, and every caller refuses the saddle through it.
    """
    d = s**-0.5
    w = np.linalg.eigvalsh(d[:, None] * (U.T @ ((M + M.T) / 2.0) @ U) * d)
    return max(float(w[-1]), 0.0)


class _Kernels(NamedTuple):
    dlasq1: Callable[..., None]
    dsterf: Callable[..., None]


@functools.cache
def _kernels() -> _Kernels | None:
    """LAPACK's dlasq1 and dsterf from the OpenBLAS numpy links against, or None.

    numpy's linalg extension is opened with ctypes; dlsym searches the
    libraries it depends on, so this finds the bundled OpenBLAS without
    knowing the wheel's layout.  Only the ILP64 symbols of the
    scipy-openblas build that numpy 2 wheels ship are taken (64-bit
    integers, names scipy_*_64_).  Any other build (numpy 1.x wheels, MKL,
    Accelerate, Windows) gives None, and the callers take the dense route.
    """
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        found = _Kernels(lib.scipy_dlasq1_64_, lib.scipy_dsterf_64_)
    except (ImportError, AttributeError, OSError):
        return None
    for fn in found:
        fn.restype = None
    return found


def _call(fn, n: int, *arrays: np.ndarray) -> None:
    # one Fortran call fn(N, arrays..., INFO) with ILP64 integers; raises on INFO != 0
    info = ctypes.c_int64(0)
    pointers = (a.ctypes.data_as(ctypes.c_void_p) for a in arrays)
    fn(ctypes.byref(ctypes.c_int64(n)), *pointers, ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"{fn.__name__} did not converge (info {info.value})")


def _bands(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    # the band format of every kernel here: one matrix's finite 1-D bands, offdiag one shorter
    d = require_finite(diag, "diag")
    e = require_finite(offdiag, "offdiag")
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError("bands need a 1-D diagonal of n entries and a 1-D off-diagonal of n - 1")
    return d, e


def bidiag_svd_hra(diag, offdiag) -> np.ndarray:
    """Singular values of the lower bidiagonal (diag, offdiag) to high relative accuracy.

    LAPACK's dlasq1 runs dqds on the bands directly, which determines
    every singular value of a bidiagonal to a relative accuracy
    independent of the condition number (Demmel-Kahan 1990;
    Fernando-Parlett 1994), in O(n^2) flops and O(n) memory.  The bands
    are copied first, since dlasq1 overwrites them.  Where _kernels finds
    no dlasq1, the dense upper bidiagonal goes to numpy's SVD without
    vectors, whose LAPACK path (dgesdd with JOBZ='N': a no-op bidiagonal
    reduction, then dbdsdc -> dlasdq -> dbdsqr) ends in the same dlasq1
    call, at O(n^3) cost.
    """
    d, e = _bands(diag, offdiag)
    n = d.size
    if n == 0:
        return np.zeros(0)
    kernels = _kernels()
    if kernels is None:
        # assigned into zeros, so every entry, -0.0 included, is the band's own
        upper = np.zeros((n, n))
        i = np.arange(n)
        upper[i, i] = d
        upper[i[:-1], i[1:]] = e
        return np.linalg.svd(upper, compute_uv=False)
    s = d.copy()
    _call(kernels.dlasq1, n, s, np.append(e, 0.0), np.empty(4 * n))
    return s


def tridiag_eigvalsh(diag, offdiag) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal T = (diag, offdiag).

    LAPACK's dsterf (Pal-Walker-Kahan QR) runs on copies of the bands: O(n^2)
    flops, O(n) memory and no threads.  It is the last step of the
    values-only path of numpy's eigvalsh (dsyevd: dsytrd, then dsterf), and
    dsytrd leaves a tridiagonal input unchanged, so where _kernels finds no
    dsterf, eigvalsh of the dense T gives the same values at O(n^3) cost.
    """
    a, e = _bands(diag, offdiag)
    kernels = _kernels()
    if kernels is None:
        return np.linalg.eigvalsh(np.diag(a) + np.diag(e, -1) + np.diag(e, 1))
    w, band = a.copy(), e.copy()
    _call(kernels.dsterf, a.size, w, band)
    return w


def sturm_count(diag, offdiag, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift x of the symmetric tridiagonal T = (diag, offdiag).

    Every shift is a lane of one recurrence, the pivots of the LDL^T
    factorization of T - x: q_1 = a_1 - x, q_i = (a_i - x) - e_{i-1}^2 / q_{i-1}.
    By Sylvester's law of inertia the number of negative pivots is the
    number of eigenvalues below x.  A pivot with |q| < pivmin = tiny *
    max(1, max e^2) is replaced by -pivmin, as LAPACK's dstebz does, so
    no step divides by zero or overflows.  O(n) steps on all shifts at
    once, each lane keeping a running count: O(n + lanes) memory.

    A computed count is the exact count of T + E for a symmetric
    tridiagonal E that depends on the shift (Kahan 1966; Demmel, Dhillon
    & Ren, ETNA 1995), with ||E||_2 <= sturm_error_bound(offdiag): the
    roundings perturb each e_i by at most 3 eps relative, a replaced
    pivot or an underflowed quotient moves a diagonal entry by at most
    3 pivmin, and an underflow in e_i^2 moves e_i by at most sqrt(tiny).
    The bound assumes no a_i - x overflows.
    """
    a, e = _bands(diag, offdiag)
    x = require_finite(shifts, "shifts")
    with np.errstate(over="ignore"):
        e2 = e * e
    if not np.isfinite(e2).all():
        raise OverflowError("a squared off-diagonal entry overflows the float range")
    pivmin = TINY * max(1.0, float(np.max(e2, initial=0.0)))
    count = np.zeros(x.shape, dtype=np.intp)
    q, t = np.empty_like(x), np.empty_like(x)
    flag = np.empty(x.shape, dtype=bool)
    # a_i - x can overflow for huge entries; its infinity keeps the pivot's sign
    with np.errstate(over="ignore"):
        for i in range(a.size):
            if i:
                np.divide(e2[i - 1], q, out=t)
                np.subtract(a[i], x, out=q)
                q -= t
            else:
                np.subtract(a[0], x, out=q)
            np.abs(q, out=t)
            np.less(t, pivmin, out=flag)
            np.copyto(q, -pivmin, where=flag)
            np.less(q, 0.0, out=flag)
            count += flag
    return count


def sturm_error_bound(offdiag) -> float:
    """A priori bound on ||E||_2 of sturm_count's backward error for these off-diagonals.

    6 eps max|e| (each e_i moved by 3 eps relative, and a tridiagonal with
    zero diagonal has norm at most twice its largest entry) + 3 pivmin (a
    replaced pivot or an underflowed quotient) + 2 sqrt(tiny) (underflow
    in e_i^2).
    """
    emax = float(np.max(np.abs(require_finite(offdiag, "offdiag")), initial=0.0))
    return 6.0 * EPS * emax + 3.0 * TINY * max(1.0, emax * emax) + 2.0 * np.sqrt(TINY)
