"""Shared random-instance generators and call counters for the test suite.

It also holds the test-side references: code that no gapcert command runs
and that tests compare the library against (the functional calculus of
AC, the PSD square root, the dense 4x4 of the quartic closed form, the
dense boundary-modified K_tilde and the Stokes saddle with C = 0).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from gapcert import bounds, linalg, model
from gapcert.errors import DimensionMismatch


def rand_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    G = rng.standard_normal((n, n if rank is None else rank))
    return G @ G.T


def rand_pd(rng: np.random.Generator, n: int, shift: float = 0.5) -> np.ndarray:
    return rand_psd(rng, n) + shift * np.eye(n)


def full_rank_tall(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Random (m, k) matrix with full column rank, k <= m."""
    while True:
        B = rng.standard_normal((m, k))
        s = np.linalg.svd(B, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return B


def violations(evals: np.ndarray, lo: float, hi: float, nonzero_only: bool = False) -> int:
    """Eigenvalues strictly inside (lo, hi) beyond the acceptance margin."""
    margin = 1e-10 * float(np.max(np.abs(evals)))
    inside = evals[(evals > lo + margin) & (evals < hi - margin)]
    if nonzero_only:
        inside = inside[np.abs(inside) > margin]
    return int(inside.size)


def matrix_text(M) -> str:
    """A matrix section: header ``rows cols``, then each row with every entry written %.17g."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows = (" ".join("%.17g" % x for x in row) for row in M)
    return "\n".join([f"{M.shape[0]} {M.shape[1]}", *rows]) + "\n"


def block_text(A, B, C=None) -> str:
    """A block file for H = [[A, B], [B^T, -C]]; C=None writes the section ``zero k``."""
    k = np.atleast_2d(np.asarray(B, dtype=float)).shape[1]
    C_text = f"zero {k}\n" if C is None else matrix_text(C)
    return f"A\n{matrix_text(A)}B\n{matrix_text(B)}C\n{C_text}"


def count_factorizations(monkeypatch) -> Counter:
    """Count numpy.linalg factorizations (and 2-norms) by kind while monkeypatch is active.

    The LAPACK kernels linalg calls directly count too: each dlasq1 call
    as an svd, each dsterf call as an eigvalsh.
    """
    counts: Counter = Counter()

    def counted(kind, fn, when=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            counts[kind] += bool(when(*args, **kwargs))
            return fn(*args, **kwargs)

        return wrapper

    for kind in ("eigh", "eigvalsh", "svd", "solve"):
        monkeypatch.setattr(np.linalg, kind, counted(kind, getattr(np.linalg, kind)))
    norm2 = lambda x, ord=None, *a, **k: ord == 2  # noqa: E731
    monkeypatch.setattr(np.linalg, "norm", counted("norm2", np.linalg.norm, norm2))
    kernels = linalg._kernels()
    if kernels is not None:
        wrapped = linalg._Kernels(counted("svd", kernels.dlasq1), counted("eigvalsh", kernels.dsterf))
        monkeypatch.setattr(linalg, "_kernels", lambda: wrapped)
    return counts


def func_calc_AC(A: np.ndarray, C: np.ndarray, f0: float, f1) -> np.ndarray:
    """Evaluate f(AC) = f0 I + A C^(1/2) f1(C^(1/2) A C^(1/2)) C^(1/2).

    Meaningful for functions with f(x) = f0 + x f1(x); the inner argument
    is symmetric PSD, so f1 only ever sees the nonnegative eigenvalues.
    """
    A, C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
    if A.shape != C.shape:
        raise DimensionMismatch(f"A and C must share a shape, got {A.shape} and {C.shape}")
    linalg.sym_eig(A, "A")  # the symmetric PSD check; only C's eigenpairs are used
    wc, VC = linalg.sym_eig(C, "C")
    R = (VC * np.sqrt(np.clip(wc, 0.0, None))) @ VC.T
    X = R @ A @ R  # symmetric up to rounding of order eps ||A|| ||C||, not of ||X||
    w, V = np.linalg.eigh((X + X.T) / 2.0)
    w = np.clip(w, 0.0, None)
    vals = np.asarray([float(f1(x)) for x in w])
    F = (V * vals) @ V.T
    return f0 * np.eye(A.shape[0]) + A @ R @ F @ R


def psd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Eigenvalues that `sym_eig` accepts as rounding below zero are clipped
    to zero.
    """
    w, V = linalg.sym_eig(M)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T


def assemble_quartic(p: bounds.Quartic4x4Params) -> np.ndarray:
    """The Hermitian 4x4 [[A, B], [B^H, -A]] whose spectrum eig_4x4 gives in closed form."""
    A, B = p.blocks()
    return np.block([[A, B], [B.conj().T, -A]])


def build_Ktilde(spec: model.ModelSpec | Sequence[model.ModelSpec]) -> np.ndarray:
    """Boundary-modified K_tilde: K with +2 at the first and -2 at the last diagonal entry.

    Back in the H picture that is build_Htilde's rank-two change.  Stacks
    as build_Hc.
    """
    Kt = model.build_Kc(spec)
    Kt[..., 0, 0] += 2.0
    Kt[..., -1, -1] -= 2.0
    return Kt


class StokesMatrix(bounds.BlockSaddle):
    """H = [[A, B], [B^T, 0]]: a BlockSaddle whose C block is zero.

    The spectrum, interval and gap functions in gapcert.stokes take any
    BlockSaddle, refuse one with C != 0, and read the factorizations it keeps.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        k = np.atleast_2d(B).shape[1]
        super().__init__(A, B, np.zeros((k, k)))
