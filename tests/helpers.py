"""Shared random-instance generators and call counters for the test suite."""

from collections import Counter

import numpy as np

from gapcert import linalg


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
