"""Eigenvalue branches and inclusion intervals for Stokes-type matrices.

These are saddle matrices H = [[A, B], [B^T, 0]] with A symmetric PSD:
each function here requires the hypothesis C_zero of `bounds.HYPOTHESES`.
Under N(A) cap N(B^T) = {0} the pencil lambda^2 I - lambda A - B B^T is
overdamped: a negative and a positive branch, each with minimax structure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import bounds, linalg
from .errors import RankDeficient


class PencilSpectrum(NamedTuple):
    """Eigenvalues of H split into pencil branches.

    lambda_minus holds the strict negatives ascending, zero-padded to
    length m (the padding is the value of the negative branch functional
    on null directions of B^T, not an eigenvalue of H when rank B = k).
    lambda_plus holds the m positive eigenvalues descending.
    zero_multiplicity counts actual zero eigenvalues of H, so strict
    negatives + m + zero_multiplicity = m + k.
    """

    lambda_minus: np.ndarray
    lambda_plus: np.ndarray
    zero_multiplicity: int

    @property
    def strict_minus(self) -> np.ndarray:
        return self.lambda_minus[self.lambda_minus < 0.0]


class IntervalPair(NamedTuple):
    """Branch enclosures [i_minus, i_plus] produced by one estimate."""

    i_minus: tuple[float, float]
    i_plus: tuple[float, float]
    source: str


def pencil_spectrum(S: bounds.BlockSaddle) -> PencilSpectrum:
    """Classify the spectrum of H into pencil branches."""
    S.require("C_zero")
    w = S.eigvals_H
    neg = w[~linalg.negligible(-w)]
    # with C = 0, the rank rule keeps m eigenvalues as positive exactly when N(A) cap N(B^T) = {0}
    pos = w[~linalg.negligible(w)]
    if pos.size != S.m:
        raise RankDeficient(f"expected {S.m} positive eigenvalues, found {pos.size}; N(A) meets N(B^T)")
    zero_mult = w.size - neg.size - pos.size
    lam_minus = np.concatenate([neg, np.zeros(S.m - neg.size)])
    return PencilSpectrum(lam_minus, pos[::-1], int(zero_mult))


def minimal_intervals(S: bounds.BlockSaddle) -> IntervalPair:
    """Tightest branch enclosures: extremal eigenvalues of each branch.

    i_plus spans the positive eigenvalues; i_minus spans the strict
    negatives (collapsing to (0, 0) if B = 0 leaves none).  Raises
    RankDeficient through `pencil_spectrum` when N(A) meets N(B^T) (the
    block row [A B] has rank below m), the case in which fewer than m
    eigenvalues are positive.
    """
    ps = pencil_spectrum(S)
    strict = ps.strict_minus
    i_minus = (float(strict[0]), float(strict[-1])) if strict.size else (0.0, 0.0)
    i_plus = (float(ps.lambda_plus[-1]), float(ps.lambda_plus[0]))
    return IntervalPair(i_minus, i_plus, "minimal")


def ruwa_intervals(S: bounds.BlockSaddle) -> IntervalPair:
    """Branch enclosures from extreme eigenvalues of A and singular values of B.

    With alpha_1 <= alpha_m the extreme eigenvalues of A and beta_min,
    beta_max the extreme singular values of B:
    I_minus = [(alpha_1 - sqrt(alpha_1^2 + 4 beta_max^2))/2,
               (alpha_m - sqrt(alpha_m^2 + 4 beta_min^2))/2],
    I_plus  = [alpha_1, (alpha_m + sqrt(alpha_m^2 + 4 beta_max^2))/2].
    """
    S.require("C_zero", "A_definite", "B_full_column_rank")
    a1, am = float(S.eig_A.values[0]), float(S.eig_A.values[-1])
    _, s, _ = S.svd_B
    bmax, bmin = float(s[0]), float(s[-1])
    i_minus = (
        (a1 - float(np.hypot(a1, 2.0 * bmax))) / 2.0,
        (am - float(np.hypot(am, 2.0 * bmin))) / 2.0,
    )
    i_plus = (a1, (am + float(np.hypot(am, 2.0 * bmax))) / 2.0)
    return IntervalPair(i_minus, i_plus, "ruwa")


def axel_intervals(S: bounds.BlockSaddle) -> IntervalPair:
    """Branch enclosures through the Schur weights sigma(B^T A^{-1} B).

    With sigma_1 <= sigma_k those eigenvalues and alpha_1 <= alpha_m the
    extreme eigenvalues of A:
    I_minus = [(alpha_m - sqrt(alpha_m^2 + 4 sigma_k alpha_m))/2,
               -sigma_1 alpha_1 / (sigma_1 + alpha_1)],
    I_plus  = [alpha_1, (alpha_m + sqrt(alpha_m^2 + 4 sigma_k alpha_m))/2].
    """
    S.require("C_zero", "A_definite", "B_full_column_rank")
    w, V = S.eig_A
    a1, am = float(w[0]), float(w[-1])
    W = (V.T @ S.B) / np.sqrt(w)[:, None]  # W^T W = B^T A^{-1} B
    sig = np.linalg.eigvalsh(W.T @ W)
    s1, sk = float(sig[0]), float(sig[-1])
    root = float(np.sqrt(am * am + 4.0 * sk * am))
    i_minus = ((am - root) / 2.0, -s1 * a1 / (s1 + a1))
    i_plus = (a1, (am + root) / 2.0)
    return IntervalPair(i_minus, i_plus, "axel")


def new_gap_estimate(S: bounds.BlockSaddle) -> bounds.GapCertificate:
    """Gap interval (-2 beta_1/(alpha + sqrt(alpha^2 + 4)), beta_1) around zero.

    beta_1 = min ||B^T x|| over unit x (so B^T must have full column
    rank) and alpha is the relative bound of A against |B^T|.  Nonzero
    spectrum avoids the open interval; zero itself remains an eigenvalue
    when k > m.  For square B this also bounds
    ||H^{-1}|| <= ||B^{-1}|| (alpha + sqrt(alpha^2 + 4))/2.
    """
    S.require("C_zero", "BT_full_column_rank")
    U, s, _ = S.svd_B
    beta1 = float(s[-1])
    alpha = linalg.relative_size(S.A, U, s)
    denom = alpha + float(np.hypot(alpha, 2.0))
    inv_bound = denom / (2.0 * beta1) if S.m == S.k else None
    return bounds.GapCertificate(
        method="stokes_new",
        interval=(-2.0 * beta1 / denom, beta1),
        claim="excludes_nonzero",
        inv_norm_bound=inv_bound,
        quantities={"alpha": alpha, "beta1": beta1},
    )

