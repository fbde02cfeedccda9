"""Eigenvalue branches and inclusion intervals for Stokes-type matrices.

These are saddle matrices H = [[A, B], [B^T, 0]] with A symmetric PSD.
The quadratic pencil lambda^2 I - lambda A - B B^T is overdamped under
the null-space condition N(A) cap N(B^T) = {0}, which separates the
spectrum into a negative and a positive branch with minimax structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds, linalg
from .errors import (
    DegenerateDirection,
    EtaOutOfRange,
    NABViolated,
    NotDefinite,
    RankDeficient,
)

EPS = linalg.EPS


class StokesMatrix(bounds.BlockSaddle):
    """H = [[A, B], [B^T, 0]]: a BlockSaddle whose C block is zero.

    Every function here takes any BlockSaddle with C = 0 and reads the
    factorizations it keeps.
    """

    def __init__(self, A: np.ndarray, B: np.ndarray):
        k = np.atleast_2d(B).shape[1]
        super().__init__(A, B, np.zeros((k, k)))

    def nab_holds(self, tol_rank: float | None = None) -> bool:
        """Whether N(A) and N(B^T) intersect only in zero."""
        return _nab_holds(self, tol_rank)


def _nab_holds(S: bounds.BlockSaddle, tol_rank: float | None) -> bool:
    return linalg.null_space_basis(np.vstack([S.A, S.B.T]), tol_rank).shape[1] == 0


@dataclass(frozen=True)
class PencilSpectrum:
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


@dataclass(frozen=True)
class IntervalPair:
    """Branch enclosures [i_minus, i_plus] produced by one estimate."""

    i_minus: tuple[float, float]
    i_plus: tuple[float, float]
    source: str

    def to_json_dict(self) -> dict:
        return {
            "source": self.source,
            "i_minus": [self.i_minus[0], self.i_minus[1]],
            "i_plus": [self.i_plus[0], self.i_plus[1]],
        }


@dataclass(frozen=True)
class PerturbationSpec:
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise EtaOutOfRange(f"eta must lie in [0, 1), got {self.eta}")


def rayleigh_p(x: np.ndarray, S: bounds.BlockSaddle) -> tuple[float, float]:
    """Branch functionals p_plus(x) >= 0 >= p_minus(x) of the pencil at x.

    p_pm(x) = (x^T A x pm sqrt((x^T A x)^2 + 4 ||B^T x||^2)) / 2.
    x must be a unit vector; a vanishing discriminant means x lies in
    N(A) cap N(B^T) and the direction is degenerate.
    """
    x = linalg.require_finite(np.asarray(x, dtype=float).ravel(), "x")
    if x.size != S.m:
        raise ValueError(f"x must have length {S.m}, got {x.size}")
    nx = float(np.linalg.norm(x))
    if abs(nx - 1.0) > 1e-12:
        raise ValueError(f"x must be a unit vector, got norm {nx!r}")
    a = float(x @ S.A @ x)
    b2 = float(np.sum((S.B.T @ x) ** 2))
    delta = a * a + 4.0 * b2
    scale = linalg.op_norm_bound(S.A) + linalg.op_norm_bound(S.B) ** 2
    if delta <= (1e-12 * max(scale, 1.0)) ** 2:
        raise DegenerateDirection("discriminant vanishes: x in N(A) and N(B^T)")
    root = float(np.sqrt(delta))
    return (a + root) / 2.0, (a - root) / 2.0


def pencil_spectrum(S: bounds.BlockSaddle, tol_rank: float | None = None) -> PencilSpectrum:
    """Classify the spectrum of H into pencil branches."""
    w = S.eigvals_H
    n = w.size
    if tol_rank is None:
        tol_rank = n * EPS
    cutoff = tol_rank * max(abs(float(w[0])), abs(float(w[-1])), 0.0)
    neg = w[w < -cutoff]
    pos = w[w > cutoff]
    if pos.size != S.m:
        raise NABViolated(
            f"expected {S.m} positive eigenvalues, found {pos.size}; N(A) meets N(B^T)"
        )
    zero_mult = n - neg.size - pos.size
    lam_minus = np.concatenate([neg, np.zeros(S.m - neg.size)])
    return PencilSpectrum(lam_minus, pos[::-1], int(zero_mult))


def minimal_intervals(S: bounds.BlockSaddle, tol_rank: float | None = None) -> IntervalPair:
    """Tightest branch enclosures: extremal eigenvalues of each branch.

    i_plus spans the positive eigenvalues; i_minus spans the strict
    negatives (collapsing to (0, 0) if B = 0 leaves none).
    """
    if not _nab_holds(S, tol_rank):
        raise NABViolated("N(A) and N(B^T) intersect nontrivially")
    ps = pencil_spectrum(S, tol_rank)
    strict = ps.strict_minus
    i_minus = (float(strict[0]), float(strict[-1])) if strict.size else (0.0, 0.0)
    i_plus = (float(ps.lambda_plus[-1]), float(ps.lambda_plus[0]))
    return IntervalPair(i_minus, i_plus, "minimal")


def _outer_hypotheses(S: bounds.BlockSaddle) -> tuple[float, float]:
    """Extreme eigenvalues of A, which must be positive definite, while B has full column rank."""
    w = S.eig_A.values
    if not linalg.definite(w):
        raise NotDefinite("A must be positive definite for this interval estimate")
    if S.k > S.m or not linalg.definite(S.svd_B.S, S.m * EPS):
        raise RankDeficient(f"B must have full column rank {S.k}")
    return float(w[0]), float(w[-1])


def ruwa_intervals(S: bounds.BlockSaddle) -> IntervalPair:
    """Branch enclosures from extreme eigenvalues of A and singular values of B.

    With alpha_1 <= alpha_m the extreme eigenvalues of A and beta_min,
    beta_max the extreme singular values of B:
    I_minus = [(alpha_1 - sqrt(alpha_1^2 + 4 beta_max^2))/2,
               (alpha_m - sqrt(alpha_m^2 + 4 beta_min^2))/2],
    I_plus  = [alpha_1, (alpha_m + sqrt(alpha_m^2 + 4 beta_max^2))/2].
    """
    a1, am = _outer_hypotheses(S)
    s = S.svd_B.S
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
    a1, am = _outer_hypotheses(S)
    w, V = S.eig_A
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
    U, s, _ = S.svd_B
    if S.m > S.k or not linalg.definite(s, S.k * EPS):
        raise RankDeficient("B^T must have full column rank for the gap estimate")
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


def perturbation_bounds(
    base: PencilSpectrum, spec: PerturbationSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Relative enclosures for the branches after an eta-sized perturbation.

    For perturbations with |x^T At x| <= eta x^T A x and ||Bt^T x|| <=
    eta ||B^T x|| scaling both blocks jointly, each positive eigenvalue
    lands in [(1-eta) lam, (1+eta) lam] and each negative one in
    [(1+eta)/(1-eta) lam, (1-eta)/(1+eta) lam].  Returns (minus, plus)
    arrays of shape (m, 2) aligned with the branch vectors of base.
    """
    e = spec.eta
    lm = base.lambda_minus
    lp = base.lambda_plus
    minus = np.column_stack([(1.0 + e) / (1.0 - e) * lm, (1.0 - e) / (1.0 + e) * lm])
    plus = np.column_stack([(1.0 - e) * lp, (1.0 + e) * lp])
    return minus, plus
