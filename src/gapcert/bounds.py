"""Gap certificates and inverse-norm bounds for symmetric saddle matrices.

The central object is H = [[A, B], [B^T, -C]] with A and C positive
semidefinite.  Each certificate produces an open interval that the
spectrum of H provably avoids (entirely, or up to the eigenvalue zero),
together with the scalar quantities the bound is built from.  Every
certificate reads the factorizations a `BlockSaddle` keeps, so a saddle
is factorized once however many certificates it gets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import linalg
from .errors import (
    B22Singular,
    BNotInvertible,
    BothSemidefiniteSingular,
    DimensionMismatch,
    NegativeDiscriminant,
    NotDefinite,
    UnboundedRelativeBound,
)


def _psd_pair(A: np.ndarray, C: np.ndarray, names: str = "AC"):
    """Validate two equal-shaped positive semidefinite blocks.

    Returns A, C as arrays and their eigenpairs; `names` labels the two
    blocks in error messages.
    """
    A, C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
    eig_A = linalg.sym_eig(A, names[0], psd=True)
    eig_C = linalg.sym_eig(C, names[1], psd=True)
    if A.shape != C.shape:
        raise DimensionMismatch(
            f"{names[0]} and {names[1]} must share a shape, got {A.shape} and {C.shape}"
        )
    return A, C, eig_A, eig_C


def _read_only(arrays):
    # cached factors are shared by every certificate that reads them
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _min_eig(w: np.ndarray, name: str) -> float:
    if not linalg.definite(w):
        raise NotDefinite(f"{name} is not positive definite (min eigenvalue {w[0] if w.size else 0.0:.3e})")
    return float(w[0])


@dataclass(frozen=True)
class BlockSaddle:
    """Blocks of H = [[A, B], [B^T, -C]]; A and C symmetric positive semidefinite.

    Validation keeps the eigenpairs of A and C (`eig_A`, `eig_C`); a C
    bit-equal to A (the Kirsch form) shares A's.  The SVD of B and the
    spectrum of H are computed on first use and kept.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        eig_A = linalg.sym_eig(A, "A", psd=True)
        C = np.asarray(self.C, dtype=float)
        if C.shape == A.shape and C.tobytes() == A.tobytes():
            eig_C = eig_A
        else:
            eig_C = linalg.sym_eig(C, "C", psd=True)
        B = np.atleast_2d(linalg.require_finite(self.B, "B"))
        if B.shape != (A.shape[0], C.shape[0]):
            raise DimensionMismatch(
                f"B must be {A.shape[0]}x{C.shape[0]}, got {B.shape[0]}x{B.shape[1]}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "eig_A", _read_only(eig_A))
        object.__setattr__(self, "eig_C", _read_only(eig_C))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.C.shape[0]

    def assemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.B.T, -self.C]])

    @cached_property
    def svd_B(self):
        """Thin SVD of B as (U, S, Vh), singular values descending."""
        return _read_only(np.linalg.svd(self.B, full_matrices=False))

    @cached_property
    def eigvals_H(self) -> np.ndarray:
        """Eigenvalues of the assembled H, ascending."""
        return _read_only([np.linalg.eigvalsh(self.assemble())])[0]


@dataclass(frozen=True)
class GapCertificate:
    """An open interval the spectrum of H avoids, and how it was obtained.

    claim is "excludes_all" when sigma(H) misses the whole open interval,
    or "excludes_nonzero" when only the eigenvalue zero may sit inside.
    For method="stretch" the inv_norm_bound applies to the shifted
    resolvent (H - lambda0 I)^{-1}; for every other method it bounds
    ||H^{-1}|| itself.
    """

    method: str
    interval: tuple[float, float]
    claim: str
    inv_norm_bound: float | None
    quantities: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "interval": [self.interval[0], self.interval[1]],
            "claim": self.claim,
            "inv_norm_bound": self.inv_norm_bound,
            "quantities": {k: self.quantities[k] for k in sorted(self.quantities)},
        }


@dataclass(frozen=True)
class NullSpaceReport:
    """Null space of H split into its two halves."""

    na_nb: np.ndarray  # basis of N(A) ∩ N(B^T)
    nc_nb: np.ndarray  # basis of N(C) ∩ N(B)
    singular: bool


def null_space_H(H: BlockSaddle, tol_rank: float | None = None) -> NullSpaceReport:
    """Null space of the assembled H: x-part in N(A)∩N(B^T), y-part in N(C)∩N(B)."""
    na_nb = linalg.null_space_basis(np.vstack([H.A, H.B.T]), tol_rank)
    nc_nb = linalg.null_space_basis(np.vstack([H.C, H.B]), tol_rank)
    return NullSpaceReport(na_nb, nc_nb, na_nb.shape[1] + nc_nb.shape[1] > 0)


def diag_gap(H: BlockSaddle) -> GapCertificate:
    """Gap interval (-min sigma(C), min sigma(A)) from the diagonal blocks alone.

    Requires both blocks positive definite; no eigenvalue of H lies in the
    open interval, and ||H^{-1}|| <= 1/min(min sigma(A), min sigma(C)).
    """
    a = _min_eig(H.eig_A.values, "A")
    c = _min_eig(H.eig_C.values, "C")
    return GapCertificate(
        method="diag_gap",
        interval=(-c, a),
        claim="excludes_all",
        inv_norm_bound=1.0 / min(a, c),
        quantities={"min_sigma_A": a, "min_sigma_C": c},
    )


def stretch_certificate(H: BlockSaddle) -> GapCertificate:
    """Widened gap interval centred at lambda0 = (min sigma(A) - min sigma(C))/2.

    Congruence with the shifted blocks turns H - lambda0 I into a unitary
    stretch [[I, Z], [Z^T, -I]] scaled from below by (a+c)/2, so
    ||(H - lambda0 I)^{-1}|| <= 2/((a+c) sqrt(1 + sigma^2)), where sigma
    is the smallest singular value of Z when Z is square and 0 otherwise
    (a rectangular Z always leaves a unit eigenvalue in the stretch).
    The certified interval is lambda0 plus/minus the reciprocal of that
    bound; inv_norm_bound refers to the resolvent at lambda0.
    """
    (wa, VA), (wc, VC) = H.eig_A, H.eig_C
    a = _min_eig(wa, "A")
    c = _min_eig(wc, "C")
    lam0 = (a - c) / 2.0
    # Z = (A - lambda0 I)^{-1/2} B (C + lambda0 I)^{-1/2} in the eigenbases
    # of A and C, which leaves its singular values unchanged
    Z = (wa - lam0)[:, None] ** -0.5 * (VA.T @ H.B @ VC) * (wc + lam0) ** -0.5
    s = np.linalg.svd(Z, compute_uv=False)
    sigma_eff = float(s[-1]) if H.m == H.k else 0.0
    bound = 2.0 / ((a + c) * np.hypot(1.0, sigma_eff))
    radius = 1.0 / bound
    return GapCertificate(
        method="stretch",
        interval=(lam0 - radius, lam0 + radius),
        claim="excludes_all",
        inv_norm_bound=bound,
        quantities={
            "lambda0": lam0,
            "sigma_min_Z": float(s[-1]),
            "sigma_max_Z": float(s[0]),
            "min_sigma_A": a,
            "min_sigma_C": c,
        },
    )


def inv_IplusAC_bound(A: np.ndarray, C: np.ndarray) -> float:
    """Upper bound on ||(I + AC)^{-1}|| for positive semidefinite A, C.

    Takes the best of three factorized estimates over the denominator
    1 + min sigma(AC); with L L^T = A and M M^T = C the numerators are
    ||A||^(1/2)||L^T C||, ||C||^(1/2)||A M|| and
    ||A||^(1/2)||C||^(1/2)||L^T M||.
    """
    A, C, (wa, VA), (wc, VC) = _psd_pair(A, C)
    wa, wc = np.clip(wa, 0.0, None), np.clip(wc, 0.0, None)
    FA, FC = VA * np.sqrt(wa), VC * np.sqrt(wc)
    RA = FA @ VA.T
    L = FA[:, ~linalg.negligible(wa)]
    M = FC[:, ~linalg.negligible(wc)]
    w = np.linalg.eigvalsh(RA @ C @ RA)
    den = 1.0 + max(float(w[0]) if w.size else 0.0, 0.0)
    na = float(wa[-1]) if wa.size else 0.0
    nc = float(wc[-1]) if wc.size else 0.0
    t1 = np.sqrt(na) * linalg.op_norm(L.T @ C)
    t2 = np.sqrt(nc) * linalg.op_norm(A @ M)
    t3 = np.sqrt(na * nc) * linalg.op_norm(L.T @ M)
    return 1.0 + min(t1, t2, t3) / den


def verify_norm_floor(A: np.ndarray, C: np.ndarray) -> tuple[float, bool]:
    """Return (||I + AC||, flag); the norm is >= 1 with equality iff AC = 0."""
    A, C, (wa, _), (wc, _) = _psd_pair(A, C)
    AC = A @ C
    norm = linalg.op_norm(np.eye(A.shape[0]) + AC)
    # AC counts as zero relative to ||A|| ||C||, the scale its rounding error has
    scale = np.max(np.abs(wa), initial=0.0) * np.max(np.abs(wc), initial=0.0)
    zero = linalg.op_norm(AC) <= 1e-12 * scale
    return norm, zero


def hbinv_certificate(H: BlockSaddle) -> GapCertificate:
    """Gap certificate driven by invertibility of B rather than of A and C.

    With alpha, gamma the relative bounds of A and C against |B^T|, |B|,
    ||H^{-1}|| <= ||B^{-1}|| (1 + max(alpha, gamma) + alpha gamma).
    Works for semidefinite A, C; H is nonsingular whenever B is.
    """
    if H.m != H.k:
        raise BNotInvertible(f"B must be square, got {H.m}x{H.k}")
    U, s, Vh = H.svd_B
    if not linalg.definite(s):
        raise UnboundedRelativeBound("B is singular; relative bounds are infinite")
    alpha = linalg.relative_size(H.A, U, s)
    gamma = linalg.relative_size(H.C, Vh.T, s)
    binv = 1.0 / float(s[-1])
    bound = binv * (1.0 + max(alpha, gamma) + alpha * gamma)
    radius = 1.0 / bound
    return GapCertificate(
        method="hbinv",
        interval=(-radius, radius),
        claim="excludes_all",
        inv_norm_bound=bound,
        quantities={"alpha": alpha, "gamma": gamma, "inv_B_norm": binv},
    )


def zero_dichotomy_certificate(H: BlockSaddle, tol_rank: float | None = None) -> GapCertificate:
    """Gap certificate for semidefinite A, C with matching null-space dimensions.

    Splitting both halves into range and null parts leaves a quasi-definite
    core coupled to an off-diagonal pair through B22, the restriction of B
    between the null spaces.  If B22 is invertible, H is nonsingular and

        ||H^{-1}|| <= (1 + max(||B12 B22^{-1}||, ||B21^T B22^{-T}||))^2
                      * max(||A1^{-1}||, ||C1^{-1}||, ||B22^{-1}||).
    """
    (wa, VA), (wc, VC) = H.eig_A, H.eig_C
    null_a, null_c = linalg.negligible(wa, tol_rank), linalg.negligible(wc, tol_rank)
    RA, NA, wa = VA[:, ~null_a], VA[:, null_a], wa[~null_a]
    RC, NC, wc = VC[:, ~null_c], VC[:, null_c], wc[~null_c]
    p, q = NA.shape[1], NC.shape[1]
    if p != q:
        raise DimensionMismatch(f"dim N(A) = {p} differs from dim N(C) = {q}")
    inv_parts = []
    if wa.size:
        inv_parts.append(1.0 / float(wa[0]))
    if wc.size:
        inv_parts.append(1.0 / float(wc[0]))
    coupling = 0.0
    if p > 0:
        B22 = NA.T @ H.B @ NC
        s22 = np.linalg.svd(B22, compute_uv=False)
        if not linalg.definite(s22):
            raise B22Singular("restriction of B between N(A) and N(C) is singular")
        inv_parts.append(1.0 / float(s22[-1]))
        B12 = RA.T @ H.B @ NC
        B21 = NA.T @ H.B @ RC
        if B12.size:
            coupling = max(coupling, linalg.op_norm(np.linalg.solve(B22.T, B12.T).T))
        if B21.size:
            coupling = max(coupling, linalg.op_norm(np.linalg.solve(B22, B21).T))
    if not inv_parts:
        raise NotDefinite("both blocks are zero-dimensional")
    eps = 1.0 / ((1.0 + coupling) ** 2 * max(inv_parts))
    return GapCertificate(
        method="zero_dichotomy",
        interval=(-eps, eps),
        claim="excludes_all",
        inv_norm_bound=1.0 / eps,
        quantities={"epsilon": eps, "null_dim": float(p), "coupling": coupling},
    )


def kirsch_certificate(A: np.ndarray, B: np.ndarray) -> GapCertificate:
    """Gap radius sqrt(min sigma(A)^2 + min sigma(B)^2) for H = [[A, B], [B, -A]].

    A and B must be symmetric positive semidefinite of equal size, at
    least one of them definite.
    """
    _, _, (wa, _), (wb, _) = _psd_pair(A, B, "AB")
    return _kirsch(wa, wb)


def _kirsch(wa: np.ndarray, wb: np.ndarray) -> GapCertificate:
    # wa, wb: ascending eigenvalues of the validated blocks A and B
    if not (linalg.definite(wa) or linalg.definite(wb)):
        raise BothSemidefiniteSingular("both A and B have smallest eigenvalue zero")
    amin = max(float(wa[0]), 0.0)
    bmin = max(float(wb[0]), 0.0)
    radius = float(np.hypot(amin, bmin))
    return GapCertificate(
        method="kirsch",
        interval=(-radius, radius),
        claim="excludes_all",
        inv_norm_bound=1.0 / radius,
        quantities={"min_sigma_A": amin, "min_sigma_B": bmin},
    )


def kirsch_saddle_certificate(H: BlockSaddle) -> GapCertificate:
    """kirsch_certificate(A, B) for a saddle in the form [[A, B], [B, -A]].

    Reads the eigenvalues of A the saddle keeps; only B is factorized.
    """
    if H.m != H.k or np.max(np.abs(H.C - H.A)) > 1e-12 * np.max(np.abs(H.A)):
        raise ValueError("kirsch form needs square blocks with C = A")
    return _kirsch(H.eig_A.values, linalg.sym_eig(H.B, "B", psd=True).values)


def winklmeier_bound(H: BlockSaddle) -> float:
    """Quadratic-numerical-range gap radius; may come out <= 0 (void bound).

    Value: -(||A|| + ||C||)/2 + sqrt((||A|| - ||C||)^2/4 + 1/||B^{-1}||^2).
    """
    if H.m != H.k:
        raise BNotInvertible(f"B must be square, got {H.m}x{H.k}")
    s = H.svd_B.S
    if not linalg.definite(s):
        raise BNotInvertible("B is singular to working precision")
    na = float(np.max(np.abs(H.eig_A.values)))
    nc = float(np.max(np.abs(H.eig_C.values)))
    return float(-(na + nc) / 2.0 + np.hypot((na - nc) / 2.0, float(s[-1])))


def winklmeier_certificate(H: BlockSaddle) -> GapCertificate:
    """The Winklmeier radius r as the interval (-r, r), empty when r <= 0.

    quantities["raw_bound"] keeps the radius as computed, void or not.
    """
    b = winklmeier_bound(H)
    return GapCertificate(
        method="winklmeier",
        interval=(-b, b) if b > 0.0 else (0.0, 0.0),
        claim="excludes_all",
        inv_norm_bound=None,
        quantities={"raw_bound": b},
    )


def func_calc_AC(A: np.ndarray, C: np.ndarray, f0: float, f1) -> np.ndarray:
    """Evaluate f(AC) = f0 I + A C^(1/2) f1(C^(1/2) A C^(1/2)) C^(1/2).

    Meaningful for functions with f(x) = f0 + x f1(x); the inner argument
    is symmetric PSD, so f1 only ever sees the nonnegative eigenvalues.
    """
    A, C, _, (wc, VC) = _psd_pair(A, C)
    R = (VC * np.sqrt(np.clip(wc, 0.0, None))) @ VC.T
    X = R @ A @ R  # symmetric up to rounding of order eps ||A|| ||C||, not of ||X||
    w, V = np.linalg.eigh((X + X.T) / 2.0)
    w = np.clip(w, 0.0, None)
    vals = np.asarray([float(f1(x)) for x in w])
    F = (V * vals) @ V.T
    return f0 * np.eye(A.shape[0]) + A @ R @ F @ R


@dataclass(frozen=True)
class Quartic4x4Params:
    """Parameters of the 4x4 closed form for H = [[A, B], [B*, -A]].

    A = [[a_plus, a], [conj(a), a_minus]] is Hermitian; B has diagonal
    b_plus, b_minus and off-diagonal b with lower entry sign*conj(b).
    sign=+1 makes B Hermitian (real diagonal); sign=-1 makes it
    anti-Hermitian (purely imaginary diagonal).  Complex entries are
    passed as (re, im) pairs.
    """

    a_plus: float
    a_minus: float
    a: tuple[float, float] = (0.0, 0.0)
    b: tuple[float, float] = (0.0, 0.0)
    b_plus: tuple[float, float] = (0.0, 0.0)
    b_minus: tuple[float, float] = (0.0, 0.0)
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.sign == -1 and (self.b_plus[0] != 0.0 or self.b_minus[0] != 0.0):
            raise ValueError("sign = -1 requires purely imaginary b_plus, b_minus")
        if self.sign == 1 and (self.b_plus[1] != 0.0 or self.b_minus[1] != 0.0):
            raise ValueError("sign = +1 requires real b_plus, b_minus")

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        a = complex(*self.a)
        b = complex(*self.b)
        bp = complex(*self.b_plus)
        bm = complex(*self.b_minus)
        A = np.array([[self.a_plus, a], [np.conj(a), self.a_minus]])
        B = np.array([[bp, b], [self.sign * np.conj(b), bm]])
        return A, B

    def assemble(self) -> np.ndarray:
        A, B = self.blocks()
        return np.block([[A, B], [B.conj().T, -A]])


def eig_4x4(p: Quartic4x4Params) -> np.ndarray:
    """All four eigenvalues of the parametrized 4x4, ascending.

    The characteristic polynomial is biquadratic, lambda^4 - 2s lambda^2
    + c0 with c0 = |det M|^2, M = A - iB (sign +1) or A - B (sign -1), so
    the spectrum is plus/minus two square roots.  For consistent
    parameters s is half the trace of G = M M^H, and the discriminant
    s^2 - c0 equals ((g11 - g22)/2)^2 + |g12|^2.  The root is taken from
    that sum of squares, which stays exact at a double pair, where
    s^2 - c0 is a rounded zero whose square root would split the pair by
    about sqrt(eps) relative.
    """
    A, B = p.blocks()
    s = (
        p.a_plus**2
        + p.a_minus**2
        + abs(complex(*p.b_plus)) ** 2
        + abs(complex(*p.b_minus)) ** 2
    ) / 2.0 + abs(complex(*p.a)) ** 2 + abs(complex(*p.b)) ** 2
    M = A - 1j * B if p.sign == 1 else A - B
    c0 = abs(np.linalg.det(M)) ** 2
    disc = s * s - c0
    if disc < -1e-12 * s * s:
        raise NegativeDiscriminant(f"s^2 - c0 = {disc:.3e} < 0; parameters inconsistent")
    G = M @ M.conj().T
    root = float(np.hypot((G[0, 0].real - G[1, 1].real) / 2.0, abs(G[0, 1])))
    lo = np.sqrt(max(s - root, 0.0))
    hi = np.sqrt(s + root)
    return np.array([-hi, -lo, lo, hi])


_SCALED_A = np.array([[1.24, 0.81], [0.81, 0.53]])
_SCALED_B = np.array([[0.30, -0.27], [-0.31, -0.48]])


def nonmono_curve(t_grid: np.ndarray, family: str) -> np.ndarray:
    """Distance of the spectrum to zero along a one-parameter family.

    Families: "kirsch_Bt" uses A = [[2,-1],[-1,2]] with B_t = diag(1, t);
    "scaled_A" scales a fixed indefinite-coupling pair as [[tA, B],
    [B^T, -tA]]; "simple" uses A_t = diag(0, t) with antisymmetric unit
    coupling, whose determinant stays 1 for every t.  Returns rows
    (t, min |eigenvalue|).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    mins = np.zeros(t_grid.size)
    if family == "kirsch_Bt":
        for i, t in enumerate(t_grid):
            p = Quartic4x4Params(2.0, 2.0, a=(-1.0, 0.0), b_plus=(1.0, 0.0), b_minus=(t, 0.0))
            mins[i] = eig_4x4(p)[2]
    elif family == "scaled_A":
        for i, t in enumerate(t_grid):
            H = np.block([[t * _SCALED_A, _SCALED_B], [_SCALED_B.T, -t * _SCALED_A]])
            mins[i] = float(np.min(np.abs(np.linalg.eigvalsh(H))))
    elif family == "simple":
        Bs = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for i, t in enumerate(t_grid):
            A = np.diag([0.0, t])
            H = np.block([[A, Bs], [Bs.T, -A]])
            det = float(np.linalg.det(H))
            if abs(det - 1.0) > 1e-10:
                raise ArithmeticError(f"unit determinant drifted: det = {det!r} at t = {t}")
            mins[i] = float(np.min(np.abs(np.linalg.eigvalsh(H))))
    else:
        raise ValueError(f"unknown family {family!r}")
    return np.column_stack([t_grid, mins])


def omladic_pair(t: float) -> tuple[np.ndarray, np.ndarray]:
    """PSD pair with ||(I + AC)^{-1}|| = ||[[2, -t], [-1/t, 2]]||/3, unbounded in t."""
    A = np.diag([t, 1.0 / t])
    C = np.array([[1.0 / t, 1.0], [1.0, t]])
    return A, C


def boettcher_matrix() -> np.ndarray:
    """Diagonalizable M with positive spectrum whose I + M inverts badly."""
    return np.array([[1.0, 0.0, 0.0], [-20.0, 1.1, 0.0], [0.0, -20.0, 1.2]])


def boettcher_psd_split() -> tuple[np.ndarray, np.ndarray]:
    """PSD factors A, C with AC equal to the boettcher matrix.

    Built from its eigenvector matrix U and eigenvalues L as A = U L^(1/2) U^T,
    C = U^{-T} L^(1/2) U^{-1}; U is very ill-conditioned, so the product
    reproduces M only to about 1e-11.
    """
    U = np.array([[1.0, 0.0, 0.0], [200.0, 1.0, 0.0], [20000.0, 200.0, 1.0]])
    S = np.diag(np.sqrt([1.0, 1.1, 1.2]))
    Uinv = np.linalg.inv(U)
    return U @ S @ U.T, Uinv.T @ S @ Uinv


@dataclass(frozen=True)
class CounterexampleReport:
    """Computed evidence against the bounded-inverse conjecture."""

    omladic: list[tuple[float, float, float]]  # (t, computed norm, closed form)
    boettcher_norm: float
    boettcher_inv_norm: float
    conjecture_violated: bool
    boettcher_split_residual: float
    commuting_inv_norm: float


def counterexample_suite() -> CounterexampleReport:
    """Evaluate the inverse-norm counterexamples of the I + AC problem.

    The omladic family shows ||(I + AC)^{-1}|| growing like t/3; the
    boettcher matrix violates ||(I + AC)^{-1}|| <= ||I + AC|| outright;
    a commuting pair is included as the contrast where the conjectured
    inequality does hold.
    """
    n3 = np.eye(3)
    rows = []
    for t in (1.0, 10.0, 100.0):
        A, C = omladic_pair(t)
        computed = linalg.op_norm(np.linalg.inv(np.eye(2) + A @ C))
        closed = linalg.op_norm(np.array([[2.0, -t], [-1.0 / t, 2.0]])) / 3.0
        rows.append((t, computed, closed))
    M = boettcher_matrix()
    norm = linalg.op_norm(n3 + M)
    inv_norm = linalg.op_norm(np.linalg.inv(n3 + M))
    As, Cs = boettcher_psd_split()
    # the factors reach norm ~4e8, so the residual only means anything
    # relative to the scale ||As|| ||Cs|| ~ 2e17 at which it was formed
    residual = linalg.op_norm(As @ Cs - M) / (linalg.op_norm(As) * linalg.op_norm(Cs))
    Ac = np.diag([1.0, 2.0])
    commuting = linalg.op_norm(np.linalg.inv(np.eye(2) + Ac @ Ac))
    return CounterexampleReport(
        omladic=rows,
        boettcher_norm=norm,
        boettcher_inv_norm=inv_norm,
        conjecture_violated=inv_norm > norm,
        boettcher_split_residual=residual,
        commuting_inv_norm=commuting,
    )
