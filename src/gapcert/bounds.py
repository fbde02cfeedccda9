"""Gap certificates and inverse-norm bounds for symmetric saddle matrices.

The central object is H = [[A, B], [B^T, -C]] with A and C positive
semidefinite.  Each certificate produces an open interval that the
spectrum of H provably avoids (entirely, or up to the eigenvalue zero),
together with the scalar quantities the bound is built from.  Every
certificate reads the factorizations a `BlockSaddle` keeps, so a saddle
is factorized once however many certificates it gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatch, FormMismatch, NotDefinite, OutOfRegime, RankDeficient


def _read_only(arrays):
    # cached factors are shared by every certificate that reads them
    for a in arrays:
        a.flags.writeable = False
    return arrays


# hypothesis -> (test on a BlockSaddle, class, message) for BlockSaddle.require.  The quasi-definite
# class is A_definite + C_definite and the Stokes form C_zero; each rank test reads the shape
# before B_full_rank, so a B of the wrong shape is refused without its SVD.
HYPOTHESES = {
    "A_definite": (lambda S: linalg.definite(S.eig_A.values), NotDefinite, "A must be positive definite"),
    "C_definite": (lambda S: linalg.definite(S.eig_C.values), NotDefinite, "C must be positive definite"),
    "B_square_full_rank": (lambda S: S.m == S.k and S.B_full_rank, RankDeficient, "B must be square and of full rank"),
    "B_full_column_rank": (lambda S: S.k <= S.m and S.B_full_rank, RankDeficient, "B must have full column rank"),
    "BT_full_column_rank": (lambda S: S.m <= S.k and S.B_full_rank, RankDeficient, "B^T must have full column rank"),
    "C_zero": (lambda S: not S.C.any(), FormMismatch, "C must be zero (the Stokes form)"),
    "C_equals_A": (lambda S: S.C_equals_A, FormMismatch, "C must be bit-equal to A (the Kirsch form)"),
}


def check_shapes(A_shape: tuple[int, ...], B_shape: tuple[int, ...], C_shape: tuple[int, ...]) -> None:
    """The shapes H = [[A, B], [B^T, -C]] needs: A and C square, B m x k.

    Checked before any block is factorized.
    """
    linalg.require_square(A_shape, "A")
    linalg.require_square(C_shape, "C")
    if tuple(B_shape) != (A_shape[0], C_shape[0]):
        raise DimensionMismatch(f"B must be {A_shape[0]}x{C_shape[0]}, got {B_shape[0]}x{B_shape[1]}")


@dataclass(frozen=True)
class BlockSaddle:
    """Blocks of H = [[A, B], [B^T, -C]]; A and C symmetric positive semidefinite.

    Validation keeps the eigenpairs of A and C (`eig_A`, `eig_C`; C shares
    A's when `C_equals_A`, C bit-equal to A).  The SVD of B, `B_full_rank`
    and the spectrum of H are computed on first use and kept.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = linalg.require_finite(self.A, "A")
        C = linalg.require_finite(self.C, "C")
        B = np.atleast_2d(linalg.require_finite(self.B, "B"))
        check_shapes(A.shape, B.shape, C.shape)
        eig_A = linalg.sym_eig(A, "A")
        C_equals_A = C.shape == A.shape and C.tobytes() == A.tobytes()
        eig_C = eig_A if C_equals_A else linalg.sym_eig(C, "C")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "eig_A", _read_only(eig_A))
        object.__setattr__(self, "eig_C", _read_only(eig_C))
        object.__setattr__(self, "C_equals_A", C_equals_A)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.C.shape[0]

    def assemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.B.T, -self.C]])

    def require(self, *names: str) -> None:
        """Refuse the saddle at the first of the named HYPOTHESES it fails, in the order given."""
        for name in names:
            test, error, message = HYPOTHESES[name]
            if not test(self):
                raise error(message)

    @cached_property
    def svd_B(self):
        """Thin SVD of B as (U, S, Vh), singular values descending."""
        return _read_only(np.linalg.svd(self.B, full_matrices=False))

    @cached_property
    def B_full_rank(self) -> bool:
        """Whether B has rank min(m, k): its singular values are definite at max(m, k) eps."""
        return linalg.definite(self.svd_B[1], max(self.m, self.k) * linalg.EPS)

    @cached_property
    def eigvals_H(self) -> np.ndarray:
        """Eigenvalues of the assembled H, ascending; OverflowError if one leaves the float range."""
        w = np.linalg.eigvalsh(self.assemble())
        if not np.isfinite(w).all():
            raise OverflowError("the spectrum of H overflows the float range")
        return _read_only([w])[0]


class GapCertificate(NamedTuple):
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
    quantities: dict[str, float]


def diag_gap(H: BlockSaddle) -> GapCertificate:
    """Gap interval (-min sigma(C), min sigma(A)) from the diagonal blocks alone.

    Requires both blocks positive definite; no eigenvalue of H lies in the
    open interval, and ||H^{-1}|| <= 1/min(min sigma(A), min sigma(C)).
    """
    H.require("A_definite", "C_definite")
    a, c = float(H.eig_A.values[0]), float(H.eig_C.values[0])
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
    H.require("A_definite", "C_definite")
    (wa, VA), (wc, VC) = H.eig_A, H.eig_C
    a, c = float(wa[0]), float(wc[0])
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


def hbinv_certificate(H: BlockSaddle) -> GapCertificate:
    """Gap certificate driven by invertibility of B rather than of A and C.

    With alpha, gamma the relative bounds of A and C against |B^T|, |B|,
    ||H^{-1}|| <= ||B^{-1}|| (1 + max(alpha, gamma) + alpha gamma).
    Works for semidefinite A, C; H is nonsingular whenever B is.
    """
    H.require("B_square_full_rank")
    U, s, Vh = H.svd_B
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


def zero_dichotomy_certificate(H: BlockSaddle) -> GapCertificate:
    """Gap certificate for semidefinite A, C with matching null-space dimensions.

    Splitting both halves into range and null parts leaves a quasi-definite
    core coupled to an off-diagonal pair through B22, the restriction of B
    between the null spaces.  If B22 is invertible, H is nonsingular and

        ||H^{-1}|| <= (1 + max(||B12 B22^{-1}||, ||B21^T B22^{-T}||))^2
                      * max(||A1^{-1}||, ||C1^{-1}||, ||B22^{-1}||).
    """
    (wa, VA), (wc, VC) = H.eig_A, H.eig_C
    null_a, null_c = linalg.negligible(wa), linalg.negligible(wc)
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
            raise RankDeficient("restriction of B between N(A) and N(C) is singular")
        inv_parts.append(1.0 / float(s22[-1]))
        B12 = RA.T @ H.B @ NC
        B21 = NA.T @ H.B @ RC
        if B12.size:
            coupling = max(coupling, linalg.op_norm(np.linalg.solve(B22.T, B12.T).T))
        if B21.size:
            coupling = max(coupling, linalg.op_norm(np.linalg.solve(B22, B21).T))
    if not inv_parts:
        raise DimensionMismatch("both blocks are zero-dimensional")
    eps = 1.0 / ((1.0 + coupling) ** 2 * max(inv_parts))
    return GapCertificate(
        method="zero_dichotomy",
        interval=(-eps, eps),
        claim="excludes_all",
        # eps underflows to 0 where max(inv_parts) overflows; the printed inf is then refused
        inv_norm_bound=1.0 / eps if eps else np.inf,
        quantities={"epsilon": eps, "null_dim": float(p), "coupling": coupling},
    )


def kirsch_certificate(H: BlockSaddle) -> GapCertificate:
    """Gap radius sqrt(min sigma(A)^2 + min sigma(B)^2) for H = [[A, B], [B, -A]].

    C must be bit-equal to A (`C_equals_A`), and A, B symmetric positive
    semidefinite, one of them definite.  Reads the eigenvalues of A the
    saddle keeps; only B is factorized.
    """
    H.require("C_equals_A")
    wa, wb = H.eig_A.values, linalg.sym_eig(H.B, "B").values
    if not (linalg.definite(wa) or linalg.definite(wb)):
        raise NotDefinite("both A and B have smallest eigenvalue zero")
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


def winklmeier_bound(H: BlockSaddle) -> float:
    """Quadratic-numerical-range gap radius; may come out <= 0 (void bound).

    Value: -(||A|| + ||C||)/2 + sqrt((||A|| - ||C||)^2/4 + 1/||B^{-1}||^2).
    """
    H.require("B_square_full_rank")
    _, s, _ = H.svd_B
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
            raise OutOfRegime(f"sign must be +1 or -1, got {self.sign}")
        if self.sign == -1 and (self.b_plus[0] != 0.0 or self.b_minus[0] != 0.0):
            raise OutOfRegime("sign = -1 requires purely imaginary b_plus, b_minus")
        if self.sign == 1 and (self.b_plus[1] != 0.0 or self.b_minus[1] != 0.0):
            raise OutOfRegime("sign = +1 requires real b_plus, b_minus")

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        a = complex(*self.a)
        b = complex(*self.b)
        bp = complex(*self.b_plus)
        bm = complex(*self.b_minus)
        A = np.array([[self.a_plus, a], [np.conj(a), self.a_minus]])
        B = np.array([[bp, b], [self.sign * np.conj(b), bm]])
        return A, B


def eig_4x4(p: Quartic4x4Params) -> np.ndarray:
    """All four eigenvalues of the parametrized 4x4, ascending.

    The characteristic polynomial is biquadratic, lambda^4 - 2s lambda^2
    + c0 with c0 = |det M|^2, M = A - iB (sign +1) or A - B (sign -1), so
    the spectrum is plus/minus two square roots.  For consistent
    parameters s is half the trace of G = M M^H, and the discriminant
    s^2 - c0 equals ((g11 - g22)/2)^2 + |g12|^2.  The large root hi =
    sqrt(s + root) takes root from that sum of squares, which stays exact
    at a double pair, where s^2 - c0 is a rounded zero whose square root
    would split the pair by about sqrt(eps) relative.  The small root is
    lo = |det M| / hi by Vieta's rule (lo hi = sqrt(c0)), which keeps its
    relative accuracy where sqrt(s - root) cancels once s >> lo^2.
    OverflowError once s leaves the float range.
    """
    A, B = p.blocks()
    M = A - 1j * B if p.sign == 1 else A - B
    with np.errstate(over="ignore", invalid="ignore"):
        # products, not **, so that squares past the float range give inf, which the check below names
        a, b, bp, bm = (abs(complex(*z)) for z in (p.a, p.b, p.b_plus, p.b_minus))
        s = (p.a_plus * p.a_plus + p.a_minus * p.a_minus + bp * bp + bm * bm) / 2.0 + a * a + b * b
        # the 2x2 formula: np.linalg.det goes through log|det| and loses digits as |det| grows
        det = abs(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
        # relative to s^2, so that the test still decides where s^2 overflows
        disc = 1.0 - (det / s) ** 2
        G = M @ M.conj().T
        root = np.hypot((G[0, 0].real - G[1, 1].real) / 2.0, abs(G[0, 1]))
        hi = float(np.sqrt(s + root))
    if not np.isfinite(hi):
        raise OverflowError("s = tr(M M^H)/2 overflows the float range")
    if disc < -1e-12:
        raise OutOfRegime(f"1 - c0/s^2 = {disc:.3e} < 0; parameters inconsistent")
    lo = det / hi if hi > 0.0 else 0.0
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
            try:
                mins[i] = eig_4x4(p)[2]
            except OverflowError as exc:
                raise OverflowError(f"{exc} at t = {t:g}") from None
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
        raise OutOfRegime(f"unknown family {family!r}")
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


def counterexample_suite() -> dict:
    """Evaluate the inverse-norm counterexamples of the I + AC problem.

    The omladic family shows ||(I + AC)^{-1}|| growing like t/3; the
    boettcher matrix violates ||(I + AC)^{-1}|| <= ||I + AC|| outright;
    a commuting pair is included as the contrast where the conjectured
    inequality does hold.  Returns the record `gapcert counterexamples
    --format json` prints, without its curves.
    """
    n3 = np.eye(3)
    omladic = []
    for t in (1.0, 10.0, 100.0):
        A, C = omladic_pair(t)
        omladic.append({
            "t": t,
            "inverse_norm": linalg.op_norm(np.linalg.inv(np.eye(2) + A @ C)),
            "closed_form": linalg.op_norm(np.array([[2.0, -t], [-1.0 / t, 2.0]])) / 3.0,
        })
    M = boettcher_matrix()
    norm = linalg.op_norm(n3 + M)
    inv_norm = linalg.op_norm(np.linalg.inv(n3 + M))
    As, Cs = boettcher_psd_split()
    # the factors reach norm ~4e8, so the residual only means anything
    # relative to the scale ||As|| ||Cs|| ~ 2e17 at which it was formed
    residual = linalg.op_norm(As @ Cs - M) / (linalg.op_norm(As) * linalg.op_norm(Cs))
    Ac = np.diag([1.0, 2.0])
    return {
        "omladic": omladic,
        "boettcher": {"norm": norm, "inverse_norm": inv_norm, "psd_split_residual": residual},
        "commuting_inverse_norm": linalg.op_norm(np.linalg.inv(np.eye(2) + Ac @ Ac)),
        "conjecture_violated": inv_norm > norm,
    }
