"""Finite-volume graphene-type chain: builders, secular roots, gap scans.

The deterministic model lives on 2m sites: A is the 0/1 tridiagonal
adjacency of a path, B the antisymmetric +-1 coupling, and
H_c = [[A + 2cI, B], [-B, -A - 2cI]].  Conjugating with the orthogonal
involution U = (1/sqrt 2)[[I, I], [I, -I]] gives K_c = 2[[0, T_c],
[T_c^T, 0]] with T_c lower bidiagonal (diagonal c, subdiagonal 1), so
sigma(H_c) = +-2 sv(T_c) and the Gram matrix W_c = T_{-c}^T T_{-c} is
the tridiagonal whose eigenvalues the secular equation parameterizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRegime, RootCountMismatch
from .linalg import Bidiagonal, bidiag_svd_hra

TWO53 = float(1 << 53)


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform diagonal disorder law on [low, high] with a fixed seed."""

    low: float
    high: float
    seed: int
    law: str = "uniform"

    def __post_init__(self):
        if self.law != "uniform":
            raise ValueError(f"only the uniform law is supported, got {self.law!r}")
        if not self.high >= self.low:
            raise ValueError(f"empty disorder range [{self.low}, {self.high}]")


@dataclass(frozen=True)
class ModelSpec:
    m: int
    c: float = 0.0
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        if not self.c >= 0.0:
            raise ValueError(f"c must be nonnegative, got {self.c}")
        if self.disorder is not None and self.c != 0.0:
            raise ValueError("disordered model carries its shift in the law's mean; set c = 0")


@dataclass(frozen=True)
class SecularRoots:
    """Roots of the secular equation in the spectral parameter alpha.

    trig_roots lie in (0, pi) and map to eigenvalues of W_c through
    lambda = c^2 + 1 - 2c cos(alpha).  hyp_root, present for c < 1 once
    m(1-c) - c > 0, carries the hyperbolic root alpha1 < alpha0 and the
    log of its (possibly denormal) eigenvalue.  alpha_hat = arccos(1/c)
    marks the sign change of 1 - c cos(alpha) when c > 1.
    """

    trig_roots: np.ndarray
    hyp_root: tuple[float, float] | None
    alpha_hat: float | None


@dataclass(frozen=True)
class SpuriousEstimate:
    """Asymptotics of the spurious central pair for 0 < c < 1."""

    alpha0: float
    log_lambda_est: float
    log_sigma_est: float


@dataclass(frozen=True)
class StableGap:
    radius: float


def _uniform(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    # 53-bit mantissa scaling keeps the draw identical across platforms
    u = rng.integers(0, 1 << 53, size=size, dtype=np.int64) / TWO53
    return low + (high - low) * u


def draw_disorder(spec: ModelSpec) -> np.ndarray:
    if spec.disorder is None:
        raise ValueError("spec has no disorder law")
    rng = np.random.default_rng(spec.disorder.seed)
    return _uniform(rng, spec.disorder.low, spec.disorder.high, spec.m)


def build_blocks(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency block A (plus disorder if drawn) and coupling block B."""
    m = spec.m
    A = np.zeros((m, m))
    B = np.zeros((m, m))
    idx = np.arange(m - 1)
    A[idx, idx + 1] = 1.0
    A[idx + 1, idx] = 1.0
    B[idx, idx + 1] = 1.0
    B[idx + 1, idx] = -1.0
    if spec.disorder is not None:
        A[np.diag_indices(m)] += draw_disorder(spec)
    return A, B


def _diagonal_block(spec: ModelSpec) -> np.ndarray:
    A, _ = build_blocks(spec)
    if spec.disorder is None:
        A[np.diag_indices(spec.m)] += 2.0 * spec.c
    return A


def build_Hc(spec: ModelSpec) -> np.ndarray:
    """Assemble H = [[D, B], [-B, -D]] with D = A + 2cI (or A_omega)."""
    D = _diagonal_block(spec)
    _, B = build_blocks(spec)
    return np.block([[D, B], [-B, -D]])


def _x_bidiagonal(spec: ModelSpec) -> Bidiagonal:
    # X = D - B is lower bidiagonal: diagonal 2c (or omega), subdiagonal 2
    if spec.disorder is None:
        d = np.full(spec.m, 2.0 * spec.c)
    else:
        d = draw_disorder(spec)
    return Bidiagonal(d, np.full(spec.m - 1, 2.0), "lower")


def build_Kc(spec: ModelSpec) -> np.ndarray:
    """K = U H U = [[0, X], [X^T, 0]] with X = D - B, assembled exactly."""
    X = _x_bidiagonal(spec).dense()
    Z = np.zeros((spec.m, spec.m))
    return np.block([[Z, X], [X.T, Z]])


def build_Tc(spec: ModelSpec) -> Bidiagonal:
    """The lower bidiagonal factor T_c with diagonal c and subdiagonal 1."""
    if spec.disorder is not None:
        raise ValueError("T_c is defined for the deterministic model only")
    return Bidiagonal(np.full(spec.m, spec.c), np.ones(spec.m - 1), "lower")


def build_Wc(spec: ModelSpec) -> np.ndarray:
    """Gram matrix W_c = T_{-c}^T T_{-c}: tridiagonal (-c, c^2+1, -c), corner c^2."""
    if spec.disorder is not None:
        raise ValueError("W_c is defined for the deterministic model only")
    m, c = spec.m, spec.c
    W = np.diag(np.full(m, c * c + 1.0))
    W[m - 1, m - 1] = c * c
    idx = np.arange(m - 1)
    W[idx, idx + 1] = -c
    W[idx + 1, idx] = -c
    return W


def hc_spectrum(spec: ModelSpec) -> np.ndarray:
    """All 2m eigenvalues of H, ascending, via the bidiagonal SVD route.

    sigma(H) = +-sv(X) with X = D - B, so every eigenvalue, including a
    denormal central pair, is computed to high relative accuracy.
    """
    s = bidiag_svd_hra(_x_bidiagonal(spec))
    return np.sort(np.concatenate([-s, s]))


def _alpha0(c: float) -> float:
    return float(np.arccosh((c * c + 1.0) / (2.0 * c)))


def lambda_of_alpha(c: float, alpha) -> np.ndarray | float:
    """Dispersion lambda = c^2 + 1 - 2c cos(alpha), evaluated stably."""
    return (1.0 - c) ** 2 + 4.0 * c * np.sin(np.asarray(alpha) / 2.0) ** 2


def _F(m: int, c: float, al: np.ndarray | float):
    # smooth form of the secular function: zeros match tan form away from poles
    return (1.0 - c * np.cos(al)) * np.sin(m * al) - c * np.cos(m * al) * np.sin(al)


def _dF(m: int, c: float, al: float) -> float:
    return float(
        (1.0 + m) * c * np.sin(al) * np.sin(m * al)
        + m * (1.0 - c * np.cos(al)) * np.cos(m * al)
        - c * np.cos(al) * np.cos(m * al)
    )


def tan_residual(m: int, c: float, al: float) -> float:
    """Residual of the tangent form of the secular equation at alpha."""
    return float(np.tan(m * al) * (1.0 - c * np.cos(al)) / np.sin(al) - c)


def _bisect(f, lo: float, hi: float, iters: int) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _log_sinh(x: float) -> float:
    if x < 1e-4:
        return float(np.log(x) + x * x / 6.0)
    if x < 20.0:
        return float(np.log(np.sinh(x)))
    return float(x - np.log(2.0) + np.log1p(-np.exp(-2.0 * x)))


def _hyp_root(m: int, c: float) -> tuple[float, float]:
    """Hyperbolic secular root as (alpha1, log lambda1), solved in delta = alpha0 - alpha1.

    The substitution 1 - c e^(alpha0 - delta) = -expm1(-delta) removes
    the cancellation that makes the tanh form unusable once the root is
    exponentially close to the band edge; bisection runs on log(delta)
    so roots down to delta ~ e^(-600) resolve at full relative accuracy.
    """
    a0 = _alpha0(c)
    if 2.0 * m * a0 > 600.0:
        # delta underflows; the first asymptotic term is exact to < 1e-200
        log_lam = 2.0 * np.log1p(-c * c) + 2.0 * m * np.log(c)
        return a0, float(log_lam)

    def h(delta: float) -> float:
        al = a0 - delta
        if delta <= 0.5 * a0:
            E = np.exp(-2.0 * m * al)
            r = 2.0 * E / (1.0 + E)
            q = (1.0 - c * np.cosh(al)) / np.sinh(al)
            return float(-np.expm1(-delta) / np.sinh(al) - r * q)
        return float(np.tanh(m * al) * (1.0 - c * np.cosh(al)) / np.sinh(al) - c)

    guess = (1.0 - c * c) * np.exp(-2.0 * m * a0)
    lo_u = np.log(guess) - 30.0
    hi_u = np.log(a0 * (1.0 - 1e-12))
    u = _bisect(lambda t: h(np.exp(t)), lo_u, hi_u, 120)
    delta = float(np.exp(u))
    log_lam = np.log(4.0 * c) + _log_sinh(a0 - delta / 2.0) + _log_sinh(delta / 2.0)
    return a0 - delta, float(log_lam)


def secular_solve(spec: ModelSpec) -> SecularRoots:
    """All m roots of the secular equation for W_c, split by branch.

    Trigonometric roots are bracketed between the poles of tan(m alpha)
    (plus the sign change of 1 - c cos(alpha) when c > 1), bisected on
    the smooth form and polished by Newton.  The hyperbolic root, when
    m(1-c) - c > 0 demands one, is solved separately near alpha0.
    """
    if spec.disorder is not None:
        raise ValueError("secular equation is defined for the deterministic model only")
    m, c = spec.m, spec.c
    if c <= 0.0:
        raise OutOfRegime("secular equation needs c > 0")
    hyp = 0.0 < c < 1.0 and m * (1.0 - c) - c > 0.0
    expected = m - 1 if hyp else m

    pts = [1e-12] + [(2 * j - 1) * np.pi / (2 * m) for j in range(1, m + 1)] + [np.pi - 1e-12]
    alpha_hat = float(np.arccos(1.0 / c)) if c > 1.0 else None
    if alpha_hat is not None:
        # a pole coincidence would put a double zero at the bracket edge
        if min(abs(alpha_hat - p) for p in pts) < 1e-9:
            pts += [alpha_hat - 1e-9, alpha_hat + 1e-9]
        else:
            pts.append(alpha_hat)
    pts = sorted(p for p in pts if 0.0 < p < np.pi)

    roots = []
    vals = [float(_F(m, c, p)) for p in pts]
    for (lo, flo), (hi, fhi) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if flo == 0.0:
            roots.append(lo)
            continue
        if (flo < 0.0) == (fhi < 0.0):
            continue
        al = _bisect(lambda t: float(_F(m, c, t)), lo, hi, 80)
        for _ in range(3):
            d = _dF(m, c, al)
            if d == 0.0:
                break
            step = float(_F(m, c, al)) / d
            if not lo < al - step < hi:
                break
            al -= step
        roots.append(al)
    roots = sorted(set(roots))
    if len(roots) != expected:
        raise RootCountMismatch(
            f"found {len(roots)} trigonometric roots for m={m}, c={c}, expected {expected}"
        )
    hyp_root = _hyp_root(m, c) if hyp else None
    return SecularRoots(np.asarray(roots), hyp_root, alpha_hat)


def secular_eigenvalues(spec: ModelSpec) -> np.ndarray:
    """sigma(W_c) from the secular roots, ascending."""
    sr = secular_solve(spec)
    lams = [lambda_of_alpha(spec.c, a) for a in sr.trig_roots]
    if sr.hyp_root is not None:
        lams.append(float(np.exp(sr.hyp_root[1])))
    return np.sort(np.asarray(lams, dtype=float))


def spurious_estimate(spec: ModelSpec) -> SpuriousEstimate:
    """Size of the spurious central pair: lambda1 ~ (1-c^2)^2 c^(2m).

    Valid for 0 < c < 1.  log_sigma_est is half of log_lambda_est, the
    log of the matching singular value of T_c.
    """
    c = spec.c
    if not 0.0 < c < 1.0:
        raise OutOfRegime(f"spurious pair exists for 0 < c < 1 only, got c = {c}")
    a0 = _alpha0(c)
    log_lambda = 2.0 * float(np.log1p(-c * c)) + 2.0 * spec.m * float(np.log(c))
    return SpuriousEstimate(a0, log_lambda, log_lambda / 2.0)


def stable_gap(c: float) -> StableGap:
    """The dimension-independent gap radius 2|c - 1| of the model family."""
    if not c >= 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return StableGap(2.0 * abs(c - 1.0))


def stable_gap_check(m: int, c: float) -> dict:
    """Count eigenvalues of H_c inside the stable gap and check the pattern.

    The gap holds exactly the spurious pair where 0 <= c < 1 and
    m (1 - c) > c, and nothing otherwise (c >= 1, or too few sites for
    the pair to form).  The pair is exactly zero at c = 0 and, once deep
    enough in the asymptotic regime (2 m alpha0 >= 10), within a percent
    of twice the estimated singular value.
    """
    radius = stable_gap(c).radius
    evals = hc_spectrum(ModelSpec(m, c))
    inside = evals[np.abs(evals) < radius] if radius > 0.0 else evals[:0]
    pair = 0.0 <= c < 1.0 and m * (1.0 - c) > c
    expected = 2 if pair else 0
    ok = inside.size == expected
    central = np.sort(np.abs(evals))[:2]
    if c == 0.0:
        ok = ok and central[1] == 0.0
    elif pair:
        est = spurious_estimate(ModelSpec(m, c))
        if 2.0 * m * est.alpha0 >= 10.0:
            ok = ok and central[1] <= 2.0 * np.exp(est.log_sigma_est) * (1.0 + 1e-2)
    return {
        "m": m,
        "c": c,
        "radius": radius,
        "inside_count": int(inside.size),
        "expected_count": expected,
        "central_abs": [float(central[0]), float(central[1])],
        "ok": bool(ok),
    }


def build_modified(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-modified pair (K_tilde, H_tilde).

    K_tilde adds +2 at the first and -2 at the last diagonal entry of K;
    back in the H picture that is rank-two on each block: A gains
    e1 e1^T - em em^T, B gains e1 e1^T + em em^T.
    """
    m = spec.m
    Kt = build_Kc(spec)
    Kt[0, 0] += 2.0
    Kt[2 * m - 1, 2 * m - 1] -= 2.0
    D = _diagonal_block(spec)
    _, B = build_blocks(spec)
    E = np.zeros((m, m))
    E[0, 0] = 1.0
    F = np.zeros((m, m))
    F[m - 1, m - 1] = 1.0
    Ht = np.block([[D + E - F, B + E + F], [(B + E + F).T, -D + E - F]])
    return Kt, Ht


def modified_spectrum_closed_form(spec: ModelSpec) -> np.ndarray:
    """Eigenvalues of H_tilde^2: 4 + 4c^2 - 4c kappa_k, each twice, ascending."""
    if spec.disorder is not None:
        raise ValueError("closed form is for the deterministic model only")
    m, c = spec.m, spec.c
    k = np.arange(1, m + 1)
    kappa = -2.0 * np.cos((2 * k - 1) * np.pi / (2 * m))
    return np.sort(np.repeat(4.0 + 4.0 * c * c - 4.0 * c * kappa, 2))


def symbol_spectrum(c: float) -> tuple[tuple[float, float], tuple[tuple[float, float], tuple[float, float]]]:
    """Essential spectra of the infinite-volume symbols.

    The W symbol c^2 + 1 - 2c cos covers [(1-c)^2, (1+c)^2]; the H bands
    are the plus/minus square-root images scaled by 2.
    """
    if not c >= 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    w_lo, w_hi = (1.0 - c) ** 2, (1.0 + c) ** 2
    h_lo, h_hi = 2.0 * abs(1.0 - c), 2.0 * (1.0 + c)
    return (w_lo, w_hi), ((-h_hi, -h_lo), (h_lo, h_hi))


@dataclass(frozen=True)
class DisorderReport:
    """Spectra and symmetry diagnostics of one disorder draw."""

    eigenvalues: np.ndarray
    near_zero: np.ndarray
    central_magnitude: float
    symmetry_defect: float
    surrounding_edge: float
    modified_eigenvalues: np.ndarray
    modified_min_abs: float
    modified_symmetry_defect: float


def disorder_experiment(spec: ModelSpec, count_near_zero: int = 4) -> DisorderReport:
    """Spectra of H_omega and its boundary modification for one seed.

    H_omega keeps the +- symmetry (its eigenvalues are +-sv(A_omega - B),
    computed to high relative accuracy, so the exponentially small
    central pair is meaningful); the boundary modification breaks the
    symmetry and purges the central pair.  A lone small eigenvalue can
    survive for draws whose near-kernel vector localizes away from the
    modified corners, but never a symmetric pair of them.
    """
    if spec.disorder is None:
        raise ValueError("disorder_experiment needs a disorder law")
    evals = hc_spectrum(spec)
    order = np.argsort(np.abs(evals), kind="stable")
    near = np.sort(evals[order[:count_near_zero]])
    abs_sorted = np.sort(np.abs(evals))
    dense = np.linalg.eigvalsh(build_Hc(spec))
    defect = float(np.max(np.abs(dense + dense[::-1])))
    wt = np.linalg.eigvalsh(build_modified(spec)[1])
    return DisorderReport(
        eigenvalues=evals,
        near_zero=near,
        central_magnitude=float(abs_sorted[1]),
        symmetry_defect=defect,
        surrounding_edge=float(abs_sorted[2]),
        modified_eigenvalues=wt,
        modified_min_abs=float(np.min(np.abs(wt))),
        modified_symmetry_defect=float(np.max(np.abs(wt + wt[::-1]))),
    )


def gap_scan(M_list, delta: float, m: int, seed: int) -> list[tuple[float, str, int, float]]:
    """Spectra of H_omega and H_tilde_omega over a grid of disorder means.

    Each grid point M draws omega ~ U[M - delta, M + delta] from its own
    stream (seed + index).  Returns rows (M, variant, index, eigenvalue)
    with 1-based ascending indices, 2m rows per variant per M.
    """
    rows: list[tuple[float, str, int, float]] = []
    for i, M in enumerate(M_list):
        spec = ModelSpec(m, 0.0, DisorderSpec(M - delta, M + delta, seed + i))
        for variant, evals in (
            ("H", hc_spectrum(spec)),
            ("Htilde", np.linalg.eigvalsh(build_modified(spec)[1])),
        ):
            rows.extend((float(M), variant, j + 1, float(v)) for j, v in enumerate(evals))
    return rows
