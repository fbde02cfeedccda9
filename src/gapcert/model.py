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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, OutOfRegime, RootCountMismatch
from .linalg import EPS, bidiag_svd_hra, sturm_count, sturm_error_bound, tridiag_eigvalsh

TWO53 = float(1 << 53)


@dataclass(frozen=True)
class DisorderSpec:
    """Uniform diagonal disorder law on [low, high] with a fixed seed."""

    low: float
    high: float
    seed: int

    def __post_init__(self):
        if not np.isfinite(float(self.high) - float(self.low)):
            raise OutOfRegime(f"disorder range [{self.low}, {self.high}] must have finite ends and width")
        if not self.high >= self.low:
            raise OutOfRegime(f"empty disorder range [{self.low}, {self.high}]")


@dataclass(frozen=True)
class ModelSpec:
    m: int
    c: float = 0.0
    disorder: DisorderSpec | None = None

    def __post_init__(self):
        if not 2 <= self.m < np.inf or int(self.m) != self.m:
            raise OutOfRegime(f"m must be an integer >= 2, got {self.m}")
        object.__setattr__(self, "m", int(self.m))
        _mass(self.c)
        if self.disorder is not None and self.c != 0.0:
            raise OutOfRegime("disordered model carries its shift in the law's mean; set c = 0")

    @cached_property
    def diagonal(self) -> np.ndarray:
        """The diagonal of D = A + 2cI: 2c, or the disorder draw, drawn once and read-only."""
        d = np.full(self.m, _finite(2.0 * self.c, "2c", self.c)) if self.disorder is None else draw_disorder(self)
        d.flags.writeable = False
        return d


class SecularRoots(NamedTuple):
    """Roots of the secular equation in the spectral parameter alpha.

    trig_roots lie in (0, pi) and map to eigenvalues of W_c through
    lambda = c^2 + 1 - 2c cos(alpha).  hyp_root, present where
    has_central_pair(m, c), carries the hyperbolic root alpha1 < alpha0
    and the log of its (possibly denormal) eigenvalue.  alpha_hat =
    arccos(1/c) marks the sign change of 1 - c cos(alpha) when c > 1.
    """

    trig_roots: np.ndarray
    hyp_root: tuple[float, float] | None
    alpha_hat: float | None


class SpuriousEstimate(NamedTuple):
    """Asymptotics of the spurious central pair for 0 < c < 1."""

    alpha0: float
    log_lambda_est: float
    log_sigma_est: float


def _mass(c: float) -> None:
    # the mass rule of the model family: c nonnegative and finite
    if not c >= 0.0:
        raise OutOfRegime(f"c must be nonnegative, got {c}")
    if c == np.inf:
        raise OutOfRegime("c must be finite, got inf")


def _uniform(rng: np.random.Generator, low: float, high: float, size: int) -> np.ndarray:
    # 53-bit mantissa scaling keeps the draw identical across platforms
    u = rng.integers(0, 1 << 53, size=size, dtype=np.int64) / TWO53
    return low + (high - low) * u


def draw_disorder(spec: ModelSpec) -> np.ndarray:
    if spec.disorder is None:
        raise OutOfRegime("spec has no disorder law")
    rng = np.random.default_rng(spec.disorder.seed)
    return _uniform(rng, spec.disorder.low, spec.disorder.high, spec.m)


def _stack(spec: ModelSpec | Sequence[ModelSpec], deterministic: str = "") -> tuple[tuple[ModelSpec, ...], bool]:
    # a sequence of specs of one size m is a stack; one spec is the one-element case.  A
    # nonempty `deterministic` names what is defined without a disorder law only
    single = isinstance(spec, ModelSpec)
    specs = (spec,) if single else tuple(spec)
    if not specs or any(s.m != specs[0].m for s in specs):
        raise DimensionMismatch("a stack of specs needs one or more specs of one size m")
    if deterministic and any(s.disorder is not None for s in specs):
        raise OutOfRegime(f"{deterministic} is defined for the deterministic model only")
    return specs, single


def _one(stack: np.ndarray, single: bool) -> np.ndarray:
    # the matrix of a one-spec call, the whole stack otherwise
    return stack[0] if single else stack


def build_Hc(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Assemble H = [[D, B], [-B, -D]] with D = A + 2cI (A_omega, c = 0 under disorder).

    A sequence of specs of one size m gives the (k, 2m, 2m) stack of their
    matrices; one spec is the one-element case, returned as a matrix.
    """
    specs, single = _stack(spec)
    d = np.array([s.diagonal for s in specs])
    k, m = d.shape
    H = np.zeros((k, 2 * m, 2 * m))
    i, j = np.arange(m), np.arange(m - 1)
    H[:, i, i] = d
    H[:, j, j + 1] = 1.0
    H[:, j + 1, j] = 1.0
    H[:, j, m + j + 1] = 1.0
    H[:, j + 1, m + j] = -1.0
    np.negative(H[:, :m, m:], out=H[:, m:, :m])
    np.negative(H[:, :m, :m], out=H[:, m:, m:])
    return _one(H, single)


def build_Kc(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """K = U H U = [[0, X], [X^T, 0]] with X = D - B, assembled exactly; stacks as build_Hc.

    X is lower bidiagonal: diagonal D's (2c, or the draw), subdiagonal 2.
    """
    specs, single = _stack(spec)
    d = np.array([s.diagonal for s in specs])
    k, m = d.shape
    K = np.zeros((k, 2 * m, 2 * m))
    i, j = np.arange(m), np.arange(m - 1)
    K[:, i, m + i] = d
    K[:, j + 1, m + j] = 2.0
    K[:, m + i, i] = d
    K[:, m + j, j + 1] = 2.0
    return _one(K, single)


def _masses(spec: ModelSpec | Sequence[ModelSpec], name: str) -> tuple[np.ndarray, int, bool]:
    # (c, m, single) of a deterministic stack, c as a (k, 1) column
    specs, single = _stack(spec, name)
    return np.array([[s.c] for s in specs]), specs[0].m, single


def _finite(x, what: str, c):
    # x, a quantity of the mass c (a float or a column), must not overflow the float range
    if not np.isfinite(x).all():
        raise OverflowError(f"{what} overflows the float range at c = {np.max(c):g}")
    return x


def _c_squared(c: np.ndarray) -> np.ndarray:
    # c * c of a mass column; H's squared eigenvalues reach 4 c^2, which must stay finite
    with np.errstate(over="ignore"):
        c2 = c * c
        _finite(4.0 * c2, "4 c^2", c)
    return c2


def build_Wc(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Gram matrix W_c = T_{-c}^T T_{-c}: tridiagonal (-c, c^2+1, -c), corner c^2; stacks as build_Hc."""
    c, m, single = _masses(spec, "W_c")
    c2 = _c_squared(c)
    W = np.zeros((c.size, m, m))
    i, j = np.arange(m), np.arange(m - 1)
    W[:, i, i] = c2 + 1.0
    W[:, -1, -1] = c2[:, 0]
    W[:, j, j + 1] = -c
    W[:, j + 1, j] = -c
    return _one(W, single)


def hc_spectrum(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """All 2m eigenvalues of H, ascending, via the bidiagonal SVD route.

    sigma(H) = +-sv(X) with X = D - B, so every eigenvalue, including a
    denormal central pair, is computed to high relative accuracy.  X's
    bands are D's diagonal and a subdiagonal of 2s.  A stack of specs
    gives a (k, 2m) stack of spectra, one bidiag_svd_hra call per spec.
    """
    specs, single = _stack(spec)
    s = np.array([bidiag_svd_hra(sp.diagonal, np.full(sp.m - 1, 2.0)) for sp in specs])
    return _one(np.sort(np.concatenate([-s, s], axis=-1), axis=-1), single)


def has_central_pair(m: int, c: float) -> bool:
    """Whether H_c on 2m sites has the spurious central pair: 0 <= c < 1 and m (1 - c) > c."""
    return 0.0 <= c < 1.0 and m * (1.0 - c) > c


def _alpha0(c: float) -> float:
    # arccosh((c^2 + 1) / (2c)) = -log c for 0 < c < 1; the arccosh argument
    # rounds to 1 + (1-c)^2/(2c) and loses the relative accuracy of alpha0 as
    # c -> 1, while -log c keeps it (and c e^alpha0 = 1, which _hyp_root uses)
    return float(-np.log(c))


def lambda_of_alpha(c: float, alpha) -> np.ndarray | float:
    """Dispersion lambda = c^2 + 1 - 2c cos(alpha), evaluated stably; OverflowError if it overflows."""
    # a Python float's ** raises a bare OverflowError; numpy's gives inf for _finite to name c
    with np.errstate(over="ignore"):
        lam = np.float64(1.0 - c) ** 2 + 4.0 * c * np.sin(np.asarray(alpha) / 2.0) ** 2
    return _finite(lam, "lambda = c^2 + 1 - 2c cos(alpha)", c)


def _F(m: int, c: float, al: np.ndarray | float):
    # smooth form of the secular function: zeros match tan form away from poles
    return (1.0 - c * np.cos(al)) * np.sin(m * al) - c * np.cos(m * al) * np.sin(al)


def _newton(f, lo: np.ndarray, hi: np.ndarray, al: np.ndarray, neg: np.ndarray):
    """Bracket-safeguarded Newton on every bracket [lo[i], hi[i]] of the elementwise f together.

    neg[i] tells whether f < 0 at lo[i], and al holds the start points.
    Each pass evaluates f once, at al + ih with h = 1e-100: f is real
    analytic, so the real part is f(al) and the imaginary part over h is
    f'(al) to rounding (the complex-step derivative), both from one set
    of sin/cos values.  The sign of f(al) moves one end of the bracket
    to al; the Newton point is taken where it stays inside the bracket,
    the bracket's midpoint otherwise.  A lane is done, and keeps its
    value, once its Newton step is within 4 eps of al (rounding level).
    Returns the points and the done mask after at most 10 passes.
    """
    h = 1e-100
    tol = 4.0 * np.finfo(float).eps
    sign = np.where(neg, -1.0, 1.0)
    done = np.zeros(al.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(10):
            z = f(al + 1j * h)
            g = sign * z.real
            lo = np.where(g >= 0.0, al, lo)
            hi = np.where(g <= 0.0, al, hi)
            nxt = al - z.real / (z.imag / h)
            small = np.abs(nxt - al) <= tol * np.abs(al)
            inside = (lo <= nxt) & (nxt <= hi)
            # a rounding-level step that leaves the bracket keeps al
            nxt = np.where(inside, nxt, np.where(small, al, 0.5 * (lo + hi)))
            al = np.where(done, al, nxt)
            done |= small
            if done.all():
                break
    return al, done


def _bisect(f, lo: float, hi: float, iters: int) -> float:
    """Bisect the bracket [lo, hi] of f for at most iters steps.

    f is flipped to be nonnegative at lo, a sign lo keeps throughout, so a
    negative midpoint value moves hi, a positive one lo, and an exact zero
    both, which closes the bracket on that midpoint.  Once the midpoint
    repeats the previous one the bracket can no longer change and every
    later step would repeat the last, so the loop stops there.
    """
    sign = -1.0 if f(lo) < 0.0 else 1.0
    mid = np.nan
    for _ in range(iters):
        prev, mid = mid, 0.5 * (lo + hi)
        if mid == prev:
            break
        g = sign * f(mid)
        if g <= 0.0:
            hi = mid
        if g >= 0.0:
            lo = mid
    return 0.5 * (lo + hi)


def _log_lambda_asymptote(m: int, c: float) -> float:
    # log of the first asymptotic term (1 - c^2)^2 c^(2m) of lambda1
    return float(2.0 * np.log1p(-c * c) + 2.0 * m * np.log(c))


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
    exponentially close to the band edge, so that form is used for
    delta <= alpha0/2 and the tanh form beyond.  The root is bisected in
    u = log(delta), so roots down to delta ~ e^(-600) resolve at full
    relative accuracy; beyond 2 m alpha0 > 600 the asymptote is exact.
    _bisect evaluates h at every midpoint, about 55 times, until the
    midpoint repeats.
    """
    a0 = _alpha0(c)
    if 2.0 * m * a0 > 600.0:
        # delta underflows; the first asymptotic term is exact to < 1e-200
        return a0, _log_lambda_asymptote(m, c)

    def h(u: float) -> float:
        delta = np.exp(u)
        al = a0 - delta
        s = np.sinh(al)
        num = 1.0 - c * np.cosh(al)
        if delta <= 0.5 * a0:
            E = np.exp(-2.0 * m * al)
            return -np.expm1(-delta) / s - 2.0 * E / (1.0 + E) * (num / s)
        return np.tanh(m * al) * num / s - c

    guess = (1.0 - c * c) * np.exp(-2.0 * m * a0)
    # the bracket is narrower than 2^10 and no two doubles lie closer than
    # 2^-1074, so it collapses in fewer than 1100 halvings: the cap never binds
    u = _bisect(h, np.log(guess) - 30.0, np.log(a0 * (1.0 - 1e-12)), 1100)
    delta = float(np.exp(u))
    log_lam = np.log(4.0 * c) + _log_sinh(a0 - delta / 2.0) + _log_sinh(delta / 2.0)
    return a0 - delta, float(log_lam)


def secular_solve(spec: ModelSpec | Sequence[ModelSpec]) -> SecularRoots | list[SecularRoots]:
    """All m roots of the secular equation for W_c, split by branch.

    Trigonometric roots are bracketed between the poles of tan(m alpha)
    (plus the sign change of 1 - c cos(alpha) when c > 1).  The smooth
    form is evaluated once on all bracket points, and every
    sign-changing bracket is solved together by _newton, started from
    the phase form of the smooth secular function.  That takes 3 to 6
    array evaluations in all.  Lanes still moving after 10 passes hold
    roots in the rounding noise of F (near m (1 - c) = c, where the
    smallest root tends to 0); each is finished alone by _bisect, at
    most 80 steps on its bracket.  The hyperbolic root, when
    has_central_pair demands one, is solved separately near alpha0 by
    _hyp_root.

    A sequence of specs of one size m is solved as one batch and gives a
    list of roots, one per spec: the brackets of every mass share the
    evaluation of F and the _newton call, each lane carrying its own c.
    A lane takes the same steps in a batch as alone, so each mass gets
    the roots of its own solve, bit for bit.  The root count check and
    the hyperbolic root stay per mass.
    """
    specs, single = _stack(spec, "secular equation")
    if any(s.c <= 0.0 for s in specs):
        raise OutOfRegime("secular equation needs c > 0")
    # lambda(pi) = (1 + c)^2 tops the band: refused here, before _newton divides by an overflow
    lambda_of_alpha(np.array([s.c for s in specs]), np.pi)
    m = specs[0].m

    poles = (2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)
    ends = np.concatenate(([1e-12], poles, [np.pi - 1e-12]))

    def points(extra) -> np.ndarray:
        pts = np.concatenate((ends, extra))
        return np.sort(pts[(0.0 < pts) & (pts < np.pi)])

    plain = points([])
    grids, hats = [], []
    for s in specs:
        alpha_hat = float(np.arccos(1.0 / s.c)) if s.c > 1.0 else None
        hats.append(alpha_hat)
        if alpha_hat is None:
            grids.append(plain)
        # a pole coincidence would put a double zero at the bracket edge
        elif np.min(np.abs(alpha_hat - ends)) < 1e-9:
            grids.append(points([alpha_hat - 1e-9, alpha_hat + 1e-9]))
        else:
            grids.append(points([alpha_hat]))
    sizes = [g.size for g in grids]
    pts = np.concatenate(grids)
    owner = np.repeat(np.arange(len(specs)), sizes)
    cs = np.repeat([s.c for s in specs], sizes)
    vals = _F(m, cs, pts)
    # a bracket joins two neighbouring points of one mass
    inner = owner[:-1] == owner[1:]
    exact = inner & (vals[:-1] == 0.0)
    bracket = inner & ~exact & ((vals[:-1] < 0.0) != (vals[1:] < 0.0))
    lo, hi, c = pts[:-1][bracket], pts[1:][bracket], cs[:-1][bracket]
    # phase form F = r sin(m alpha - theta(alpha)): a root solves
    # m alpha = j pi + theta(alpha); theta at the bracket's midpoint starts it
    mid = 0.5 * (lo + hi)
    theta = np.arctan2(c * np.sin(mid), 1.0 - c * np.cos(mid))
    j = np.round((m * mid - theta) / np.pi)
    start = np.clip((j * np.pi + theta) / m, lo, hi)
    al, done = _newton(lambda t: _F(m, c, t), lo, hi, start, vals[:-1][bracket] < 0.0)
    # roots in F's rounding noise (near m (1 - c) = c): bisect each on its bracket
    for i in np.flatnonzero(~done):
        al[i] = _bisect(partial(_F, m, c[i]), lo[i], hi[i], 80)
    lanes, zeros = owner[:-1][bracket], owner[:-1][exact]
    solved = []
    for i, s in enumerate(specs):
        roots = np.unique(np.concatenate((pts[:-1][exact][zeros == i], al[lanes == i])))
        hyp = has_central_pair(m, s.c)
        expected = m - 1 if hyp else m
        if roots.size != expected:
            raise RootCountMismatch(
                f"found {roots.size} trigonometric roots for m={m}, c={s.c}, expected {expected}"
            )
        solved.append(SecularRoots(roots, _hyp_root(m, s.c) if hyp else None, hats[i]))
    return solved[0] if single else solved


def secular_eigenvalues(spec: ModelSpec, sr: SecularRoots) -> np.ndarray:
    """sigma(W_c) from the secular roots sr = secular_solve(spec), ascending."""
    lams = lambda_of_alpha(spec.c, sr.trig_roots)
    if sr.hyp_root is not None:
        lams = np.append(lams, np.exp(sr.hyp_root[1]))
    return np.sort(lams)


def secular_hc_spectrum(spec: ModelSpec, sr: SecularRoots) -> np.ndarray:
    """All 2m eigenvalues of H_c (c > 0), ascending, from sr = secular_solve(spec).

    sigma(H_c) = +-2 sqrt(sigma(W_c)): each trigonometric root gives
    2 sqrt(lambda_of_alpha), and the hyperbolic root gives the central
    pair 2 exp(log lambda1 / 2), which stays accurate where lambda1 itself
    would underflow.  No matrix is formed: O(m) memory, no factorization.
    """
    s = 2.0 * np.sqrt(lambda_of_alpha(spec.c, sr.trig_roots))
    if sr.hyp_root is not None:
        s = np.append(s, 2.0 * np.exp(sr.hyp_root[1] / 2.0))
    return np.sort(np.concatenate([-s, s]))


def spurious_estimate(spec: ModelSpec) -> SpuriousEstimate:
    """Size of the spurious central pair: lambda1 ~ (1-c^2)^2 c^(2m).

    Valid for 0 < c < 1.  log_sigma_est is half of log_lambda_est, the
    log of the matching singular value of T_c.
    """
    c = spec.c
    if not 0.0 < c < 1.0:
        raise OutOfRegime(f"spurious pair exists for 0 < c < 1 only, got c = {c}")
    log_lambda = _log_lambda_asymptote(spec.m, c)
    return SpuriousEstimate(_alpha0(c), log_lambda, log_lambda / 2.0)


def stable_gap(c: float) -> float:
    """The dimension-independent gap radius 2|c - 1| of the model family."""
    _mass(c)
    return 2.0 * abs(c - 1.0)


def stable_gap_check(m: int, c: float) -> dict:
    """Count eigenvalues of H_c inside the stable gap and check the pattern.

    Route: for c > 0 the spectrum comes from the secular equation
    (secular_hc_spectrum), with no dense matrix; at c = 0, where the
    secular equation does not apply, from the bidiagonal SVD
    (hc_spectrum).  stable_gap_pattern counts and judges it.
    """
    spec = ModelSpec(m, c)
    evals = hc_spectrum(spec) if c == 0.0 else secular_hc_spectrum(spec, secular_solve(spec))
    return stable_gap_pattern(m, c, evals)


def stable_gap_pattern(m: int, c: float, evals: np.ndarray) -> dict:
    """Count the eigenvalues evals of H_c inside the stable gap and check the pattern.

    The gap holds exactly the spurious pair where has_central_pair(m, c),
    and nothing otherwise (c >= 1, or too few sites for the pair to
    form).  The pair is exactly zero at c = 0 and, once deep
    enough in the asymptotic regime (2 m alpha0 >= 10), within a percent
    of twice the estimated singular value.
    """
    radius = stable_gap(c)
    inside = evals[np.abs(evals) < radius] if radius > 0.0 else evals[:0]
    pair = has_central_pair(m, c)
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


def build_Htilde(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Boundary-modified H_tilde: H_c with eight boundary entries changed; stacks as build_Hc.

    A gains e1 e1^T - em em^T and B gains e1 e1^T + em em^T, a rank-two
    change on each block.
    """
    H = build_Hc(spec)
    m = H.shape[-1] // 2
    first, last = [0, m], [m - 1, 2 * m - 1]
    H[(...,) + np.ix_(first, first)] += 1.0
    H[(...,) + np.ix_(last, last)] += [[-1.0, 1.0], [1.0, -1.0]]
    return H


def modified_spectrum_closed_form(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Eigenvalues of H_tilde^2, each twice, ascending; stacks as build_Hc.

    They are 4 lambda_of_alpha(c, (2k - 1) pi / (2m)) for k = 1..m.
    """
    c, m, single = _masses(spec, "the closed form")
    _c_squared(c)  # the largest square is about 4 c^2, which must stay finite
    alpha = (2 * np.arange(1, m + 1) - 1) * np.pi / (2 * m)
    lam = np.array([lambda_of_alpha(ci, alpha) for ci in c[:, 0]])
    return _one(np.sort(np.repeat(4.0 * lam, 2, axis=1), axis=1), single)


def ktilde_bands(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """K_tilde as a symmetric tridiagonal (diagonal, off-diagonal), built in O(m).

    K_tilde is build_Kc's matrix with +2 at its first and -2 at its last
    diagonal entry.  The perfect shuffle (t_1, b_1, t_2, b_2, ...) of its
    halves puts X_ii = d_i between t_i and b_i and X_{i+1,i} = 2 between
    b_i and t_{i+1}, with d = spec.diagonal: the diagonal is (2, 0, ...,
    0, -2) and the off-diagonal (d_1, 2, d_2, 2, ..., d_m).  The shuffle is
    a permutation and K_tilde = U H_tilde U, so this is an orthogonal
    similarity of the matrix build_Htilde assembles, entry for entry.
    """
    m = spec.m
    diag = np.zeros(2 * m)
    diag[0], diag[-1] = 2.0, -2.0
    off = np.full(2 * m - 1, 2.0)
    off[0::2] = spec.diagonal
    return diag, off


def k0_square_defect(m: int) -> float:
    """max |K_tilde^2 - 4I| at c = 0, from the tridiagonal bands of ktilde_bands.

    For a tridiagonal T with diagonal a and off-diagonal e, T^2 has the
    bands (T^2)_ii = a_i^2 + e_{i-1}^2 + e_i^2, (T^2)_{i,i+1} = e_i (a_i +
    a_{i+1}) and (T^2)_{i,i+2} = e_i e_{i+1}; the shuffle leaves the largest
    entry unchanged.  At c = 0 every entry is a small integer, so a correct
    K_tilde gives exactly 0.
    """
    a, e = ktilde_bands(ModelSpec(m, 0.0))
    e2 = np.concatenate(([0.0], e * e, [0.0]))
    bands = (a * a + e2[:-1] + e2[1:] - 4.0, e * (a[:-1] + a[1:]), e[:-1] * e[1:])
    return float(max(np.max(np.abs(b)) for b in bands))


class CertifiedSpectrum(NamedTuple):
    """Eigenvalues, ascending, each within certified_radius of its counterpart in sigma(H_tilde)."""

    values: np.ndarray
    certified_radius: float


def modified_spectrum_certified(spec: ModelSpec) -> CertifiedSpectrum:
    """sigma(H_tilde) from the closed form, proved by one Sturm count of ktilde_bands.

    The values are +-2 sqrt(lambda_k), the square roots of
    modified_spectrum_closed_form.  The bands' diagonal (2, 0, ..., 0, -2)
    is minus its reversal and their off-diagonal (2c, 2, ..., 2, 2c) a
    palindrome, so with J the reversal and S = diag((-1)^i), J K_tilde J =
    -S K_tilde S holds exactly in floating point: the spectrum is its own
    mirror about 0.  With G the Gershgorin bound and delta = 64 eps G,
    positive values whose intervals [v - delta, v + delta] overlap form a
    cluster (the lowest must start above 0), and sturm_count must find m plus
    the number of positive values below each cluster's two ends.  Then the
    j-th value, ascending, and the j-th eigenvalue of the floating-point
    H_tilde lie in one cluster or its mirror widened by delta + beta, beta
    = sturm_error_bound (the count's a priori backward error), so they
    differ by at most spread + delta + beta + eps G = certified_radius,
    where spread is the widest cluster's extent (0 when no cluster holds
    two distinct values, as at c = 0) and eps G covers the rounding of the
    shifts.  No matrix is formed and no LAPACK routine runs: at most 2m
    shifts and O(m^2) flops in O(m) array steps.  Unmirrored bands or a
    count that disagrees raise RootCountMismatch: the closed form is a
    theorem, so that is a bug.
    """
    m, c = spec.m, spec.c
    # sqrt(4 lambda) is 2 sqrt(lambda) exactly: scaling by 4 commutes with rounding
    s = np.sqrt(modified_spectrum_closed_form(spec)[::2])
    a, e = ktilde_bands(spec)
    ae = np.abs(e)
    gersh = float(np.max(np.abs(a) + np.concatenate(([0.0], ae)) + np.concatenate((ae, [0.0]))))
    delta = 64.0 * EPS * gersh
    first = np.flatnonzero(np.concatenate(([True], np.diff(s) > 2.0 * delta)))
    stop = np.append(first[1:], m)
    shifts = np.concatenate((s[first] - delta, s[stop - 1] + delta))
    if not (np.array_equal(a[::-1], -a) and np.array_equal(e[::-1], e) and shifts[0] > 0.0):
        raise RootCountMismatch(f"H_tilde (m={m}, c={c}): its bands are not mirrored or a cluster spans 0")
    counts = sturm_count(a, e, shifts)
    want = m + np.concatenate((first, stop))
    if not np.array_equal(counts, want):
        j = int(np.flatnonzero(counts != want)[0])
        raise RootCountMismatch(f"H_tilde (m={m}, c={c}): Sturm count {counts[j]} below {shifts[j]:.17g},"
                                f" expected {want[j]}")
    radius = float(np.max(s[stop - 1] - s[first])) + delta + sturm_error_bound(e) + EPS * gersh
    return CertifiedSpectrum(np.concatenate((-s[::-1], s)), radius)


def symbol_spectrum(c: float) -> tuple[tuple[float, float], tuple[tuple[float, float], tuple[float, float]]]:
    """Essential spectra of the infinite-volume symbols.

    The W symbol c^2 + 1 - 2c cos covers [(1-c)^2, (1+c)^2]; the H bands
    are the plus/minus square-root images scaled by 2, the inner end the stable gap.
    """
    h_lo, h_hi = stable_gap(c), 2.0 * (1.0 + c)
    # numpy's ** gives inf past the float range, for _finite to name c, as in lambda_of_alpha
    with np.errstate(over="ignore"):
        w_lo, w_hi = np.float64(1.0 - c) ** 2, _finite(np.float64(1.0 + c) ** 2, "(1 + c)^2", c)
    return (float(w_lo), float(w_hi)), ((-h_hi, -h_lo), (h_lo, h_hi))


def gap_scan(M_list, delta: float, m: int, seed: int) -> tuple[list, list, list, list]:
    """Spectra of H_omega and H_tilde_omega over a grid of disorder means.

    Each grid point M draws omega ~ U[M - delta, M + delta] once, from its
    own stream (seed + index), for both spectra.  H_omega's come from the
    bidiagonal SVD (hc_spectrum), H_tilde_omega's from the tridiagonal of
    ktilde_bands (tridiag_eigvalsh); no 2m x 2m matrix is built.  Returns four
    columns (M, variant, index, eigenvalue): per M, H_omega's 2m eigenvalues
    and then H_tilde_omega's, each ascending with 1-based indices.
    """
    means, variants, evals = [], [], []
    for i, M in enumerate(M_list):
        spec = ModelSpec(m, 0.0, DisorderSpec(M - delta, M + delta, seed + i))
        means += [float(M)] * (4 * m)
        variants += ["H"] * (2 * m) + ["Htilde"] * (2 * m)
        evals += hc_spectrum(spec).tolist() + tridiag_eigvalsh(*ktilde_bands(spec)).tolist()
    return means, variants, list(range(1, 2 * m + 1)) * (2 * len(M_list)), evals
