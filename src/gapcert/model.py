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
    lambda = c^2 + 1 - 2c cos(alpha).  hyp_root, present where
    has_central_pair(m, c), carries the hyperbolic root alpha1 < alpha0
    and the log of its (possibly denormal) eigenvalue.  alpha_hat =
    arccos(1/c) marks the sign change of 1 - c cos(alpha) when c > 1.
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


def _stack(spec: ModelSpec | Sequence[ModelSpec]) -> tuple[tuple[ModelSpec, ...], bool]:
    # a sequence of specs of one size m is a stack; one spec is the one-element case
    if isinstance(spec, ModelSpec):
        return (spec,), True
    specs = tuple(spec)
    if not specs or any(s.m != specs[0].m for s in specs):
        raise ValueError("a stack of specs needs one or more specs of one size m")
    return specs, False


def _one(stack: np.ndarray, single: bool) -> np.ndarray:
    # the matrix of a one-spec call, the whole stack otherwise
    return stack[0] if single else stack


def _diagonals(specs: tuple[ModelSpec, ...], omega: np.ndarray | None) -> np.ndarray:
    """The (k, m) stack of the diagonals of D = A + 2cI: 2c, or the disorder draw omega.

    omega, when given, is the stack's disorder already drawn (draw_disorder
    of each spec), so a caller building several operators draws once.
    """
    if omega is None:
        return np.array([np.full(s.m, 2.0 * s.c) if s.disorder is None else draw_disorder(s) for s in specs])
    if any(s.disorder is None for s in specs):
        raise ValueError("omega is the draw of a disorder law; the spec has none")
    return np.reshape(np.asarray(omega, dtype=float), (len(specs), specs[0].m))


def build_Hc(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> np.ndarray:
    """Assemble H = [[D, B], [-B, -D]] with D = A + 2cI (A_omega, c = 0 under disorder).

    A sequence of specs of one size m gives the (k, 2m, 2m) stack of their
    matrices; one spec is the one-element case, returned as a matrix.
    omega is the disorder draw, if the caller holds it (see _diagonals).
    """
    specs, single = _stack(spec)
    d = _diagonals(specs, omega)
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


def build_blocks(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency block A (plus disorder if drawn) and coupling block B."""
    m = spec.m
    H = build_Hc(ModelSpec(m, 0.0, spec.disorder))
    return H[:m, :m].copy(), H[:m, m:].copy()


def _x_bidiagonal(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> Bidiagonal:
    # X = D - B is lower bidiagonal: diagonal 2c (or omega), subdiagonal 2
    specs, single = _stack(spec)
    d = _diagonals(specs, omega)
    return Bidiagonal(_one(d, single), _one(np.full_like(d[:, 1:], 2.0), single), "lower")


def build_Kc(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> np.ndarray:
    """K = U H U = [[0, X], [X^T, 0]] with X = D - B, assembled exactly; stacks as build_Hc."""
    X = _x_bidiagonal(spec, omega).dense()
    m = X.shape[-1]
    K = np.zeros(X.shape[:-2] + (2 * m, 2 * m))
    K[..., :m, m:] = X
    K[..., m:, :m] = X.swapaxes(-1, -2)
    return K


def _masses(spec: ModelSpec | Sequence[ModelSpec], name: str) -> tuple[np.ndarray, int, bool]:
    # (c, m, single) of a deterministic stack, c as a (k, 1) column
    specs, single = _stack(spec)
    if any(s.disorder is not None for s in specs):
        raise ValueError(f"{name} is defined for the deterministic model only")
    return np.array([[s.c] for s in specs]), specs[0].m, single


def build_Tc(spec: ModelSpec | Sequence[ModelSpec]) -> Bidiagonal:
    """The lower bidiagonal factor T_c with diagonal c and subdiagonal 1; stacks as build_Hc."""
    c, m, single = _masses(spec, "T_c")
    d = np.repeat(c, m, axis=1)
    return Bidiagonal(_one(d, single), _one(np.ones_like(d[:, 1:]), single), "lower")


def build_Wc(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Gram matrix W_c = T_{-c}^T T_{-c}: tridiagonal (-c, c^2+1, -c), corner c^2; stacks as build_Hc."""
    c, m, single = _masses(spec, "W_c")
    W = np.zeros((c.size, m, m))
    i, j = np.arange(m), np.arange(m - 1)
    W[:, i, i] = c * c + 1.0
    W[:, -1, -1] = (c * c)[:, 0]
    W[:, j, j + 1] = -c
    W[:, j + 1, j] = -c
    return _one(W, single)


def hc_spectrum(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> np.ndarray:
    """All 2m eigenvalues of H, ascending, via the bidiagonal SVD route.

    sigma(H) = +-sv(X) with X = D - B, so every eigenvalue, including a
    denormal central pair, is computed to high relative accuracy.  A
    stack of specs gives a (k, 2m) stack of spectra from one stacked SVD.
    """
    s = bidiag_svd_hra(_x_bidiagonal(spec, omega))
    return np.sort(np.concatenate([-s, s], axis=-1), axis=-1)


def has_central_pair(m: int, c: float) -> bool:
    """Whether H_c on 2m sites has the spurious central pair: 0 <= c < 1 and m (1 - c) > c."""
    return 0.0 <= c < 1.0 and m * (1.0 - c) > c


def _alpha0(c: float) -> float:
    # arccosh((c^2 + 1) / (2c)) = -log c for 0 < c < 1; the arccosh argument
    # rounds to 1 + (1-c)^2/(2c) and loses the relative accuracy of alpha0 as
    # c -> 1, while -log c keeps it (and c e^alpha0 = 1, which _hyp_root uses)
    return float(-np.log(c))


def lambda_of_alpha(c: float, alpha) -> np.ndarray | float:
    """Dispersion lambda = c^2 + 1 - 2c cos(alpha), evaluated stably."""
    return (1.0 - c) ** 2 + 4.0 * c * np.sin(np.asarray(alpha) / 2.0) ** 2


def _F(m: int, c: float, al: np.ndarray | float):
    # smooth form of the secular function: zeros match tan form away from poles
    return (1.0 - c * np.cos(al)) * np.sin(m * al) - c * np.cos(m * al) * np.sin(al)


def _dF(m: int, c: float, al: np.ndarray):
    return (
        (1.0 + m) * c * np.sin(al) * np.sin(m * al)
        + m * (1.0 - c * np.cos(al)) * np.cos(m * al)
        - c * np.cos(al) * np.cos(m * al)
    )


def _newton(f, lo: np.ndarray, hi: np.ndarray, al: np.ndarray, neg: np.ndarray, passes: int):
    """Bracket-safeguarded Newton on every bracket [lo[i], hi[i]] of the elementwise f together.

    neg[i] tells whether f < 0 at lo[i], and al holds the start points.
    Each pass evaluates f once, at al + ih with h = 1e-100: f is real
    analytic, so the real part is f(al) and the imaginary part over h is
    f'(al) to rounding (the complex-step derivative), both from one set
    of sin/cos values.  The sign of f(al) moves one end of the bracket
    to al; the Newton point is taken where it stays inside the bracket,
    the bracket's midpoint otherwise.  A lane is done, and keeps its
    value, once its Newton step is within 4 eps of al (rounding level).
    Returns the points and the done mask after at most `passes` passes.
    """
    h = 1e-100
    tol = 4.0 * np.finfo(float).eps
    sign = np.where(neg, -1.0, 1.0)
    done = np.zeros(al.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(passes):
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


def _bisect(f, lo: np.ndarray, hi: np.ndarray, iters: int) -> np.ndarray:
    """Bisect every bracket [lo[i], hi[i]] of the elementwise f together.

    Each lane takes the steps of a scalar bisection.  f is flipped to be
    nonnegative at lo, a sign lo keeps throughout, so a negative midpoint
    value moves hi, a positive one lo, and an exact zero both, which
    closes the lane on that midpoint.  Once every lane's midpoint repeats
    the previous one, the brackets can no longer change and every later
    step would repeat the last, so the loop stops there.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    sign = np.where(f(lo) < 0.0, -1.0, 1.0)
    mid = np.full_like(lo, np.nan)
    for _ in range(iters):
        prev, mid = mid, 0.5 * (lo + hi)
        if (mid == prev).all():
            break
        g = sign * f(mid)
        hi = np.where(g <= 0.0, mid, hi)
        lo = np.where(g >= 0.0, mid, lo)
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


def _illinois(h, a: float, b: float, fa: float, fb: float) -> float:
    """A root of h(u) in (a, b), u = log delta, by Illinois regula falsi in delta.

    fa = h(a) and fb = h(b) differ in sign.  The secant point in delta is a
    convex combination of exp(a) and exp(b), so it neither cancels nor
    underflows.  Returns the first exact zero, or the endpoint the secant
    point falls on once it can no longer move strictly inside the bracket
    (the bracket's midpoint if that takes more than 100 steps).
    """
    neg = fa < 0.0
    side = 0
    for _ in range(100):
        x = np.log(np.exp(a) * (fb / (fb - fa)) + np.exp(b) * (fa / (fa - fb)))
        if not a < x < b:
            return a if x <= a else b
        fx = h(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg:
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
    return 0.5 * (a + b)


def _hyp_root(m: int, c: float) -> tuple[float, float]:
    """Hyperbolic secular root as (alpha1, log lambda1), solved in delta = alpha0 - alpha1.

    The substitution 1 - c e^(alpha0 - delta) = -expm1(-delta) removes
    the cancellation that makes the tanh form unusable once the root is
    exponentially close to the band edge, so that form is used for
    delta <= alpha0/2 and the tanh form beyond.  The root is bisected in
    u = log(delta), so roots down to delta ~ e^(-600) resolve at full
    relative accuracy; beyond 2 m alpha0 > 600 the asymptote is exact.

    Route: a scalar Illinois regula falsi (_illinois) locates the root in
    about a dozen evaluations of h, and a window of relative width 1e-12
    in delta around it is checked to bracket the sign change.  The
    bisection of the full bracket then runs to adjacent floats but
    evaluates h only at midpoints inside the window; a midpoint outside
    takes the side the window lies on.  It so takes the steps of a plain
    bisection wherever the rounding noise of h stays inside the window,
    in about 30 evaluations of h instead of about 60.  If the window check
    fails, every midpoint is evaluated.
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
    lo, hi = np.log(guess) - 30.0, np.log(a0 * (1.0 - 1e-12))
    flo = h(lo)
    neg = flo < 0.0
    r = _illinois(h, lo, hi, flo, h(hi))
    w = 1e-12 * max(1.0, abs(r))
    a, b = max(lo, r - w), min(hi, r + w)
    if (h(a) < 0.0) != neg or (h(b) < 0.0) == neg:
        a, b = lo, hi
    mid = np.nan
    while True:
        prev, mid = mid, 0.5 * (lo + hi)
        if mid == prev:
            break
        if a < mid < b:
            g = -h(mid) if neg else h(mid)
        else:
            g = 1.0 if mid <= a else -1.0
        if g <= 0.0:
            hi = mid
        if g >= 0.0:
            lo = mid
    delta = float(np.exp(0.5 * (lo + hi)))
    log_lam = np.log(4.0 * c) + _log_sinh(a0 - delta / 2.0) + _log_sinh(delta / 2.0)
    return a0 - delta, float(log_lam)


def secular_solve(spec: ModelSpec | Sequence[ModelSpec]) -> SecularRoots | list[SecularRoots]:
    """All m roots of the secular equation for W_c, split by branch.

    Trigonometric roots are bracketed between the poles of tan(m alpha)
    (plus the sign change of 1 - c cos(alpha) when c > 1).  The smooth
    form is evaluated once on all bracket points, and every
    sign-changing bracket is solved together by _newton, started from
    the phase form of the smooth secular function.  That takes 3 to 6
    array evaluations in all (a bisection to adjacent floats took about
    57).  Lanes still moving after 10 passes hold roots in the rounding
    noise of F (near m (1 - c) = c, where the smallest root tends to 0);
    they are bisected on their brackets and polished by up to three
    Newton steps, as a bracket-by-bracket scalar loop would.  The
    hyperbolic root, when has_central_pair demands one, is solved
    separately near alpha0 by _hyp_root.

    A sequence of specs of one size m is solved as one batch and gives a
    list of roots, one per spec: the brackets of every mass share the
    evaluation of F, the _newton call and the fallback, each lane
    carrying its own c.  A lane takes the same steps in a batch as alone,
    so each mass gets the roots of its own solve, bit for bit.  The root
    count check and the hyperbolic root stay per mass.
    """
    specs, single = _stack(spec)
    for s in specs:
        if s.disorder is not None:
            raise ValueError("secular equation is defined for the deterministic model only")
        if s.c <= 0.0:
            raise OutOfRegime("secular equation needs c > 0")
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
    al, done = _newton(lambda t: _F(m, c, t), lo, hi, start, vals[:-1][bracket] < 0.0, 10)
    if not done.all():
        # roots in F's rounding noise (near m (1 - c) = c): bisect and polish
        slow = ~done
        lo, hi, cl = lo[slow], hi[slow], c[slow]
        b = _bisect(lambda t: _F(m, cl, t), lo, hi, 80)
        live = np.ones(b.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(3):
                d = _dF(m, cl, b)
                live &= d != 0.0
                nxt = b - _F(m, cl, b) / d
                live &= (lo < nxt) & (nxt < hi)
                b = np.where(live, nxt, b)
        al[slow] = b
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


def secular_eigenvalues(spec: ModelSpec, sr: SecularRoots | None = None) -> np.ndarray:
    """sigma(W_c) from the secular roots sr = secular_solve(spec), ascending."""
    if sr is None:
        sr = secular_solve(spec)
    lams = lambda_of_alpha(spec.c, sr.trig_roots)
    if sr.hyp_root is not None:
        lams = np.append(lams, np.exp(sr.hyp_root[1]))
    return np.sort(lams)


def secular_hc_spectrum(spec: ModelSpec, sr: SecularRoots | None = None) -> np.ndarray:
    """All 2m eigenvalues of H_c (c > 0), ascending, from sr = secular_solve(spec).

    sigma(H_c) = +-2 sqrt(sigma(W_c)): each trigonometric root gives
    2 sqrt(lambda_of_alpha), and the hyperbolic root gives the central
    pair 2 exp(log lambda1 / 2), which stays accurate where lambda1 itself
    would underflow.  No matrix is formed: O(m) memory, no factorization.
    """
    if sr is None:
        sr = secular_solve(spec)
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


def stable_gap(c: float) -> StableGap:
    """The dimension-independent gap radius 2|c - 1| of the model family."""
    if not c >= 0.0:
        raise ValueError(f"c must be nonnegative, got {c}")
    return StableGap(2.0 * abs(c - 1.0))


def stable_gap_check(m: int, c: float) -> dict:
    """Count eigenvalues of H_c inside the stable gap and check the pattern.

    Route: for c > 0 the spectrum comes from the secular equation
    (secular_hc_spectrum), with no dense matrix; at c = 0, where the
    secular equation does not apply, from the bidiagonal SVD
    (hc_spectrum).  stable_gap_pattern counts and judges it.
    """
    spec = ModelSpec(m, c)
    evals = hc_spectrum(spec) if c == 0.0 else secular_hc_spectrum(spec)
    return stable_gap_pattern(m, c, evals)


def stable_gap_pattern(m: int, c: float, evals: np.ndarray) -> dict:
    """Count the eigenvalues evals of H_c inside the stable gap and check the pattern.

    The gap holds exactly the spurious pair where has_central_pair(m, c),
    and nothing otherwise (c >= 1, or too few sites for the pair to
    form).  The pair is exactly zero at c = 0 and, once deep
    enough in the asymptotic regime (2 m alpha0 >= 10), within a percent
    of twice the estimated singular value.
    """
    radius = stable_gap(c).radius
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


def build_Htilde(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> np.ndarray:
    """Boundary-modified H_tilde: H_c with eight boundary entries changed; stacks as build_Hc.

    A gains e1 e1^T - em em^T and B gains e1 e1^T + em em^T, a rank-two
    change on each block.
    """
    H = build_Hc(spec, omega)
    m = H.shape[-1] // 2
    first, last = [0, m], [m - 1, 2 * m - 1]
    H[(...,) + np.ix_(first, first)] += 1.0
    H[(...,) + np.ix_(last, last)] += [[-1.0, 1.0], [1.0, -1.0]]
    return H


def build_Ktilde(spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None) -> np.ndarray:
    """Boundary-modified K_tilde: K with +2 at the first and -2 at the last diagonal entry.

    Back in the H picture that is build_Htilde's rank-two change.  Stacks
    as build_Hc.
    """
    Kt = build_Kc(spec, omega)
    Kt[..., 0, 0] += 2.0
    Kt[..., -1, -1] -= 2.0
    return Kt


def build_modified(
    spec: ModelSpec | Sequence[ModelSpec], omega: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-modified pair (K_tilde, H_tilde)."""
    return build_Ktilde(spec, omega), build_Htilde(spec, omega)


def modified_spectrum_closed_form(spec: ModelSpec | Sequence[ModelSpec]) -> np.ndarray:
    """Eigenvalues of H_tilde^2: 4 + 4c^2 - 4c kappa_k, each twice, ascending; stacks as build_Hc."""
    c, m, single = _masses(spec, "the closed form")
    k = np.arange(1, m + 1)
    kappa = -2.0 * np.cos((2 * k - 1) * np.pi / (2 * m))
    return _one(np.sort(np.repeat(4.0 + 4.0 * c * c - 4.0 * c * kappa, 2, axis=1), axis=1), single)


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
    omega = draw_disorder(spec)
    evals = hc_spectrum(spec, omega)
    order = np.argsort(np.abs(evals), kind="stable")
    near = np.sort(evals[order[:count_near_zero]])
    abs_sorted = np.sort(np.abs(evals))
    dense = np.linalg.eigvalsh(build_Hc(spec, omega))
    defect = float(np.max(np.abs(dense + dense[::-1])))
    wt = np.linalg.eigvalsh(build_Htilde(spec, omega))
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

    Each grid point M draws omega ~ U[M - delta, M + delta] once, from its
    own stream (seed + index), for both spectra.  Returns rows (M, variant, index, eigenvalue)
    with 1-based ascending indices, 2m rows per variant per M.
    """
    rows: list[tuple[float, str, int, float]] = []
    for i, M in enumerate(M_list):
        spec = ModelSpec(m, 0.0, DisorderSpec(M - delta, M + delta, seed + i))
        omega = draw_disorder(spec)
        for variant, evals in (
            ("H", hc_spectrum(spec, omega)),
            ("Htilde", np.linalg.eigvalsh(build_Htilde(spec, omega))),
        ):
            rows.extend((float(M), variant, j + 1, float(v)) for j, v in enumerate(evals))
    return rows
