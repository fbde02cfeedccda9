"""Branch intervals and pencil classification."""

import functools

import numpy as np
import pytest

from gapcert import linalg, stokes
from gapcert.bounds import BlockSaddle, GapCertificate
from gapcert.errors import DimensionMismatch, NABViolated, NotDefinite, NotPSD, RankDeficient

from helpers import StokesMatrix, full_rank_tall, rand_pd, rand_psd, violations

PHI = (1.0 + np.sqrt(5.0)) / 2.0  # positive eigenvalue of [[1,1],[1,0]]


def scalar_stokes(a: float, b: float) -> StokesMatrix:
    return StokesMatrix(np.array([[a]]), np.array([[b]]))


def test_stokes_matrix_validation():
    with pytest.raises(NotPSD):
        StokesMatrix(np.array([[-1.0]]), np.array([[1.0]]))
    with pytest.raises(DimensionMismatch):
        StokesMatrix(np.eye(2), np.ones((3, 1)))
    S = StokesMatrix(np.array([[2.0]]), np.array([3.0]))  # 1-d B promoted
    assert S.m == 1 and S.k == 1 and S.B.shape == (1, 1)
    H = S.assemble()
    assert H.shape == (2, 2) and np.array_equal(H, H.T)


def test_pencil_spectrum_nab_rule():
    # N(A) cap N(B^T) = {0}: e2 spans N(A), B^T e2 = 1
    ps = stokes.pencil_spectrum(StokesMatrix(np.diag([1.0, 0.0]), np.array([[0.0], [1.0]])))
    assert ps.lambda_plus.size == 2
    # e1 lies in both null spaces; with A = B = 0, all of R^2 does
    for A, B in ((np.diag([0.0, 1.0]), np.array([[0.0], [1.0]])), (np.zeros((2, 2)), np.zeros((2, 2)))):
        with pytest.raises(NABViolated):
            stokes.pencil_spectrum(StokesMatrix(A, B))


def test_pencil_spectrum_scalar():
    ps = stokes.pencil_spectrum(scalar_stokes(1.0, 1.0))
    assert ps.zero_multiplicity == 0
    assert abs(ps.lambda_plus[0] - PHI) < 1e-12
    assert abs(ps.lambda_minus[0] - (1.0 - PHI)) < 1e-12


def test_pencil_spectrum_zero_coupling():
    rng = np.random.default_rng(32)
    S = StokesMatrix(rand_pd(rng, 3), np.zeros((3, 2)))
    ps = stokes.pencil_spectrum(S)
    assert ps.zero_multiplicity == 2
    assert ps.strict_minus.size == 0
    assert np.array_equal(ps.lambda_minus, np.zeros(3))


def test_pencil_spectrum_counts():
    rng = np.random.default_rng(33)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        S = StokesMatrix(rand_pd(rng, m), full_rank_tall(rng, m, k))
        ps = stokes.pencil_spectrum(S)
        assert ps.strict_minus.size + ps.lambda_plus.size + ps.zero_multiplicity == m + k
        assert ps.strict_minus.size == k  # B has rank k, so k strict negatives
        assert np.all(np.diff(ps.lambda_minus) >= 0.0)
        assert np.all(np.diff(ps.lambda_plus) <= 0.0)


def test_pencil_spectrum_nab_violated():
    S = StokesMatrix(np.diag([0.0, 1.0]), np.array([[0.0], [1.0]]))
    with pytest.raises(NABViolated):
        stokes.pencil_spectrum(S)
    with pytest.raises(NABViolated):
        stokes.minimal_intervals(S)
    # singular A: N(A) = span(e1) and N(B^T) = span(e1 - e2) meet only in zero
    A = np.diag([0.0, 2.0, 3.0])
    S = StokesMatrix(A, np.array([[1.0], [1.0], [0.0]]))
    assert stokes.pencil_spectrum(S).lambda_plus.size == 3
    pair = stokes.minimal_intervals(S)
    evals = np.linalg.eigvalsh(S.assemble())
    assert pair.i_plus == (float(evals[evals > 0][0]), float(evals[-1]))
    assert pair.i_minus == (float(evals[0]), float(evals[0]))
    # A's null vector e1 lies in N(B^T) = span(e1, e3)
    S = StokesMatrix(A, np.array([[0.0], [1.0], [0.0]]))
    with pytest.raises(NABViolated):
        stokes.pencil_spectrum(S)
    with pytest.raises(NABViolated):
        stokes.minimal_intervals(S)


def test_minimal_intervals_scalar():
    pair = stokes.minimal_intervals(scalar_stokes(1.0, 1.0))
    assert pair.source == "minimal"
    assert np.allclose(pair.i_minus, (1.0 - PHI, 1.0 - PHI), atol=1e-12)
    assert np.allclose(pair.i_plus, (PHI, PHI), atol=1e-12)


def test_minimal_intervals_no_negatives():
    rng = np.random.default_rng(34)
    pair = stokes.minimal_intervals(StokesMatrix(rand_pd(rng, 3), np.zeros((3, 2))))
    assert pair.i_minus == (0.0, 0.0)


def test_minimal_endpoints_are_eigenvalues():
    rng = np.random.default_rng(35)
    for _ in range(150):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, m + 1))
        S = StokesMatrix(rand_pd(rng, m), full_rank_tall(rng, m, k))
        pair = stokes.minimal_intervals(S)
        w = np.linalg.eigvalsh(S.assemble())
        tol = 1e-10 * max(1.0, float(np.abs(w).max()))
        for v in (*pair.i_minus, *pair.i_plus):
            assert np.min(np.abs(w - v)) <= tol
        assert pair.i_minus[1] < 0.0 < pair.i_plus[0]


def _assert_nested(inner: stokes.IntervalPair, outer: stokes.IntervalPair, tol: float):
    assert outer.i_minus[0] <= inner.i_minus[0] + tol
    assert inner.i_minus[1] <= outer.i_minus[1] + tol
    assert outer.i_plus[0] <= inner.i_plus[0] + tol
    assert inner.i_plus[1] <= outer.i_plus[1] + tol


def test_ruwa_axel_soundness_and_nesting():
    # minimal spans exactly the eigenvalues, so nesting gives soundness too
    rng = np.random.default_rng(36)
    for _ in range(250):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))
        S = StokesMatrix(rand_pd(rng, m), full_rank_tall(rng, m, k))
        mini = stokes.minimal_intervals(S)
        ruwa = stokes.ruwa_intervals(S)
        axel = stokes.axel_intervals(S)
        tol = 1e-10 * max(1.0, abs(mini.i_minus[0]), mini.i_plus[1])
        _assert_nested(mini, ruwa, tol)
        _assert_nested(mini, axel, tol)


def test_ruwa_ends_are_tight_for_scalar_blocks():
    # with A = a I and B = b I the minimal and ruwa ends coincide: both ends of
    # I_minus are (a - sqrt(a^2 + 4 b^2))/2 and I_plus ends at (a + sqrt(a^2 + 4 b^2))/2
    S = StokesMatrix(2.0 * np.eye(2), 3.0 * np.eye(2))
    ruwa = stokes.ruwa_intervals(S)
    w = np.linalg.eigvalsh(S.assemble())
    tol = 4.0 * np.finfo(float).eps * np.max(np.abs(w))
    assert np.all(np.abs(np.array(ruwa.i_minus) - w[0]) <= tol)
    assert ruwa.i_plus[0] == 2.0 and abs(ruwa.i_plus[1] - w[-1]) <= tol


def test_ruwa_axel_precondition_errors():
    rng = np.random.default_rng(37)
    singular_A = rand_psd(rng, 3, rank=2)
    B = full_rank_tall(rng, 3, 2)
    for estimate in (stokes.ruwa_intervals, stokes.axel_intervals):
        with pytest.raises(NotDefinite):
            estimate(StokesMatrix(singular_A, B))
        with pytest.raises(RankDeficient):
            estimate(StokesMatrix(rand_pd(rng, 3), np.ones((3, 2))))
        with pytest.raises(RankDeficient):
            estimate(StokesMatrix(rand_pd(rng, 2), np.ones((2, 3))))


def test_axel_scalar_values():
    pair = stokes.axel_intervals(scalar_stokes(1.0, 1.0))
    assert np.allclose(pair.i_minus, (1.0 - PHI, -0.5), atol=1e-12)
    assert np.allclose(pair.i_plus, (1.0, PHI), atol=1e-12)
    # extreme aspect ratios: the radical endpoints stay attained exactly
    for a, b in ((10.0, 0.1), (0.1, 1.0)):
        lam_plus = (a + np.hypot(a, 2.0 * b)) / 2.0
        lam_minus = (a - np.hypot(a, 2.0 * b)) / 2.0
        pair = stokes.axel_intervals(scalar_stokes(a, b))
        assert abs(pair.i_minus[0] - lam_minus) < 1e-12 * max(1.0, a)
        assert abs(pair.i_plus[1] - lam_plus) < 1e-12 * max(1.0, a)
        assert pair.i_minus[0] <= lam_minus <= pair.i_minus[1]
        assert pair.i_plus[0] <= lam_plus <= pair.i_plus[1]


def test_new_gap_estimate_decoupled():
    cert = stokes.new_gap_estimate(StokesMatrix(np.zeros((2, 2)), np.eye(2)))
    assert cert.method == "stokes_new"
    assert cert.claim == "excludes_nonzero"
    assert np.allclose(cert.interval, (-1.0, 1.0))
    assert abs(cert.inv_norm_bound - 1.0) < 1e-14
    assert cert.quantities["alpha"] == 0.0
    assert abs(cert.quantities["beta1"] - 1.0) < 1e-14


def test_new_gap_estimate_scalar_tight():
    cert = stokes.new_gap_estimate(scalar_stokes(1.0, 1.0))
    assert abs(cert.interval[0] - (1.0 - PHI)) < 1e-14
    assert cert.interval[1] == 1.0
    # both gap edge and inverse bound are attained at [[1,1],[1,0]]
    assert abs(cert.inv_norm_bound - PHI) < 1e-14
    assert abs(1.0 / cert.inv_norm_bound - (PHI - 1.0)) < 1e-14


def test_new_gap_estimate_rank_errors():
    with pytest.raises(RankDeficient):
        stokes.new_gap_estimate(StokesMatrix(np.eye(2), np.ones((2, 1))))
    with pytest.raises(RankDeficient):
        stokes.new_gap_estimate(StokesMatrix(np.eye(2), np.ones((2, 2))))
    # singular values (1, 3 eps) of a 2x5 B: rank deficient at max(m, k) eps = 5 eps,
    # though full at min(m, k) eps = 2 eps
    B = np.zeros((2, 5))
    B[0, 0], B[1, 1] = 1.0, 3.0 * np.finfo(float).eps
    with pytest.raises(RankDeficient):
        stokes.new_gap_estimate(StokesMatrix(np.eye(2), B))


@pytest.mark.parametrize(
    "estimate",
    [
        stokes.pencil_spectrum,
        stokes.minimal_intervals,
        stokes.ruwa_intervals,
        stokes.axel_intervals,
        stokes.new_gap_estimate,
    ],
)
def test_stokes_functions_refuse_nonzero_C(estimate):
    # square saddles that meet every other hypothesis, with a C block that is not zero
    rng = np.random.default_rng(39)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        S = BlockSaddle(rand_pd(rng, n), full_rank_tall(rng, n, n), rand_psd(rng, n))
        with pytest.raises(ValueError, match="^stokes command needs the C block to be zero$"):
            estimate(S)


def test_new_gap_estimate_property():
    rng = np.random.default_rng(38)
    for _ in range(250):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(m, m + 3))
        B = full_rank_tall(rng, k, m).T  # full row rank m
        A = rand_psd(rng, m)
        S = StokesMatrix(A, B)
        cert = stokes.new_gap_estimate(S)
        w = np.linalg.eigvalsh(S.assemble())
        assert violations(w, *cert.interval, nonzero_only=True) == 0
        if m == k:
            assert cert.inv_norm_bound is not None
            assert np.min(np.abs(w)) * cert.inv_norm_bound >= 1.0 - 1e-8
        else:
            assert cert.inv_norm_bound is None


def test_pencil_spectrum_joint_scaling():
    # scaling A and B jointly by t > 0 scales H, and so both branches, by t
    rng = np.random.default_rng(39)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, m + 1))
        A, B = rand_pd(rng, m), full_rank_tall(rng, m, k)
        base = stokes.pencil_spectrum(StokesMatrix(A, B))
        for t in 1.0 + np.linspace(-0.3, 0.3, 5):
            ps = stokes.pencil_spectrum(StokesMatrix(t * A, t * B))
            assert ps.lambda_plus == pytest.approx(t * base.lambda_plus, rel=1e-12)
            assert ps.lambda_minus == pytest.approx(t * base.lambda_minus, rel=1e-12)


METAMORPHIC_ESTIMATES = (
    stokes.minimal_intervals,
    stokes.ruwa_intervals,
    stokes.axel_intervals,
    stokes.new_gap_estimate,
)


@functools.cache
def _metamorphic_saddles(gap: bool) -> tuple:
    # (A, B) pairs: for the branch enclosures, 100 with A definite and B of
    # full column rank k <= m, m from 1 to 6; for the gap estimate, 50 with A
    # semidefinite and B of full row rank m <= k, m from 1 to 5
    rng = np.random.default_rng(44 if gap else 43)
    saddles = []
    for _ in range(50 if gap else 100):
        m = int(rng.integers(1, 6 if gap else 7))
        if gap:
            k = int(rng.integers(m, m + 3))
            saddles.append((rand_psd(rng, m), full_rank_tall(rng, k, m).T))
        else:
            k = int(rng.integers(1, m + 1))
            saddles.append((rand_pd(rng, m), full_rank_tall(rng, m, k)))
    return tuple(saddles)


def _ends(result) -> tuple:
    # a gap certificate's interval, or both enclosures of a pair
    return result.interval if isinstance(result, GapCertificate) else (*result.i_minus, *result.i_plus)


@pytest.mark.parametrize("k", [-300, -20, 20, 300])
@pytest.mark.parametrize("estimate", METAMORPHIC_ESTIMATES, ids=lambda f: f.__name__)
def test_estimates_scale_exactly_by_powers_of_two(estimate, k):
    # no oracle: 2^k H has the spectrum 2^k sigma(H), and scaling by 2^k is
    # exact in floating point, so every end must scale bit for bit
    t = 2.0**k
    for A, B in _metamorphic_saddles(estimate is stokes.new_gap_estimate):
        want = tuple(t * end for end in _ends(estimate(StokesMatrix(A, B))))
        assert _ends(estimate(StokesMatrix(t * A, t * B))) == want, (B.shape, want)


@pytest.mark.parametrize("estimate", METAMORPHIC_ESTIMATES, ids=lambda f: f.__name__)
def test_permutation_keeps_the_estimates_within_rounding(estimate):
    # no oracle: permuting A's rows and columns with B's rows, and B's
    # columns, is an orthogonal similarity of H, so sigma(H) stays.  Each end
    # is read from eigenvalues of H or A and singular values of B, each
    # within (m + k) eps ||H||_2 of exact in each of the two runs, so it may
    # move by twice that; axel's Schur weights sigma(B^T A^{-1} B) go through
    # A^{-1}, which multiplies that error by kappa(A).  Within 0.57 (minimal),
    # 0.48 (ruwa), 0.06 (axel; 0.94 without kappa(A)) and 0.08 (new) of the
    # bound over 3 permutations of each saddle with numpy 2.4's OpenBLAS
    rng = np.random.default_rng(45)
    for A, B in _metamorphic_saddles(estimate is stokes.new_gap_estimate):
        S = StokesMatrix(A, B)
        allowance = 2 * (S.m + S.k) * linalg.EPS * np.linalg.norm(S.assemble(), 2)
        if estimate is stokes.axel_intervals:
            allowance *= S.eig_A.values[-1] / S.eig_A.values[0]
        want = _ends(estimate(S))
        for _ in range(3):
            p, q = rng.permutation(S.m), rng.permutation(S.k)
            got = _ends(estimate(StokesMatrix(A[p][:, p], B[p][:, q])))
            assert np.max(np.abs(np.subtract(got, want))) <= allowance, (B.shape, got, want)
