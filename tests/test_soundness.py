"""Soundness corpus: certificates judged against 60-digit eigenvalues at zero margin.

Each case is a saddle H = [[A, B], [B^T, -C]] and a gap certificate or a
pair of Stokes branch enclosures.  The judges take mpmath's 60-digit
eigenvalues of the floating-point H, the matrix the result was computed
from: `inside` lists those strictly inside a certified open interval, and
`outside` how far each nonzero one lies outside its branch's enclosure;
a sound result leaves neither list with an entry.  A case that
fails today carries pytest.mark.xfail(strict=True, reason="ROADMAP item N"):
it reports as xfailed until a change mends it, and then fails until that
change takes the mark off.  Cases with diagonal blocks get the same
certificate from every LAPACK build; a case whose outcome turns on how a
build rounds carries a mark that is not strict, and its reason says so.
"""

import mpmath as mp
import numpy as np
import pytest

from gapcert import bounds, stokes
from gapcert.bounds import BlockSaddle, GapCertificate
from gapcert.stokes import IntervalPair

EPS = np.finfo(float).eps
ITEM_11 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")
ITEM_3 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
ITEM_3_BY_BUILD = pytest.mark.xfail(
    strict=False,
    raises=AssertionError,
    reason="ROADMAP item 3: the end lies within about kappa(B) eps of sigma_min(B), on a side that depends on how"
    " the LAPACK build rounds",
)
ITEM_3_ON_MIN_EIG_A = pytest.mark.xfail(
    strict=False,
    raises=AssertionError,
    reason="ROADMAP item 3: the upper end is the computed smallest eigenvalue of A, within n eps ||A|| of the"
    " exact one, on a side that depends on how the LAPACK build rounds",
)
ITEM_7_ON_MIN_EIG_A = pytest.mark.xfail(
    strict=False,
    raises=AssertionError,
    reason="ROADMAP item 7: i_plus starts at the computed smallest eigenvalue of A, which H attains exactly,"
    " on a side that depends on how the LAPACK build rounds",
)


def eigenvalues(S: BlockSaddle) -> list:
    """mpmath's 60-digit eigenvalues of S's floating-point H."""
    with mp.workdps(60):
        return list(mp.eigsy(mp.matrix(S.assemble().tolist()), eigvals_only=True))


def inside(cert: GapCertificate, S: BlockSaddle) -> list:
    """The 60-digit eigenvalues of S's floating-point H strictly inside cert's interval."""
    assert cert.claim == "excludes_all"
    lo, hi = map(float, cert.interval)
    return [w for w in eigenvalues(S) if lo < w < hi]


def outside(pair: IntervalPair, S: BlockSaddle) -> list:
    """How far each 60-digit nonzero eigenvalue of S's H lies outside its branch's closed enclosure.

    Positive eigenvalues belong in i_plus, negative ones in i_minus; those
    inside contribute nothing.
    """
    misses = []
    for w in eigenvalues(S):
        if w != 0:
            lo, hi = map(float, pair.i_plus if w > 0 else pair.i_minus)
            if not lo <= w <= hi:
                misses.append(max(lo - w, w - hi))
    return misses


@pytest.mark.parametrize(
    "A, B, C",
    [
        # A's eigenvalue -5e-11 passes validation as rounding and counts as a
        # null direction: (-1e-6, 1e-6) is certified, 9.99975000312e-7 lies inside
        pytest.param(
            np.diag([1.0, -5e-11]), np.diag([0.0, 1e-6]), np.diag([1.0, 0.0]), marks=ITEM_11, id="accepted-negative"
        ),
        # 1.5 eps on A's diagonal counts as zero: (-1, 1) is certified,
        # -0.99999999999999983 lies inside
        pytest.param(np.diag([1.0, 1.5 * EPS]), np.eye(2), np.diag([1.0, 0.0]), marks=ITEM_11, id="eps-as-null"),
    ],
)
def test_zero_dichotomy_on_accepted_null_directions(A, B, C):
    S = BlockSaddle(A, B, C)
    assert inside(bounds.zero_dichotomy_certificate(S), S) == []


def test_definite_diagonal_saddle_every_gap_certificate():
    # the control: C = A so kirsch applies, and A's and B's smallest entries sit
    # in different 2x2 blocks, so no end meets an eigenvalue +-sqrt(a^2 + b^2)
    A, B = np.diag([0.5, 1.0]), np.diag([3.0, 2.0])
    S = BlockSaddle(A, B, A)
    for cert in (
        bounds.diag_gap,
        bounds.stretch_certificate,
        bounds.hbinv_certificate,
        bounds.zero_dichotomy_certificate,
        bounds.kirsch_certificate,
        bounds.winklmeier_certificate,
    ):
        c = cert(S)
        assert c.interval[0] < 0.0 < c.interval[1], cert.__name__
        assert inside(c, S) == [], cert.__name__


@ITEM_3
def test_kirsch_end_on_an_eigenvalue():
    # A's and B's smallest entries meet in one 2x2 block, so H has the
    # eigenvalues +-sqrt(0.5^2 + 2^2) = +-sqrt(4.25), and kirsch's end, the
    # double hypot(0.5, 2), lies 1.8e-17 beyond them
    A, B = np.diag([0.5, 1.0]), np.diag([2.0, 3.0])
    S = BlockSaddle(A, B, A)
    assert inside(bounds.kirsch_certificate(S), S) == []


def _ill_conditioned_coupling(seed: int) -> BlockSaddle:
    # A = C = 0 and B = Q1 diag(1, 0.5, 0.2, 1e-7) Q2^T, kappa(B) = 1e7, so
    # sigma(H) = +-sigma(B) and hbinv's radius is the computed sigma_min(B)
    rng = np.random.default_rng(seed)
    Q1, Q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    B = Q1 @ np.diag([1.0, 0.5, 0.2, 1e-7]) @ Q2.T
    return BlockSaddle(np.zeros((4, 4)), B, np.zeros((4, 4)))


# Every seed, not only the 22 of 40 whose end lies beyond sigma_min(B) with
# numpy 2.4's OpenBLAS on x86-64 (2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 15, 22,
# 23, 25, 27, 28, 32, 34, 35, 36, 38, 39): the other 18 lie inside by the
# same 1e-10 relative, so another build may move any of them across
@pytest.mark.parametrize("seed", [pytest.param(s, marks=ITEM_3_BY_BUILD) for s in range(40)])
def test_hbinv_on_ill_conditioned_coupling(seed):
    S = _ill_conditioned_coupling(seed)
    assert inside(bounds.hbinv_certificate(S), S) == []


def test_hbinv_end_near_sigma_min_on_ill_conditioned_coupling():
    # what holds on every build: the end misses sigma_min(B) by no more than
    # a backward-stable SVD's error, n kappa(B) eps relative for n = 4
    # (at most 1.2e-9, about 0.54 kappa(B) eps, with numpy 2.4's OpenBLAS)
    for seed in range(40):
        S = _ill_conditioned_coupling(seed)
        end = bounds.hbinv_certificate(S).interval[1]
        with mp.workdps(60):
            sigma_min = min(mp.svd_r(mp.matrix(S.B.tolist()), compute_uv=False))
            assert abs(end - sigma_min) <= 4 * 1e7 * EPS * sigma_min, seed


def _min_eig_A_with_identity_C(seed: int) -> BlockSaddle:
    # B = 0 and C = I, so sigma(H) is sigma(A) and -1 six times, and diag_gap,
    # stretch and zero_dichotomy all end at the computed smallest eigenvalue of A
    G = np.random.default_rng(seed).standard_normal((6, 6))
    return BlockSaddle(G @ G.T + 1e-3 * np.eye(6), np.zeros((6, 6)), np.eye(6))


B_ZERO_CERTIFICATES = (bounds.diag_gap, bounds.stretch_certificate, bounds.zero_dichotomy_certificate)


# Every seed, not only the 20 of 40 whose end lies beyond the exact smallest
# eigenvalue of A with numpy 2.4's OpenBLAS on x86-64 (3, 6, 7, 8, 11, 14, 15,
# 18, 22, 23, 24, 26, 27, 28, 29, 31, 33, 36, 38, 39, the same for all three):
# the other 20 lie short of it by the same few eps ||A||
@pytest.mark.parametrize("seed", [pytest.param(s, marks=ITEM_3_ON_MIN_EIG_A) for s in range(40)])
@pytest.mark.parametrize("cert", B_ZERO_CERTIFICATES, ids=lambda f: f.__name__)
def test_zero_coupling_certificates_at_min_eig_A(cert, seed):
    S = _min_eig_A_with_identity_C(seed)
    assert inside(cert(S), S) == []


def test_zero_coupling_certificates_end_near_min_eig_A():
    # what holds on every build: each upper end misses the exact smallest
    # eigenvalue of A by no more than a backward-stable eigensolver's error,
    # n eps ||A|| for n = 6 (at most 0.16 of it with numpy 2.4's OpenBLAS)
    for seed in range(40):
        S = _min_eig_A_with_identity_C(seed)
        with mp.workdps(60):
            eigs_A = mp.eigsy(mp.matrix(S.A.tolist()), eigvals_only=True)
            alpha_min, norm_A = min(eigs_A), max(eigs_A)
            for cert in B_ZERO_CERTIFICATES:
                end = cert(S).interval[1]
                assert abs(end - alpha_min) <= 6 * EPS * norm_A, (cert.__name__, seed)


def _stokes_attaining_min_eig_A(seed: int) -> BlockSaddle:
    # m = 5, k = 3, C = 0; B's columns are orthogonal to A's lowest eigenvector
    # v, so (v, 0) is an eigenvector of H and the positive branch attains
    # alpha_1 = min eig A, where ruwa's and axel's i_plus both start
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    A = Q @ np.diag(np.sort(rng.uniform(0.5, 3.0, 5))) @ Q.T
    G, v = rng.standard_normal((5, 3)), Q[:, 0]
    return BlockSaddle(A, G - np.outer(v, v @ G), np.zeros((3, 3)))


OUTER_ESTIMATES = (stokes.ruwa_intervals, stokes.axel_intervals)


# Every seed, not only the 17 of 40 whose i_plus starts above alpha_1 with
# numpy 2.4's OpenBLAS on x86-64 (0, 4, 7, 9, 10, 13, 14, 19, 22, 24, 25, 26,
# 31, 34, 35, 36, 38, the same for both): every other eigenvalue lies inside.
# minimal_intervals spans the computed eigenvalues, so it misses an exact one
# by construction (37 of 40 here); item 7 decides what it claims
@pytest.mark.parametrize("seed", [pytest.param(s, marks=ITEM_7_ON_MIN_EIG_A) for s in range(40)])
@pytest.mark.parametrize("estimate", OUTER_ESTIMATES, ids=lambda f: f.__name__)
def test_stokes_enclosures_at_min_eig_A(estimate, seed):
    S = _stokes_attaining_min_eig_A(seed)
    assert outside(estimate(S), S) == []


def test_stokes_enclosures_miss_by_rounding_at_most():
    # what holds on every build: no eigenvalue lies outside its enclosure by
    # more than a backward-stable eigensolver's error, (m + k) eps ||H|| for
    # m + k = 8 (at most 0.15 of it with numpy 2.4's OpenBLAS, always below
    # i_plus's lower end)
    for seed in range(40):
        S = _stokes_attaining_min_eig_A(seed)
        norm_H = max(abs(w) for w in eigenvalues(S))
        for estimate in OUTER_ESTIMATES:
            misses = outside(estimate(S), S)
            assert all(d <= 8 * EPS * norm_H for d in misses), (estimate.__name__, seed, misses)
