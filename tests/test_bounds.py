"""Gap certificates, inverse-norm bounds, and counterexample fixtures."""

import functools
import re

import numpy as np
import pytest
import scipy.linalg

from gapcert import bounds, linalg
from gapcert.bounds import BlockSaddle, Quartic4x4Params
from gapcert.errors import (
    DimensionMismatch,
    NegativeDiscriminant,
    NotDefinite,
    NotPSD,
    NotSymmetric,
    RankDeficient,
)

from helpers import assemble_quartic, func_calc_AC, psd_sqrt, rand_pd, rand_psd, violations


def test_block_saddle_validation():
    with pytest.raises(NotSymmetric):
        BlockSaddle(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPSD):
        BlockSaddle(np.diag([1.0, -1.0]), np.zeros((2, 2)), np.eye(2))
    with pytest.raises(NotPSD):  # indefinite at any scale, not only above 1
        BlockSaddle(1e-12 * np.diag([1.0, -1.0]), 1e-12 * np.eye(2), np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        BlockSaddle(np.eye(2), np.zeros((3, 2)), np.eye(2))
    S = BlockSaddle(np.eye(2), np.ones((2, 1)), np.eye(1))
    H = S.assemble()
    assert H.shape == (3, 3) and H[2, 2] == -1.0 and H[0, 2] == 1.0


def test_B_full_rank_is_decided_at_the_larger_dimension():
    # the one rank rule for B: its singular values are definite at max(m, k) eps,
    # here 5 eps, whichever side is the longer one
    for s_min, full in ((8e-16, False), (2e-15, True)):
        B = np.zeros((2, 5))
        B[0, 0], B[1, 1] = 1.0, s_min
        assert BlockSaddle(np.eye(2), B, np.eye(5)).B_full_rank is full
        assert BlockSaddle(np.eye(5), B.T, np.eye(2)).B_full_rank is full


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: bounds.winklmeier_certificate(BlockSaddle(np.eye(2), np.ones((2, 1)), np.eye(1))),
            RankDeficient,
            "B must be square, got 2x1",
        ),
        (
            lambda: bounds.winklmeier_certificate(BlockSaddle(np.eye(2), np.ones((2, 2)), np.eye(2))),
            RankDeficient,
            "B is singular to working precision",
        ),
        (
            lambda: bounds.zero_dichotomy_certificate(BlockSaddle(np.diag([1.0, 0.0]), np.eye(2), np.eye(2))),
            DimensionMismatch,
            "dim N(A) = 1 differs from dim N(C) = 0",
        ),
        # 1e-8 is far above negligible's 2 eps, so N(A) = {0}; a cutoff that counted
        # it null would certify (-1e-3, 1e-3), which an eigenvalue near -1e-3 violates
        (
            lambda: bounds.zero_dichotomy_certificate(
                BlockSaddle(np.diag([1.0, 1e-8]), np.diag([0.0, 1e-3]), np.diag([1.0, 0.0]))
            ),
            DimensionMismatch,
            "dim N(A) = 0 differs from dim N(C) = 1",
        ),
        (
            lambda: bounds.zero_dichotomy_certificate(BlockSaddle(*[np.zeros((0, 0))] * 3)),
            DimensionMismatch,
            "both blocks are zero-dimensional",
        ),
        (
            lambda: func_calc_AC(np.eye(2), np.eye(3), 1.0, lambda x: 1.0),
            DimensionMismatch,
            "A and C must share a shape, got (2, 2) and (3, 3)",
        ),
        (lambda: Quartic4x4Params(1.0, 1.0, sign=2), ValueError, "sign must be +1 or -1, got 2"),
    ],
)
def test_domain_error_messages(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("t", [1e-160, 1e-80, 1e80, 1e155])
def test_certificates_scale_covariant(t):
    rng = np.random.default_rng(11)
    A, C = rand_pd(rng, 4), rand_pd(rng, 4)
    B = rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
    for cert in (
        bounds.diag_gap,
        bounds.stretch_certificate,
        bounds.hbinv_certificate,
        bounds.zero_dichotomy_certificate,
    ):
        ref = np.array(cert(BlockSaddle(A, B, C)).interval)
        got = np.array(cert(BlockSaddle(t * A, t * B, t * C)).interval) / t
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (cert.__name__, got, ref)


METAMORPHIC_CERTIFICATES = (
    bounds.diag_gap,
    bounds.stretch_certificate,
    bounds.hbinv_certificate,
    bounds.zero_dichotomy_certificate,
    bounds.winklmeier_certificate,
)


@functools.cache
def _metamorphic_saddles() -> tuple:
    # 300 seeded saddles, n from 2 to 8, every third with C scaled by 0.01
    rng = np.random.default_rng(29)
    saddles = []
    for i in range(300):
        n = int(rng.integers(2, 9))
        A, C = rand_pd(rng, n), rand_pd(rng, n) * (0.01 if i % 3 == 2 else 1.0)
        saddles.append((A, rng.standard_normal((n, n)), C))
    return tuple(saddles)


@pytest.mark.parametrize("k", [-300, -20, 20, 300])
def test_certificates_scale_exactly_by_powers_of_two(k):
    # no oracle: 2^k H has the spectrum 2^k sigma(H), and scaling by 2^k is
    # exact in floating point, so every end must scale bit for bit
    t = 2.0**k
    for A, B, C in _metamorphic_saddles():
        for cert in METAMORPHIC_CERTIFICATES:
            lo, hi = cert(BlockSaddle(A, B, C)).interval
            got = cert(BlockSaddle(t * A, t * B, t * C)).interval
            assert got == (t * lo, t * hi), (cert.__name__, A.shape[0], got, lo, hi)


@pytest.mark.parametrize("cert", [bounds.diag_gap, bounds.zero_dichotomy_certificate], ids=lambda f: f.__name__)
def test_mirror_negates_the_certified_gap(cert):
    # no oracle: the mirror (A, B, C) -> (C, B^T, A) maps sigma(H) to
    # -sigma(H), so (l, r) must map to (-r, -l), here bit for bit
    for A, B, C in _metamorphic_saddles():
        lo, hi = cert(BlockSaddle(A, B, C)).interval
        assert cert(BlockSaddle(C, B.T, A)).interval == (-hi, -lo), (A.shape[0], lo, hi)


def _assert_ends_within_rounding(got, want, S: BlockSaddle, name: str):
    # each end may move by n eps ||H||_2 for n = A's order, the backward error
    # of the blocks' eigen- and singular value solves it is computed from
    # (ROADMAP item 3); relative to hbinv's own radius that is kappa(B) eps
    allowance = S.m * linalg.EPS * np.linalg.norm(S.assemble(), 2)
    assert np.max(np.abs(np.subtract(got, want))) <= allowance, (name, S.m, got, want)


@pytest.mark.parametrize(
    "cert",
    [bounds.stretch_certificate, bounds.hbinv_certificate, bounds.winklmeier_certificate],
    ids=lambda f: f.__name__,
)
def test_mirror_negates_the_certified_gap_within_rounding(cert):
    # the mirror of the test above, where SVDs of B and B^T round apart
    # (within 0.18 n eps ||H||_2 with numpy 2.4's OpenBLAS)
    for A, B, C in _metamorphic_saddles():
        S = BlockSaddle(A, B, C)
        lo, hi = cert(S).interval
        _assert_ends_within_rounding(cert(BlockSaddle(C, B.T, A)).interval, (-hi, -lo), S, cert.__name__)


@pytest.mark.parametrize("cert", METAMORPHIC_CERTIFICATES, ids=lambda f: f.__name__)
def test_permutation_keeps_the_certified_gap_within_rounding(cert):
    # no oracle: permuting A's rows and columns with B's rows, and C's with
    # B's columns, is an orthogonal similarity of H, so sigma(H) stays; the
    # ends move by rounding (within 0.5 n eps ||H||_2 with numpy 2.4's
    # OpenBLAS; hbinv's by up to 2.2e-11 of its radius at kappa(B) = 9.5e4)
    rng = np.random.default_rng(31)
    for A, B, C in _metamorphic_saddles():
        p, q = rng.permutation(A.shape[0]), rng.permutation(C.shape[0])
        S = BlockSaddle(A, B, C)
        got = cert(BlockSaddle(A[p][:, p], B[p][:, q], C[q][:, q])).interval
        _assert_ends_within_rounding(got, cert(S).interval, S, cert.__name__)


@pytest.mark.parametrize("t", [1e-160, 1e-80, 1e80, 1e155])
def test_kirsch_saddle_scale_covariant(t):
    rng = np.random.default_rng(12)
    A, B = rand_pd(rng, 4), rand_psd(rng, 4)
    ref = bounds.kirsch_certificate(BlockSaddle(A, B, A))
    got = bounds.kirsch_certificate(BlockSaddle(t * A, t * B, t * A))
    assert np.allclose(np.array(got.interval) / t, ref.interval, rtol=1e-12, atol=0.0)
    for key in ("min_sigma_A", "min_sigma_B"):
        assert got.quantities[key] / t == pytest.approx(ref.quantities[key], rel=1e-12, abs=0.0)
    assert got.inv_norm_bound * t == pytest.approx(ref.inv_norm_bound, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("t", [1e-160, 1e-80, 1e80, 1e155])
def test_winklmeier_scale_covariant(t):
    # small diagonal blocks and a well-conditioned coupling: the radius is positive
    rng = np.random.default_rng(13)
    A, C = 0.1 * rand_pd(rng, 4), 0.1 * rand_pd(rng, 4)
    B = 4.0 * np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    ref = bounds.winklmeier_certificate(BlockSaddle(A, B, C))
    assert ref.interval[1] > 0.0
    got = bounds.winklmeier_certificate(BlockSaddle(t * A, t * B, t * C))
    assert np.allclose(np.array(got.interval) / t, ref.interval, rtol=1e-12, atol=0.0)
    raw = got.quantities["raw_bound"] / t
    assert raw == pytest.approx(ref.quantities["raw_bound"], rel=1e-12, abs=0.0)


def test_diag_gap_interval_and_bound():
    S = BlockSaddle(np.diag([1.0, 2.0]), np.diag([3.0, 1.0]), np.diag([1.0, 2.0]))
    cert = bounds.diag_gap(S)
    assert cert.interval == (-1.0, 1.0)
    assert cert.inv_norm_bound == 1.0
    assert cert.claim == "excludes_all"
    with pytest.raises(NotDefinite):
        bounds.diag_gap(BlockSaddle(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.eye(2)))


def test_stretch_scalar_is_tight():
    S = BlockSaddle(np.array([[2.0]]), np.array([[1.0]]), np.array([[1.0]]))
    cert = bounds.stretch_certificate(S)
    lo, hi = cert.interval
    assert cert.quantities["lambda0"] == pytest.approx(0.5)
    assert lo == pytest.approx(0.5 - np.sqrt(13.0) / 2.0, abs=1e-14)
    assert hi == pytest.approx(0.5 + np.sqrt(13.0) / 2.0, abs=1e-14)
    evals = np.linalg.eigvalsh(S.assemble())
    # the certified endpoints are themselves the eigenvalues here
    assert np.allclose(evals, [lo, hi], atol=1e-12)


def test_stretch_identity_blocks():
    S = BlockSaddle(np.eye(2), np.eye(2), np.eye(2))
    cert = bounds.stretch_certificate(S)
    assert cert.interval[1] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert cert.interval[0] == pytest.approx(-np.sqrt(2.0), abs=1e-14)


def test_stretch_resolvent_bound_property():
    rng = np.random.default_rng(10)
    for _ in range(200):
        m, k = rng.integers(1, 6, size=2)
        S = BlockSaddle(rand_pd(rng, m), rng.standard_normal((m, k)), rand_pd(rng, k))
        cert = bounds.stretch_certificate(S)
        evals = np.linalg.eigvalsh(S.assemble())
        assert violations(evals, *cert.interval) == 0
        lam0 = cert.quantities["lambda0"]
        dist = np.min(np.abs(evals - lam0))
        assert cert.inv_norm_bound * dist >= 1.0 - 1e-10


def test_omladic_growth():
    for t in (1.0, 10.0, 100.0):
        A, C = bounds.omladic_pair(t)
        inv = np.linalg.inv(np.eye(2) + A @ C)
        closed = np.array([[2.0, -t], [-1.0 / t, 2.0]]) / 3.0
        assert np.allclose(inv, closed, atol=1e-10 * t)
    assert linalg.op_norm(np.linalg.inv(np.eye(2) + A @ C)) >= 100.0 / 3.0


def test_boettcher_norms_and_split():
    rec = bounds.counterexample_suite()
    assert rec["boettcher"]["norm"] == pytest.approx(21.176753, abs=1e-6)
    assert rec["boettcher"]["inverse_norm"] == pytest.approx(43.773534, abs=1e-6)
    assert rec["conjecture_violated"]
    assert rec["boettcher"]["psd_split_residual"] < 1e-15
    assert rec["commuting_inverse_norm"] == pytest.approx(0.5)
    As, Cs = bounds.boettcher_psd_split()
    assert np.min(np.linalg.eigvalsh(As)) > 0.0
    assert np.min(np.linalg.eigvalsh(Cs)) > 0.0
    # the product reproduces M exactly relative to the factor scales
    M = bounds.boettcher_matrix()
    rel = linalg.op_norm(As @ Cs - M) / (linalg.op_norm(As) * linalg.op_norm(Cs))
    assert rel < 1e-15


def test_hbinv_diagonal_coupling():
    S = BlockSaddle(np.eye(2), np.diag([1.0, 2.0]), np.eye(2))
    cert = bounds.hbinv_certificate(S)
    assert cert.quantities["alpha"] == pytest.approx(1.0)
    assert cert.quantities["gamma"] == pytest.approx(1.0)
    assert cert.inv_norm_bound == pytest.approx(3.0)
    true = 1.0 / np.min(np.abs(np.linalg.eigvalsh(S.assemble())))
    assert true <= cert.inv_norm_bound


def test_hbinv_zero_blocks_tight():
    S = BlockSaddle(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    cert = bounds.hbinv_certificate(S)
    assert cert.inv_norm_bound == pytest.approx(1.0)
    assert cert.interval == (-1.0, 1.0)


def test_hbinv_scaling_monotone():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A, C = rand_psd(rng, n), rand_psd(rng, n)
        B = rand_pd(rng, n)  # symmetric positive definite, surely invertible
        prev = None
        for t in (0.1, 0.5, 1.0, 2.0):
            b = bounds.hbinv_certificate(BlockSaddle(t * A, B, t * C)).inv_norm_bound
            if prev is not None:
                assert b >= prev - 1e-12 * max(1.0, prev)
            prev = b


def test_hbinv_failure_modes():
    with pytest.raises(RankDeficient, match="^B must be square, got 2x1$"):
        bounds.hbinv_certificate(BlockSaddle(np.eye(2), np.ones((2, 1)), np.eye(1)))
    with pytest.raises(RankDeficient, match="^B is singular; relative bounds are infinite$"):
        bounds.hbinv_certificate(
            BlockSaddle(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
        )


def test_hbinv_rank_cutoff_is_two_eps():
    # B_full_rank decides at max(m, k) eps = 2 eps: 3 eps keeps B invertible, eps does not
    eps = linalg.EPS
    cert = bounds.hbinv_certificate(BlockSaddle(np.eye(2), np.diag([1.0, 3.0 * eps]), np.eye(2)))
    assert cert.quantities["inv_B_norm"] == pytest.approx(1.0 / (3.0 * eps), rel=1e-12)
    with pytest.raises(RankDeficient, match="^B is singular; relative bounds are infinite$"):
        bounds.hbinv_certificate(BlockSaddle(np.eye(2), np.diag([1.0, eps]), np.eye(2)))


def test_zero_dichotomy_null_cutoff_is_two_eps():
    # negligible counts x <= n eps max|x| as zero, 2 eps here: 1.5 eps joins N(A), 3 eps does not
    eps = linalg.EPS
    C = np.diag([1.0, 0.0])
    cert = bounds.zero_dichotomy_certificate(BlockSaddle(np.diag([1.0, 1.5 * eps]), np.eye(2), C))
    assert cert.quantities["null_dim"] == 1.0
    with pytest.raises(DimensionMismatch, match=r"dim N\(A\) = 0 differs"):
        bounds.zero_dichotomy_certificate(BlockSaddle(np.diag([1.0, 3.0 * eps]), np.eye(2), C))


def test_zero_dichotomy_tight_example():
    S = BlockSaddle(np.diag([1.0, 0.0]), np.eye(2), np.diag([1.0, 0.0]))
    cert = bounds.zero_dichotomy_certificate(S)
    eps = cert.quantities["epsilon"]
    evals = np.linalg.eigvalsh(S.assemble())
    assert eps == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.abs(evals)) == pytest.approx(eps, abs=1e-12)
    # B22 invertible makes H invertible outright
    assert cert.claim == "excludes_all"


def test_zero_dichotomy_definite_reduces_to_diag():
    S = BlockSaddle(np.diag([2.0, 3.0]), np.zeros((2, 2)), np.diag([4.0, 5.0]))
    cert = bounds.zero_dichotomy_certificate(S)
    assert cert.quantities["epsilon"] == pytest.approx(2.0)


def test_zero_dichotomy_b22_singular():
    # null(A) and null(C) are coupled only through a zero corner block
    A = np.diag([1.0, 0.0])
    C = np.diag([1.0, 0.0])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(RankDeficient, match=r"^restriction of B between N\(A\) and N\(C\) is singular$"):
        bounds.zero_dichotomy_certificate(BlockSaddle(A, B, C))


def test_zero_dichotomy_property():
    rng = np.random.default_rng(13)
    issued = 0
    for _ in range(300):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 6))
        d = int(rng.integers(0, min(m, k)))  # shared null dimension
        A = rand_psd(rng, m, rank=m - d)
        C = rand_psd(rng, k, rank=k - d)
        B = rng.standard_normal((m, k))
        try:
            cert = bounds.zero_dichotomy_certificate(BlockSaddle(A, B, C))
        except (RankDeficient, DimensionMismatch):
            continue
        issued += 1
        evals = np.linalg.eigvalsh(np.block([[A, B], [B.T, -C]]))
        assert violations(evals, *cert.interval) == 0
    assert issued >= 200


def test_kirsch_certificate():
    A, B = np.diag([1.0, 2.0]), np.diag([3.0, 1.0])
    cert = bounds.kirsch_certificate(BlockSaddle(A, B, A))
    assert cert.interval[1] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    evals = np.linalg.eigvalsh(np.block([[A, B], [B, -A]]))
    # containment only: the certified radius sqrt(2) is below min |eig| = sqrt(5)
    assert np.min(np.abs(evals)) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert violations(evals, *cert.interval) == 0
    S = np.diag([1.0, 0.0])
    with pytest.raises(NotDefinite, match="^both A and B have smallest eigenvalue zero$"):
        bounds.kirsch_certificate(BlockSaddle(S, S, S))


@pytest.mark.parametrize("shift", [-1.5e-12, 1.5e-12])
def test_kirsch_needs_C_bit_equal_to_A(shift):
    # C = A -/+ 1.5e-12 I puts an eigenvalue 1.3e-12 (or 2.2e-13) inside
    # (-sqrt 2, sqrt 2), the interval the Kirsch radius of A and B would certify
    A, B = np.diag([1.0, 2.0]), np.diag([1.0, 3.0])
    S = BlockSaddle(A, B, A + shift * np.eye(2))
    assert not S.C_equals_A
    assert np.min(np.abs(np.linalg.eigvalsh(S.assemble()))) < np.sqrt(2.0) - 1e-13
    with pytest.raises(ValueError, match="^kirsch form needs square blocks with C = A$"):
        bounds.kirsch_certificate(S)


def test_kirsch_property_and_embedding_route():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A, B = rand_psd(rng, n), rand_psd(rng, n)
        H = np.block([[A, B], [B, -A]])
        evals = np.linalg.eigvalsh(H)
        sv = np.linalg.svd(A + 1j * B, compute_uv=False)
        # spectrum of the embedding is {-s_i} U {s_i}, s_i the singular values of A + iB
        scale = max(1.0, float(np.abs(evals).max()))
        assert np.allclose(evals[n:], np.sort(sv), atol=1e-9 * scale)
        try:
            cert = bounds.kirsch_certificate(BlockSaddle(A, B, A))
        except NotDefinite:
            continue
        assert violations(evals, *cert.interval) == 0


def test_winklmeier_values():
    S = BlockSaddle(0.5 * np.eye(2), np.eye(2), 0.5 * np.eye(2))
    assert bounds.winklmeier_bound(S) == pytest.approx(0.5, abs=1e-14)
    S0 = BlockSaddle(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    assert bounds.winklmeier_bound(S0) == pytest.approx(1.0, abs=1e-14)
    # the bound can be vacuous (nonpositive) when the blocks dominate B
    Sneg = BlockSaddle(2.0 * np.eye(1), np.eye(1), 2.0 * np.eye(1))
    assert bounds.winklmeier_bound(Sneg) == pytest.approx(-1.0, abs=1e-14)


def test_winklmeier_soundness_property():
    rng = np.random.default_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        S = BlockSaddle(rand_psd(rng, n), rng.standard_normal((n, n)), rand_psd(rng, n))
        b = bounds.winklmeier_bound(S)
        if b <= 0.0:
            continue
        evals = np.linalg.eigvalsh(S.assemble())
        assert violations(evals, -b, b) == 0


def test_func_calc_matches_expm():
    rng = np.random.default_rng(16)
    pairs = []
    for _ in range(50):
        n = int(rng.integers(1, 6))
        pairs.append((rand_psd(rng, n), rand_psd(rng, n)))
    # rotated projectors onto orthogonal lines: AC = 0, and C^(1/2) A C^(1/2)
    # is zero up to rounding far below eps ||A|| ||C||
    for theta in (0.3, 1.0, 2.5):
        q1 = np.array([np.cos(theta), np.sin(theta)])
        q2 = np.array([-np.sin(theta), np.cos(theta)])
        pairs.append((np.outer(q1, q1), np.outer(q2, q2)))
    for A, C in pairs:
        for t in (0.1, 1.0, 10.0):
            got = func_calc_AC(
                A, C, 1.0, lambda x, t=t: np.expm1(-t * x) / x if x > 0 else -t
            )
            want = scipy.linalg.expm(-t * A @ C)
            assert np.allclose(got, want, atol=1e-9 * max(1.0, linalg.op_norm(want)))


def test_func_calc_exp_norm_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        A, C = rand_psd(rng, n), rand_psd(rng, n)
        R = psd_sqrt(C)
        for t in (0.1, 1.0, 10.0):
            E = scipy.linalg.expm(-t * A @ C)
            cap = 1.0 + t * linalg.op_norm(A @ R) * linalg.op_norm(R)
            assert linalg.op_norm(E) <= cap * (1.0 + 1e-10)


def test_eig_4x4_against_dense():
    rng = np.random.default_rng(18)
    for _ in range(200):
        sign = 1 if rng.integers(2) else -1
        vals = rng.standard_normal(8)
        if sign == 1:
            p = Quartic4x4Params(
                vals[0], vals[1], (vals[2], vals[3]), (vals[4], vals[5]),
                (vals[6], 0.0), (vals[7], 0.0), sign=1,
            )
        else:
            p = Quartic4x4Params(
                vals[0], vals[1], (vals[2], vals[3]), (vals[4], vals[5]),
                (0.0, vals[6]), (0.0, vals[7]), sign=-1,
            )
        got = bounds.eig_4x4(p)
        want = np.linalg.eigvalsh(assemble_quartic(p))
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("t", [1e-60, 1e-20, 1e20, 1e60, 1e100])
def test_eig_4x4_scale_covariant(t):
    # A = 1.1 I, B = 0.7 I is a double pair: s^2 - c0 is zero up to rounding
    # at every scale and the discriminant test must accept it at each; the
    # root comes from a sum of squares that is exactly zero there, so the
    # pair stays double instead of splitting by sqrt(eps)
    for p, rtol in (
        (Quartic4x4Params(1.1, 1.1, b_plus=(0.7, 0.0), b_minus=(0.7, 0.0)), 1e-12),
        (Quartic4x4Params(1.0, 2.0, (0.5, 0.5), (0.1, -0.2), (1.0, 0.0), sign=1), 1e-12),
    ):
        pt = Quartic4x4Params(
            t * p.a_plus, t * p.a_minus,
            *[(t * re, t * im) for re, im in (p.a, p.b, p.b_plus, p.b_minus)], sign=p.sign,
        )
        assert np.allclose(bounds.eig_4x4(pt) / t, bounds.eig_4x4(p), rtol=rtol, atol=0.0)
    # a complex diagonal in B under sign=+1 leaves the closed form's
    # structure; the constructor rejects it, so it is set afterwards to
    # reach the discriminant test, which must reject it at every scale
    p = Quartic4x4Params(t, t)
    object.__setattr__(p, "b_plus", (0.0, t))
    with pytest.raises(NegativeDiscriminant):
        bounds.eig_4x4(p)


def test_eig_4x4_sign_conventions():
    with pytest.raises(ValueError):
        Quartic4x4Params(1.0, 1.0, b_plus=(1.0, 0.0), sign=-1)
    with pytest.raises(ValueError):
        Quartic4x4Params(1.0, 1.0, b_plus=(0.0, 1.0), sign=1)
    H = assemble_quartic(Quartic4x4Params(1.0, 2.0, (0.5, 0.5), (0.1, -0.2), (1.0, 0.0), sign=1))
    assert np.allclose(H, H.conj().T)


def test_nonmono_kirsch_family_frozen_point():
    rows = bounds.nonmono_curve(np.array([5.0]), "kirsch_Bt")
    assert rows[0, 1] == pytest.approx(np.sqrt(18.0 - np.sqrt(176.0)), abs=1e-12)


def test_nonmono_kirsch_quartic_oracle():
    t_grid = np.linspace(5.0, 20.0, 151)
    rows = bounds.nonmono_curve(t_grid, "kirsch_Bt")
    for t, v in rows:
        s = (11.0 + t * t) / 2.0
        c0 = 13.0 + 5.0 * t * t + 2.0 * t
        oracle = np.sqrt(s - np.sqrt(s * s - c0))
        assert v == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize(
    "t_grid", [np.linspace(5.0, 20.0, 151), np.array([1e3, 1e5, 1e11, 1e12, 1e50, 1e150, 1e154])]
)
def test_nonmono_kirsch_matches_mpmath(t_grid):
    # the small root sqrt(s - sqrt(s^2 - c0)) cancels once t^2 >> 5 (it read
    # exactly 0 from t ~ 1e10); |det M| / hi keeps full relative accuracy
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for t, v in bounds.nonmono_curve(t_grid, "kirsch_Bt"):
        T = mp.mpf(t)
        s = (11 + T * T) / 2
        c0 = 5 * T * T + 2 * T + 13
        want = mp.sqrt(c0 / (s + mp.sqrt(s * s - c0)))
        assert abs(v - want) <= 1e-15 * want, t


def test_eig_4x4_overflow_names_s():
    # s ~ t^2 / 2 leaves the float range from t ~ 1.34e154; below that no square warns
    p = Quartic4x4Params(2.0, 2.0, a=(-1.0, 0.0), b_plus=(1.0, 0.0), b_minus=(1e155, 0.0))
    with pytest.raises(OverflowError, match=r"s = tr\(M M\^H\)/2 overflows the float range"):
        bounds.eig_4x4(p)
    with pytest.raises(OverflowError, match="at t = 1e\\+155"):
        bounds.nonmono_curve(np.array([5.0, 1e155]), "kirsch_Bt")


def test_nonmono_simple_family():
    t_grid = np.linspace(5.0, 20.0, 31)
    rows = bounds.nonmono_curve(t_grid, "simple")
    assert np.all(np.diff(rows[:, 1]) < 0.0)
    for t, v in rows:
        H = np.block(
            [
                [np.diag([0.0, t]), np.array([[0.0, 1.0], [-1.0, 0.0]])],
                [np.array([[0.0, -1.0], [1.0, 0.0]]), -np.diag([0.0, t])],
            ]
        )
        assert abs(np.linalg.det(H) - 1.0) <= 1e-10
        s = t * t / 2.0 + 1.0
        assert v == pytest.approx(np.sqrt(s - np.sqrt(s * s - 1.0)), abs=1e-10)


def test_nonmono_scaled_family_is_nonmonotone():
    t_grid = np.linspace(5.0, 20.0, 151)
    vals = bounds.nonmono_curve(t_grid, "scaled_A")[:, 1]
    diffs = np.diff(vals)
    assert diffs.max() > 0.0 and diffs.min() < 0.0
    with pytest.raises(ValueError):
        bounds.nonmono_curve(t_grid, "bogus")
