"""Gap certificates, inverse-norm bounds, and counterexample fixtures."""

import numpy as np
import pytest
import scipy.linalg

from gapcert import bounds, linalg
from gapcert.bounds import BlockSaddle, Quartic4x4Params
from gapcert.errors import (
    B22Singular,
    BNotInvertible,
    BothSemidefiniteSingular,
    DimensionMismatch,
    NotDefinite,
    NotPSD,
    NotSymmetric,
    UnboundedRelativeBound,
)

from helpers import rand_pd, rand_psd, violations


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


def test_null_space_H():
    S = BlockSaddle(np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 0.0]))
    rep = bounds.null_space_H(S)
    assert rep.na_nb.shape == (2, 1) and rep.nc_nb.shape == (2, 2) and rep.singular
    H = np.linalg.eigvalsh(S.assemble())
    assert np.count_nonzero(np.abs(H) < 1e-12) == 3


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


def test_inv_IplusAC_identity_pair():
    assert bounds.inv_IplusAC_bound(np.eye(3), np.eye(3)) == pytest.approx(1.5)


def test_inv_IplusAC_bound_property():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A, C = rand_psd(rng, n), rand_psd(rng, n)
        est = bounds.inv_IplusAC_bound(A, C)
        true = linalg.op_norm(np.linalg.inv(np.eye(n) + A @ C))
        assert true <= est * (1.0 + 1e-10)


def test_verify_norm_floor():
    norm, zero = bounds.verify_norm_floor(np.eye(2), np.zeros((2, 2)))
    assert norm == pytest.approx(1.0) and zero
    norm, zero = bounds.verify_norm_floor(np.eye(2), np.eye(2))
    assert norm == pytest.approx(2.0) and not zero


def test_omladic_growth():
    for t in (1.0, 10.0, 100.0):
        A, C = bounds.omladic_pair(t)
        inv = np.linalg.inv(np.eye(2) + A @ C)
        closed = np.array([[2.0, -t], [-1.0 / t, 2.0]]) / 3.0
        assert np.allclose(inv, closed, atol=1e-10 * t)
    assert linalg.op_norm(np.linalg.inv(np.eye(2) + A @ C)) >= 100.0 / 3.0


def test_boettcher_norms_and_split():
    rep = bounds.counterexample_suite()
    assert rep.boettcher_norm == pytest.approx(21.176753, abs=1e-6)
    assert rep.boettcher_inv_norm == pytest.approx(43.773534, abs=1e-6)
    assert rep.conjecture_violated
    assert rep.boettcher_split_residual < 1e-15
    assert rep.commuting_inv_norm == pytest.approx(0.5)
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
    with pytest.raises(BNotInvertible):
        bounds.hbinv_certificate(BlockSaddle(np.eye(2), np.ones((2, 1)), np.eye(1)))
    with pytest.raises((BNotInvertible, UnboundedRelativeBound)):
        bounds.hbinv_certificate(
            BlockSaddle(np.eye(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))
        )


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
    with pytest.raises(B22Singular):
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
        except (B22Singular, DimensionMismatch):
            continue
        issued += 1
        evals = np.linalg.eigvalsh(np.block([[A, B], [B.T, -C]]))
        assert violations(evals, *cert.interval) == 0
    assert issued >= 200


def test_kirsch_certificate():
    A, B = np.diag([1.0, 2.0]), np.diag([3.0, 1.0])
    cert = bounds.kirsch_certificate(A, B)
    assert cert.interval[1] == pytest.approx(np.sqrt(2.0), abs=1e-14)
    evals = np.linalg.eigvalsh(np.block([[A, B], [B, -A]]))
    # containment only: the certified radius sqrt(2) is below min |eig| = sqrt(5)
    assert np.min(np.abs(evals)) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert violations(evals, *cert.interval) == 0
    with pytest.raises(BothSemidefiniteSingular):
        bounds.kirsch_certificate(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))


def test_kirsch_property_and_embedding_route():
    rng = np.random.default_rng(14)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        A, B = rand_psd(rng, n), rand_psd(rng, n)
        H = np.block([[A, B], [B, -A]])
        evals = np.linalg.eigvalsh(H)
        sv = linalg.complex_svd_via_embedding(A, B)
        # spectrum of the embedding is {-s_i} U {s_i}, each singular value once
        scale = max(1.0, float(np.abs(evals).max()))
        assert np.allclose(evals[n:], np.sort(sv), atol=1e-9 * scale)
        try:
            cert = bounds.kirsch_certificate(A, B)
        except BothSemidefiniteSingular:
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
    for _ in range(50):
        n = int(rng.integers(1, 6))
        A, C = rand_psd(rng, n), rand_psd(rng, n)
        for t in (0.1, 1.0, 10.0):
            got = bounds.func_calc_AC(
                A, C, 1.0, lambda x, t=t: np.expm1(-t * x) / x if x > 0 else -t
            )
            want = scipy.linalg.expm(-t * A @ C)
            assert np.allclose(got, want, atol=1e-9 * max(1.0, linalg.op_norm(want)))


def test_func_calc_exp_norm_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        A, C = rand_psd(rng, n), rand_psd(rng, n)
        R = linalg.psd_sqrt(C)
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
        want = np.linalg.eigvalsh(p.assemble())
        assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))


def test_eig_4x4_sign_conventions():
    with pytest.raises(ValueError):
        Quartic4x4Params(1.0, 1.0, b_plus=(1.0, 0.0), sign=-1)
    with pytest.raises(ValueError):
        Quartic4x4Params(1.0, 1.0, b_plus=(0.0, 1.0), sign=1)
    H = Quartic4x4Params(1.0, 2.0, (0.5, 0.5), (0.1, -0.2), (1.0, 0.0), sign=1).assemble()
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
