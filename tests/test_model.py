"""Chain-model builders, secular roots, gap checks, and disorder runs."""

import numpy as np
import pytest

from gapcert import model
from gapcert.errors import OutOfRegime
from gapcert.linalg import Bidiagonal, bidiag_svd_hra
from gapcert.model import DisorderSpec, ModelSpec

# smallest eigenvalue of W_{1/2}, frozen from a high-precision Sturm count
GAP_HALF = {
    3: 9.40284795399e-3,
    5: 5.531127012e-4,
    10: 5.36449221203e-7,
    20: 5.11590769761e-13,
    50: 4.43734259187e-31,
}

SIGMA_HALF = {50: 6.6613381477509392e-16, 100: 5.9164567891575885e-31}


def involution(m: int) -> np.ndarray:
    I = np.eye(m)
    return np.block([[I, I], [I, -I]]) / np.sqrt(2.0)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(1)
    with pytest.raises(ValueError):
        ModelSpec(2.5)
    with pytest.raises(ValueError):
        ModelSpec(3, -0.1)
    with pytest.raises(ValueError):
        ModelSpec(3, 0.5, DisorderSpec(-1.0, 1.0, 0))
    with pytest.raises(ValueError):
        DisorderSpec(1.0, -1.0, 0)
    with pytest.raises(ValueError):
        DisorderSpec(-1.0, 1.0, 0, law="gaussian")


def test_build_blocks_small():
    A, B = model.build_blocks(ModelSpec(2))
    assert np.array_equal(A, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(B, [[0.0, 1.0], [-1.0, 0.0]])
    A3, _ = model.build_blocks(ModelSpec(3))
    assert np.allclose(np.linalg.eigvalsh(A3), [-np.sqrt(2.0), 0.0, np.sqrt(2.0)])


def test_unitary_equivalence_H_to_K():
    spec = ModelSpec(5, 0.7)
    H = model.build_Hc(spec)
    K = model.build_Kc(spec)
    U = involution(spec.m)
    assert np.allclose(U @ H @ U, K, atol=1e-13)
    assert np.allclose(np.linalg.eigvalsh(H), np.linalg.eigvalsh(K), atol=1e-12)


def test_x_block_is_twice_Tc():
    spec = ModelSpec(4, 0.3)
    X = model.build_Kc(spec)[:4, 4:]
    assert np.allclose(X, 2.0 * model.build_Tc(spec).dense(), atol=0.0)
    assert np.array_equal(np.triu(X, 1), np.zeros((4, 4)))  # lower bidiagonal


def test_gram_identity():
    spec = ModelSpec(6, 0.7)
    W = model.build_Wc(spec)
    Tm = Bidiagonal(np.full(6, -0.7), np.ones(5), "lower").dense()
    assert np.allclose(W, Tm.T @ Tm, atol=1e-14)
    assert W[0, 0] == 0.7**2 + 1.0 and W[5, 5] == 0.7**2 and W[0, 1] == -0.7
    sv = bidiag_svd_hra(model.build_Tc(spec))
    assert np.allclose(np.linalg.eigvalsh(W), np.sort(sv) ** 2, atol=1e-13)


def test_hc_spectrum_matches_dense_and_is_symmetric():
    for c in (0.0, 0.8, 1.0, 2.0):
        spec = ModelSpec(6, c)
        hc = model.hc_spectrum(spec)
        assert np.array_equal(hc, -hc[::-1])
        assert np.allclose(hc, np.linalg.eigvalsh(model.build_Hc(spec)), atol=1e-12)


def test_frozen_small_gaps_at_half():
    for m, lam in GAP_HALF.items():
        sv = bidiag_svd_hra(model.build_Tc(ModelSpec(m, 0.5)))
        lam1 = float(np.min(sv)) ** 2
        assert abs(lam1 - lam) <= 1e-9 * lam
    for m, sigma in SIGMA_HALF.items():
        sv = bidiag_svd_hra(model.build_Tc(ModelSpec(m, 0.5)))
        assert abs(float(np.min(sv)) - sigma) <= 1e-12 * sigma


def test_critical_coupling_closed_form():
    # at c = 1 the Gram eigenvalues are 4 sin^2((2k-1) pi / (2(2m+1)))
    for m in (2, 5):
        k = np.arange(1, m + 1)
        closed = np.sort(4.0 * np.sin((2 * k - 1) * np.pi / (2.0 * (2 * m + 1))) ** 2)
        assert np.allclose(np.linalg.eigvalsh(model.build_Wc(ModelSpec(m, 1.0))), closed, atol=1e-12)
        assert np.allclose(model.secular_eigenvalues(ModelSpec(m, 1.0)), closed, atol=1e-12)


def test_secular_counts_and_gram_match():
    for m in (4, 7, 10):
        for c in (0.5, 1.0, 1.5, 2.0, 3.0):
            spec = ModelSpec(m, c)
            sr = model.secular_solve(spec)
            hyp_expected = c < 1.0 and m * (1.0 - c) - c > 0.0
            assert (sr.hyp_root is not None) == hyp_expected
            assert (sr.alpha_hat is not None) == (c > 1.0)
            assert sr.trig_roots.size == (m - 1 if hyp_expected else m)
            sec = model.secular_eigenvalues(spec)
            dense = np.linalg.eigvalsh(model.build_Wc(spec))
            assert np.allclose(sec, dense, rtol=1e-9, atol=1e-13 * (1.0 + c) ** 2)


def test_secular_no_hyperbolic_near_threshold():
    # c = 0.9, m = 4 has m(1-c) - c < 0: all m roots are trigonometric
    sr = model.secular_solve(ModelSpec(4, 0.9))
    assert sr.hyp_root is None and sr.trig_roots.size == 4


def test_tan_residual_closed_form_roots():
    # for m = 2, c = 1 the secular roots are alpha = pi/5 and 3 pi/5
    assert abs(model.tan_residual(2, 1.0, np.pi / 5.0)) < 1e-12
    assert abs(model.tan_residual(2, 1.0, 3.0 * np.pi / 5.0)) < 1e-12


def test_secular_out_of_regime():
    with pytest.raises(OutOfRegime):
        model.secular_solve(ModelSpec(5, 0.0))
    with pytest.raises(ValueError):
        model.secular_solve(ModelSpec(5, 0.0, DisorderSpec(-1.0, 1.0, 0)))


def test_hyperbolic_root_deep_regime():
    sr = model.secular_solve(ModelSpec(50, 0.5))
    assert sr.hyp_root is not None
    alpha1, log_lam = sr.hyp_root
    assert abs(alpha1 - np.log(2.0)) < 1e-12  # alpha0 = arccosh(5/4) = ln 2
    assert abs(log_lam - (-69.89008220089809)) < 1e-9
    # independent route: square of the smallest singular value of T_c
    sv = bidiag_svd_hra(model.build_Tc(ModelSpec(50, 0.5)))
    assert abs(log_lam - 2.0 * np.log(float(np.min(sv)))) < 1e-8


def test_spurious_estimate():
    est = model.spurious_estimate(ModelSpec(50, 0.5))
    assert abs(est.alpha0 - np.log(2.0)) < 1e-14
    assert abs(est.log_lambda_est / np.log(10.0) - (-30.352877039614718)) < 1e-9
    assert est.log_sigma_est == est.log_lambda_est / 2.0
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(OutOfRegime):
            model.spurious_estimate(ModelSpec(50, bad))


def test_stable_gap_radius():
    assert model.stable_gap(0.5).radius == 1.0
    assert model.stable_gap(1.0).radius == 0.0
    assert model.stable_gap(2.0).radius == 2.0
    with pytest.raises(ValueError):
        model.stable_gap(-0.5)


def test_stable_gap_check_patterns():
    for m in (2, 5, 10):
        for c in (0.0, 0.5, 1.0, 1.5, 2.0):
            out = model.stable_gap_check(m, c)
            assert out["ok"], out
            assert out["inside_count"] == (0 if c >= 1.0 else 2)
            assert out["radius"] == 2.0 * abs(c - 1.0)


def test_stable_gap_check_without_central_pair():
    # m (1 - c) <= c: too few sites for the pair to form, so the gap is empty
    for m, c in ((2, 0.7), (3, 0.8)):
        out = model.stable_gap_check(m, c)
        assert out["ok"] and out["expected_count"] == 0 and out["inside_count"] == 0, out


def test_modified_k0_squares_to_four():
    Kt, _ = model.build_modified(ModelSpec(4, 0.0))
    assert np.array_equal(Kt @ Kt, 4.0 * np.eye(8))


def test_modified_unitary_consistency():
    spec = ModelSpec(5, 1.3)
    Kt, Ht = model.build_modified(spec)
    U = involution(spec.m)
    assert np.allclose(U @ Ht @ U, Kt, atol=1e-13)


def test_modified_spectrum_closed_form():
    root2 = np.sqrt(2.0)
    closed = model.modified_spectrum_closed_form(ModelSpec(2, 1.0))
    assert np.allclose(closed, [8 - 4 * root2, 8 - 4 * root2, 8 + 4 * root2, 8 + 4 * root2])
    for m, c in ((5, 1.3), (8, 0.5), (6, 0.0)):
        spec = ModelSpec(m, c)
        wt = np.linalg.eigvalsh(model.build_modified(spec)[1])
        assert np.allclose(np.sort(wt**2), model.modified_spectrum_closed_form(spec), atol=1e-9)
        assert np.max(np.abs(wt + wt[::-1])) < 1e-10 * np.max(np.abs(wt))
        # the modified spectrum clears the stable gap entirely
        assert np.min(np.abs(wt)) >= model.stable_gap(c).radius - 1e-12


def test_symbol_spectrum():
    w_band, (h_neg, h_pos) = model.symbol_spectrum(0.5)
    assert w_band == (0.25, 2.25)
    assert h_neg == (-3.0, -1.0) and h_pos == (1.0, 3.0)
    assert model.symbol_spectrum(0.0)[0] == (1.0, 1.0)
    with pytest.raises(ValueError):
        model.symbol_spectrum(-1.0)


def test_finite_volume_spectra_versus_symbol():
    # only the spurious pair escapes the symbol bands in the subcritical phase
    c = 0.5
    (w_lo, w_hi), (_, (h_lo, h_hi)) = model.symbol_spectrum(c)
    sec = model.secular_eigenvalues(ModelSpec(8, c))
    assert sec[0] < w_lo
    assert np.all(sec[1:] >= w_lo - 1e-12) and np.all(sec <= w_hi + 1e-12)
    a = np.sort(np.abs(model.hc_spectrum(ModelSpec(8, c))))
    assert a[1] < h_lo
    assert np.all(a[2:] >= h_lo - 1e-12) and np.all(a <= h_hi + 1e-12)


def test_deterministic_guards_reject_disorder():
    spec = ModelSpec(4, 0.0, DisorderSpec(-1.0, 1.0, 0))
    for fn in (model.build_Tc, model.build_Wc, model.modified_spectrum_closed_form):
        with pytest.raises(ValueError):
            fn(spec)


def test_draw_disorder_determinism():
    spec = ModelSpec(10, 0.0, DisorderSpec(-3.0, 3.0, 42))
    w1, w2 = model.draw_disorder(spec), model.draw_disorder(spec)
    assert np.array_equal(w1, w2)
    assert w1.size == 10 and np.all(w1 >= -3.0) and np.all(w1 <= 3.0)
    other = model.draw_disorder(ModelSpec(10, 0.0, DisorderSpec(-3.0, 3.0, 43)))
    assert not np.array_equal(w1, other)
    with pytest.raises(ValueError):
        model.draw_disorder(ModelSpec(10))


def test_disorder_experiment():
    spec = ModelSpec(30, 0.0, DisorderSpec(-3.0, 3.0, 7))
    rep = model.disorder_experiment(spec)
    assert rep.eigenvalues.size == 60
    assert np.array_equal(rep.eigenvalues, -rep.eigenvalues[::-1])
    assert rep.near_zero.size == 4
    scale = float(np.max(np.abs(rep.eigenvalues)))
    assert rep.symmetry_defect <= 1e-10 * scale
    assert 0.0 < rep.central_magnitude < rep.surrounding_edge
    # the boundary terms break the symmetry and lift the central pair
    assert rep.modified_min_abs > 100.0 * rep.central_magnitude
    assert rep.modified_symmetry_defect > 1e-6
    with pytest.raises(ValueError):
        model.disorder_experiment(ModelSpec(30))


def test_gap_scan():
    rows = model.gap_scan([0.0, 2.0], 0.5, 4, seed=3)
    assert len(rows) == 2 * 2 * 8
    assert rows == model.gap_scan([0.0, 2.0], 0.5, 4, seed=3)
    first = [r for r in rows if r[0] == 0.0 and r[1] == "H"]
    evals = model.hc_spectrum(ModelSpec(4, 0.0, DisorderSpec(-0.5, 0.5, 3)))
    assert [r[2] for r in first] == list(range(1, 9))
    assert np.allclose([r[3] for r in first], evals, atol=0.0)
    assert {r[1] for r in rows} == {"H", "Htilde"}
