"""Kernel linear algebra: decompositions, factors, and the HRA bidiagonal SVD."""

import tracemalloc

import numpy as np
import pytest

from gapcert import linalg
from gapcert.errors import DimensionMismatch, NotFinite, NotPSD, NotSymmetric

from helpers import count_factorizations, psd_sqrt, rand_psd


def test_require_finite_rejects_nan_and_inf():
    with pytest.raises(NotFinite):
        linalg.require_finite(np.array([[1.0, np.nan]]))
    with pytest.raises(NotFinite):
        linalg.require_finite(np.array([[np.inf]]))


def test_sym_eig_reconstructs():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        M = rand_psd(rng, n)
        w, V = linalg.sym_eig(M)
        assert np.all(np.diff(w) >= 0.0)
        assert np.allclose((V * w) @ V.T, M, atol=1e-12 * max(1.0, np.abs(w).max()))
        assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        linalg.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # the symmetry test is relative: a defect as large as the entries fails at any scale
    with pytest.raises(NotSymmetric):
        linalg.sym_eig(1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_cutoffs_are_sharp():
    # diag(1, w) has scale max|M| * n = 2: eigenvalues down to -1e-10 * 2 pass
    linalg.sym_eig(np.diag([1.0, -1.9e-10]))
    with pytest.raises(NotPSD):
        linalg.sym_eig(np.diag([1.0, -2.1e-10]))
    # and symmetry defects up to 1e-12 * 2
    linalg.sym_eig(np.array([[1.0, 0.0], [1.9e-12, 1.0]]))
    with pytest.raises(NotSymmetric):
        linalg.sym_eig(np.array([[1.0, 0.0], [2.1e-12, 1.0]]))


def test_sym_eig_rejects_rectangular():
    with pytest.raises(DimensionMismatch, match=r"^matrix must be square, got shape \(2, 3\)$"):
        linalg.sym_eig(np.ones((2, 3)))


@pytest.mark.parametrize("n", [*range(1, 71), 100, 126, 200, 256, 317, 400])
def test_sym_eig_zero_block_is_what_lapack_returns(n):
    # the +0.0 shortcut gives eigh's bits: values, vectors and the sign of every zero
    w, V = linalg.sym_eig(np.zeros((n, n)))
    w0, V0 = np.linalg.eigh(np.zeros((n, n)))
    assert (w.dtype, w.shape, V.dtype, V.shape) == (w0.dtype, w0.shape, V0.dtype, V0.shape)
    assert w.tobytes() == w0.tobytes() and V.tobytes() == V0.tobytes()


def test_sym_eig_zero_block_skips_lapack_only_for_positive_zeros(monkeypatch):
    counts = count_factorizations(monkeypatch)
    linalg.sym_eig(np.zeros((5, 5)))
    assert sum(counts.values()) == 0, counts
    for M in (-np.zeros((5, 5)), np.zeros((5, 5))):
        M[1, 3] = M[3, 1] = -0.0
        counts.clear()
        w, V = linalg.sym_eig(M)
        assert counts == {"eigh": 1}
        w0, V0 = np.linalg.eigh(M)
        assert w.tobytes() == w0.tobytes() and V.tobytes() == V0.tobytes()


def test_op_norm_matches_svd():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 7))
    assert linalg.op_norm(M) == pytest.approx(np.linalg.svd(M, compute_uv=False)[0])
    assert linalg.op_norm(np.zeros((0, 3))) == 0.0
    # an overflowed intermediate has no finite norm; NotFinite is kept for inputs
    assert linalg.op_norm(np.array([[np.inf, 1.0]])) == linalg.op_norm(np.array([[np.nan]])) == np.inf


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        M = rand_psd(rng, n)
        R = psd_sqrt(M)
        assert np.allclose(R @ R, M, atol=1e-10 * max(1.0, linalg.op_norm(M)))
        assert np.allclose(R, R.T)
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSD):
        psd_sqrt(1e-12 * np.diag([1.0, -1.0]))


def test_bidiagonal_validation(monkeypatch):
    with pytest.raises(ValueError):
        linalg.bidiag_svd_hra(np.ones(3), np.ones(3))
    # the dense fallback factors the upper bidiagonal with these bands
    monkeypatch.setattr(linalg, "_kernels", lambda: None)
    upper = np.array([[1.0, 4.0, 0.0], [0.0, 2.0, 5.0], [0.0, 0.0, 3.0]])
    got = linalg.bidiag_svd_hra(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0]))
    assert np.array_equal(got, np.linalg.svd(upper, compute_uv=False))


def test_bidiag_svd_matches_dense_at_moderate_scale():
    rng = np.random.default_rng(6)
    # an upper bidiagonal has its transpose's singular values, so lower input covers both
    for _ in range(2):
        d, e = rng.standard_normal(8), rng.standard_normal(7)
        got = linalg.bidiag_svd_hra(d, e)
        want = np.sort(np.linalg.svd(np.diag(d) + np.diag(e, -1), compute_uv=False))
        assert np.allclose(np.sort(got), want, atol=1e-12 * max(1.0, want[-1]))


def _sturm_smallest_eig_W(m: int) -> float:
    """Smallest eigenvalue of W_{1/2} by mpmath bisection on det(W - x I).

    The leading principal minors of the tridiagonal W satisfy a three
    term recurrence, evaluated at 40+m decimal digits; the root is
    bracketed by 0 and the band floor (1-c)^2.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + m):
        c = mp.mpf(1) / 2
        a = c * c + 1
        b2 = c * c

        def charpoly(x):
            prev, cur = mp.mpf(1), a - x
            for k in range(2, m + 1):
                ak = b2 if k == m else a
                prev, cur = cur, (ak - x) * cur - b2 * prev
            return cur

        lo, hi = mp.mpf(0), (1 - c) ** 2
        assert charpoly(lo) > 0 > charpoly(hi)
        for _ in range(300):
            mid = (lo + hi) / 2
            if charpoly(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize(
    "m, frozen", [(50, 6.6613381477509392e-16), (100, 5.9164567891575885e-31)], ids=["m=50", "m=100"]
)
def test_bidiag_svd_high_relative_accuracy(m, frozen):
    # T is the chain factor whose smallest singular value is ~ 6.7e-16 at
    # m=50 and ~ 5.9e-31 at m=100; a dense eigensolver loses it entirely,
    # the HRA route keeps 15 digits
    s = linalg.bidiag_svd_hra(np.full(m, 0.5), np.ones(m - 1))
    lam = float(s[-1]) ** 2
    oracle = _sturm_smallest_eig_W(m)
    assert abs(lam - oracle) / oracle < 1e-12
    assert float(s[-1]) == pytest.approx(frozen, rel=1e-12)


def _tridiagonal(a, e):
    return np.diag(a) + np.diag(e, 1) + np.diag(e, -1)


def _clear_shifts(rng, w, norm, count):
    # shifts more than 1e-8 ||T|| from every eigenvalue w
    x = rng.uniform(w[0] - 0.25 * norm, w[-1] + 0.25 * norm, 4 * count)
    return x[np.min(np.abs(x[:, None] - w[None, :]), axis=1) > 1e-8 * norm][:count]


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_sturm_count_matches_dense_counts(scale):
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 61))
        a, e = scale * rng.standard_normal(n), scale * rng.standard_normal(n - 1)
        if trial % 3 == 0:
            # a split matrix: some off-diagonals, or all of them, exactly zero
            e[rng.random(n - 1) < (1.0 if trial % 2 else 0.5)] = 0.0
        w = np.linalg.eigvalsh(_tridiagonal(a, e))
        norm = max(float(np.max(np.abs(w))), scale)
        x = _clear_shifts(rng, w, norm, 40)
        assert np.array_equal(linalg.sturm_count(a, e, x), np.searchsorted(w, x)), (scale, n)


def test_sturm_count_zero_pivot():
    # a shift exactly on an eigenvalue (or on one of a leading block) makes
    # a pivot exactly zero; it counts as -pivmin, with no warning
    assert linalg.sturm_count([0.0, 0.0], [1.0], [0.0]) == 1
    assert linalg.sturm_count([1.0, 2.0, 3.0], [0.0, 0.0], [2.0]) in (1, 2)
    # the leading 2x2 block is singular at 0 while T is not: the count is exact
    a, e = np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0])
    w = np.linalg.eigvalsh(_tridiagonal(a, e))
    assert linalg.sturm_count(a, e, [0.0]) == np.searchsorted(w, 0.0)
    lo = linalg.sturm_count(a, e, w - 1e-9)
    hi = linalg.sturm_count(a, e, w + 1e-9)
    assert np.array_equal(lo, [0, 1, 2]) and np.array_equal(hi, [1, 2, 3])
    # every shift on the eigenvalue 2 of a split diagonal
    assert np.array_equal(linalg.sturm_count(np.full(4, 2.0), np.zeros(3), [2.0, 2.0]), [4, 4])


def test_sturm_count_input_checks():
    with pytest.raises(ValueError):
        linalg.sturm_count([1.0, 2.0], [1.0, 1.0], [0.0])
    with pytest.raises(NotFinite):
        linalg.sturm_count([1.0, np.nan], [1.0], [0.0])
    with pytest.raises(OverflowError):
        linalg.sturm_count([1.0, 2.0], [1e200], [0.0])
    assert linalg.sturm_error_bound([1.0, -4.0]) < 1e-14


def test_sturm_count_memory_is_per_lane():
    # one running count per shift: no (n, lanes) history is stored
    rng = np.random.default_rng(14)
    n, lanes = 4000, 8000
    a, e, x = rng.standard_normal(n), rng.standard_normal(n - 1), rng.uniform(-4.0, 4.0, lanes)
    tracemalloc.start()
    try:
        counts = linalg.sturm_count(a, e, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (lanes,)
    assert peak <= 8 * (8 * lanes), peak


def test_tridiag_eigvalsh_matches_dense():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 40):
        a, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        w = np.linalg.eigvalsh(_tridiagonal(a, e))
        got = linalg.tridiag_eigvalsh(a, e)
        assert np.all(np.diff(got) >= 0.0)
        assert np.allclose(got, w, rtol=0.0, atol=4 * n * linalg.EPS * np.max(np.abs(w)))
    # every band kernel takes one matrix's bands: finite, 1-D, the off-diagonal one entry shorter
    for kernel in (linalg.tridiag_eigvalsh, linalg.bidiag_svd_hra):
        assert kernel(np.zeros(0), np.zeros(0)).shape == (0,)
        for diag, offdiag in (
            ([1.0, 2.0], [1.0, 1.0]),
            ([1.0, 2.0], []),
            (np.ones((2, 3)), np.ones((2, 2))),
            (np.ones(3), np.ones((1, 2))),
            (1.0, []),
        ):
            with pytest.raises(ValueError):
                kernel(diag, offdiag)
        with pytest.raises(NotFinite):
            kernel([1.0, np.inf], [1.0])
        with pytest.raises(NotFinite):
            kernel([1.0, 2.0], [np.nan])


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(12)
    a, e = rng.standard_normal(9), rng.standard_normal(8)
    saved = a.copy(), e.copy()
    linalg.tridiag_eigvalsh(a, e)
    assert np.array_equal(a, saved[0]) and np.array_equal(e, saved[1])
    d, f = rng.standard_normal(9), rng.standard_normal(8)
    saved = d.copy(), f.copy()
    linalg.bidiag_svd_hra(d, f)
    assert np.array_equal(d, saved[0]) and np.array_equal(f, saved[1])


def test_kernel_failure_raises(monkeypatch):
    def fails(*args):
        args[-1]._obj.value = 1  # INFO, passed by reference

    monkeypatch.setattr(linalg, "_kernels", lambda: linalg._Kernels(fails, fails))
    with pytest.raises(np.linalg.LinAlgError):
        linalg.tridiag_eigvalsh([1.0, 2.0], [1.0])
    with pytest.raises(np.linalg.LinAlgError):
        linalg.bidiag_svd_hra(np.ones(3), np.ones(2))
