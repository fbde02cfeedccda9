"""Chain-model builders, secular roots, gap checks, and disorder runs."""

import json
from functools import partial

import numpy as np
import pytest

from gapcert import linalg, model
from gapcert.cli import _build_parser, main
from gapcert.errors import OutOfRegime, RootCountMismatch
from gapcert.linalg import bidiag_svd_hra, tridiag_eigvalsh
from gapcert.model import DisorderSpec, ModelSpec

from helpers import build_Ktilde, count_factorizations

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


def _tc_singular_values(spec: ModelSpec) -> np.ndarray:
    # T_c's bands: diagonal c, subdiagonal 1
    return bidiag_svd_hra(np.full(spec.m, spec.c), np.ones(spec.m - 1))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(1)
    with pytest.raises(ValueError):
        ModelSpec(2.5)
    with pytest.raises(ValueError):
        ModelSpec(3, -0.1)
    with pytest.raises(ValueError):
        ModelSpec(3, np.inf)
    with pytest.raises(ValueError):
        ModelSpec(3, 0.5, DisorderSpec(-1.0, 1.0, 0))
    with pytest.raises(ValueError):
        DisorderSpec(1.0, -1.0, 0)


def test_build_blocks_small():
    H = model.build_Hc(ModelSpec(2))
    A, B = H[:2, :2], H[:2, 2:]
    assert np.array_equal(A, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(B, [[0.0, 1.0], [-1.0, 0.0]])
    A3 = model.build_Hc(ModelSpec(3))[:3, :3]
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
    assert np.allclose(X, 2.0 * model.build_Tc(spec), atol=0.0)
    assert np.array_equal(np.triu(X, 1), np.zeros((4, 4)))  # lower bidiagonal


def test_gram_identity():
    spec = ModelSpec(6, 0.7)
    W = model.build_Wc(spec)
    Tm = np.diag(np.full(6, -0.7)) + np.diag(np.ones(5), -1)
    assert np.allclose(W, Tm.T @ Tm, atol=1e-14)
    assert W[0, 0] == 0.7**2 + 1.0 and W[5, 5] == 0.7**2 and W[0, 1] == -0.7
    sv = _tc_singular_values(spec)
    assert np.allclose(np.linalg.eigvalsh(W), np.sort(sv) ** 2, atol=1e-13)


def test_hc_spectrum_matches_dense_and_is_symmetric():
    for c in (0.0, 0.8, 1.0, 2.0):
        spec = ModelSpec(6, c)
        hc = model.hc_spectrum(spec)
        assert np.array_equal(hc, -hc[::-1])
        assert np.allclose(hc, np.linalg.eigvalsh(model.build_Hc(spec)), atol=1e-12)


def test_frozen_small_gaps_at_half():
    for m, lam in GAP_HALF.items():
        sv = _tc_singular_values(ModelSpec(m, 0.5))
        lam1 = float(np.min(sv)) ** 2
        assert abs(lam1 - lam) <= 1e-9 * lam
    for m, sigma in SIGMA_HALF.items():
        sv = _tc_singular_values(ModelSpec(m, 0.5))
        assert abs(float(np.min(sv)) - sigma) <= 1e-12 * sigma


def test_critical_coupling_closed_form():
    # at c = 1 the Gram eigenvalues are 4 sin^2((2k-1) pi / (2(2m+1)))
    for m in (2, 5):
        k = np.arange(1, m + 1)
        closed = np.sort(4.0 * np.sin((2 * k - 1) * np.pi / (2.0 * (2 * m + 1))) ** 2)
        assert np.allclose(np.linalg.eigvalsh(model.build_Wc(ModelSpec(m, 1.0))), closed, atol=1e-12)
        spec = ModelSpec(m, 1.0)
        assert np.allclose(model.secular_eigenvalues(spec, model.secular_solve(spec)), closed, atol=1e-12)


def test_secular_counts_and_gram_match():
    for m in (4, 7, 10):
        for c in (0.5, 1.0, 1.5, 2.0, 3.0):
            spec = ModelSpec(m, c)
            sr = model.secular_solve(spec)
            hyp_expected = c < 1.0 and m * (1.0 - c) - c > 0.0
            assert (sr.hyp_root is not None) == hyp_expected
            assert (sr.alpha_hat is not None) == (c > 1.0)
            assert sr.trig_roots.size == (m - 1 if hyp_expected else m)
            sec = model.secular_eigenvalues(spec, sr)
            dense = np.linalg.eigvalsh(model.build_Wc(spec))
            assert np.allclose(sec, dense, rtol=1e-9, atol=1e-13 * (1.0 + c) ** 2)


def test_secular_no_hyperbolic_near_threshold():
    # c = 0.9, m = 4 has m(1-c) - c < 0: all m roots are trigonometric
    sr = model.secular_solve(ModelSpec(4, 0.9))
    assert sr.hyp_root is None and sr.trig_roots.size == 4


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
    sv = _tc_singular_values(ModelSpec(50, 0.5))
    assert abs(log_lam - 2.0 * np.log(float(np.min(sv)))) < 1e-8


def _scalar_bisect(f, lo, hi, iters):
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


def _scalar_hyp_root(m, c):
    a0 = model._alpha0(c)
    if 2.0 * m * a0 > 600.0:
        return a0, float(2.0 * np.log1p(-c * c) + 2.0 * m * np.log(c))

    def h(delta):
        al = a0 - delta
        if delta <= 0.5 * a0:
            E = np.exp(-2.0 * m * al)
            r = 2.0 * E / (1.0 + E)
            q = (1.0 - c * np.cosh(al)) / np.sinh(al)
            return float(-np.expm1(-delta) / np.sinh(al) - r * q)
        return float(np.tanh(m * al) * (1.0 - c * np.cosh(al)) / np.sinh(al) - c)

    guess = (1.0 - c * c) * np.exp(-2.0 * m * a0)
    u = _scalar_bisect(lambda t: h(np.exp(t)), np.log(guess) - 30.0, np.log(a0 * (1.0 - 1e-12)), 120)
    delta = float(np.exp(u))
    log_lam = np.log(4.0 * c) + model._log_sinh(a0 - delta / 2.0) + model._log_sinh(delta / 2.0)
    return a0 - delta, float(log_lam)


def _scalar_secular(m, c):
    """Bracket-by-bracket reference: one scalar bisection per root."""
    hyp = 0.0 < c < 1.0 and m * (1.0 - c) - c > 0.0
    pts = [1e-12] + [(2 * j - 1) * np.pi / (2 * m) for j in range(1, m + 1)] + [np.pi - 1e-12]
    alpha_hat = float(np.arccos(1.0 / c)) if c > 1.0 else None
    if alpha_hat is not None:
        if min(abs(alpha_hat - p) for p in pts) < 1e-9:
            pts += [alpha_hat - 1e-9, alpha_hat + 1e-9]
        else:
            pts.append(alpha_hat)
    pts = sorted(p for p in pts if 0.0 < p < np.pi)
    roots = []
    vals = [float(model._F(m, c, p)) for p in pts]
    for (lo, flo), (hi, fhi) in zip(zip(pts, vals), zip(pts[1:], vals[1:])):
        if flo == 0.0:
            roots.append(lo)
            continue
        if (flo < 0.0) == (fhi < 0.0):
            continue
        roots.append(_scalar_bisect(lambda t: float(model._F(m, c, t)), lo, hi, 80))
    return np.asarray(sorted(set(roots))), _scalar_hyp_root(m, c) if hyp else None, alpha_hat


@pytest.mark.parametrize("iters", [5, 80])
def test_bisect_matches_scalar_bisection(iters):
    # brackets: an exact zero at the first midpoint, a root off the dyadic
    # grid, f < 0 at lo with an exact zero at the second midpoint, no sign
    # change, the root 0.5 from a bracket whose midpoints miss it, and a
    # root near 1e-30, which needs more than 80 halvings to collapse on
    def f(t):
        return (t - 0.5) * (t - 3.3) * (t - 5.25) * (t - 1e-30)

    brackets = [(0.0, 1.0), (3.0, 4.0), (4.5, 5.5), (6.0, 7.0), (1e-3, 0.7), (-1.0, 0.25)]
    got = [model._bisect(f, lo, hi, iters) for lo, hi in brackets]
    assert got == [_scalar_bisect(f, lo, hi, iters) for lo, hi in brackets]
    assert got[0] == 0.5 and got[2] == 5.25
    # the cap binds on the last bracket: the uncapped bisection goes on to 1e-30
    assert abs(model._bisect(f, -1.0, 0.25, 1100) - 1e-30) <= 1e-45
    assert got[5] != model._bisect(f, -1.0, 0.25, 1100)


def _seeded_secular_cases():
    rng = np.random.default_rng(20260901)
    cases = [(int(rng.integers(2, 201)), float(rng.uniform(1e-3, 3.0))) for _ in range(80)]
    # within 1e-9 of m (1 - c) = c, where the smallest root sinks into F's noise
    for _ in range(20):
        m = int(rng.integers(2, 201))
        cases.append((m, m / (m + 1.0) + float(rng.uniform(-1e-9, 1e-9))))
    return cases


@pytest.mark.parametrize(
    "m,c",
    [
        (2, 1.0),
        (2, 0.5),
        (3, 0.5),
        (9, 0.9),
        (10, 0.9),
        (11, 0.9),
        (7, 1.5),
        (40, 3.0),
        (3, 1.0 / np.cos(np.pi / 6.0)),
        (5, 1.0 / np.cos(3.0 * np.pi / 10.0)),
        (1000, 0.9),
        (1000, 1.7),
        (5000, 0.5),
        (5000, 1.2),
        # rounding noise in h changes its sign within a few ulps of the root
        # here, so these check that _hyp_root takes the scalar bisection's steps
        (2, 0.6381851541475009),
        (4, 0.548224952260725),
        # hyperbolic root just below m (1 - c) = c
        (800, 800.0 / 801.0 * (1.0 - 1e-12)),
    ]
    + _seeded_secular_cases(),
)
def test_secular_solve_matches_scalar_reference(m, c):
    sr = model.secular_solve(ModelSpec(m, c))
    roots, hyp_root, alpha_hat = _scalar_secular(m, c)
    assert sr.trig_roots.size == roots.size
    assert np.all(np.abs(sr.trig_roots - roots) <= 4.0 * np.finfo(float).eps * np.abs(roots))
    assert sr.hyp_root == hyp_root
    assert sr.alpha_hat == alpha_hat


def test_secular_solve_vectorized(monkeypatch):
    # every bracket is solved in the same array calls: the number of
    # evaluations of the secular function does not grow with m
    calls = [0]
    F = model._F

    def counted(m, c, al):
        calls[0] += 1
        return F(m, c, al)

    monkeypatch.setattr(model, "_F", counted)
    counts = []
    for m, c in ((2000, 0.9), (3000, 1.7)):
        calls[0] = 0
        model.secular_solve(ModelSpec(m, c))
        counts.append(calls[0])
    assert max(counts) <= 90


def test_secular_solve_newton_evaluation_count(monkeypatch):
    # the bracket points plus a few Newton passes, where a bisection to
    # adjacent floats takes 57 to 59 array evaluations of the secular function
    calls = [0]
    F = model._F

    def counted(m, c, al):
        calls[0] += 1
        return F(m, c, al)

    monkeypatch.setattr(model, "_F", counted)
    verify = _build_parser().parse_args(["model", "verify"])
    grid = [(m, c) for m in verify.m for c in verify.c if c > 0.0]
    for m, c in [(2000, 0.9), (3000, 1.7), (5000, 0.564081)] + grid:
        calls[0] = 0
        model.secular_solve(ModelSpec(m, c))
        assert calls[0] <= 15, (m, c, calls[0])


HYP_ROOT_CASES = (
    (2, 0.5), (4, 0.548224952260725), (10, 0.9), (50, 0.5), (100, 0.2), (1000, 0.9),
    # deep regime, 2 m alpha0 = 549 to 557: just short of the asymptote at
    # 600, with delta near e^-550, where the bisection works in log(delta)
    (200, 0.25), (400, 0.5), (1000, 0.76), (2000, 0.87),
)


def test_hyp_root_matches_scalar_bisection():
    for m, c in HYP_ROOT_CASES:
        assert model._hyp_root(m, c) == _scalar_hyp_root(m, c), (m, c)


def test_spurious_estimate():
    est = model.spurious_estimate(ModelSpec(50, 0.5))
    assert abs(est.alpha0 - np.log(2.0)) < 1e-14
    assert abs(est.log_lambda_est / np.log(10.0) - (-30.352877039614718)) < 1e-9
    assert est.log_sigma_est == est.log_lambda_est / 2.0
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(OutOfRegime):
            model.spurious_estimate(ModelSpec(50, bad))


def test_stable_gap_radius():
    assert model.stable_gap(0.5) == 1.0
    assert model.stable_gap(1.0) == 0.0
    assert model.stable_gap(2.0) == 2.0
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


# masses from 0.01 to 2.5, with c = 1 where the stable gap closes
SECULAR_GAP_C = (0.01, 0.05, 0.3, 0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 2.5)
# the chain workload's stable-gap sizes, each at the end of its c range nearer 1
WORKLOAD_GAP_POINTS = ((300, 0.9), (600, 0.92), (1000, 0.95), (1500, 0.95), (400, 1.1), (1200, 1.05))


def _secular_gap_cases():
    for m in (2, 3, 5, 10, 50, 200, 400, 800):
        # m (1 - c) = c at c = m / (m + 1): the central pair forms below it
        edge = m / (m + 1.0)
        cs = SECULAR_GAP_C + tuple(edge * (1.0 + d) for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9))
        yield pytest.param(m, cs, id=f"m{m}")
    for m, c in WORKLOAD_GAP_POINTS:
        yield pytest.param(m, (c,), id=f"workload-m{m}")


@pytest.mark.parametrize("m,cs", list(_secular_gap_cases()))
def test_secular_stable_gap_spectrum_matches_hc_spectrum(m, cs):
    for c in cs:
        spec = ModelSpec(m, c)
        sec, dense = model.secular_hc_spectrum(spec, model.secular_solve(spec)), model.hc_spectrum(spec)
        assert sec.size == dense.size == 2 * m
        assert np.all(np.abs(sec - dense) <= 1e-11 * np.abs(dense)), (m, c)
        got, want = model.stable_gap_pattern(m, c, sec), model.stable_gap_pattern(m, c, dense)
        assert model.stable_gap_check(m, c) == got
        got.pop("central_abs")
        want.pop("central_abs")
        assert got == want, (m, c)


# m (1 - c) = c exactly at (3, 0.75); at (4, 0.8) m (1 - c) rounds just below c
CENTRAL_PAIR_EDGES = ((3, 0.75, False), (4, 0.8, False), (3, 0.7, True), (4, 0.79, True))


def test_has_central_pair_decides_secular_and_pattern():
    for m, c, pair in CENTRAL_PAIR_EDGES:
        assert model.has_central_pair(m, c) is pair, (m, c)
    for m in (2, 3, 4, 5, 10, 50):
        edge = m / (m + 1.0)
        cs = (0.0, 0.05, 0.5, 0.7, 0.75, 0.79, 0.8, 0.9, 0.99, 1.0, 1.5)
        for c in cs + tuple(edge * (1.0 + d) for d in (-1e-9, -1e-12, 0.0, 1e-12, 1e-9)):
            pair = model.has_central_pair(m, c)
            if abs(c - edge) >= 1e-9 * edge:
                assert pair is (c < edge), (m, c)
            assert model.stable_gap_check(m, c)["expected_count"] == (2 if pair else 0), (m, c)
            if c > 0.0:
                assert (model.secular_solve(ModelSpec(m, c)).hyp_root is not None) is pair, (m, c)
        assert model.has_central_pair(m, 0.0) and not model.has_central_pair(m, 1.0)


def test_secular_stable_gap_underflow():
    # the central pair underflows to 0 on both routes, or stays far below 1e-200
    assert model.stable_gap_check(800, 0.05)["central_abs"] == [0.0, 0.0]
    assert model.hc_spectrum(ModelSpec(800, 0.05))[799:801].tolist() == [0.0, 0.0]
    out = model.stable_gap_check(400, 0.3)
    assert out["ok"] and out["central_abs"][1] == pytest.approx(1.284e-209, rel=1e-3)
    dense = float(model.hc_spectrum(ModelSpec(400, 0.3))[400])
    assert out["central_abs"][1] == pytest.approx(dense, rel=1e-11, abs=0.0)


def test_stable_gap_cli_makes_no_factorization(capsys, monkeypatch):
    counts = count_factorizations(monkeypatch)
    for c in ("0.9", "1.3"):
        assert main(["model", "stable-gap", "-m", "300", "-c", c]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]
    assert sum(counts.values()) == 0, counts
    # c = 0 keeps the bidiagonal SVD, which the counter sees
    assert main(["model", "stable-gap", "-m", "300", "-c", "0"]) == 0
    assert counts == {"svd": 1}, counts


def test_model_verify_solves_each_grid_point_once(capsys, monkeypatch):
    # one batched secular solve per size m, whose lanes are that m's masses c > 0
    calls = []
    solve = model.secular_solve

    def counted(spec):
        specs = [spec] if isinstance(spec, ModelSpec) else list(spec)
        calls.append([(s.m, s.c) for s in specs])
        return solve(spec)

    monkeypatch.setattr(model, "secular_solve", counted)
    code = main(["model", "verify", "-m", "2,3,5", "-c", "0,0.5,1,1.5"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert calls == [[(m, c) for c in (0.5, 1.0, 1.5)] for m in (2, 3, 5)]


def test_model_verify_sees_relative_error_in_central_pair(capsys, monkeypatch):
    # at the edge m (1 - c) ~ c the old alpha0 = arccosh((c^2 + 1)/(2c))
    # put 4.4e-11 relative error into the central pair, which no absolute
    # check sees; verify compares the pair with dqds to 1e-11 relative
    argv = ["model", "verify", "-m", "800", "-c", repr(800.0 / 801.0 * (1.0 - 1e-12))]
    assert main(argv) == 0, capsys.readouterr().out
    capsys.readouterr()
    monkeypatch.setattr(model, "_alpha0", lambda c: float(np.arccosh((c * c + 1.0) / (2.0 * c))))
    assert main(argv) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert [line.split()[1] for line in failed] == ["stable_gap_counts"]


@pytest.mark.parametrize("m,cs", [(4, ("0.5", "1.7")), (300, ("0.5", "0.95", "1.2")), (2000, ("0.9", "1.0", "1.7"))])
def test_secular_cli_lambda_matches_mpmath(capsys, m, cs):
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for c in cs:
        assert main(["model", "secular", "-m", str(m), "-c", c]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "k,alpha,lambda,branch"
        rows = [line.split(",") for line in lines[1:] if line.endswith(",trig")]
        assert main(["model", "secular", "-m", str(m), "-c", c, "--format", "json"]) == 0
        trig = json.loads(capsys.readouterr().out)["trig"]
        assert [(float(a), float(lam)) for _, a, lam, _ in rows] == [(t["alpha"], t["lambda"]) for t in trig]
        with mp.workdps(50):
            cm = mp.mpf(float(c))
            for t in trig:
                ref = (1 - cm) ** 2 + 4 * cm * mp.sin(mp.mpf(t["alpha"]) / 2) ** 2
                assert abs(mp.mpf(t["lambda"]) - ref) <= 4 * eps * ref, (m, c, t)


def test_modified_k0_squares_to_four():
    Kt = build_Ktilde(ModelSpec(4, 0.0))
    assert np.array_equal(Kt @ Kt, 4.0 * np.eye(8))


def test_modified_unitary_consistency():
    spec = ModelSpec(5, 1.3)
    Kt, Ht = build_Ktilde(spec), model.build_Htilde(spec)
    U = involution(spec.m)
    assert np.allclose(U @ Ht @ U, Kt, atol=1e-13)


def _htilde_block_formula(spec):
    # A gains E - F and B gains E + F, E = e1 e1^T and F = em em^T
    m = spec.m
    H = model.build_Hc(ModelSpec(m, 0.0, spec.disorder))
    D, B = H[:m, :m], H[:m, m:]
    if spec.disorder is None:
        D[np.diag_indices(m)] += 2.0 * spec.c
    E = np.zeros((m, m))
    E[0, 0] = 1.0
    F = np.zeros((m, m))
    F[m - 1, m - 1] = 1.0
    return np.block([[D + E - F, B + E + F], [(B + E + F).T, -D + E - F]])


def test_build_Htilde_matches_block_formula():
    specs = [ModelSpec(m, c) for m in (2, 3, 7) for c in (0.0, 0.4, 1.3)]
    specs.append(ModelSpec(7, 0.0, DisorderSpec(-1.5, 2.5, 11)))
    for spec in specs:
        assert np.array_equal(model.build_Htilde(spec), _htilde_block_formula(spec)), spec


def test_builders_draw_disorder_once(monkeypatch):
    calls = []
    draw = model.draw_disorder

    def counted(spec):
        calls.append(spec)
        return draw(spec)

    monkeypatch.setattr(model, "draw_disorder", counted)
    for build in (model.build_Hc, model.build_Htilde):
        spec = ModelSpec(6, 0.0, DisorderSpec(-1.0, 2.0, 5))
        calls.clear()
        build(spec)
        assert calls == [spec], build.__name__
        # the spec keeps its draw: a second build draws nothing
        build(spec)
        assert calls == [spec], build.__name__
        assert not spec.diagonal.flags.writeable
        with pytest.raises(ValueError):
            spec.diagonal[0] = 0.0


def test_disorder_drawn_once_per_grid_point(monkeypatch):
    calls = []
    draw = model.draw_disorder

    def counted(spec):
        calls.append(spec.disorder.seed)
        return draw(spec)

    monkeypatch.setattr(model, "draw_disorder", counted)
    means, variants, _, evals = model.gap_scan([0.5, 1.5], 0.3, 6, seed=2)
    assert calls == [2, 3]
    calls.clear()
    spec = ModelSpec(6, 0.0, DisorderSpec(-1.0, 2.0, 5))
    one = np.asarray(model.gap_scan([0.5], 1.5, 6, seed=5)[3])
    assert calls == [5]
    # one grid point's spectra are the ones the builders give for its spec
    monkeypatch.undo()
    assert np.array_equal(one[:12], model.hc_spectrum(spec))
    assert np.array_equal(one[12:], tridiag_eigvalsh(*model.ktilde_bands(spec)))
    scan = ModelSpec(6, 0.0, DisorderSpec(0.2, 0.8, 2))
    rows = list(zip(means, variants, evals))
    assert [v for M, variant, v in rows if M == 0.5 and variant == "H"] == model.hc_spectrum(scan).tolist()
    htilde = tridiag_eigvalsh(*model.ktilde_bands(scan)).tolist()
    assert [v for M, variant, v in rows if M == 0.5 and variant == "Htilde"] == htilde


STACK_MASSES = (0.0, 0.3, 0.5, 1.0, 1.7, 2.5)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("m", [2, 5, 12])
def test_stacked_builders_equal_scalar_ones(m):
    # a stack over masses holds, bit for bit, each mass's own matrix
    specs = [ModelSpec(m, c) for c in STACK_MASSES]
    for fn in (model.build_Hc, model.build_Kc, model.build_Htilde, build_Ktilde, model.build_Wc,
               model.build_Tc, model.hc_spectrum, model.modified_spectrum_closed_form):
        stack = fn(specs)
        assert stack.shape[0] == len(specs), fn.__name__
        for spec, one in zip(specs, stack):
            assert _bits(one) == _bits(fn(spec)), (fn.__name__, spec)
    # stacks over disorder draws
    laws = [ModelSpec(m, 0.0, DisorderSpec(-1.0, 2.0, seed)) for seed in (1, 2, 3)]
    for fn in (model.build_Hc, model.build_Kc, model.build_Htilde, model.hc_spectrum):
        stack = fn(laws)
        for spec, one in zip(laws, stack):
            assert _bits(one) == _bits(fn(spec)), (fn.__name__, spec)


def test_stacks_need_one_size():
    for specs in ([], [ModelSpec(3, 0.5), ModelSpec(4, 0.5)]):
        for fn in (model.build_Hc, model.build_Wc, model.build_Tc, model.secular_solve):
            with pytest.raises(ValueError):
                fn(specs)


def _edge_masses(m: int) -> list[float]:
    # m (1 - c) = c at c = m / (m + 1); just above it the smallest root
    # sits in F's rounding noise and takes the bisection fallback
    e = m / (m + 1.0)
    return [e * (1.0 - 1e-12), e, e * (1.0 + 1e-12), e * (1.0 + 1e-9)]


def _fallback_brackets(monkeypatch) -> list:
    # the brackets of the lanes secular_solve bisects, in call order; _hyp_root
    # bisects too, but in log(delta) < 0, and trigonometric brackets lie in (0, pi)
    brackets = []
    bisect = model._bisect

    def counted(f, lo, hi, iters):
        if lo > 0.0:
            brackets.append((lo, hi))
        return bisect(f, lo, hi, iters)

    monkeypatch.setattr(model, "_bisect", counted)
    return brackets


@pytest.mark.parametrize("m", [2, 4, 9, 40, 300])
def test_secular_batch_equals_per_mass_solves(m, monkeypatch):
    rng = np.random.default_rng(m)
    cs = _edge_masses(m) + [0.9, 1.0, 1.0 / np.cos(np.pi / (2 * m))] + sorted(rng.uniform(0.05, 3.0, 6))
    specs = [ModelSpec(m, float(c)) for c in cs]
    fallback = _fallback_brackets(monkeypatch)
    alone = [model.secular_solve(s) for s in specs]
    lanes, fallback[:] = fallback[:], []
    batch = model.secular_solve(specs)
    # one fallback call per lane that _newton leaves open, the same lanes alone and in the batch
    assert len(fallback) >= 1 and fallback == lanes
    assert len(batch) == len(specs)
    for spec, a, b in zip(specs, alone, batch):
        assert _bits(a.trig_roots) == _bits(b.trig_roots), spec
        assert a.hyp_root == b.hyp_root and a.alpha_hat == b.alpha_hat, spec
    assert model.secular_solve(specs[:1])[0].trig_roots.tolist() == alone[0].trig_roots.tolist()


@pytest.mark.parametrize("m", [2, 4, 9, 40, 300])
def test_secular_fallback_lanes_equal_scalar_reference(m, monkeypatch):
    # a lane _newton leaves open takes _scalar_secular's steps: at most 80
    # halvings on its bracket
    brackets = _fallback_brackets(monkeypatch)
    lanes = 0
    for c in _edge_masses(m):
        brackets.clear()
        got = model.secular_solve(ModelSpec(m, c)).trig_roots
        want = _scalar_secular(m, c)[0]
        for lo, hi in brackets:
            assert got[(lo <= got) & (got <= hi)].tolist() == want[(lo <= want) & (want <= hi)].tolist(), c
        lanes += len(brackets)
    assert lanes >= 1


def test_secular_fallback_lane_ends_on_bisection(monkeypatch):
    # the root of a lane _newton leaves open is the bisection's midpoint,
    # bit for bit: no step after it moves the root
    m, c = 9, 0.9000000009000001
    bisect = model._bisect
    brackets = _fallback_brackets(monkeypatch)
    got = model.secular_solve(ModelSpec(m, c)).trig_roots
    assert len(brackets) >= 1
    for lo, hi in brackets:
        inside = got[(lo <= got) & (got <= hi)]
        assert inside.tolist() == [bisect(partial(model._F, m, c), lo, hi, 80)]


def test_secular_batch_raises_per_mass(monkeypatch):
    # a batch reports the root count mismatch of the mass it occurs at
    F = model._F
    monkeypatch.setattr(model, "_F", lambda m, c, al: np.where(c == 1.5, 1.0, F(m, c, al)))
    with pytest.raises(RootCountMismatch, match="c=1.5"):
        model.secular_solve([ModelSpec(6, 0.5), ModelSpec(6, 1.5)])
    with pytest.raises(OutOfRegime):
        model.secular_solve([ModelSpec(6, 0.5), ModelSpec(6, 0.0)])


def test_modified_spectrum_closed_form():
    root2 = np.sqrt(2.0)
    closed = model.modified_spectrum_closed_form(ModelSpec(2, 1.0))
    assert np.allclose(closed, [8 - 4 * root2, 8 - 4 * root2, 8 + 4 * root2, 8 + 4 * root2])
    for m, c in ((5, 1.3), (8, 0.5), (6, 0.0)):
        spec = ModelSpec(m, c)
        wt = np.linalg.eigvalsh(model.build_Htilde(spec))
        assert np.allclose(np.sort(wt**2), model.modified_spectrum_closed_form(spec), atol=1e-9)
        assert np.max(np.abs(wt + wt[::-1])) < 1e-10 * np.max(np.abs(wt))
        # the modified spectrum clears the stable gap entirely
        assert np.min(np.abs(wt)) >= model.stable_gap(c) - 1e-12


def _shuffle(m):
    # the perfect shuffle (t_1, b_1, t_2, b_2, ...) of the two halves
    return np.ravel(np.column_stack((np.arange(m), m + np.arange(m))))


def test_ktilde_bands_are_the_shuffled_matrix():
    for spec in (ModelSpec(2, 0.0), ModelSpec(5, 1.3), ModelSpec(7, 0.0, DisorderSpec(-1.5, 2.5, 11))):
        a, e = model.ktilde_bands(spec)
        P = _shuffle(spec.m)
        T = np.diag(a) + np.diag(e, 1) + np.diag(e, -1)
        assert np.array_equal(build_Ktilde(spec)[np.ix_(P, P)], T), spec


def test_k0_square_defect_from_bands(monkeypatch):
    for m in (2, 3, 10, 900):
        assert model.k0_square_defect(m) == 0.0
    # off c = 0 the band formula still gives max |K_tilde^2 - 4I| of the dense product
    bands = model.ktilde_bands
    monkeypatch.setattr(model, "ktilde_bands", lambda spec: bands(ModelSpec(spec.m, 0.7)))
    for m in (2, 3, 9):
        Kt = build_Ktilde(ModelSpec(m, 0.7))
        dense = float(np.max(np.abs(Kt @ Kt - 4.0 * np.eye(2 * m))))
        assert model.k0_square_defect(m) == pytest.approx(dense, rel=1e-15)


CERT_MASSES = (0.0, 1e-12, 1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.5, 1e3, 1e150)


def _all_cluster_certificate(spec: ModelSpec) -> tuple[np.ndarray, float]:
    # the reference route: clusters over all 2m values, both halves Sturm-counted
    eps = np.finfo(float).eps
    s = np.sqrt(model.modified_spectrum_closed_form(spec)[::2])
    values = np.concatenate((-s[::-1], s))
    a, e = model.ktilde_bands(spec)
    ae = np.abs(e)
    gersh = float(np.max(np.abs(a) + np.concatenate(([0.0], ae)) + np.concatenate((ae, [0.0]))))
    delta = 64.0 * eps * gersh
    first = np.flatnonzero(np.concatenate(([True], np.diff(values) > 2.0 * delta)))
    stop = np.append(first[1:], values.size)
    counts = linalg.sturm_count(a, e, np.concatenate((values[first] - delta, values[stop - 1] + delta)))
    assert np.array_equal(counts, np.concatenate((first, stop))), spec
    spread = float(np.max(values[stop - 1] - values[first]))
    return values, spread + delta + linalg.sturm_error_bound(e) + eps * gersh


@pytest.mark.parametrize("m", [2, 3, 7, 50, 300])
def test_certified_modified_spectrum_encloses_dense(m):
    eps = np.finfo(float).eps
    specs = [ModelSpec(m, c) for c in CERT_MASSES]
    for spec, wt in zip(specs, np.linalg.eigvalsh(model.build_Htilde(specs))):
        cert = model.modified_spectrum_certified(spec)
        # counting one half of the mirrored spectrum certifies what counting both does, bit for bit
        values, radius = _all_cluster_certificate(spec)
        assert _bits(cert.values) == _bits(values) and cert.certified_radius == radius, spec
        norm = float(np.max(np.abs(wt)))
        # the certified radius plus dense eigvalsh's own backward error
        assert np.max(np.abs(cert.values - wt)) <= cert.certified_radius + 2 * m * eps * norm, spec
        assert cert.certified_radius <= 1e-11 * norm
        assert np.array_equal(cert.values, -cert.values[::-1])


@pytest.mark.parametrize("m", [2, 3, 7, 50])
def test_certified_modified_spectrum_matches_mpmath(m):
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    with mp.workdps(50):
        for c in CERT_MASSES:
            values = model.modified_spectrum_certified(ModelSpec(m, c)).values
            cm = mp.mpf(c)
            # the squares 4 + 4c^2 - 4c kappa_k, kappa_k = -2 cos((2k - 1) pi / (2m))
            squares = [4 + 4 * cm**2 + 8 * cm * mp.cos((2 * k - 1) * mp.pi / (2 * m)) for k in range(1, m + 1)]
            s = sorted(mp.sqrt(q) for q in squares)
            ref = [-v for v in reversed(s)] + s
            norm = max(abs(v) for v in ref)
            assert all(abs(mp.mpf(float(v)) - r) <= 2 * eps * norm for v, r in zip(values, ref)), (m, c)


def test_certified_modified_spectrum_count_mismatch(monkeypatch):
    spec = ModelSpec(20, 0.7)
    cert = model.modified_spectrum_certified(spec)
    assert cert.certified_radius < 1e-13
    lam = model.lambda_of_alpha
    # one value 1e-11 off: far outside its interval [v - delta, v + delta]
    monkeypatch.setattr(model, "lambda_of_alpha", lambda c, al: lam(c, al) + (np.arange(al.size) == 5) * 1e-11)
    with pytest.raises(RootCountMismatch):
        model.modified_spectrum_certified(spec)
    with pytest.raises(ValueError):
        model.modified_spectrum_certified(ModelSpec(4, 0.0, DisorderSpec(-1.0, 1.0, 0)))
    with pytest.raises(OverflowError):
        model.modified_spectrum_certified(ModelSpec(3, 1e200))


def test_certified_clusters_join_below_two_delta():
    # at m = 2, G = 2 and delta = 64 eps G ~ 2.84e-14: positive values closer
    # than 2 delta form one cluster, whose spread the radius then covers
    two_delta = 256 * np.finfo(float).eps
    for c, clustered in ((1.5e-14, True), (3e-14, False)):
        cert = model.modified_spectrum_certified(ModelSpec(2, c))
        gap = float(np.diff(cert.values[2:])[0])
        assert (0.0 < gap < two_delta) == clustered, c
        assert (cert.certified_radius >= gap) == clustered, (c, cert.certified_radius)


@pytest.mark.parametrize("m", [2, 3, 7, 50, 300])
def test_ktilde_spectrum_is_mirrored(m):
    # the negative half of sigma(K_tilde) mirrors the positive half, so m + (the
    # values below x) eigenvalues lie below each shift x > 0 and the rest above -x
    for c in CERT_MASSES:
        a, e = model.ktilde_bands(ModelSpec(m, c))
        s = model.modified_spectrum_certified(ModelSpec(m, c)).values[m:]
        edges = np.concatenate(([0.0], s))
        gaps = np.diff(edges) > 1e-9 * s[-1]
        x = ((edges[:-1] + edges[1:]) / 2.0)[gaps]
        below = linalg.sturm_count(a, e, x)
        assert np.array_equal(below, m + np.flatnonzero(gaps)), (m, c)
        assert np.array_equal(linalg.sturm_count(a, e, -x), 2 * m - below), (m, c)


@pytest.mark.parametrize("patch", ["offdiag_palindrome", "diag_sign_reversal", "zero_value"])
def test_certified_modified_spectrum_needs_mirrored_bands(monkeypatch, patch):
    # the band patches move no eigenvalue past a cluster end, so every positive-cluster
    # count stays right and only the mirror check can object; a zero value puts the
    # lowest cluster across 0
    bands, lam = model.ktilde_bands, model.lambda_of_alpha

    def patched_bands(spec):
        a, e = bands(spec)
        if patch == "offdiag_palindrome":
            e[-1] = np.nextafter(e[-1], np.inf)
        else:
            a[1] = 1e-300
        return a, e

    if patch == "zero_value":
        monkeypatch.setattr(model, "lambda_of_alpha", lambda c, al: np.where(al == al[0], 0.0, lam(c, al)))
    else:
        monkeypatch.setattr(model, "ktilde_bands", patched_bands)
    with pytest.raises(RootCountMismatch, match="not mirrored or a cluster spans 0"):
        model.modified_spectrum_certified(ModelSpec(20, 0.7))


def test_disorder_range_must_be_finite():
    huge = np.float64(1e308)
    for low, high in ((-np.inf, np.inf), (np.inf, np.inf), (0.0, 2e308), (-1e308, 1e308), (-huge, huge)):
        with pytest.raises(ValueError, match=r"disorder range \["):
            DisorderSpec(low, high, 0)


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
    spec = ModelSpec(8, c)
    sec = model.secular_eigenvalues(spec, model.secular_solve(spec))
    assert sec[0] < w_lo
    assert np.all(sec[1:] >= w_lo - 1e-12) and np.all(sec <= w_hi + 1e-12)
    a = np.sort(np.abs(model.hc_spectrum(spec)))
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
    # the spectra `model scan` prints for the mean 0 and half width 3, which
    # draw DisorderSpec(-3.0, 3.0, seed)
    spec = ModelSpec(30, 0.0, DisorderSpec(-3.0, 3.0, 7))
    _, variants, _, evals = model.gap_scan([0.0], 3.0, 30, 7)
    variants, evals = np.asarray(variants), np.asarray(evals)
    h, ht = evals[variants == "H"], evals[variants == "Htilde"]
    assert h.size == 60
    assert np.array_equal(h, -h[::-1])
    near_zero = np.sort(h[np.argsort(np.abs(h), kind="stable")[:4]])
    assert near_zero.size == 4
    scale = float(np.max(np.abs(h)))
    dense = np.linalg.eigvalsh(model.build_Hc(spec))
    assert float(np.max(np.abs(dense + dense[::-1]))) <= 1e-10 * scale
    abs_sorted = np.sort(np.abs(h))
    central_magnitude, surrounding_edge = abs_sorted[1], abs_sorted[2]
    assert 0.0 < central_magnitude < surrounding_edge
    # the boundary terms break the symmetry and lift the central pair
    assert float(np.min(np.abs(ht))) > 100.0 * central_magnitude
    assert float(np.max(np.abs(ht + ht[::-1]))) > 1e-6


def test_gap_scan():
    columns = model.gap_scan([0.0, 2.0], 0.5, 4, seed=3)
    means, variants, index, evals = columns
    assert [len(column) for column in columns] == [2 * 2 * 8] * 4
    assert columns == model.gap_scan([0.0, 2.0], 0.5, 4, seed=3)
    assert means == [0.0] * 16 + [2.0] * 16
    assert variants == (["H"] * 8 + ["Htilde"] * 8) * 2
    assert index == list(range(1, 9)) * 4
    assert evals[:8] == model.hc_spectrum(ModelSpec(4, 0.0, DisorderSpec(-0.5, 0.5, 3))).tolist()
    last = ModelSpec(4, 0.0, DisorderSpec(1.5, 2.5, 4))
    assert evals[24:] == tridiag_eigvalsh(*model.ktilde_bands(last)).tolist()


@pytest.mark.parametrize("m, c", [(2, 1e-10), (3, 1e-12), (5, 1e-15), (14, 1e-9)])
def test_hyp_root_where_log_sinh_is_asymptotic(m, c):
    # alpha1 >= 20 puts both arguments of _log_sinh that exceed alpha1 on its
    # x >= 20 branch, and 2 m alpha0 <= 600 keeps the solve off the asymptote
    spec = ModelSpec(m, c)
    alpha1, log_lam = model.secular_solve(spec).hyp_root
    assert alpha1 >= 20.0 and 2.0 * m * -np.log(c) <= 600.0
    want = 2.0 * np.log(float(_tc_singular_values(spec).min()))
    assert abs(log_lam - want) <= 1e-15 * abs(want)


# deterministic chains over m = 2-400 and c = 0-3, and disordered draws
KERNEL_GRID = [ModelSpec(m, c) for m in (2, 3, 8, 31, 120, 400) for c in (0.0, 0.45, 0.999, 1.0, 1.6, 3.0)]
KERNEL_GRID += [
    ModelSpec(m, 0.0, DisorderSpec(lo, lo + w, seed))
    for seed, (m, lo, w) in enumerate(((2, -1.0, 2.0), (17, 0.3, 1.4), (150, -3.0, 6.0), (400, 0.0, 2.5)))
]


def test_dense_fallback_gives_the_kernel_digits(monkeypatch):
    if linalg._kernels() is None:
        pytest.skip("numpy's LAPACK exports no dlasq1/dsterf: the dense route is the only one")

    def dense(fn):
        # fn's value with linalg's loader finding no kernels, i.e. on the dense LAPACK route
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_kernels", lambda: None)
            return fn()

    for spec in KERNEL_GRID:
        bands = model.ktilde_bands(spec)
        assert _bits(tridiag_eigvalsh(*bands)) == _bits(dense(lambda: tridiag_eigvalsh(*bands))), spec
        assert _bits(model.hc_spectrum(spec)) == _bits(dense(lambda: model.hc_spectrum(spec))), spec
    for m in (8, 400):
        specs = [s for s in KERNEL_GRID if s.m == m]
        stack = model.hc_spectrum(specs)
        assert _bits(stack) == _bits(dense(lambda: model.hc_spectrum(specs)))
        assert all(_bits(row) == _bits(model.hc_spectrum(s)) for row, s in zip(stack, specs))
    for args in (([0.0, 1.1, 2.3], 0.4, 60, 5), ([0.7], 0.75, 250, 9)):
        assert model.gap_scan(*args) == dense(lambda: model.gap_scan(*args))


def test_spectra_leave_the_drawn_diagonal_unchanged():
    spec = ModelSpec(40, 0.0, DisorderSpec(-1.0, 2.0, 4))
    saved = spec.diagonal.copy()
    bands = model.ktilde_bands(spec)
    saved_bands = [b.copy() for b in bands]
    model.hc_spectrum(spec)
    model.hc_spectrum([spec, spec])
    tridiag_eigvalsh(*bands)
    model.gap_scan([0.5], 1.5, 40, 4)
    np.linalg.eigvalsh(model.build_Hc(spec))
    assert np.array_equal(spec.diagonal, saved)
    assert all(np.array_equal(b, s) for b, s in zip(bands, saved_bands))


def test_model_uses_the_linalg_svd():
    # bench/spans.py times the SVD by rebinding this name in both modules
    assert model.bidiag_svd_hra is linalg.bidiag_svd_hra


@pytest.mark.parametrize("m", [100, 250])
def test_scan_htilde_within_backward_bound_of_dense(m, capsys):
    # tridiag_eigvalsh skips dsytrd's rounding, so each value may move from
    # the dense eigvalsh of H_tilde, but by no more than 2n eps ||H_tilde||
    for seed in (0, 1, 2):
        argv = ["model", "scan", "-m", str(m), "--M", "0.4,1.3", "--delta", "0.6", "--seed", str(seed)]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        for i, M in enumerate((0.4, 1.3)):
            got = np.array([float(r[3]) for r in rows if float(r[0]) == M and r[1] == "Htilde"])
            spec = ModelSpec(m, 0.0, DisorderSpec(M - 0.6, M + 0.6, seed + i))
            dense = np.linalg.eigvalsh(model.build_Htilde(spec))
            bound = 2 * (2 * m) * linalg.EPS * np.max(np.abs(dense))
            assert got.size == 2 * m and np.max(np.abs(got - dense)) <= bound, (m, seed, M)


def _pair_at(m: int, c: float, factor: float) -> dict:
    # a central pair at factor times twice the estimated singular value
    x = factor * 2.0 * np.exp(model.spurious_estimate(ModelSpec(m, c)).log_sigma_est)
    return model.stable_gap_pattern(m, c, np.array([-3.0, -x, x, 3.0]))


@pytest.mark.parametrize("factor, ok", [(1.009, True), (1.011, False)])
def test_stable_gap_pattern_central_pair_within_one_percent(factor, ok):
    assert _pair_at(50, 0.8, factor)["ok"] is ok


@pytest.mark.parametrize("t, ok", [(9.99, True), (10.01, False)])
def test_stable_gap_pattern_checks_magnitude_from_2m_alpha0_of_10(t, ok):
    # c = exp(-t / 40) gives 2 m alpha0 = t at m = 20
    assert _pair_at(20, float(np.exp(-t / 40.0)), 1.5)["ok"] is ok


@pytest.mark.parametrize("t, calls", [(599.0, 1), (601.0, 0)])
def test_hyp_root_takes_the_asymptote_beyond_2m_alpha0_of_600(t, calls, monkeypatch):
    # c = exp(-t / 600) gives 2 m alpha0 = t at m = 300
    seen = []
    bisect = model._bisect
    monkeypatch.setattr(model, "_bisect", lambda *a: seen.append(a) or bisect(*a))
    model._hyp_root(300, float(np.exp(-t / 600.0)))
    assert len(seen) == calls
