"""Acceptance suite: the full battery of certified claims, one line each.

Each test prints one AC line (PASS or FAIL with the measured quantity)
and asserts it, so `pytest -v -s tests/test_acceptance.py` doubles as
the human-readable acceptance report.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gapcert
from gapcert import bounds, linalg, model, stokes
from gapcert.bounds import BlockSaddle
from gapcert.errors import DimensionMismatch, RankDeficient
from gapcert.linalg import bidiag_svd_hra
from gapcert.model import DisorderSpec, ModelSpec

from helpers import (
    StokesMatrix,
    build_Ktilde,
    full_rank_tall,
    func_calc_AC,
    psd_sqrt,
    rand_pd,
    rand_psd,
    violations,
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"AC{n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"AC{n:02d}: {detail}"


def test_ac01_boettcher_norms():
    t0 = time.perf_counter()
    rec = bounds.counterexample_suite()
    elapsed = time.perf_counter() - t0
    b = rec["boettcher"]
    ok = abs(b["norm"] - 21.177) <= 1e-3
    ok = ok and abs(b["inverse_norm"] - 43.774) <= 1e-3
    ok = ok and rec["conjecture_violated"] and elapsed < 1.0
    _report(
        1,
        ok,
        f"norm(I+M) = {b['norm']:.6f}, norm((I+M)^-1) = "
        f"{b['inverse_norm']:.6f}, {elapsed * 1e3:.0f} ms",
    )


def _bound_holds(cert, evals, shift=0.0) -> bool:
    if cert.inv_norm_bound is None:
        return True
    dist = float(np.min(np.abs(evals - shift)))
    return dist > 0.0 and cert.inv_norm_bound * dist >= 1.0 - 1e-8


def test_ac02_certificate_soundness_suite():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    issued = dict.fromkeys(
        ("diag", "stretch", "hbinv", "zero_dichotomy", "kirsch", "stokes_new"), 0
    )
    bad = 0
    for _ in range(100):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))

        S = BlockSaddle(rand_pd(rng, m), rng.standard_normal((m, k)), rand_pd(rng, k))
        w = np.linalg.eigvalsh(S.assemble())
        for name, cert in (("diag", bounds.diag_gap(S)), ("stretch", bounds.stretch_certificate(S))):
            issued[name] += 1
            shift = cert.quantities.get("lambda0", 0.0)
            if violations(w, *cert.interval) or not _bound_holds(cert, w, shift):
                bad += 1

        Sq = BlockSaddle(rand_psd(rng, n), rng.standard_normal((n, n)), rand_psd(rng, n))
        try:
            cert = bounds.hbinv_certificate(Sq)
            wq = np.linalg.eigvalsh(Sq.assemble())
            issued["hbinv"] += 1
            if violations(wq, *cert.interval) or not _bound_holds(cert, wq):
                bad += 1
        except RankDeficient:
            pass

        d = int(rng.integers(0, min(m, k)))
        Sz = BlockSaddle(
            rand_psd(rng, m, rank=m - d), rng.standard_normal((m, k)), rand_psd(rng, k, rank=k - d)
        )
        try:
            cert = bounds.zero_dichotomy_certificate(Sz)
            wz = np.linalg.eigvalsh(Sz.assemble())
            issued["zero_dichotomy"] += 1
            if violations(wz, *cert.interval) or not _bound_holds(cert, wz):
                bad += 1
        except (RankDeficient, DimensionMismatch):
            pass

        Ak, Bk = rand_psd(rng, n), rand_pd(rng, n)
        cert = bounds.kirsch_certificate(BlockSaddle(Ak, Bk, Ak))
        wk = np.linalg.eigvalsh(np.block([[Ak, Bk], [Bk, -Ak]]))
        issued["kirsch"] += 1
        if violations(wk, *cert.interval) or not _bound_holds(cert, wk):
            bad += 1

        ks = int(rng.integers(m, m + 3))
        Ss = StokesMatrix(rand_psd(rng, m), full_rank_tall(rng, ks, m).T)
        cert = stokes.new_gap_estimate(Ss)
        ws = np.linalg.eigvalsh(Ss.assemble())
        issued["stokes_new"] += 1
        if violations(ws, *cert.interval, nonzero_only=True) or not _bound_holds(cert, ws):
            bad += 1

    elapsed = time.perf_counter() - t0
    total = sum(issued.values())
    ok = total >= 500 and min(issued.values()) >= 50 and bad == 0 and elapsed < 30.0
    _report(2, ok, f"{total} certificates, {bad} violations, {elapsed:.1f} s")


def test_ac03_minimal_endpoints_and_nesting():
    rng = np.random.default_rng(3)
    worst = 0.0
    separated = nested = True
    count = 200
    for _ in range(count):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, m + 1))
        S = StokesMatrix(rand_pd(rng, m), full_rank_tall(rng, m, k))
        mini = stokes.minimal_intervals(S)
        w = np.linalg.eigvalsh(S.assemble())
        for v in (*mini.i_minus, *mini.i_plus):
            worst = max(worst, float(np.min(np.abs(w - v))))
        separated = separated and mini.i_minus[1] < 0.0 < mini.i_plus[0]
        for outer in (stokes.ruwa_intervals(S), stokes.axel_intervals(S)):
            nested = nested and outer.i_minus[0] <= mini.i_minus[0] + 1e-10
            nested = nested and mini.i_minus[1] <= outer.i_minus[1] + 1e-10
            nested = nested and outer.i_plus[0] <= mini.i_plus[0] + 1e-10
            nested = nested and mini.i_plus[1] <= outer.i_plus[1] + 1e-10
    ok = worst <= 1e-10 and separated and nested
    _report(3, ok, f"{count} instances, endpoint defect {worst:.2e}, nesting {nested}")


def test_ac04_branch_monotonicity():
    rng = np.random.default_rng(4)
    tol = 1e-10
    pairs = 0
    ok = True
    for _ in range(60):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, m + 1))
        A, B = rand_pd(rng, m), rng.standard_normal((m, k))
        w1 = np.linalg.eigvalsh(StokesMatrix(A, B).assemble())
        w2 = np.linalg.eigvalsh(StokesMatrix(A + rand_psd(rng, m), B).assemble())
        ok = ok and bool(np.all(w2 >= w1 - tol))
        pairs += 1
    for _ in range(60):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, m + 1))
        A, B = rand_pd(rng, m), rng.standard_normal((m, k))
        wide = np.hstack([B, rng.standard_normal((m, 1))])
        ps1 = stokes.pencil_spectrum(StokesMatrix(A, B))
        ps2 = stokes.pencil_spectrum(StokesMatrix(A, wide))
        ok = ok and bool(np.all(ps2.lambda_plus >= ps1.lambda_plus - tol))
        ok = ok and bool(np.all(ps2.lambda_minus <= ps1.lambda_minus + tol))
        pairs += 1
    _report(4, ok and pairs >= 100, f"{pairs} pairs, monotone to {tol:g}")


def test_ac05_non_monotone_families():
    t_grid = np.linspace(5.0, 20.0, 151)
    curve = bounds.nonmono_curve(t_grid, "kirsch_Bt")
    vals = curve[:, 1]
    peak = int(np.argmax(vals))
    rise = float(vals[peak] - vals[: peak + 1].min())
    fall = float(vals[peak] - vals[peak:].min())
    A = np.array([[2.0, -1.0], [-1.0, 2.0]])
    worst = 0.0
    for t, v in curve:
        Bt = np.diag([1.0, t])
        w = np.linalg.eigvalsh(np.block([[A, Bt], [Bt, -A]]))
        worst = max(worst, abs(float(np.min(np.abs(w))) - v))
    simple = bounds.nonmono_curve(t_grid, "simple")
    Bs = np.array([[0.0, 1.0], [-1.0, 0.0]])
    worst_det = 0.0
    for t in t_grid:
        At = np.diag([0.0, t])
        H = np.block([[At, Bs], [Bs.T, -At]])
        worst_det = max(worst_det, abs(float(np.linalg.det(H)) - 1.0))
    decreasing = bool(np.all(np.diff(simple[:, 1]) < 0.0))
    ok = (
        0 < peak < 150
        and rise >= 1e-6
        and fall >= 1e-6
        and worst <= 1e-10
        and worst_det <= 1e-10
        and decreasing
    )
    _report(
        5,
        ok,
        f"rise {rise:.2e}, fall {fall:.2e}, quartic defect {worst:.2e}, "
        f"det defect {worst_det:.2e}, simple decreasing {decreasing}",
    )


def test_ac06_secular_equivalence():
    worst = 0.0
    counts = True
    for m in (10, 25, 50):
        for c in (0.5, 1.0, 2.0):
            spec = ModelSpec(m, c)
            sr = model.secular_solve(spec)
            n_roots = sr.trig_roots.size + (1 if sr.hyp_root is not None else 0)
            counts = counts and n_roots == m
            sec = model.secular_eigenvalues(spec, sr)
            dense = np.linalg.eigvalsh(model.build_Wc(spec))
            worst = max(worst, float(np.max(np.abs(sec - dense))))
    ok = counts and worst <= 1e-9
    _report(6, ok, f"root counts exact: {counts}, worst spectral defect {worst:.2e}")


def test_ac07_stable_gap_counts():
    ok = True
    for m in (10, 25, 50, 100):
        for c in (0.0, 0.5, 1.5, 2.0):
            out = model.stable_gap_check(m, c)
            expected = 0 if c >= 1.0 else 2
            ok = ok and out["inside_count"] == expected and out["ok"]
    edge = float(np.min(np.abs(model.hc_spectrum(ModelSpec(100, 2.0))))) - 2.0
    ok = ok and 0.0 < edge <= 1e-2
    _report(7, ok, f"counts match on the grid, c=2 m=100 edge excess {edge:.3e}")


def test_ac08_spurious_pair_routes():
    spec = ModelSpec(50, 0.5)
    log_sec = model.secular_solve(spec).hyp_root[1]
    log_hra = 2.0 * float(np.log(np.min(bidiag_svd_hra(np.full(50, 0.5), np.ones(49)))))
    log_asym = model.spurious_estimate(spec).log_lambda_est
    d_sec_hra = abs(log_sec - log_hra)
    d_sec_asym = abs(log_sec - log_asym)
    d_hra_asym = abs(log_hra - log_asym)
    ok = d_sec_hra <= 1e-8 and d_sec_asym <= 1e-3 and d_hra_asym <= 1e-3
    spec100 = ModelSpec(100, 0.5)
    log_sec100 = model.secular_solve(spec100).hyp_root[1]
    log_asym100 = model.spurious_estimate(spec100).log_lambda_est
    sigma100 = float(np.min(bidiag_svd_hra(np.full(100, 0.5), np.ones(99))))
    ok = ok and abs(log_sec100 - log_asym100) <= 5e-3
    ok = ok and np.isfinite(sigma100) and sigma100 > 0.0
    _report(
        8,
        ok,
        f"m=50 log gaps: secular-hra {d_sec_hra:.1e}, secular-asym {d_sec_asym:.1e}; "
        f"m=100 gap {abs(log_sec100 - log_asym100):.1e}, sigma {sigma100:.3e}",
    )


def test_ac09_boundary_modification():
    worst_sq = worst_sym = worst_closed = 0.0
    avoids = True
    for m in (2, 3, 5, 10, 25, 50):
        Kt0 = build_Ktilde(ModelSpec(m, 0.0))
        worst_sq = max(worst_sq, linalg.op_norm(Kt0 @ Kt0 - 4.0 * np.eye(2 * m)))
        for c in (0.0, 0.5, 1.0, 1.5, 2.0):
            spec = ModelSpec(m, c)
            wt = np.linalg.eigvalsh(model.build_Htilde(spec))
            worst_sym = max(worst_sym, float(np.max(np.abs(wt + wt[::-1]))))
            closed = model.modified_spectrum_closed_form(spec)
            worst_closed = max(worst_closed, float(np.max(np.abs(np.sort(wt**2) - closed))))
            radius = model.stable_gap(c)
            avoids = avoids and float(np.min(np.abs(wt))) >= radius - 1e-10
    ok = worst_sq <= 1e-12 and worst_sym <= 1e-10 and worst_closed <= 1e-9 and avoids
    _report(
        9,
        ok,
        f"K0 square defect {worst_sq:.2e}, symmetry {worst_sym:.2e}, "
        f"closed form {worst_closed:.2e}, gap avoided {avoids}",
    )


def test_ac10_functional_calculus():
    rng = np.random.default_rng(10)
    worst = 0.0
    bound_ok = True
    pairs = 100
    for _ in range(pairs):
        n = int(rng.integers(1, 7))
        A = rand_psd(rng, n) / n
        G = rng.standard_normal((n, n))
        C = (G @ G.T) / n + 0.05 * np.eye(n)
        R = psd_sqrt(C)
        w, V = np.linalg.eigh(R @ A @ R)
        w = np.clip(w, 0.0, None)
        for t in (0.1, 1.0, 10.0):
            E = func_calc_AC(
                A, C, 1.0, lambda x, t=t: float(np.expm1(-t * x) / x) if x > 0.0 else -t
            )
            oracle = np.linalg.solve(R, (V * np.exp(-t * w)) @ V.T @ R)
            worst = max(worst, linalg.op_norm(E - oracle))
            cap = 1.0 + t * linalg.op_norm(A @ R) * linalg.op_norm(R)
            bound_ok = bound_ok and linalg.op_norm(E) <= cap + 1e-9
    ok = worst <= 1e-9 and bound_ok
    _report(10, ok, f"{pairs} pairs x 3 times, oracle defect {worst:.2e}, norm bound {bound_ok}")


def test_ac11_disorder_panel():
    decay_ok = sym_ok = pair_ok = True
    worst_ratio = 0.0
    for seed in range(10):
        central = {}
        for m in (20, 100):
            # the spectra `model scan` prints for the mean 0 and half width 3,
            # which draw DisorderSpec(-3.0, 3.0, seed)
            _, variants, _, evals = model.gap_scan([0.0], 3.0, m, seed)
            variants, evals = np.asarray(variants), np.asarray(evals)
            h, ht = evals[variants == "H"], evals[variants == "Htilde"]
            dense = np.linalg.eigvalsh(model.build_Hc(ModelSpec(m, 0.0, DisorderSpec(-3.0, 3.0, seed))))
            scale = float(np.max(np.abs(h)))
            sym_ok = sym_ok and float(np.max(np.abs(dense + dense[::-1]))) <= 1e-10 * max(1.0, scale)
            abs_sorted = np.sort(np.abs(h))
            central[m] = float(abs_sorted[1])
            # "no central pair" = fewer than two modified eigenvalues
            # below half the surrounding edge
            below = int(np.count_nonzero(np.abs(ht) < 0.5 * float(abs_sorted[2])))
            pair_ok = pair_ok and below <= 1
        ratio = central[100] / central[20]
        worst_ratio = max(worst_ratio, ratio)
        decay_ok = decay_ok and ratio <= 1e-3
    ok = decay_ok and sym_ok and pair_ok
    _report(
        11,
        ok,
        f"10 seeds, worst m=100/m=20 central ratio {worst_ratio:.2e}, "
        f"symmetry {sym_ok}, no modified central pair {pair_ok}",
    )


def test_ac12_cli_determinism():
    commands = [
        ["model", "scan", "-m", "20", "--M", "0.5,1.5,2.5", "--delta", "0.5", "--seed", "11"],
        ["counterexamples", "--t-range", "5:20:31", "--format", "json"],
        ["model", "secular", "-m", "25", "-c", "0.5", "--format", "json"],
    ]
    # the child interpreters import the same gapcert as this process
    src = str(Path(gapcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    ok = True
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "gapcert.cli", *cmd], capture_output=True, check=False, env=env
            )
            for _ in range(2)
        ]
        ok = ok and runs[0].returncode == 0 and runs[1].returncode == 0
        ok = ok and runs[0].stdout == runs[1].stdout and len(runs[0].stdout) > 0
    _report(12, ok, f"{len(commands)} commands, repeated byte-identical output: {ok}")
