"""The benchmark's own tests.

    python -m pytest -q bench/selftest.py

They check the benchmark, not the program: seeded inputs, the oracle's
tightness and failure accounting, and the factorization counter.  The
expected counts are the program's values when the benchmark was defined;
a change that removes factorizations changes them on purpose.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gapcert  # noqa: E402
import gapcert.cli  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _inputs(name: str, seed: int, directory: Path):
    wl = inputs.build(name, seed, directory)
    texts = {k: inputs.block_text(v).encode() for k, v in wl.instances.items()}
    return [r.argv for r in wl.requests], texts


@pytest.mark.parametrize("name", ["cert-single", "chain"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    assert _inputs(name, 7, tmp_path) == _inputs(name, 7, tmp_path)


@pytest.mark.parametrize("name", ["cert-single", "chain"])
def test_other_seed_gives_other_inputs(name, tmp_path):
    argv7, text7 = _inputs(name, 7, tmp_path)
    argv8, text8 = _inputs(name, 8, tmp_path)
    if name == "chain":
        assert argv7 != argv8
    else:
        assert text7.keys() == text8.keys()
        assert all(text7[k] != text8[k] for k in text7)


def test_inputs_do_not_depend_on_seed_sizes(tmp_path):
    # the seed changes entries, never the amount of work
    a = inputs.build("cert-all", 1, tmp_path)
    b = inputs.build("cert-all", 2, tmp_path)
    assert [r.argv for r in a.requests] == [r.argv for r in b.requests]
    assert {k: v.B.shape for k, v in a.instances.items()} == {k: v.B.shape for k, v in b.instances.items()}


def _two_by_two(tmp_path) -> tuple[inputs.Workload, inputs.Request]:
    # H = [[1, 1], [1, -1]] has eigenvalues +-sqrt(2); the diagonal
    # certificate (-1, 1) covers 2 / (2 sqrt 2) of the spectrum-free gap
    one = np.ones((1, 1))
    inst = inputs.Instance("two", "definite", one, one, one)
    (tmp_path / "two.txt").write_text(inputs.block_text(inst))
    req = inputs.Request("bounds-diag", ("bounds", str(tmp_path / "two.txt"), "--method", "diag"), "two")
    return inputs.Workload([req], {"two": inst}, 1), req


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = gapcert.cli.main(list(argv))
    return rc, out.getvalue()


def test_tightness_on_a_known_gap(tmp_path):
    wl, req = _two_by_two(tmp_path)
    rc, out = _cli(req.argv)
    outcome = oracle.Checker(wl).check(req, rc, out, "")
    assert outcome.ok, outcome.reason
    assert outcome.tightness == [pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)]


def test_optimal_interval_has_tightness_one():
    sp = oracle.Spectrum(np.array([-1.0, 2.0]))
    cert = {"method": "t", "interval": [-1.0, 2.0], "claim": "excludes_all", "inv_norm_bound": 1.0,
            "quantities": {}}
    assert oracle.gap_certificate(cert, sp) == pytest.approx(1.0)


class _Widening:
    """Stands in for gapcert.cli: the real output with a widened interval."""

    def __init__(self, factor: float):
        self.factor = factor

    def main(self, argv):
        rc, out = _cli(argv)
        payload = json.loads(out)
        lo, hi = payload["certificate"]["interval"]
        payload["certificate"]["interval"] = [lo * self.factor, hi * self.factor]
        sys.stdout.write(json.dumps(payload))
        return rc


def test_widened_certificate_counts_as_failed(tmp_path):
    wl, _ = _two_by_two(tmp_path)
    loop = run.run_loop(_Widening(1.5), wl, oracle.Checker(wl), 0.0)
    assert loop["attempted"] == 1 and loop["failed"] == 1
    assert "inside" in loop["failures"][0]["reason"]
    honest = run.run_loop(_Widening(1.0), wl, oracle.Checker(wl), 0.0)
    assert honest["failed"] == 0


def test_expected_error_exit_is_not_a_failure(tmp_path):
    # the stokes command rejects a saddle whose C block is not zero (exit 3)
    wl, req = _two_by_two(tmp_path)
    argv = ("stokes", req.argv[1], "--method", "minimal")
    rc, out = _cli(argv)
    checker = oracle.Checker(wl)
    assert checker.check(inputs.Request("stokes-minimal", argv, "two", expect_rc=3), rc, out, "").ok
    assert not checker.check(inputs.Request("stokes-minimal", argv, "two"), rc, out, "").ok


def _stable_gap(m: int, c: float) -> inputs.Request:
    return inputs.Request("model-stable-gap", ("model", "stable-gap", "-m", str(m), "-c", repr(c)),
                          params={"m": m, "c": c})


def test_missing_central_pair_counts_as_failed():
    # for m (1 - c) <= c the gap is empty: a verdict that expects the pair is wrong
    checker = oracle.Checker(inputs.Workload([], {}, 1))
    assert oracle.central_pair_count(2, 0.7) == 0 and oracle.central_pair_count(300, 0.7) == 2
    req = _stable_gap(300, 0.7)
    rc, out = _cli(req.argv)
    assert checker.check(req, rc, out, "").ok
    wrong = {"m": 2, "c": 0.7, "radius": 0.6000000000000001, "inside_count": 0, "expected_count": 2,
             "central_abs": [0.5, 1.2], "ok": False}
    assert not checker.check(_stable_gap(2, 0.7), 0, json.dumps(wrong), "").ok
    right = dict(wrong, expected_count=0, ok=True)
    assert checker.check(_stable_gap(2, 0.7), 0, json.dumps(right), "").ok


def test_defect_probes_lie_where_the_pair_is_missing():
    for req in inputs.defect_probes():
        if req.kind == "model-stable-gap":
            cases = [(req.params["m"], req.params["c"])]
        else:
            ms, cs = ([float(x) for x in req.argv[i].split(",")] for i in (3, 5))
            cases = [(m, c) for m in ms for c in cs]
        assert any(0.0 < c < 1.0 and oracle.central_pair_count(m, c) == 0 for m, c in cases)


@pytest.mark.parametrize("seed", [7, 8])
def test_chain_requests_pass_the_oracle(seed, tmp_path):
    # the workload's operations must not fail, so it holds no defect probe
    wl = inputs.build("chain", seed, tmp_path)
    checker = oracle.Checker(wl)
    for req in wl.requests:
        if req.kind in ("model-stable-gap", "model-verify"):
            rc, out = _cli(req.argv)
            outcome = checker.check(req, rc, out, "")
            assert outcome.ok, (req.argv, outcome.reason)


def test_factorization_counts_repeat_and_match_baseline(tmp_path):
    # one value per kind: both runs of each probe made the same calls
    expected = {
        "bounds_all_definite": {"total": [20], "eigh": [10], "eigvalsh": [5], "svd": [3], "norm2": [2],
                                "solve": [0], "scipy_svd": [0]},
        "stokes_all": {"total": [17], "eigh": [3], "eigvalsh": [9], "svd": [4], "norm2": [0],
                       "solve": [1], "scipy_svd": [0]},
    }
    assert run.probe_counts(gapcert, 5, tmp_path) == expected
    assert run.probe_counts(gapcert, 6, tmp_path) == expected


def test_uninstall_restores_every_binding():
    before = (np.linalg.eigh, np.linalg.norm, gapcert.model.bidiag_svd_hra, gapcert.cli.main,
              gapcert.matio.BlockSaddle.__post_init__)
    tracer = spans.Tracer(gapcert)
    tracer.install()
    assert gapcert.model.bidiag_svd_hra is not before[2]
    assert gapcert.model.bidiag_svd_hra is gapcert.linalg.bidiag_svd_hra
    tracer.uninstall()
    after = (np.linalg.eigh, np.linalg.norm, gapcert.model.bidiag_svd_hra, gapcert.cli.main,
             gapcert.matio.BlockSaddle.__post_init__)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    # span fields: name, start, end, parent, request, ok, info
    recs = [["cli.main", 0.0, 10.0, -1, 0, True, None],
            ["matio.read_block_saddle", 1.0, 5.0, 0, 0, True, None],
            ["bounds.validate", 2.0, 4.0, 1, 0, True, None]]
    r = spans.Reduced(recs)
    assert r.self_time == [6.0, 2.0, 2.0]


def test_harrell_davis_quantiles():
    assert run.harrell_davis([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    x = np.arange(1.0, 102.0)
    assert run.harrell_davis(x, 0.75) == pytest.approx(np.percentile(x, 75), rel=1e-2)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(60) == 75.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(1000) == 99.0
