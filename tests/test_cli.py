"""End-to-end command-line checks: payloads, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import bounds, cli, matio
from gapcert.cli import main

from helpers import count_factorizations, rand_pd

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def write_block(path, A, B, C="zero"):
    parts = ["A\n", matio.format_matrix(np.asarray(A, dtype=float))]
    parts += ["B\n", matio.format_matrix(np.asarray(B, dtype=float))]
    if isinstance(C, str):
        k = np.atleast_2d(np.asarray(B, dtype=float)).shape[1]
        parts += ["C\n", f"zero {k}\n"]
    else:
        parts += ["C\n", matio.format_matrix(np.asarray(C, dtype=float))]
    path.write_text("".join(parts))
    return str(path)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_hbinv_decoupled(tmp_path, capsys):
    f = write_block(tmp_path / "d.txt", np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)))
    code, out, _ = run(capsys, "bounds", f, "--method", "hbinv")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "hbinv"
    assert payload["verdict"] == "SOUND"
    assert abs(payload["certificate"]["inv_norm_bound"] - 1.0) < 1e-12
    assert np.allclose(payload["certificate"]["interval"], [-1.0, 1.0])
    assert payload["input"] == f


def test_bounds_all_on_kirsch_pair(tmp_path, capsys):
    A = [[2.0, -1.0], [-1.0, 2.0]]
    f = write_block(tmp_path / "k.txt", A, np.eye(2), A)
    code, out, _ = run(capsys, "bounds", f)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["oracle"]["min_abs_eigenvalue"] - np.sqrt(2.0)) < 1e-12
    by_method = {r["method"]: r for r in payload["results"]}
    assert set(by_method) == {"diag", "stretch", "hbinv", "zero-dichotomy", "kirsch", "winklmeier"}
    assert all("certificate" in r for r in by_method.values())
    assert np.allclose(by_method["diag"]["certificate"]["interval"], [-1.0, 1.0])
    assert all(r["verdict"] == "SOUND" for r in by_method.values())
    # the kirsch entry certifies its own assembled form and carries its oracle
    assert abs(by_method["kirsch"]["certificate"]["interval"][1] - np.sqrt(2.0)) < 1e-12
    assert abs(by_method["kirsch"]["oracle"]["min_abs_eigenvalue"] - np.sqrt(2.0)) < 1e-12
    assert by_method["winklmeier"]["certificate"]["interval"] == [0.0, 0.0]


def test_bounds_stretch_scalar_tight(tmp_path, capsys):
    f = write_block(tmp_path / "s.txt", [[2.0]], [[1.0]], [[1.0]])
    code, out, _ = run(capsys, "bounds", f, "--method", "stretch")
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert abs(cert["quantities"]["lambda0"] - 0.5) < 1e-14
    half = np.sqrt(13.0) / 2.0
    assert np.allclose(cert["interval"], [0.5 - half, 0.5 + half])
    assert json.loads(out)["verdict"] == "SOUND"


def test_bounds_parse_and_io_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("A\n2 2\n1 0\n")
    assert run(capsys, "bounds", str(bad))[0] == 2
    assert run(capsys, "bounds", str(tmp_path / "missing.txt"))[0] == 2


def test_bounds_precondition_exit3(tmp_path, capsys):
    f = write_block(tmp_path / "n.txt", [[-1.0]], [[1.0]], [[1.0]])
    code, _, err = run(capsys, "bounds", f)
    assert code == 3 and "error:" in err


def test_unknown_method_exit2(tmp_path, capsys):
    f = write_block(tmp_path / "d.txt", [[1.0]], [[1.0]], [[1.0]])
    assert run(capsys, "bounds", f, "--method", "bogus")[0] == 2
    assert run(capsys, "bounds", f, "--tol-rank", "-1")[0] == 2


def test_output_flag_writes_file(tmp_path, capsys):
    f = write_block(tmp_path / "d.txt", [[2.0]], [[1.0]], [[1.0]])
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, "bounds", f, "--method", "diag", "--output", str(dest))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "bounds", f, "--method", "diag")
    assert dest.read_text() == out


def test_stokes_scalar_json(tmp_path, capsys):
    f = write_block(tmp_path / "st.txt", [[1.0]], [[1.0]])
    code, out, _ = run(capsys, "stokes", f)
    assert code == 0
    payload = json.loads(out)
    iv = payload["intervals"]
    assert np.allclose(iv["minimal"]["i_minus"], [1.0 - PHI, 1.0 - PHI])
    assert np.allclose(iv["minimal"]["i_plus"], [PHI, PHI])
    assert np.allclose(iv["axel"]["i_minus"], [1.0 - PHI, -0.5])
    assert np.allclose(iv["new"]["certificate"]["interval"], [1.0 - PHI, 1.0])
    verdicts = [e.get("verdict") for e in iv.values()]
    assert verdicts == ["SOUND"] * 4
    assert np.allclose(payload["spectrum"]["lambda_plus"], [PHI])
    assert payload["spectrum"]["zero_multiplicity"] == 0


def test_stokes_skips_versus_raises(tmp_path, capsys):
    f = write_block(tmp_path / "z.txt", [[0.0]], [[1.0]])
    code, out, _ = run(capsys, "stokes", f)
    assert code == 0
    iv = json.loads(out)["intervals"]
    assert "skipped" in iv["ruwa"] and "skipped" in iv["axel"]
    assert np.allclose(iv["new"]["certificate"]["interval"], [-1.0, 1.0])
    assert run(capsys, "stokes", f, "--method", "ruwa")[0] == 3


def test_stokes_csv(tmp_path, capsys):
    f = write_block(tmp_path / "st.txt", [[1.0]], [[1.0]])
    code, out, _ = run(capsys, "stokes", f, "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,branch,value"
    assert len(lines) == 3
    idx, branch, value = lines[1].split(",")
    assert (idx, branch) == ("1", "minus") and abs(float(value) - (1.0 - PHI)) < 1e-12
    assert abs(float(lines[2].split(",")[2]) - PHI) < 1e-12


def test_csv_column_formats_match_per_value_fmt():
    # one %-format per column prints every value as _fmt prints it alone
    rows = [
        (True, 1, 0.1, "a", np.float64(1e-300), np.int64(-7), np.float32(0.1)),
        (np.bool_(False), np.int64(2), 2.0 / 3.0, "b", np.float64(-0.0), 12, np.float32(3.0)),
    ]
    header = ["b", "i", "f", "s", "g", "j", "h"]
    want = ",".join(header) + "\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
    assert cli._csv(header, rows) == want
    assert want.splitlines()[1] == "true,1,0.10000000000000001,a,1e-300,-7,0.10000000149011612"
    assert cli._csv(header, []) == ",".join(header) + "\n"


def test_stokes_nab_violated_exit3(tmp_path, capsys):
    f = write_block(tmp_path / "nab.txt", np.diag([0.0, 1.0]), [[0.0], [1.0]])
    code, _, err = run(capsys, "stokes", f)
    assert code == 3 and "error:" in err


def test_stokes_needs_zero_C_exit3(tmp_path, capsys):
    f = write_block(tmp_path / "c.txt", [[1.0]], [[1.0]], [[1.0]])
    assert run(capsys, "stokes", f)[0] == 3


def test_model_secular_small_csv(capsys):
    code, out, _ = run(capsys, "model", "secular", "-m", "2", "-c", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,alpha,lambda,branch"
    assert len(lines) == 3
    lam = [float(line.split(",")[2]) for line in lines[1:]]
    assert np.allclose(lam, [0.38196601125010515, 2.618033988749895], atol=1e-12)
    assert all(line.split(",")[3] == "trig" for line in lines[1:])


def test_model_secular_json_hyperbolic(capsys):
    code, out, _ = run(capsys, "model", "secular", "-m", "50", "-c", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha_hat"] is None
    assert len(payload["trig"]) == 49
    hyp = payload["hyp"]
    assert abs(hyp["alpha"] - np.log(2.0)) < 1e-12
    assert abs(hyp["lambda"] - 4.43734259187e-31) < 1e-9 * 4.43734259187e-31
    code, out, _ = run(capsys, "model", "secular", "-m", "5", "-c", "2", "--format", "json")
    assert json.loads(out)["alpha_hat"] is not None and json.loads(out)["hyp"] is None


def test_model_secular_log_scale_column(capsys):
    # at m = 160, c = 0.1 the central eigenvalue drops below 1e-300
    code, out, _ = run(capsys, "model", "secular", "-m", "160", "-c", "0.1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,alpha,log10_lambda,branch"
    first = lines[1].split(",")
    assert first[3] == "hyp" and float(first[2]) < -300.0
    code, out, _ = run(capsys, "model", "secular", "-m", "160", "-c", "0.1", "--format", "json")
    hyp = json.loads(out)["hyp"]
    assert "lambda" not in hyp and hyp["log10_lambda"] < -300.0


def test_model_spurious(capsys):
    code, out, _ = run(capsys, "model", "spurious", "-m", "50", "-c", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["log10_lambda_est"] - (-30.352877039614718)) < 1e-9
    assert abs(payload["log10_sigma_est"] * 2.0 - payload["log10_lambda_est"]) < 1e-12
    assert run(capsys, "model", "spurious", "-m", "50", "-c", "1.5")[0] == 3


def test_model_stable_gap(capsys):
    code, out, _ = run(capsys, "model", "stable-gap", "-m", "10", "-c", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["inside_count"] == 0
    assert payload["radius"] == 2.0


def test_model_modified(capsys):
    code, out, _ = run(capsys, "model", "modified", "-m", "4", "-c", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,eigenvalue" and len(lines) == 9
    code, out, _ = run(capsys, "model", "modified", "-m", "4", "-c", "0", "--format", "json")
    payload = json.loads(out)
    assert payload["k0_square_defect"] == 0.0
    assert payload["square_defect"] < 1e-9
    assert payload["symmetry_defect"] < 1e-12
    # at c = 0 the modified spectrum sits exactly on the gap boundary, so
    # the strict count is checked where the clearance is real instead
    code, out, _ = run(capsys, "model", "modified", "-m", "4", "-c", "1.3", "--format", "json")
    payload = json.loads(out)
    assert payload["inside_gap_count"] == 0
    assert "k0_square_defect" not in payload


def test_model_scan_row_count(capsys):
    code, out, _ = run(
        capsys,
        "model", "scan", "-m", "100",
        "--M", "0.1,1,1.5,1.8,2.5,3", "--delta", "0.5", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "M,variant,index,eigenvalue"
    assert len(lines) == 1 + 6 * 2 * 200
    variants = {line.split(",")[1] for line in lines[1:]}
    assert variants == {"H", "Htilde"}


def test_model_verify_passes(capsys):
    code, out, _ = run(capsys, "model", "verify", "-m", "2,3", "-c", "0,0.5,1")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 10
    assert all(line.startswith("PASS") for line in lines)


def test_counterexamples_csv(capsys):
    code, out, _ = run(capsys, "counterexamples")
    assert code == 0
    assert "norm(I+M)=21.176752656" in out
    assert "inverse_norm=43.773533799" in out
    assert "conjecture norm((I+AC)^-1) <= norm(I+AC): VIOLATED" in out
    lines = out.strip().split("\n")
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    assert data[0] == "family,t,min_abs_eigenvalue"
    assert len(data) == 1 + 3 * 151
    omladic = [line for line in comments if "t=100" in line]
    assert omladic and float(omladic[0].split("closed_form=")[1]) >= 33.0


def test_counterexamples_json(capsys):
    code, out, _ = run(capsys, "counterexamples", "--format", "json", "--t-range", "5:20:31")
    assert code == 0
    payload = json.loads(out)
    assert [entry["t"] for entry in payload["omladic"]] == [1.0, 10.0, 100.0]
    assert payload["omladic"][-1]["inverse_norm"] >= 33.0
    assert abs(payload["boettcher"]["norm"] - 21.177) < 1e-3
    assert abs(payload["boettcher"]["inverse_norm"] - 43.774) < 1e-3
    assert payload["boettcher"]["psd_split_residual"] < 1e-15
    assert payload["conjecture_violated"] is True
    curves = payload["curves"]
    assert set(curves) == {"kirsch_Bt", "scaled_A", "simple"}
    ts = [pt["t"] for pt in curves["kirsch_Bt"]]
    assert len(ts) == 31 and ts[0] == 5.0 and ts[-1] == 20.0


def test_counterexamples_bad_range_exit2(capsys):
    assert run(capsys, "counterexamples", "--t-range", "20:5:100")[0] == 2
    assert run(capsys, "counterexamples", "--t-range", "5:20:1")[0] == 2


def test_verdict_margin_is_scale_relative(tmp_path, capsys, monkeypatch):
    # at scale 1e-12 every eigenvalue lies far inside an absolute 1e-10
    # margin; the verdict must still see one inside the certified interval
    t = 1e-12
    D = t * np.diag([1.0, 2.0])
    f = write_block(tmp_path / "s.txt", D, t * np.eye(2), D)
    wide = bounds.GapCertificate("diag_gap", (-3.0 * t, 3.0 * t), "excludes_all", None)
    monkeypatch.setattr(bounds, "diag_gap", lambda S: wide)
    code, out, _ = run(capsys, "bounds", f, "--method", "diag")
    assert code == 0 and json.loads(out)["verdict"] == "UNSOUND"


def test_repeat_runs_identical(tmp_path, capsys):
    f = write_block(tmp_path / "k.txt", [[2.0, -1.0], [-1.0, 2.0]], np.eye(2), "zero")
    outs = set()
    for _ in range(2):
        outs.add(run(capsys, "stokes", f)[1])
        outs.add(run(capsys, "model", "scan", "-m", "10", "--M", "0,2", "--delta", "0.5")[1])
        outs.add(run(capsys, "counterexamples", "--t-range", "5:20:11")[1])
    assert len(outs) == 3


def test_model_verify_grid_without_central_pair(capsys):
    code, out, _ = run(capsys, "model", "verify", "-m", "2,3", "-c", "0.0,0.7,0.8,1.0,1.5")
    assert code == 0, out


def test_each_saddle_factorized_once(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    n = 6
    coupling = rng.standard_normal((n, n)) + 4.0 * np.eye(n)
    definite = write_block(tmp_path / "d.txt", rand_pd(rng, n), coupling, rand_pd(rng, n))
    stokes_file = write_block(tmp_path / "s.txt", rand_pd(rng, n), coupling)
    A = rand_pd(rng, n)
    kirsch_file = write_block(tmp_path / "k.txt", A, rand_pd(rng, n), A)
    counts = count_factorizations(monkeypatch)
    # eigh A, eigh C, eigvalsh H, svd B, two Rayleigh eigvalsh, svd Z
    code, out, _ = run(capsys, "bounds", definite, "--method", "all")
    skipped = [r["method"] for r in json.loads(out)["results"] if "skipped" in r]
    assert code == 0 and skipped == ["kirsch"]
    assert sum(counts.values()) <= 7, counts
    counts.clear()
    code, out, _ = run(capsys, "stokes", stokes_file, "--method", "all")
    intervals = json.loads(out)["intervals"]
    assert code == 0 and all("skipped" not in v for v in intervals.values())
    # eigh A, eigh C, eigvalsh H, svd B, axel eigvalsh, relative-size eigvalsh
    assert sum(counts.values()) <= 6, counts
    counts.clear()
    code, _, _ = run(capsys, "bounds", definite, "--method", "diag")
    assert code == 0 and sum(counts.values()) == 3, counts
    counts.clear()
    # the seven above less eigh C, which C = A shares with A, and eigh B
    # for kirsch, which reads A's eigenvalues
    code, out, _ = run(capsys, "bounds", kirsch_file, "--method", "all")
    assert code == 0 and all("skipped" not in r for r in json.loads(out)["results"])
    assert sum(counts.values()) <= 7, counts


def run_child(source: str):
    """Run source in a fresh interpreter with gapcert importable; return its last line as JSON."""
    src = str(Path(gapcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_runtime_loads_no_scipy():
    # the package needs only numpy at run time; a fresh interpreter shows
    # what a CLI call loads, which this test process (holding scipy) cannot
    child = (
        "import json, sys\n"
        "from gapcert.cli import main\n"
        "code = main(['model', 'stable-gap', '-m', '300', '-c', '0.5'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))\n"
    )
    assert run_child(child) == [0, []]


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    f = write_block(tmp_path / "d.txt", [[2.0]], [[1.0]], [[1.0]])
    assert run(capsys, "bounds", f, "--method", "diag")[0] == 0
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (
        ["bounds", f], ["bounds", f, "--method", "bogus"], ["stokes", f, "--method", "new"],
        ["model", "spurious", "-m", "5", "-c", "0.5"], ["counterexamples", "--t-range", "5:20:3"],
    ):
        run(capsys, *argv)
    assert made == []


def test_import_builds_no_parser():
    # the parser is built by the first call, not at import, so an
    # interpreter that only imports the CLI pays nothing for it
    child = (
        "import argparse, io, json, contextlib\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import gapcert.cli\n"
        "counts = [len(made)]\n"
        "for _ in range(2):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        gapcert.cli.main(['model', 'spurious', '-m', '5', '-c', '0.5'])\n"
        "    counts.append(len(made))\n"
        "print(json.dumps(counts))\n"
    )
    at_import, first, second = run_child(child)
    assert at_import == 0 and first > 0 and second == first


def test_reused_parser_leaks_nothing_between_calls(tmp_path, capsys):
    # one mixed sequence, then the same calls in reverse order: every call
    # must give the same exit code, stdout and stderr either way
    A = [[2.0, -1.0], [-1.0, 2.0]]
    definite = write_block(tmp_path / "d.txt", A, np.eye(2), A)
    stokes_file = write_block(tmp_path / "s.txt", A, np.eye(2))
    dest = tmp_path / "out.json"
    calls = [
        ["bounds", definite, "--method", "all", "--output", str(dest)],
        ["bounds", definite, "--method", "all"],
        ["bounds", definite, "--method", "bogus"],
        ["model", "verify"],
        ["model", "verify"],
        ["stokes", stokes_file, "--format", "csv"],
    ]
    seen = []
    for order in (range(len(calls)), reversed(range(len(calls)))):
        results = {i: run(capsys, *calls[i]) for i in order}
        seen.append(results)
        assert results[0] == (0, "", "")
        assert results[1][0] == 0 and results[1][1] == dest.read_text()
        assert results[2][0] == 2 and "invalid choice" in results[2][2]
        assert results[3][0] == 0 and results[3][1].count("PASS") == 10
        assert results[4] == results[3]
        assert results[5][0] == 0 and results[5][1].startswith("index,branch,value")
        dest.unlink()
    assert seen[0] == seen[1]
