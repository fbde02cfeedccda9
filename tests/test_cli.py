"""End-to-end command-line checks: payloads, exit codes, determinism."""

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gapcert
from gapcert import bounds, cli, model, stokes
from gapcert.cli import main
from gapcert.errors import FormMismatch, NotDefinite, RankDeficient

from helpers import block_text, count_factorizations, rand_pd, rand_psd

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def write_block(path, A, B, C="zero"):
    path.write_text(block_text(A, B, None if isinstance(C, str) else C))
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
    assert all(r.keys() == {"method", "certificate", "verdict"} for r in by_method.values())
    assert np.allclose(by_method["diag"]["certificate"]["interval"], [-1.0, 1.0])
    assert all(r["verdict"] == "SOUND" for r in by_method.values())
    assert abs(by_method["kirsch"]["certificate"]["interval"][1] - np.sqrt(2.0)) < 1e-12
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
    # there is no rank tolerance to set
    for command in ("bounds", "stokes"):
        assert run(capsys, command, f, "--tol-rank", "1e-8")[0] == 2


def test_output_flag_writes_file(tmp_path, capsys):
    f = write_block(tmp_path / "d.txt", [[2.0]], [[1.0]], [[1.0]])
    dest = tmp_path / "out.json"
    code, out, _ = run(capsys, "bounds", f, "--method", "diag", "--output", str(dest))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "bounds", f, "--method", "diag")
    assert dest.read_text() == out


def test_non_utf8_block_file_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "latin1.txt"
    f.write_bytes(b"A\n1 1\n\xff\n")
    for command in ("bounds", "stokes"):
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1


def test_removed_options_and_names(tmp_path, capsys):
    # --format is offered only where there is a choice of format
    f = write_block(tmp_path / "d.txt", [[2.0]], [[1.0]], [[1.0]])
    for argv in (
        ["bounds", f, "--format", "json"],
        ["model", "spurious", "-m", "5", "-c", "0.5", "--format", "json"],
        ["model", "stable-gap", "-m", "5", "-c", "0.5", "--format", "json"],
        ["model", "scan", "-m", "5", "--M", "0,2", "--delta", "0.5", "--format", "csv"],
        ["model", "verify", "--format", "text"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 2 and out == "", argv
    # names are imported from their module, not from the package
    assert not hasattr(gapcert, "BlockSaddle")


@pytest.mark.parametrize(
    "argv",
    [
        ["stokes", "STOKES"],
        ["stokes", "STOKES", "--format", "csv"],
        ["model", "secular", "-m", "4", "-c", "0.5"],
        ["model", "spurious", "-m", "5", "-c", "0.5"],
        ["model", "stable-gap", "-m", "10", "-c", "2"],
        ["model", "modified", "-m", "4", "-c", "0", "--format", "json"],
        ["model", "scan", "-m", "10", "--M", "0,2", "--delta", "0.5"],
        ["model", "verify", "-m", "2,3", "-c", "0,0.5"],
        ["counterexamples", "--t-range", "5:20:11"],
    ],
)
def test_output_flag_writes_what_stdout_would(tmp_path, capsys, argv):
    stokes_file = write_block(tmp_path / "st.txt", [[2.0, -1.0], [-1.0, 2.0]], np.eye(2))
    argv = [stokes_file if a == "STOKES" else a for a in argv]
    dest = tmp_path / "out.txt"
    code, out, err = run(capsys, *argv, "--output", str(dest))
    assert code == 0 and out == "" and err == ""
    assert run(capsys, *argv) == (code, dest.read_text(), "")


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [line[2:] for line in readme.read_text().splitlines() if line.startswith("$ gapcert ")]
    assert len(examples) >= 4
    for line in examples:
        args = cli._build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


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


@pytest.mark.parametrize("B", [[[1.0], [0.0]], [[0.0], [0.0]]])
def test_stokes_csv_ignores_method(tmp_path, capsys, B):
    # the CSV is the pencil spectrum alone, even where the method fails in JSON
    f = write_block(tmp_path / "st.txt", np.eye(2), B)
    want = run(capsys, "stokes", f, "--format", "csv")
    assert want[0] == 0 and want[1].startswith("index,branch,value\n")
    for method in [*cli.STOKES_CERTS, "all"]:
        assert run(capsys, "stokes", f, "--method", method, "--format", "csv") == want
    assert run(capsys, "stokes", f, "--method", "new")[0] == 3


def test_csv_column_formats_match_per_value_fmt():
    # one %-format per column prints every value as its own %-format prints it alone
    rows = [
        (1, 0.1, "a", np.float64(1e-300), np.int64(-7), np.float32(0.1)),
        (np.int64(2), 2.0 / 3.0, "b", np.float64(-0.0), 12, np.float32(3.0)),
    ]
    header = ["i", "f", "s", "g", "j", "h"]
    want = ",".join(header) + "\n" + "".join(",".join(cli._column_format(v) % v for v in row) + "\n" for row in rows)
    assert cli._csv(header, list(zip(*rows))) == want
    assert want.splitlines()[1] == "1,0.10000000000000001,a,1e-300,-7,0.10000000149011612"
    assert cli._csv(header, [[] for _ in header]) == ",".join(header) + "\n"


def test_stokes_nab_violated_exit3(tmp_path, capsys):
    f = write_block(tmp_path / "nab.txt", np.diag([0.0, 1.0]), [[0.0], [1.0]])
    code, _, err = run(capsys, "stokes", f)
    assert code == 3 and "error:" in err


def test_stokes_needs_zero_C_exit3(tmp_path, capsys):
    f = write_block(tmp_path / "c.txt", [[1.0]], [[1.0]], [[1.0]])
    assert run(capsys, "stokes", f)[0] == 3


@pytest.mark.parametrize("argv", [[], ["--method", "new"], ["--method", "all"], ["--format", "csv"]])
def test_stokes_nonzero_C_stderr(tmp_path, capsys, argv):
    f = write_block(tmp_path / "c.txt", np.eye(2), np.eye(2), 1e-300 * np.eye(2))
    code, out, err = run(capsys, "stokes", f, *argv)
    assert (code, out, err) == (3, "", "error: C must be zero (the Stokes form)\n")


@pytest.mark.parametrize("shift", [-1.5e-12, 1.5e-12])
def test_kirsch_refuses_C_near_A(tmp_path, capsys, shift):
    A = np.diag([1.0, 2.0])
    f = write_block(tmp_path / "k.txt", A, np.diag([1.0, 3.0]), A + shift * np.eye(2))
    reason = "C must be bit-equal to A (the Kirsch form)"
    code, out, err = run(capsys, "bounds", f, "--method", "kirsch")
    assert (code, out, err) == (3, "", f"error: {reason}\n")
    code, out, _ = run(capsys, "bounds", f, "--method", "all")
    by_method = {r["method"]: r for r in json.loads(out)["results"]}
    assert code == 0 and by_method["kirsch"] == {"method": "kirsch", "skipped": reason}


# each hypothesis of bounds.HYPOTHESES: its one class and its one message
HYPOTHESIS_REFUSALS = {
    "A_definite": (NotDefinite, "A must be positive definite"),
    "C_definite": (NotDefinite, "C must be positive definite"),
    "B_square_full_rank": (RankDeficient, "B must be square and of full rank"),
    "B_full_column_rank": (RankDeficient, "B must have full column rank"),
    "BT_full_column_rank": (RankDeficient, "B^T must have full column rank"),
    "C_zero": (FormMismatch, "C must be zero (the Stokes form)"),
    "C_equals_A": (FormMismatch, "C must be bit-equal to A (the Kirsch form)"),
}
_I2, _E1 = np.eye(2), np.diag([1.0, 0.0])
# (method, hypothesis, case, A, B, C) on a saddle that meets every hypothesis the method
# checks before this one and fails this one; C None is the section `zero k`.  A singular
# A keeps N(A) cap N(B^T) = {0}, which every stokes output needs.
REFUSAL_CASES = [
    ("diag", "A_definite", "singular", _E1, _I2, _I2),
    ("diag", "C_definite", "singular", _I2, _I2, _E1),
    ("stretch", "A_definite", "singular", _E1, _I2, _I2),
    ("stretch", "C_definite", "zero", _I2, _I2, None),
    ("hbinv", "B_square_full_rank", "tall", _I2, np.ones((2, 1)), [[1.0]]),
    ("hbinv", "B_square_full_rank", "singular", _I2, np.ones((2, 2)), _I2),
    ("winklmeier", "B_square_full_rank", "wide", [[1.0]], np.ones((1, 2)), _I2),
    ("winklmeier", "B_square_full_rank", "singular", _I2, np.ones((2, 2)), _I2),
    ("kirsch", "C_equals_A", "C=2A", _I2, _I2, 2.0 * _I2),
    ("minimal", "C_zero", "C=I", _I2, _I2, _I2),
    ("ruwa", "C_zero", "C=I", _I2, _I2, _I2),
    ("ruwa", "A_definite", "singular", _E1, [[0.0], [1.0]], None),
    ("ruwa", "B_full_column_rank", "wide", _I2, np.ones((2, 3)), None),
    ("ruwa", "B_full_column_rank", "singular", _I2, np.ones((2, 2)), None),
    ("axel", "C_zero", "C=I", _I2, _I2, _I2),
    ("axel", "A_definite", "singular", _E1, [[0.0], [1.0]], None),
    ("axel", "B_full_column_rank", "wide", _I2, np.ones((2, 3)), None),
    ("axel", "B_full_column_rank", "singular", _I2, np.ones((2, 2)), None),
    ("new", "C_zero", "C=I", _I2, _I2, _I2),
    ("new", "BT_full_column_rank", "tall", _I2, np.ones((2, 1)), None),
    ("new", "BT_full_column_rank", "singular", _I2, np.ones((2, 2)), None),
]


@pytest.mark.parametrize(
    "method, hypothesis, A, B, C", [pytest.param(*c[:2], *c[3:], id="-".join(c[:3])) for c in REFUSAL_CASES]
)
def test_each_hypothesis_refused_with_its_class_and_message(tmp_path, capsys, method, hypothesis, A, B, C):
    error, message = HYPOTHESIS_REFUSALS[hypothesis]
    assert bounds.HYPOTHESES[hypothesis][1:] == (error, message)
    command, certs = ("bounds", cli.BOUND_CERTS) if method in cli.BOUND_CERTS else ("stokes", cli.STOKES_CERTS)
    k = np.shape(B)[1]
    with pytest.raises(error) as refused:
        certs[method](bounds.BlockSaddle(A, B, np.zeros((k, k)) if C is None else C))
    assert type(refused.value) is error and str(refused.value) == message
    f = write_block(tmp_path / "h.txt", A, B, "zero" if C is None else C)
    assert run(capsys, command, f, "--method", method) == (3, "", f"error: {message}\n")
    code, out, err = run(capsys, command, f, "--method", "all")
    if command == "stokes" and hypothesis == "C_zero":
        # the pencil spectrum that every stokes output prints needs C = 0 as well
        assert (code, out, err) == (3, "", f"error: {message}\n")
    else:
        payload = json.loads(out)
        entries = {r["method"]: r for r in payload["results"]} if command == "bounds" else payload["intervals"]
        assert code == 0 and entries[method]["skipped"] == message


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


def test_model_modified_certified_payload(capsys):
    m, c = 30, 0.7
    code, out, _ = run(capsys, "model", "modified", "-m", str(m), "-c", str(c), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "m", "c", "eigenvalues", "certified_radius", "symmetry_defect", "closed_form_squares",
        "square_defect", "gap_radius", "inside_gap_count",
    }
    assert payload["symmetry_defect"] == 0.0
    evals = np.array(payload["eigenvalues"])
    dense = np.linalg.eigvalsh(model.build_Htilde(model.ModelSpec(m, c)))
    norm = float(np.max(np.abs(dense)))
    assert np.max(np.abs(evals - dense)) <= payload["certified_radius"] + 2 * m * np.finfo(float).eps * norm
    code, csv_out, _ = run(capsys, "model", "modified", "-m", str(m), "-c", str(c))
    assert [float(line.split(",")[1]) for line in csv_out.splitlines()[1:]] == payload["eigenvalues"]


def _no_dense_factorization(*args, **kwargs):
    raise AssertionError("model modified called a dense factorization")


def test_model_modified_makes_no_dense_factorization(capsys, monkeypatch):
    # the O(m) route: a closed form and one Sturm count, no 2m x 2m matrix and no LAPACK call
    for name in ("eigvalsh", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, _no_dense_factorization)
    for argv in (["-c", "0.7"], ["-c", "0.7", "--format", "json"], ["-c", "0", "--format", "json"]):
        code, out, err = run(capsys, "model", "modified", "-m", "50", *argv)
        assert code == 0 and err == "", argv
    assert json.loads(out)["k0_square_defect"] == 0.0


def test_model_modified_count_mismatch_exits_3(capsys, monkeypatch):
    m, c = 50, 0.7
    # delta = 64 eps G, with G = 2 + 2c the Gershgorin bound of K_tilde's bands
    delta = 64.0 * np.finfo(float).eps * (2.0 + 2.0 * c)
    lam = model.lambda_of_alpha

    def one_value_off(c, alpha):
        out = lam(c, alpha)
        out[10] = (np.sqrt(out[10]) + 5.0 * delta) ** 2  # moves 2 sqrt(lambda) by 10 delta
        return out

    monkeypatch.setattr(model, "lambda_of_alpha", one_value_off)
    for fmt in ("csv", "json"):
        code, out, err = run(capsys, "model", "modified", "-m", str(m), "-c", str(c), "--format", fmt)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


SCAN_M3_SEED1 = """\
M,variant,index,eigenvalue
0.5,H,1,-2.3568372639165829
0.5,H,2,-1.7969121443980316
0.5,H,3,-0.030017168882972272
0.5,H,4,0.030017168882972272
0.5,H,5,1.7969121443980316
0.5,H,6,2.3568372639165829
0.5,Htilde,1,-2.4388391484370766
0.5,Htilde,2,-2.0599524561655369
0.5,Htilde,3,-1.5996905590307606
0.5,Htilde,4,1.5589298316135252
0.5,Htilde,5,2.0641405153246359
0.5,Htilde,6,2.4754118166952117
"""


def test_model_scan_frozen_text(capsys):
    # the seed-1 draw on [0.4, 0.6]: H keeps its +- pairs, H_tilde loses them
    code, out, err = run(capsys, "model", "scan", "-m", "3", "--M", "0.5", "--delta", "0.1", "--seed", "1")
    assert (code, out, err) == (0, SCAN_M3_SEED1, "")


def test_model_verify_default_gram_identity_is_exact(capsys):
    # T_-c comes from K_c's block, halved: W_c = T_-c^T T_-c holds to the last bit on the default grid
    code, out, err = run(capsys, "model", "verify")
    assert (code, err) == (0, "")
    assert "PASS gram_identity (max defect 0.000e+00, tol 1e-14)\n" in out


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


def test_counterexamples_negative_t_range_takes_equals_form(capsys):
    # argparse reads "--t-range -5:5:11" as a missing value; the = form works
    code, out, _ = run(capsys, "counterexamples", "--t-range=-5:5:11")
    assert code == 0
    data = [line for line in out.strip().split("\n") if not line.startswith("#")]
    assert data[0] == "family,t,min_abs_eigenvalue" and len(data) == 1 + 3 * 11


def test_counterexample_suite_is_the_json_record(capsys):
    code, out, _ = run(capsys, "counterexamples", "--format", "json")
    payload = json.loads(out)
    del payload["curves"]
    assert code == 0 and payload == bounds.counterexample_suite()


# saddles at the ends of the float range, by name; "@name" in an argv below is the path of its file
I2 = np.eye(2)
FLOAT_RANGE_SADDLES = {
    "tiny": ([[1e-310]], [[1e-310]], [[1e-310]]),
    "subnormal": ([[1e-320]], [[1e-320]], [[1e-320]]),
    "subnormal-stokes": ([[1e-320]], [[1.0]], "zero"),
    "huge": (1.5e308 * I2, 1.5e308 * I2, 1.5e308 * I2),
    "huge-stokes": (1.5e308 * I2, 1.5e308 * I2, "zero"),
    # blocks each inside the float range, but sigma(B) = 2e308 puts the spectrum of H outside it
    "huge-B": (I2, 1e308 * np.ones((2, 2)), I2),
    "huge-B-stokes": (I2, 1e308 * np.ones((2, 2)), "zero"),
    "huge-B-1x1": ([[1.0]], [[1e308]], [[1.0]]),
}
NOT_FINITE = "the result leaves the float range: a number in it is not finite"


def float_range_argv(tmp_path, argv):
    return [write_block(tmp_path / f"{a[1:]}.txt", *FLOAT_RANGE_SADDLES[a[1:]]) if a[0] == "@" else a for a in argv]


def strict_json(out: str):
    """The payload of out, failing on the NaN and +-Infinity that Python's json would accept."""

    def refuse(constant):
        raise AssertionError(f"{constant} in the output")

    return json.loads(out, parse_constant=refuse)


@pytest.mark.parametrize(
    "argv, want",
    [
        (["model", "secular", "-m", "3", "-c", "1e155"], 3),
        (["model", "stable-gap", "-m", "3", "-c", "1e300"], 3),
        (["counterexamples", "--t-range", "1e160:1e170:3"], 3),
        (["model", "stable-gap", "-m", "3", "-c", "inf"], 3),
        (["counterexamples", "--t-range", "0:inf:3"], 2),
        (["model", "modified", "-m", "3", "-c", "1e200", "--format", "json"], 3),
        (["model", "verify", "-m", "3", "-c", "1e200"], 3),
        # a certificate whose result is not finite is refused
        (["bounds", "@tiny", "--method", "zero-dichotomy"], 3),
        (["bounds", "@subnormal", "--method", "diag"], 3),
        (["bounds", "@subnormal", "--method", "stretch"], 3),
        (["bounds", "@subnormal", "--method", "hbinv"], 3),
        (["stokes", "@subnormal-stokes", "--method", "axel"], 3),
        # a block, or the spectrum of H, past the float range stops the command
        (["bounds", "@huge"], 3),
        (["stokes", "@huge-stokes"], 3),
        (["bounds", "@huge-B"], 3),
        (["stokes", "@huge-B-stokes"], 3),
    ],
)
def test_overflow_and_nonfinite_input_exit_with_one_error_line(tmp_path, capsys, argv, want):
    # overflow is a domain error (3); a non-finite range endpoint is an input error (2)
    code, out, err = run(capsys, *float_range_argv(tmp_path, argv))
    assert code == want and out == ""
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # the blocks pass validation; the spectrum of H stops the command before any
        # verdict or pencil classification
        (["bounds", "@huge-B"], "the spectrum of H overflows the float range"),
        (["bounds", "@huge-B-stokes"], "the spectrum of H overflows the float range"),
        (["stokes", "@huge-B-stokes"], "the spectrum of H overflows the float range"),
        (["bounds", "@huge"], "A overflows the float range"),
        (["stokes", "@huge-stokes"], "A overflows the float range"),
        (["bounds", "@subnormal", "--method", "diag"], NOT_FINITE),
    ],
)
def test_float_range_errors_name_the_overflow(tmp_path, capsys, argv, message):
    assert run(capsys, *float_range_argv(tmp_path, argv)) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, skipped",
    [
        (["bounds", "@tiny"], dict.fromkeys(["diag", "stretch", "hbinv", "zero-dichotomy", "kirsch"], NOT_FINITE)),
        (["bounds", "@subnormal"], dict.fromkeys(["diag", "stretch", "hbinv", "zero-dichotomy", "kirsch"], NOT_FINITE)),
        (["stokes", "@subnormal-stokes"], {"axel": NOT_FINITE}),
        # a certificate's own block past the float range is refused with it
        (["bounds", "@huge-B-1x1"], {"stretch": NOT_FINITE, "kirsch": "B overflows the float range"}),
    ],
)
def test_results_not_finite_are_skipped_under_all(tmp_path, capsys, argv, skipped):
    code, out, err = run(capsys, *float_range_argv(tmp_path, argv))
    assert code == 0 and err == ""
    payload = strict_json(out)
    entries = payload["intervals"] if argv[0] == "stokes" else {e["method"]: e for e in payload["results"]}
    assert {name: e["skipped"] for name, e in entries.items() if "skipped" in e} == skipped
    assert all(e["verdict"] == "SOUND" for e in entries.values() if "verdict" in e)


def _scaled_saddles():
    # a definite, a semidefinite and a Stokes saddle, entries in [-1, 1], so that
    # 2^1020 times an entry stays inside the float range
    rng = np.random.default_rng(2024)
    saddles = {
        "definite": (rand_pd(rng, 3), rng.standard_normal((3, 2)), rand_pd(rng, 2)),
        "semidefinite": (rand_psd(rng, 3, rank=2), rng.standard_normal((3, 3)), rand_psd(rng, 3, rank=2)),
        "stokes": (rand_pd(rng, 3), rng.standard_normal((3, 2)), np.zeros((2, 2))),
    }
    return {name: [M / max(np.abs(X).max() for X in blocks) for M in blocks] for name, blocks in saddles.items()}


@pytest.mark.parametrize("k", [-1070, -1040, -1000, 1000, 1020])
@pytest.mark.parametrize("name", ["definite", "semidefinite", "stokes"])
def test_every_method_across_the_float_range(tmp_path, capsys, name, k):
    # every run prints strict JSON or stops with one error line, and warns of nothing
    A, B, C = (np.ldexp(M, k) for M in _scaled_saddles()[name])
    f = write_block(tmp_path / "s.txt", A, B, "zero" if name == "stokes" else C)
    runs = [["bounds", *m] for m in ([], *(["--method", m] for m in cli.BOUND_CERTS))]
    runs += [["stokes", *m] for m in ([], *(["--method", m] for m in cli.STOKES_CERTS))]
    for argv in runs:
        code, out, err = run(capsys, argv[0], f, *argv[1:])
        if code == 0:
            assert err == ""
            strict_json(out)
        else:
            assert code == 3 and out == "", argv
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


def test_counterexamples_kirsch_overflow_names_t(capsys):
    # t^2 overflows from t ~ 1.34e154, so at the grid's second point, 5e159;
    # up to 1e154 the curve reads sqrt(5), with no warning
    code, out, err = run(capsys, "counterexamples", "--t-range", "1e150:1e160:3")
    assert code == 3 and out == ""
    assert err == "error: s = tr(M M^H)/2 overflows the float range at t = 5e+159\n"
    for t_range in ("1e11:1e12:2", "1e153:1e154:2"):
        code, out, err = run(capsys, "counterexamples", "--t-range", t_range)
        assert code == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines() if line.startswith("kirsch_Bt,")]
        assert len(rows) == 2 and all(abs(float(v) - np.sqrt(5.0)) < 1e-11 for _, _, v in rows)


@pytest.mark.parametrize("cmd, c", [("secular", "1e160"), ("stable-gap", "1e200")])
def test_model_lambda_overflow_names_c(capsys, cmd, c):
    # (1 - c)^2 overflows from c ~ 1.34e154; just below, both commands still succeed
    code, out, err = run(capsys, "model", cmd, "-m", "10", "-c", c)
    assert code == 3 and out == ""
    assert err == f"error: lambda = c^2 + 1 - 2c cos(alpha) overflows the float range at c = {float(c):g}\n"
    assert run(capsys, "model", cmd, "-m", "10", "-c", "1.3e154")[0] == 0


def test_verdict_margin_is_scale_relative(tmp_path, capsys, monkeypatch):
    # at scale 1e-12 every eigenvalue lies far inside an absolute 1e-10
    # margin; the verdict must still see one inside the certified interval
    t = 1e-12
    D = t * np.diag([1.0, 2.0])
    f = write_block(tmp_path / "s.txt", D, t * np.eye(2), D)
    wide = bounds.GapCertificate("diag_gap", (-3.0 * t, 3.0 * t), "excludes_all", None, {})
    monkeypatch.setattr(bounds, "diag_gap", lambda S: wide)
    code, out, _ = run(capsys, "bounds", f, "--method", "diag")
    assert code == 0 and json.loads(out)["verdict"] == "UNSOUND"


@pytest.mark.parametrize("f, want", [(5e-9, "SOUND"), (2e-8, "UNSOUND")])
def test_verdict_inverse_norm_slack(f, want):
    # ||H^-1|| = 1 / (1 - f) against a claimed bound of 1 passes within 1e-8
    cert = bounds.GapCertificate("x", (-0.5, 0.5), "excludes_all", 1.0, {})
    assert cli._verdict(cert, np.array([-(1.0 - f), 3.0])) == want


@pytest.mark.parametrize("f, want", [(0.5, "SOUND"), (2.0, "UNSOUND")])
def test_verdict_margin_is_1e10_of_the_largest_eigenvalue(tmp_path, capsys, monkeypatch, f, want):
    # H = [[1, 1], [1, -1]] has eigenvalues -sqrt(2) and sqrt(2), so the margin is 1e-10 sqrt(2);
    # a certificate ending f margins past sqrt(2) holds that eigenvalue inside only for f > 1
    path = write_block(tmp_path / "s.txt", [[1.0]], [[1.0]], [[1.0]])
    lam = np.sqrt(2.0)
    cert = bounds.GapCertificate("diag_gap", (0.0, lam + f * 1e-10 * lam), "excludes_all", None, {})
    monkeypatch.setattr(bounds, "diag_gap", lambda S: cert)
    code, out, _ = run(capsys, "bounds", path, "--method", "diag")
    assert code == 0 and json.loads(out)["verdict"] == want


@pytest.mark.parametrize("side, end", [("i_plus", 0), ("i_plus", 1), ("i_minus", 0), ("i_minus", 1)])
@pytest.mark.parametrize("f, want", [(0.5, "SOUND"), (2.0, "UNSOUND")])
def test_pair_verdict_margin(tmp_path, capsys, monkeypatch, side, end, f, want):
    # A = B = [[1]] has the branch eigenvalues 1 - phi and phi, and the margin is 1e-10 phi;
    # an enclosure with one end f margins short of its eigenvalue misses it only for f > 1
    path = write_block(tmp_path / "st.txt", [[1.0]], [[1.0]])
    gap = f * 1e-10 * PHI
    ends = {"i_minus": (1.0 - PHI, 1.0 - PHI), "i_plus": (PHI, PHI)}
    lam = ends[side][0]
    ends[side] = (lam + gap, lam + 1.0) if end == 0 else (lam - 1.0, lam - gap)
    monkeypatch.setattr(stokes, "ruwa_intervals", lambda S: stokes.IntervalPair(**ends, source="ruwa"))
    code, out, _ = run(capsys, "stokes", path, "--method", "ruwa")
    assert code == 0 and json.loads(out)["intervals"]["ruwa"]["verdict"] == want


def test_stokes_new_verdict_ignores_the_zero_eigenvalue(tmp_path, capsys):
    # H = [[1, 1, 1], [1, 0, 0], [1, 0, 0]] has eigenvalues -1, 0 and 2; the new estimate
    # (-1, sqrt(2)) excludes only nonzero eigenvalues, so the zero inside it is no fault
    path = write_block(tmp_path / "z.txt", [[1.0]], [[1.0, 1.0]])
    code, out, _ = run(capsys, "stokes", path, "--method", "new")
    entry = json.loads(out)["intervals"]["new"]
    assert code == 0 and np.allclose(entry["certificate"]["interval"], [-1.0, np.sqrt(2.0)])
    assert entry["certificate"]["claim"] == "excludes_nonzero" and entry["verdict"] == "SOUND"


def test_repeat_runs_identical(tmp_path, capsys):
    f = write_block(tmp_path / "k.txt", [[2.0, -1.0], [-1.0, 2.0]], np.eye(2), "zero")
    outs = set()
    for _ in range(2):
        outs.add(run(capsys, "stokes", f)[1])
        outs.add(run(capsys, "model", "scan", "-m", "10", "--M", "0,2", "--delta", "0.5")[1])
        outs.add(run(capsys, "counterexamples", "--t-range", "5:20:11")[1])
    assert len(outs) == 3


@pytest.mark.parametrize("c", ["1e5", "1e20", "6.6e153"])
def test_model_verify_passes_at_large_mass(capsys, c):
    # the secular, symbol and H-tilde clearance checks are relative to the
    # spectrum's scale, which grows like c
    code, out, _ = run(capsys, "model", "verify", "-m", "3", "-c", c)
    assert code == 0, out
    assert out.count("PASS") == 10


def test_model_verify_grid_without_central_pair(capsys):
    code, out, _ = run(capsys, "model", "verify", "-m", "2,3", "-c", "0.0,0.7,0.8,1.0,1.5")
    assert code == 0, out


def test_model_verify_symbol_containment_without_central_pair(capsys, monkeypatch):
    # m = 2, c = 0.7 has no central pair (m (1 - c) < c), so all four |lambda| (0.720 twice,
    # 2.720 twice) must lie in the band; a band that starts at 1.0 fails the check
    real = model.symbol_spectrum

    def band_from_one(c):
        w_band, (_, (_, h_hi)) = real(c)
        return w_band, ((-h_hi, -1.0), (1.0, h_hi))

    monkeypatch.setattr(model, "symbol_spectrum", band_from_one)
    code, out, _ = run(capsys, "model", "verify", "-m", "2", "-c", "0.7")
    assert code == 1 and "FAIL symbol_containment" in out


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
    counts.clear()
    # a 6x4 B fails B_square_full_rank on its shape, before B_full_rank would take
    # the SVD of B: the one svd is stretch's Z
    rect = write_block(tmp_path / "r.txt", rand_pd(rng, n), rng.standard_normal((n, 4)), rand_pd(rng, 4))
    code, out, _ = run(capsys, "bounds", rect, "--method", "all")
    skipped = [r["method"] for r in json.loads(out)["results"] if "skipped" in r]
    assert code == 0 and skipped == ["hbinv", "kirsch", "winklmeier"]
    assert counts["svd"] == 1, counts


def test_stokes_all_factorizes_the_zero_block_not_at_all(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(4)
    n = 6
    f = write_block(tmp_path / "s.txt", rand_pd(rng, n), rng.standard_normal((n, n)) + 4.0 * np.eye(n))
    counts = count_factorizations(monkeypatch)
    code, out, _ = run(capsys, "stokes", f, "--method", "all")
    assert code == 0 and all("skipped" not in v for v in json.loads(out)["intervals"].values())
    # eigh A only: C = zero 6 gets its eigenpairs without LAPACK
    assert counts["eigh"] == 1, counts


@pytest.mark.parametrize("k", [2500, 10_000_000])
def test_zero_block_that_B_rules_out_exits_3_at_once(tmp_path, capsys, monkeypatch, k):
    f = tmp_path / "mismatch.txt"
    f.write_text(f"A\n2 2\n1 0\n0 1\nB\n2 1\n1\n0\nC\nzero {k}\n")
    counts = count_factorizations(monkeypatch)
    code, out, err = run(capsys, "bounds", str(f), "--method", "all")
    assert (code, out, err) == (3, "", f"error: B must be 2x{k}, got 2x1\n")
    assert sum(counts.values()) == 0, counts


def test_kirsch_C_differing_in_last_token_exits_3(tmp_path, capsys):
    A = np.diag([1.0, 2.0])
    f = write_block(tmp_path / "k.txt", A, np.diag([1.0, 3.0]), A)
    text = Path(f).read_text()
    f = tmp_path / "k1.txt"
    f.write_text(text[: text.rindex(" ")] + " 2.0000000000000004\n")
    code, out, err = run(capsys, "bounds", str(f), "--method", "kirsch")
    assert (code, out, err) == (3, "", "error: C must be bit-equal to A (the Kirsch form)\n")


def run_child(source: str):
    """Run source in a fresh interpreter with gapcert importable; return its last line as JSON."""
    src = str(Path(gapcert.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_scan_rejects_non_finite_disorder_range():
    # a fresh interpreter prints warnings as text on stderr, which pytest would turn into errors
    child = (
        "import contextlib, io, json\n"
        "from gapcert.cli import main\n"
        "out = []\n"
        "for M, delta in (('0', 'inf'), ('inf', '0'), ('1e308', '1e308')):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        code = main(['model', 'scan', '-m', '10', '--M', M, '--delta', delta])\n"
        "    out.append([code, err.getvalue()])\n"
        "print(json.dumps(out))\n"
    )
    for code, err in run_child(child):
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: disorder range [")
        assert "Warning" not in err


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
