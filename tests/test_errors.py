"""Every refusal names its kind: one class of gapcert.errors (or OverflowError) and one message."""

import re
from pathlib import Path

import numpy as np
import pytest

from gapcert import bounds, cli, errors, linalg, model, stokes
from gapcert.bounds import Quartic4x4Params
from gapcert.errors import DimensionMismatch, OutOfRegime, RankDeficient
from gapcert.model import DisorderSpec, ModelSpec

from helpers import StokesMatrix, block_text

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gapcert"

_DISORDERED = ModelSpec(4, 0.0, DisorderSpec(-1.0, 1.0, 0))


def _complex_b_plus():
    # sign = +1 with a complex b_plus, set past the constructor's check: the discriminant goes negative
    p = Quartic4x4Params(1.0, 1.0)
    object.__setattr__(p, "b_plus", (0.0, 1.0))
    return bounds.eig_4x4(p)


def _stokes_file(tmp_path):
    # A's null vector e1 lies in N(B^T): [A B] has rank 1 < m = 2
    path = tmp_path / "nab.txt"
    path.write_text(block_text(np.diag([0.0, 1.0]), np.array([[0.0], [1.0]]), None))
    return str(path)


# (id, call, class, message, argv of a command refused with the same message, or None);
# a callable in argv is given tmp_path and returns the argument
REFUSALS = [
    ("disorder-infinite", lambda: DisorderSpec(-np.inf, np.inf, 0), OutOfRegime,
     "disorder range [-inf, inf] must have finite ends and width", None),
    ("disorder-empty", lambda: DisorderSpec(1.0, -1.0, 0), OutOfRegime, "empty disorder range [1.0, -1.0]",
     ["model", "scan", "-m", "4", "--M", "0", "--delta", "-1"]),
    ("m-1", lambda: ModelSpec(1, 0.5), OutOfRegime, "m must be an integer >= 2, got 1",
     ["model", "spurious", "-m", "1", "-c", "0.5"]),
    ("m-2.5", lambda: ModelSpec(2.5), OutOfRegime, "m must be an integer >= 2, got 2.5", None),
    ("m-inf", lambda: ModelSpec(np.inf), OutOfRegime, "m must be an integer >= 2, got inf", None),
    ("m-nan", lambda: ModelSpec(np.nan), OutOfRegime, "m must be an integer >= 2, got nan", None),
    ("spec-c-negative", lambda: ModelSpec(5, -1.0), OutOfRegime, "c must be nonnegative, got -1.0",
     ["model", "secular", "-m", "5", "-c", "-1"]),
    ("spec-c-inf", lambda: ModelSpec(5, np.inf), OutOfRegime, "c must be finite, got inf",
     ["model", "stable-gap", "-m", "5", "-c", "inf"]),
    ("spec-disorder-shift", lambda: ModelSpec(4, 0.5, DisorderSpec(-1.0, 1.0, 0)), OutOfRegime,
     "disordered model carries its shift in the law's mean; set c = 0", None),
    ("draw-no-law", lambda: model.draw_disorder(ModelSpec(4)), OutOfRegime, "spec has no disorder law", None),
    ("stack-mixed", lambda: model.build_Hc([ModelSpec(3), ModelSpec(4)]), DimensionMismatch,
     "a stack of specs needs one or more specs of one size m", None),
    ("stack-empty", lambda: model.hc_spectrum([]), DimensionMismatch,
     "a stack of specs needs one or more specs of one size m", None),
    ("Wc-disordered", lambda: model.build_Wc([_DISORDERED]), OutOfRegime,
     "W_c is defined for the deterministic model only", None),
    ("closed-form-disordered", lambda: model.modified_spectrum_closed_form(_DISORDERED), OutOfRegime,
     "the closed form is defined for the deterministic model only", None),
    ("secular-disordered", lambda: model.secular_solve(_DISORDERED), OutOfRegime,
     "secular equation is defined for the deterministic model only", None),
    ("secular-c-0", lambda: model.secular_solve(ModelSpec(5, 0.0)), OutOfRegime, "secular equation needs c > 0",
     ["model", "secular", "-m", "5", "-c", "0"]),
    ("secular-overflow", lambda: model.secular_solve(ModelSpec(3, 9e307)), OverflowError,
     "lambda = c^2 + 1 - 2c cos(alpha) overflows the float range at c = 9e+307",
     ["model", "secular", "-m", "3", "-c", "9e307"]),
    ("stable-gap-overflow", lambda: model.stable_gap_check(3, 9e307), OverflowError,
     "lambda = c^2 + 1 - 2c cos(alpha) overflows the float range at c = 9e+307",
     ["model", "stable-gap", "-m", "3", "-c", "9e307"]),
    ("spurious-c-1", lambda: model.spurious_estimate(ModelSpec(30, 1.0)), OutOfRegime,
     "spurious pair exists for 0 < c < 1 only, got c = 1.0", ["model", "spurious", "-m", "30", "-c", "1"]),
    ("spurious-c-1.5", lambda: model.spurious_estimate(ModelSpec(30, 1.5)), OutOfRegime,
     "spurious pair exists for 0 < c < 1 only, got c = 1.5", ["model", "spurious", "-m", "30", "-c", "1.5"]),
    ("stable-gap-negative", lambda: model.stable_gap(-1.0), OutOfRegime, "c must be nonnegative, got -1.0", None),
    ("stable-gap-inf", lambda: model.stable_gap(np.inf), OutOfRegime, "c must be finite, got inf", None),
    ("symbol-negative", lambda: model.symbol_spectrum(-1.0), OutOfRegime, "c must be nonnegative, got -1.0", None),
    ("symbol-inf", lambda: model.symbol_spectrum(np.inf), OutOfRegime, "c must be finite, got inf", None),
    ("symbol-overflow", lambda: model.symbol_spectrum(1e160), OverflowError,
     "(1 + c)^2 overflows the float range at c = 1e+160", None),
    ("2c-overflow", lambda: model.hc_spectrum(ModelSpec(3, 9e307)), OverflowError,
     "2c overflows the float range at c = 9e+307", ["model", "verify", "-m", "3", "-c", "9e307"]),
    ("quartic-sign", lambda: Quartic4x4Params(1.0, 1.0, sign=2), OutOfRegime, "sign must be +1 or -1, got 2", None),
    ("quartic-sign-minus", lambda: Quartic4x4Params(1.0, 1.0, b_plus=(1.0, 0.0), sign=-1), OutOfRegime,
     "sign = -1 requires purely imaginary b_plus, b_minus", None),
    ("quartic-sign-plus", lambda: Quartic4x4Params(1.0, 1.0, b_plus=(0.0, 1.0)), OutOfRegime,
     "sign = +1 requires real b_plus, b_minus", None),
    ("quartic-discriminant", _complex_b_plus, OutOfRegime, "1 - c0/s^2 = -7.778e-01 < 0; parameters inconsistent",
     None),
    ("nonmono-family", lambda: bounds.nonmono_curve([1.0], "bogus"), OutOfRegime, "unknown family 'bogus'", None),
    ("pencil-nab", lambda: stokes.pencil_spectrum(StokesMatrix(np.diag([0.0, 1.0]), np.array([[0.0], [1.0]]))),
     RankDeficient, "expected 2 positive eigenvalues, found 1; N(A) meets N(B^T)", ["stokes", _stokes_file]),
    ("bands", lambda: linalg.bidiag_svd_hra([1.0, 2.0], [1.0, 2.0]), DimensionMismatch,
     "bands need a 1-D diagonal of n entries and a 1-D off-diagonal of n - 1", None),
    ("result-not-finite", lambda: cli._finite(stokes.IntervalPair((np.nan, 0.0), (0.0, 1.0), "x")), OverflowError,
     "the result leaves the float range: a number in it is not finite", None),
]


@pytest.mark.parametrize("call, error, message, argv", [pytest.param(*r[1:], id=r[0]) for r in REFUSALS])
def test_each_refusal_raises_its_class_and_message(tmp_path, capsys, call, error, message, argv):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error and str(refused.value) == message
    if argv is not None:
        assert cli.main([a(tmp_path) if callable(a) else a for a in argv]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_no_bare_value_error_and_every_class_raised_and_documented():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    # argparse reads a ValueError from a type function as a usage error, so _t_grid keeps it
    blocks = [block for text in sources.values() for block in re.split(r"\n(?=def |class )", text)]
    bare = [re.match(r"(?:def|class) (\w+)", block)[1] for block in blocks if "raise ValueError(" in block]
    assert bare == ["_t_grid"]
    classes = [name for name, obj in vars(errors).items() if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert len(classes) == 10
    table = {error.__name__ for _, error, _ in bounds.HYPOTHESES.values()}
    code = "".join(text for name, text in sources.items() if name != "errors.py")
    unraised = [c for c in classes if f"raise {c}(" not in code and c not in table]
    assert unraised == []
    readme = (ROOT / "README.md").read_text()
    failures = re.search(r"^- Failures\..*?(?=^- )", readme, re.S | re.M).group(0)
    assert [c for c in classes if f"`{c}`" not in failures] == []
    assert "10 classes" in failures
