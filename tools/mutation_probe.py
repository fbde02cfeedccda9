"""Mutation probe: does tier-1 fail when a decision constant or formula changes?

Each mutant is one text replacement in one source file.  For every
mutant the probe copies src/, tests/, tools/ (a test loads this file),
pyproject.toml and README.md (whose examples a test runs) to a temporary
directory (pytest's `pythonpath = ["src"]` would otherwise import the
unmutated package), applies the replacement there, whose old text must
occur exactly once, and runs `python -m pytest -x -q -p no:cacheprovider`.
A failing run kills the mutant and names the first failing test whole;
a passing one lets it survive.  The unmutated copy runs first and
must pass.  Each run costs up to one tier-1 run.

    python tools/mutation_probe.py          # run every mutant; exit 1 if one survives
    python tools/mutation_probe.py --list   # only check that every replacement applies once

Needs only the standard library and pytest.  Tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPY = ("src", "tests", "tools", "pyproject.toml", "README.md")
TIMEOUT_S = 900

# (name, file, old text, new text)
MUTANTS = [
    # hand mutants of the certificate formulas
    ("stretch 2.0 -> 1.9", "src/gapcert/bounds.py",
     "bound = 2.0 / ((a + c) * np.hypot(1.0, sigma_eff))", "bound = 1.9 / ((a + c) * np.hypot(1.0, sigma_eff))"),
    ("stretch sigma_eff for rectangular Z", "src/gapcert/bounds.py",
     "sigma_eff = float(s[-1]) if H.m == H.k else 0.0", "sigma_eff = float(s[-1])"),
    ("hbinv without alpha gamma", "src/gapcert/bounds.py",
     "(1.0 + max(alpha, gamma) + alpha * gamma)", "(1.0 + max(alpha, gamma))"),
    ("zero-dichotomy square dropped", "src/gapcert/bounds.py",
     "(1.0 + coupling) ** 2 * max(inv_parts)", "(1.0 + coupling) * max(inv_parts)"),
    ("winklmeier /2 -> /2.5", "src/gapcert/bounds.py", "-(na + nc) / 2.0", "-(na + nc) / 2.5"),
    ("kirsch hypot -> sum", "src/gapcert/bounds.py",
     "radius = float(np.hypot(amin, bmin))", "radius = float(amin + bmin)"),
    ("ruwa 2 beta_min -> 1.9 beta_min", "src/gapcert/stokes.py",
     "np.hypot(am, 2.0 * bmin)", "np.hypot(am, 1.9 * bmin)"),
    ("axel s1 + a1 -> s1 + 2 a1", "src/gapcert/stokes.py",
     "-s1 * a1 / (s1 + a1)", "-s1 * a1 / (s1 + 2.0 * a1)"),
    ("stokes_new 2.0 -> 2.2", "src/gapcert/stokes.py",
     "interval=(-2.0 * beta1 / denom, beta1)", "interval=(-2.2 * beta1 / denom, beta1)"),
    ("negligible n eps -> 1e-6", "src/gapcert/linalg.py", "tol_rank = x.size * EPS", "tol_rank = 1e-6"),
    # both sides of every cutoff pinned by an edge test
    ("sym_eig psd -1e-10 -> -1e-9", "src/gapcert/linalg.py",
     "w[0] < -1e-10 * scale", "w[0] < -1e-9 * scale"),
    ("sym_eig psd -1e-10 -> -1e-11", "src/gapcert/linalg.py",
     "w[0] < -1e-10 * scale", "w[0] < -1e-11 * scale"),
    ("sym_eig symmetry 1e-12 -> 1e-11", "src/gapcert/linalg.py",
     "defect > 1e-12 * scale", "defect > 1e-11 * scale"),
    ("sym_eig symmetry 1e-12 -> 1e-13", "src/gapcert/linalg.py",
     "defect > 1e-12 * scale", "defect > 1e-13 * scale"),
    ("_verdict slack 1e-8 -> 1e-7", "src/gapcert/cli.py", ">= 1.0 - 1e-8", ">= 1.0 - 1e-7"),
    ("_verdict slack 1e-8 -> 1e-9", "src/gapcert/cli.py", ">= 1.0 - 1e-8", ">= 1.0 - 1e-9"),
    ("_margin 1e-10 -> 1e-9", "src/gapcert/cli.py", "return 1e-10 * max(", "return 1e-9 * max("),
    ("_margin 1e-10 -> 1e-11", "src/gapcert/cli.py", "return 1e-10 * max(", "return 1e-11 * max("),
    ("_pair_verdict always SOUND", "src/gapcert/cli.py",
     'return "SOUND" if ok else "UNSOUND"', 'return "SOUND"'),
    ("_verdict without the excludes_nonzero filter", "src/gapcert/cli.py",
     '    if cert.claim == "excludes_nonzero":\n        inside = inside[np.abs(inside) > margin]\n', ""),
    ("stable_gap_pattern 1e-2 -> 2e-2", "src/gapcert/model.py", "(1.0 + 1e-2)", "(1.0 + 2e-2)"),
    ("stable_gap_pattern 1e-2 -> 5e-3", "src/gapcert/model.py", "(1.0 + 1e-2)", "(1.0 + 5e-3)"),
    ("stable_gap_pattern >= 10 -> >= 20", "src/gapcert/model.py",
     "2.0 * m * est.alpha0 >= 10.0", "2.0 * m * est.alpha0 >= 20.0"),
    ("stable_gap_pattern >= 10 -> >= 5", "src/gapcert/model.py",
     "2.0 * m * est.alpha0 >= 10.0", "2.0 * m * est.alpha0 >= 5.0"),
    ("_hyp_root > 600 -> > 700", "src/gapcert/model.py", "2.0 * m * a0 > 600.0", "2.0 * m * a0 > 700.0"),
    ("_hyp_root > 600 -> > 500", "src/gapcert/model.py", "2.0 * m * a0 > 600.0", "2.0 * m * a0 > 500.0"),
    ("B_full_rank max(m, k) eps x2", "src/gapcert/bounds.py",
     "max(self.m, self.k) * linalg.EPS", "2.0 * max(self.m, self.k) * linalg.EPS"),
    ("B_full_rank max(m, k) eps /2", "src/gapcert/bounds.py",
     "max(self.m, self.k) * linalg.EPS", "max(self.m, self.k) * linalg.EPS / 2.0"),
    ("negligible n eps x2", "src/gapcert/linalg.py", "tol_rank = x.size * EPS", "tol_rank = 2.0 * x.size * EPS"),
    ("negligible n eps /2", "src/gapcert/linalg.py", "tol_rank = x.size * EPS", "tol_rank = x.size * EPS / 2.0"),
    ("modified_spectrum_certified 64 eps G -> 128", "src/gapcert/model.py",
     "delta = 64.0 * EPS * gersh", "delta = 128.0 * EPS * gersh"),
    ("modified_spectrum_certified 64 eps G -> 32", "src/gapcert/model.py",
     "delta = 64.0 * EPS * gersh", "delta = 32.0 * EPS * gersh"),
    # the hypotheses each method requires, and the shape test before B's rank
    ("diag_gap without C_definite", "src/gapcert/bounds.py",
     'H.require("A_definite", "C_definite")\n    a, c = ', 'H.require("A_definite")\n    a, c = '),
    ("ruwa_intervals without C_zero", "src/gapcert/stokes.py",
     'S.require("C_zero", "A_definite", "B_full_column_rank")\n    a1, am = ',
     'S.require("A_definite", "B_full_column_rank")\n    a1, am = '),
    ("B_square_full_rank without its shape test", "src/gapcert/bounds.py",
     "S.m == S.k and S.B_full_rank", "S.B_full_rank"),
    # the two places of the float-range rule
    ("printed result not checked for NaN or infinity", "src/gapcert/cli.py",
     "json.dumps(result, allow_nan=False)", "json.dumps(result)"),
    ("spectrum of H not checked for overflow", "src/gapcert/bounds.py",
     "if not np.isfinite(w).all():", "if False:"),
    # each check that keeps matio's one-call body read
    ("matio sentinel column unchecked", "src/gapcert/matio.py",
     "misplaced = (wide[:, cols] != np.inf).any()", "misplaced = False"),
    ("matio data inf and NaN unchecked", "src/gapcert/matio.py",
     "nonfinite = outside.any() and ((words[..., 4][outside] & 0x7FFF) == 0x7FFF).any()", "nonfinite = False"),
    ("matio hex text read", "src/gapcert/matio.py",
     'if not ("x" in text or "X" in text):', "if True:"),
    # the edges of the chain model's regimes
    ("spurious_estimate admits c = 1", "src/gapcert/model.py",
     "if not 0.0 < c < 1.0:", "if not 0.0 < c <= 1.0:"),
    ("secular_solve admits c = 0", "src/gapcert/model.py",
     "if any(s.c <= 0.0 for s in specs):", "if any(s.c < 0.0 for s in specs):"),
    ("has_central_pair > -> >=", "src/gapcert/model.py",
     "m * (1.0 - c) > c", "m * (1.0 - c) >= c"),
    ("secular_solve without its float-range check", "src/gapcert/model.py",
     "    lambda_of_alpha(np.array([s.c for s in specs]), np.pi)\n", ""),
]

# (name, file, old text, new text, why no test can tell it from the original)
EQUIVALENT = [
    ("eig_4x4 discriminant -1e-12 -> -1e-11", "src/gapcert/bounds.py", "disc < -1e-12", "disc < -1e-11",
     "1 - (det/s)^2 >= 0 in exact arithmetic for every Quartic4x4Params (|det M| <= s), and 100,000"
     " random parameter sets never computed it below -8.9e-16: only a rounding fault above 1e-12 reaches it"),
]


def check_all() -> list[str]:
    """Every mutant's old text occurs exactly once in the checkout; returns the problems."""
    problems = []
    for name, path, old, *_ in MUTANTS + EQUIVALENT:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: {path}: {old!r} occurs {count} times, not once")
    return problems


def node_id(line: str) -> str:
    """The test a pytest `FAILED`/`ERROR` summary line names: the text between the status word and ` - `.

    A parametrized id may hold spaces, so the line is not split on whitespace.
    """
    return line.split(" ", 1)[1].split(" - ", 1)[0]


def run(mutant: tuple[str, str, str] | None) -> tuple[str, float]:
    """Tier-1 on a copy with mutant (file, old, new) applied, or none; check_all vouches for old.

    Returns the first failing test ('timeout' when the run hangs), or ''
    when every test passes, and the seconds the run took.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for item in COPY:
            src = ROOT / item
            if src.is_dir():
                shutil.copytree(src, work / item, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / item)
        if mutant is not None:
            path, old, new = mutant
            target = work / path
            target.write_text(target.read_text().replace(old, new))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if proc.returncode == 0:
            return "", seconds
        failed = [node_id(line) for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
        return (failed[0] if failed else f"exit {proc.returncode}"), seconds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="only check that every replacement applies once")
    args = parser.parse_args(argv)
    problems = check_all()
    for line in problems:
        print(line)
    if problems:
        return 1
    if args.list:
        for name, path, *_ in MUTANTS:
            print(f"mutant      {path:24} {name}")
        for name, path, *_, why in EQUIVALENT:
            print(f"equivalent  {path:24} {name}: {why}")
        return 0
    failure, seconds = run(None)
    if failure:
        print(f"the unmutated copy fails ({failure}), so no mutant can be judged")
        return 1
    print(f"baseline  {seconds:6.1f} s  every test passes", flush=True)
    survivors = 0
    for name, path, old, new in MUTANTS:
        failure, seconds = run((path, old, new))
        survivors += not failure
        tag = f"  [{failure}]" if failure else ""
        print(f"{'killed' if failure else 'survived':9} {seconds:6.1f} s  {name}{tag}", flush=True)
    for name, *_, why in EQUIVALENT:
        print(f"{'skipped':9} {'':8}  {name} (equivalent: {why})")
    print(f"{len(MUTANTS) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
