"""Command-line front end for certificates, Stokes intervals, and model scans.

Exit codes: 0 on success, 2 on input/parse errors, 3 when a theorem
hypothesis or a model regime fails (the message names it) or a result
overflows the float range: a certificate that would print a NaN or an
infinity is refused like a failed hypothesis (skipped under `--method all`).
`model verify` additionally exits 1 when an invariant check fails.
All output is deterministic at a fixed BLAS thread count: identical
arguments then produce byte-identical bytes.  A different thread count
can change the trailing digits of dense eigenvalues.  `model modified`
computes none: it prints a closed form proved by a Sturm count, so its
output does not depend on the thread count.

`main` builds its parser once per process, on the first call, and
reuses it for every later call, so in-process callers (a test suite, a
benchmark loop, embedding code) pay for it once; a one-shot shell call
builds it once as before.  The parser holds only static configuration:
its defaults are immutable, and each `bounds` and `stokes` method still
looks up its certificate function when the command runs.

Each command returns its text (`model verify` with its exit code), and
`main` writes it to stdout or `--output`.  `--format` is offered only
where there is a choice of format.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from . import bounds, matio, model, stokes
from .errors import ParseError, RootCountMismatch

LOG10_FLOOR = -300.0
LN10 = float(np.log(10.0))


def _column_format(v) -> str:
    # the %-format of an int, a float or a str, numpy scalars included
    if isinstance(v, (int, np.integer)):
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def _csv(header: list[str], columns) -> str:
    """CSV text from equal-length columns, each printed with one %-format chosen from its first value.

    The columns fill one row-major list by slice assignment and one % formats it.
    """
    n, k = len(columns[0]), len(columns)
    flat = [None] * (n * k)
    for j, column in enumerate(columns):
        flat[j::k] = column
    line = ",".join(_column_format(v) for v in flat[:k])
    return ",".join(header) + "\n" + "".join([line + "\n"] * n) % tuple(flat)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _float_list(s: str) -> list[float]:
    return [float(x) for x in s.split(",")]


def _int_list(s: str) -> list[int]:
    return [int(x) for x in s.split(",")]


def _t_grid(s: str) -> np.ndarray:
    lo_s, hi_s, steps_s = s.split(":")
    lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    if steps < 2 or not -np.inf < lo < hi < np.inf:
        raise ValueError(f"range {s!r} must satisfy finite lo < hi and steps >= 2")
    return np.linspace(lo, hi, steps)


def _oracle(evals: np.ndarray) -> dict:
    return {
        "eigenvalues": [float(v) for v in evals],
        "min_eigenvalue": float(evals[0]),
        "max_eigenvalue": float(evals[-1]),
        "min_abs_eigenvalue": float(np.min(np.abs(evals))),
    }


def _margin(evals: np.ndarray) -> float:
    """Rounding allowance for verdicts: 1e-10 of the largest |eigenvalue|."""
    return 1e-10 * max(abs(float(evals[0])), abs(float(evals[-1])))


def _verdict(cert: bounds.GapCertificate, evals: np.ndarray) -> str:
    """Check a certificate against independently computed eigenvalues."""
    margin = _margin(evals)
    lo, hi = cert.interval
    inside = evals[(evals > lo + margin) & (evals < hi - margin)]
    if cert.claim == "excludes_nonzero":
        inside = inside[np.abs(inside) > margin]
    sound = inside.size == 0
    if sound and cert.inv_norm_bound is not None:
        shift = float(cert.quantities.get("lambda0", 0.0))
        dist = float(np.min(np.abs(evals - shift)))
        sound = dist > 0.0 and cert.inv_norm_bound * dist >= 1.0 - 1e-8
    return "SOUND" if sound else "UNSOUND"


# method name -> certificate; the bounds and stokes functions are looked up
# at call time, so rebinding one (a tracer, a test double) takes effect
BOUND_CERTS = {
    "diag": lambda S: bounds.diag_gap(S),
    "stretch": lambda S: bounds.stretch_certificate(S),
    "hbinv": lambda S: bounds.hbinv_certificate(S),
    "zero-dichotomy": lambda S: bounds.zero_dichotomy_certificate(S),
    "kirsch": lambda S: bounds.kirsch_certificate(S),
    "winklmeier": lambda S: bounds.winklmeier_certificate(S),
}
STOKES_CERTS = {
    "minimal": lambda S: stokes.minimal_intervals(S),
    "ruwa": lambda S: stokes.ruwa_intervals(S),
    "axel": lambda S: stokes.axel_intervals(S),
    "new": lambda S: stokes.new_gap_estimate(S),
}


def _pair_verdict(pair: stokes.IntervalPair, S: bounds.BlockSaddle) -> str:
    """Check branch enclosures against the pencil spectrum of S, within the margin of its eigenvalues."""
    ps, margin = stokes.pencil_spectrum(S), _margin(S.eigvals_H)
    neg = ps.strict_minus
    lo, hi = pair.i_minus
    ok = neg.size == 0 or (float(neg[0]) >= lo - margin and float(neg[-1]) <= hi + margin)
    lo2, hi2 = pair.i_plus
    pos = ps.lambda_plus
    ok = ok and float(pos[-1]) >= lo2 - margin and float(pos[0]) <= hi2 + margin
    return "SOUND" if ok else "UNSOUND"


def _entry(result: bounds.GapCertificate | stokes.IntervalPair, S: bounds.BlockSaddle) -> dict:
    """The printed entry of one result: a pair's fields or a certificate, and its verdict against S."""
    if isinstance(result, stokes.IntervalPair):
        return dict(result._asdict(), verdict=_pair_verdict(result, S))
    return {"certificate": result._asdict(), "verdict": _verdict(result, S.eigvals_H)}


def _finite(result: bounds.GapCertificate | stokes.IntervalPair) -> None:
    # a NaN or an infinity, which JSON cannot print, is refused like every float-range failure
    try:
        json.dumps(result, allow_nan=False)
    except ValueError:
        raise OverflowError("the result leaves the float range: a number in it is not finite") from None


def _certify(certs: dict, method: str, S: bounds.BlockSaddle) -> dict:
    """name -> entry for one method, whose failure raises, or for "all", failures skipped.

    A result that is not finite, or that overflows on the way, fails
    too, so the floating-point warnings met on the way are not shown.
    """
    entries = {}
    for name in certs if method == "all" else [method]:
        try:
            with np.errstate(all="ignore"):
                result = certs[name](S)
            _finite(result)
        except (ValueError, OverflowError) as exc:
            if method != "all":
                raise
            entries[name] = {"skipped": str(exc)}
        else:
            entries[name] = _entry(result, S)
    return entries


def _cmd_bounds(args) -> str:
    S = matio.read_block_saddle(args.file)
    results = [dict(e, method=name) for name, e in _certify(BOUND_CERTS, args.method, S).items()]
    if args.method == "all":
        payload = {"input": str(args.file), "oracle": _oracle(S.eigvals_H), "results": results}
    else:
        payload = dict(results[0], input=str(args.file))
    return _json(payload)


def _cmd_stokes(args) -> str:
    S = matio.read_block_saddle(args.file)
    ps = stokes.pencil_spectrum(S)
    if args.format == "csv":
        lm, lp = ps.lambda_minus.tolist(), ps.lambda_plus.tolist()
        index = [*range(1, len(lm) + 1), *range(1, len(lp) + 1)]
        return _csv(["index", "branch", "value"], (index, ["minus"] * len(lm) + ["plus"] * len(lp), lm + lp))
    payload = {
        "input": str(args.file),
        "intervals": _certify(STOKES_CERTS, args.method, S),
        "spectrum": {
            "lambda_minus": [float(v) for v in ps.lambda_minus],
            "lambda_plus": [float(v) for v in ps.lambda_plus],
            "zero_multiplicity": ps.zero_multiplicity,
        },
    }
    return _json(payload)


def _cmd_secular(args) -> str:
    sr = model.secular_solve(model.ModelSpec(args.m, args.c))
    alphas, lam = sr.trig_roots.tolist(), model.lambda_of_alpha(args.c, sr.trig_roots)
    hyp = None
    if sr.hyp_root is not None:
        alpha1, log_lam = sr.hyp_root
        hyp = {"alpha": alpha1, "log10_lambda": log_lam / LN10}
        if hyp["log10_lambda"] >= LOG10_FLOOR:
            hyp["lambda"] = float(np.exp(log_lam))
    if args.format == "csv":
        # a central pair below 10^LOG10_FLOOR puts the whole column on the log scale
        key = "lambda" if hyp is None or "lambda" in hyp else "log10_lambda"
        trig = lam if key == "lambda" else np.log10(lam)
        alpha, value, branch = alphas, trig.tolist(), ["trig"] * len(alphas)
        if hyp is not None:
            alpha, value, branch = [hyp["alpha"], *alpha], [hyp[key], *value], ["hyp", *branch]
        return _csv(["k", "alpha", key, "branch"], (range(1, len(branch) + 1), alpha, value, branch))
    payload = {
        "m": args.m,
        "c": args.c,
        "alpha_hat": sr.alpha_hat,
        "trig": [{"alpha": a, "lambda": v} for a, v in zip(alphas, lam.tolist())],
        "hyp": hyp,
    }
    return _json(payload)


def _cmd_spurious(args) -> str:
    est = model.spurious_estimate(model.ModelSpec(args.m, args.c))
    return _json({
        "m": args.m,
        "c": args.c,
        "alpha0": est.alpha0,
        "log10_lambda_est": est.log_lambda_est / LN10,
        "log10_sigma_est": est.log_sigma_est / LN10,
    })


def _cmd_stable_gap(args) -> str:
    return _json(model.stable_gap_check(args.m, args.c))


def _cmd_modified(args) -> str:
    spec = model.ModelSpec(args.m, args.c)
    evals, certified_radius = model.modified_spectrum_certified(spec)
    if args.format == "csv":
        return _csv(["index", "eigenvalue"], (range(1, evals.size + 1), evals.tolist()))
    closed = model.modified_spectrum_closed_form(spec)
    radius = model.stable_gap(args.c)
    payload = {
        "m": args.m,
        "c": args.c,
        "eigenvalues": [float(v) for v in evals],
        "certified_radius": certified_radius,
        "symmetry_defect": float(np.max(np.abs(evals + evals[::-1]))),
        "closed_form_squares": [float(v) for v in closed],
        "square_defect": float(np.max(np.abs(np.sort(evals**2) - closed))),
        "gap_radius": radius,
        "inside_gap_count": int(np.count_nonzero(np.abs(evals) < radius)),
    }
    if args.c == 0.0:
        payload["k0_square_defect"] = model.k0_square_defect(args.m)
    return _json(payload)


def _cmd_scan(args) -> str:
    columns = model.gap_scan(args.M, args.delta, args.m, args.seed)
    return _csv(["M", "variant", "index", "eigenvalue"], columns)


VERIFY_TOLS = {
    "modified_k0_square": 1e-12,
    "unitary_equivalence": 1e-10,
    "bidiagonal_factorization": 1e-10,
    "gram_identity": 1e-14,
    "gram_spectrum": 1e-9,
    "secular_match": 1e-9,
    "modified_symmetry": 1e-10,
    "modified_closed_form": 1e-9,
    "symbol_containment": 1e-9,
}


def _model_verify(m_list: Sequence[int], c_list: Sequence[float]) -> list[tuple[str, bool, str]]:
    """Run the model invariant suite over a grid and aggregate worst defects.

    Each size m is checked as one batch over the masses: one stacked
    eigvalsh per operator, hc_spectrum on the stack and one secular solve for
    all c > 0, with the defects reduced along the stack axis.  The K_tilde_0
    square defect comes from its bands (model.k0_square_defect).
    """
    worst = {name: 0.0 for name in VERIFY_TOLS}
    gap_ok = True

    def note(name: str, defect) -> None:
        worst[name] = max(worst[name], float(np.max(defect)))

    def row_max(x: np.ndarray) -> np.ndarray:
        return np.max(np.abs(x), axis=-1)

    for m in m_list:
        note("modified_k0_square", model.k0_square_defect(m))
        specs = [model.ModelSpec(m, float(c)) for c in c_list]
        wh = np.linalg.eigvalsh(model.build_Hc(specs))
        # X = D - B has subdiagonal 2, so scale >= 2 for every m >= 2
        scale = row_max(wh)
        K = model.build_Kc(specs)
        wk = np.linalg.eigvalsh(K)
        note("unitary_equivalence", row_max(wh - wk) / scale)
        hs = model.hc_spectrum(specs)
        note("bidiagonal_factorization", row_max(wh - hs) / scale)
        W = model.build_Wc(specs)
        # K's block X = D - B is 2 T_c (diagonal 2c, subdiagonal 2), so its half is T_c exactly
        Tmc = K[:, :m, m:] / 2.0
        Tmc[:, np.arange(m), np.arange(m)] *= -1.0
        note("gram_identity", np.abs(W - Tmc.swapaxes(1, 2) @ Tmc))
        sv = np.sort(hs[:, m:], axis=1) / 2.0
        ww = np.linalg.eigvalsh(W)
        note("gram_spectrum", row_max(np.sort(sv**2, axis=1) - ww) / scale**2)
        wt = np.linalg.eigvalsh(model.build_Htilde(specs))
        note("modified_symmetry", row_max(wt + wt[:, ::-1]) / scale)
        closed = model.modified_spectrum_closed_form(specs)
        note("modified_closed_form", row_max(np.sort(wt**2, axis=1) - closed) / scale**2)
        # one secular solve serves the W_c match and the stable-gap pattern
        positive = [spec for spec in specs if spec.c > 0.0]
        solved = iter(model.secular_solve(positive) if positive else ())
        for i, spec in enumerate(specs):
            c = spec.c
            if c > 0.0:
                sr = next(solved)
                lam = model.secular_eigenvalues(spec, sr)
                note("secular_match", np.abs(lam - ww[i]) / scale[i] ** 2)
                evals = model.secular_hc_spectrum(spec, sr)
                # secular_match is relative to the largest eigenvalue, so it cannot see an
                # error in the tiny central pair; compare that pair with dqds, relative to
                # itself, wherever the dqds value is a normal float
                if model.has_central_pair(m, c) and hs[i, m] >= np.finfo(float).tiny:
                    gap_ok = gap_ok and abs(evals[m] - hs[i, m]) <= 1e-11 * hs[i, m]
            else:
                evals = hs[i]
            gap_ok = gap_ok and model.stable_gap_pattern(m, c, evals)["ok"]
            radius = model.stable_gap(c)
            if radius > 0.0:
                gap_ok = gap_ok and float(np.min(np.abs(wt[i]))) >= radius - 1e-9 * scale[i]
            _, (_, band) = model.symbol_spectrum(c)
            body = np.sort(np.abs(wh[i]))[2:] if model.has_central_pair(m, c) else np.abs(wh[i])
            viol = np.maximum(band[0] - body, body - band[1]).max(initial=0.0)
            note("symbol_containment", max(viol, 0.0) / scale[i])

    results = [
        (name, worst[name] <= tol, f"max defect {worst[name]:.3e}, tol {tol:g}")
        for name, tol in VERIFY_TOLS.items()
    ]
    results.append(("stable_gap_counts", gap_ok, "inside-gap counts and central magnitudes"))
    return results


def _cmd_verify(args) -> tuple[str, int]:
    results = _model_verify(args.m, args.c)
    lines = [f"{'PASS' if ok else 'FAIL'} {name} ({detail})" for name, ok, detail in results]
    return "\n".join(lines) + "\n", 0 if all(ok for _, ok, _ in results) else 1


def _cmd_counterexamples(args) -> str:
    rec = bounds.counterexample_suite()
    families = ["kirsch_Bt", "scaled_A", "simple"]
    curves = {fam: bounds.nonmono_curve(args.t_range, fam) for fam in families}
    if args.format == "json":
        return _json(dict(rec, curves={
            fam: [{"t": t, "min_abs_eigenvalue": v} for t, v in curves[fam].tolist()] for fam in families
        }))

    def fields(pairs) -> str:
        return " ".join(f"{key}={_column_format(v) % v}" for key, v in pairs)

    b = rec["boettcher"]
    lines = ["# omladic inverse norm growth"]
    lines += ["# " + fields(row.items()) for row in rec["omladic"]]
    lines.append("# boettcher " + fields(
        [("norm(I+M)", b["norm"]), ("inverse_norm", b["inverse_norm"]), ("psd_split_residual", b["psd_split_residual"])]
    ))
    lines.append("# commuting contrast " + fields([("inverse_norm", rec["commuting_inverse_norm"])]))
    verdict = "VIOLATED" if rec["conjecture_violated"] else "HOLDS"
    lines.append(f"# conjecture norm((I+AC)^-1) <= norm(I+AC): {verdict}")
    family = [fam for fam in families for _ in curves[fam]]
    t, v = np.concatenate([curves[fam] for fam in families]).T.tolist()
    return "\n".join(lines) + "\n" + _csv(["family", "t", "min_abs_eigenvalue"], (family, t, v))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gapcert",
        description="Certified spectral gaps and inverse bounds for block saddle matrices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="gap certificates for a block saddle file")
    b.add_argument("file", help="block saddle input file")
    b.add_argument("--method", choices=[*BOUND_CERTS, "all"], default="all")
    b.add_argument("--output", default=None, help="output path (default stdout)")
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("stokes", help="branch intervals for a C = zero file")
    s.add_argument("file", help="block saddle input file with C = zero")
    s.add_argument("--method", choices=[*STOKES_CERTS, "all"], default="all", help="ignored by csv")
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_stokes)

    mdl = sub.add_parser("model", help="finite chain model commands")
    msub = mdl.add_subparsers(dest="subcommand", required=True)

    def model_sub(name, func, formats=(), need_mc=True):
        q = msub.add_parser(name)
        if need_mc:
            q.add_argument("-m", type=int, required=True, help="half dimension")
            q.add_argument("-c", type=float, required=True, help="mass parameter")
        if formats:
            q.add_argument("--format", choices=formats, default=formats[0])
        q.add_argument("--output", default=None)
        q.set_defaults(func=func)
        return q

    model_sub("secular", _cmd_secular, ["csv", "json"])
    model_sub("spurious", _cmd_spurious)
    model_sub("stable-gap", _cmd_stable_gap)
    model_sub("modified", _cmd_modified, ["csv", "json"])

    sc = model_sub("scan", _cmd_scan, need_mc=False)
    sc.add_argument("-m", type=int, required=True, help="half dimension")
    sc.add_argument("--M", type=_float_list, required=True, help="comma list of disorder means")
    sc.add_argument("--delta", type=float, required=True, help="disorder half width")
    sc.add_argument("--seed", type=int, default=0)

    vf = model_sub("verify", _cmd_verify, need_mc=False)
    vf.add_argument("-m", type=_int_list, default=(2, 3, 5, 10), help="comma list of sizes")
    vf.add_argument(
        "-c", type=_float_list, default=(0.0, 0.5, 1.0, 1.5, 2.0), help="comma list of masses"
    )

    ce = sub.add_parser("counterexamples", help="inverse-norm and non-monotonicity evidence")
    ce.add_argument(
        "--t-range", dest="t_range", type=_t_grid, default="5:20:151",
        help="LO:HI:STEPS; write --t-range=LO:HI:STEPS when LO is negative",
    )
    ce.add_argument("--format", choices=["csv", "json"], default="csv")
    ce.add_argument("--output", default=None)
    ce.set_defaults(func=_cmd_counterexamples)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        out = args.func(args)
        text, code = (out, 0) if isinstance(out, str) else out
        _emit(text, args.output)
        return code
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RootCountMismatch, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
