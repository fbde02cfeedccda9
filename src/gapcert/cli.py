"""Command-line front end for certificates, Stokes intervals, and model scans.

Exit codes: 0 on success, 2 on input/parse errors, 3 when a theorem
hypothesis fails (the message names it).  `model verify` additionally
exits 1 when an invariant check fails.  All output is deterministic at
a fixed BLAS thread count: identical arguments then produce
byte-identical bytes.  A different thread count can change the
trailing digits of dense eigenvalues.

`main` builds its parser once per process, on the first call, and
reuses it for every later call, so in-process callers (a test suite, a
benchmark loop, embedding code) pay for it once; a one-shot shell call
builds it once as before.  The parser holds only static configuration:
its defaults are immutable, and each `bounds` method still looks up its
certificate function when the command runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
    # the %-format of a non-bool value; _fmt and _csv spell bools true/false first
    if isinstance(v, (int, np.integer)):
        return "%d"
    if isinstance(v, (float, np.floating)):
        return "%.17g"
    return "%s"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return _column_format(v) % v


def _csv(header: list[str], rows) -> str:
    """CSV text; each column is printed with one %-format, chosen from its first value.

    The whole body is formatted by one % over the flattened rows.
    """
    rows = list(rows)
    if not rows:
        return ",".join(header) + "\n"
    bools = [isinstance(v, (bool, np.bool_)) for v in rows[0]]
    if any(bools):
        rows = [tuple(_fmt(v) if b else v for b, v in zip(bools, row)) for row in rows]
    line = ",".join(_column_format(v) for v in rows[0])
    body = "\n".join([line] * len(rows)) % tuple(itertools.chain.from_iterable(rows))
    return ",".join(header) + "\n" + body + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
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
    if steps < 2 or not hi > lo:
        raise ValueError(f"range {s!r} must satisfy lo < hi and steps >= 2")
    return np.linspace(lo, hi, steps)


def _positive(s: str) -> float:
    v = float(s)
    if not v > 0.0:
        raise ValueError(f"tolerance must be positive, got {s}")
    return v


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


# method name -> certificate; the bounds function is looked up at call
# time, so rebinding it (a tracer, a test double) takes effect
BOUND_CERTS = {
    "diag": lambda S, tol_rank: bounds.diag_gap(S),
    "stretch": lambda S, tol_rank: bounds.stretch_certificate(S),
    "hbinv": lambda S, tol_rank: bounds.hbinv_certificate(S),
    "zero-dichotomy": lambda S, tol_rank: bounds.zero_dichotomy_certificate(S, tol_rank),
    "kirsch": lambda S, tol_rank: bounds.kirsch_saddle_certificate(S),
    "winklmeier": lambda S, tol_rank: bounds.winklmeier_certificate(S),
}
BOUND_METHODS = list(BOUND_CERTS)


def _bounds_entry(S: bounds.BlockSaddle, method: str, tol_rank) -> dict:
    cert = BOUND_CERTS[method](S, tol_rank)
    entry = {
        "method": method,
        "certificate": cert.to_json_dict(),
        "verdict": _verdict(cert, S.eigvals_H),
    }
    if method == "kirsch":
        entry["oracle"] = _oracle(S.eigvals_H)
    return entry


def _cmd_bounds(args) -> int:
    S = matio.read_block_saddle(args.file)
    if args.method == "all":
        results = []
        for name in BOUND_METHODS:
            try:
                results.append(_bounds_entry(S, name, args.tol_rank))
            except (ValueError, RootCountMismatch) as exc:
                results.append({"method": name, "skipped": str(exc)})
        payload = {"input": str(args.file), "oracle": _oracle(S.eigvals_H), "results": results}
    else:
        payload = _bounds_entry(S, args.method, args.tol_rank)
        payload["input"] = str(args.file)
    _emit(_json(payload), args.output)
    return 0


def _pair_verdict(pair: stokes.IntervalPair, ps: stokes.PencilSpectrum, margin: float) -> str:
    neg = ps.strict_minus
    lo, hi = pair.i_minus
    ok = neg.size == 0 or (float(neg[0]) >= lo - margin and float(neg[-1]) <= hi + margin)
    lo2, hi2 = pair.i_plus
    pos = ps.lambda_plus
    ok = ok and float(pos[-1]) >= lo2 - margin and float(pos[0]) <= hi2 + margin
    return "SOUND" if ok else "UNSOUND"


def _cmd_stokes(args) -> int:
    S = matio.read_block_saddle(args.file)
    if np.any(S.C != 0.0):
        raise ValueError("stokes command needs the C block to be zero")
    ps = stokes.pencil_spectrum(S, args.tol_rank)
    if args.format == "csv":
        rows = [(i + 1, "minus", float(v)) for i, v in enumerate(ps.lambda_minus)]
        rows += [(i + 1, "plus", float(v)) for i, v in enumerate(ps.lambda_plus)]
        _emit(_csv(["index", "branch", "value"], rows), args.output)
        return 0
    evals = S.eigvals_H
    margin = _margin(evals)
    entries: dict[str, dict] = {}
    sources = [
        ("minimal", lambda: stokes.minimal_intervals(S, args.tol_rank)),
        ("ruwa", lambda: stokes.ruwa_intervals(S)),
        ("axel", lambda: stokes.axel_intervals(S)),
        ("new", lambda: stokes.new_gap_estimate(S)),
    ]
    for name, fn in sources:
        if args.method not in ("all", name):
            continue
        try:
            r = fn()
        except (ValueError, RootCountMismatch) as exc:
            if args.method == name:
                raise
            entries[name] = {"skipped": str(exc)}
            continue
        if isinstance(r, stokes.IntervalPair):
            entries[name] = dict(r.to_json_dict(), verdict=_pair_verdict(r, ps, margin))
        else:
            entries[name] = {"certificate": r.to_json_dict(), "verdict": _verdict(r, evals)}
    payload = {
        "input": str(args.file),
        "intervals": entries,
        "spectrum": {
            "lambda_minus": [float(v) for v in ps.lambda_minus],
            "lambda_plus": [float(v) for v in ps.lambda_plus],
            "zero_multiplicity": ps.zero_multiplicity,
        },
    }
    _emit(_json(payload), args.output)
    return 0


def _cmd_secular(args) -> int:
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
        rows = [] if hyp is None else [(hyp["alpha"], hyp[key], "hyp")]
        rows += [(a, v, "trig") for a, v in zip(alphas, trig.tolist())]
        _emit(_csv(["k", "alpha", key, "branch"], [(k, *row) for k, row in enumerate(rows, 1)]), args.output)
        return 0
    payload = {
        "m": args.m,
        "c": args.c,
        "alpha_hat": sr.alpha_hat,
        "trig": [{"alpha": a, "lambda": v} for a, v in zip(alphas, lam.tolist())],
        "hyp": hyp,
    }
    _emit(_json(payload), args.output)
    return 0


def _cmd_spurious(args) -> int:
    est = model.spurious_estimate(model.ModelSpec(args.m, args.c))
    payload = {
        "m": args.m,
        "c": args.c,
        "alpha0": est.alpha0,
        "log10_lambda_est": est.log_lambda_est / LN10,
        "log10_sigma_est": est.log_sigma_est / LN10,
    }
    _emit(_json(payload), args.output)
    return 0


def _cmd_stable_gap(args) -> int:
    _emit(_json(model.stable_gap_check(args.m, args.c)), args.output)
    return 0


def _cmd_modified(args) -> int:
    spec = model.ModelSpec(args.m, args.c)
    evals = np.linalg.eigvalsh(model.build_Htilde(spec))
    if args.format == "csv":
        _emit(_csv(["index", "eigenvalue"], list(enumerate(evals, start=1))), args.output)
        return 0
    closed = model.modified_spectrum_closed_form(spec)
    radius = model.stable_gap(args.c).radius
    payload = {
        "m": args.m,
        "c": args.c,
        "eigenvalues": [float(v) for v in evals],
        "symmetry_defect": float(np.max(np.abs(evals + evals[::-1]))),
        "closed_form_squares": [float(v) for v in closed],
        "square_defect": float(np.max(np.abs(np.sort(evals**2) - closed))),
        "gap_radius": radius,
        "inside_gap_count": int(np.count_nonzero(np.abs(evals) < radius)),
    }
    if args.c == 0.0:
        Kt = model.build_Ktilde(spec)
        eye = 4.0 * np.eye(2 * args.m)
        payload["k0_square_defect"] = float(np.max(np.abs(Kt @ Kt - eye)))
    _emit(_json(payload), args.output)
    return 0


def _cmd_scan(args) -> int:
    rows = model.gap_scan(args.M, args.delta, args.m, args.seed)
    _emit(_csv(["M", "variant", "index", "eigenvalue"], rows), args.output)
    return 0


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
    eigvalsh per operator, one stacked SVD and one secular solve for all
    c > 0, with the defects reduced along the stack axis.
    """
    worst = {name: 0.0 for name in VERIFY_TOLS}
    gap_ok = True

    def note(name: str, defect) -> None:
        worst[name] = max(worst[name], float(np.max(defect)))

    def row_max(x: np.ndarray) -> np.ndarray:
        return np.max(np.abs(x), axis=-1)

    for m in m_list:
        Kt0 = model.build_Ktilde(model.ModelSpec(m, 0.0))
        note("modified_k0_square", np.abs(Kt0 @ Kt0 - 4.0 * np.eye(2 * m)))
        specs = [model.ModelSpec(m, float(c)) for c in c_list]
        wh = np.linalg.eigvalsh(model.build_Hc(specs))
        # X = D - B has subdiagonal 2, so scale >= 2 for every m >= 2
        scale = row_max(wh)
        wk = np.linalg.eigvalsh(model.build_Kc(specs))
        note("unitary_equivalence", row_max(wh - wk) / scale)
        hs = model.hc_spectrum(specs)
        note("bidiagonal_factorization", row_max(wh - hs) / scale)
        W = model.build_Wc(specs)
        Tmc = model.build_Tc(specs).dense()
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
                note("secular_match", np.abs(lam - ww[i]))
                evals = model.secular_hc_spectrum(spec, sr)
                # secular_match is absolute, so it cannot see an error in the
                # tiny central pair; compare that pair with dqds, relative,
                # wherever the dqds value is a normal float
                if model.has_central_pair(m, c) and hs[i, m] >= np.finfo(float).tiny:
                    gap_ok = gap_ok and abs(evals[m] - hs[i, m]) <= 1e-11 * hs[i, m]
            else:
                evals = hs[i]
            gap_ok = gap_ok and model.stable_gap_pattern(m, c, evals)["ok"]
            radius = model.stable_gap(c).radius
            if radius > 0.0:
                gap_ok = gap_ok and float(np.min(np.abs(wt[i]))) >= radius - 1e-9
            _, (_, band) = model.symbol_spectrum(c)
            body = np.sort(np.abs(wh[i]))[2:] if c < 1.0 else np.abs(wh[i])
            viol = np.maximum(band[0] - body, body - band[1]).max(initial=0.0)
            note("symbol_containment", max(viol, 0.0))

    results = [
        (name, worst[name] <= tol, f"max defect {worst[name]:.3e}, tol {tol:g}")
        for name, tol in VERIFY_TOLS.items()
    ]
    results.append(("stable_gap_counts", gap_ok, "inside-gap counts and central magnitudes"))
    return results


def _cmd_verify(args) -> int:
    results = _model_verify(args.m, args.c)
    lines = [f"{'PASS' if ok else 'FAIL'} {name} ({detail})" for name, ok, detail in results]
    _emit("\n".join(lines), args.output)
    return 0 if all(ok for _, ok, _ in results) else 1


def _cmd_counterexamples(args) -> int:
    rep = bounds.counterexample_suite()
    families = ["kirsch_Bt", "scaled_A", "simple"]
    curves = {fam: bounds.nonmono_curve(args.t_range, fam) for fam in families}
    if args.format == "json":
        payload = {
            "omladic": [
                {"t": t, "inverse_norm": v, "closed_form": w} for t, v, w in rep.omladic
            ],
            "boettcher": {
                "norm": rep.boettcher_norm,
                "inverse_norm": rep.boettcher_inv_norm,
                "psd_split_residual": rep.boettcher_split_residual,
            },
            "commuting_inverse_norm": rep.commuting_inv_norm,
            "conjecture_violated": rep.conjecture_violated,
            "curves": {
                fam: [
                    {"t": float(t), "min_abs_eigenvalue": float(v)} for t, v in curves[fam]
                ]
                for fam in families
            },
        }
        _emit(_json(payload), args.output)
        return 0
    lines = ["# omladic inverse norm growth"]
    lines += [
        f"# t={_fmt(t)} inverse_norm={_fmt(v)} closed_form={_fmt(w)}" for t, v, w in rep.omladic
    ]
    lines.append(
        f"# boettcher norm(I+M)={_fmt(rep.boettcher_norm)}"
        f" inverse_norm={_fmt(rep.boettcher_inv_norm)}"
        f" psd_split_residual={_fmt(rep.boettcher_split_residual)}"
    )
    lines.append(f"# commuting contrast inverse_norm={_fmt(rep.commuting_inv_norm)}")
    verdict = "VIOLATED" if rep.conjecture_violated else "HOLDS"
    lines.append(f"# conjecture norm((I+AC)^-1) <= norm(I+AC): {verdict}")
    rows = [(fam, float(t), float(v)) for fam in families for t, v in curves[fam]]
    text = "\n".join(lines) + "\n" + _csv(["family", "t", "min_abs_eigenvalue"], rows)
    _emit(text, args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gapcert",
        description="Certified spectral gaps and inverse bounds for block saddle matrices.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="gap certificates for a block saddle file")
    b.add_argument("file", help="block saddle input file")
    b.add_argument("--method", choices=BOUND_METHODS + ["all"], default="all")
    b.add_argument("--tol-rank", dest="tol_rank", type=_positive, default=None)
    b.add_argument("--format", choices=["json"], default="json")
    b.add_argument("--output", default=None, help="output path (default stdout)")
    b.set_defaults(func=_cmd_bounds)

    s = sub.add_parser("stokes", help="branch intervals for a C = zero file")
    s.add_argument("file", help="block saddle input file with C = zero")
    s.add_argument("--method", choices=["minimal", "ruwa", "axel", "new", "all"], default="all")
    s.add_argument("--tol-rank", dest="tol_rank", type=_positive, default=None)
    s.add_argument("--format", choices=["json", "csv"], default="json")
    s.add_argument("--output", default=None)
    s.set_defaults(func=_cmd_stokes)

    mdl = sub.add_parser("model", help="finite chain model commands")
    msub = mdl.add_subparsers(dest="subcommand", required=True)

    def model_sub(name, func, fmt_choices, fmt_default, need_mc=True):
        q = msub.add_parser(name)
        if need_mc:
            q.add_argument("-m", type=int, required=True, help="half dimension")
            q.add_argument("-c", type=float, required=True, help="mass parameter")
        q.add_argument("--format", choices=fmt_choices, default=fmt_default)
        q.add_argument("--output", default=None)
        q.set_defaults(func=func)
        return q

    model_sub("secular", _cmd_secular, ["csv", "json"], "csv")
    model_sub("spurious", _cmd_spurious, ["json"], "json")
    model_sub("stable-gap", _cmd_stable_gap, ["json"], "json")
    model_sub("modified", _cmd_modified, ["csv", "json"], "csv")

    sc = model_sub("scan", _cmd_scan, ["csv"], "csv", need_mc=False)
    sc.add_argument("-m", type=int, required=True, help="half dimension")
    sc.add_argument("--M", type=_float_list, required=True, help="comma list of disorder means")
    sc.add_argument("--delta", type=float, required=True, help="disorder half width")
    sc.add_argument("--seed", type=int, default=0)

    vf = model_sub("verify", _cmd_verify, ["text"], "text", need_mc=False)
    vf.add_argument("-m", type=_int_list, default=(2, 3, 5, 10), help="comma list of sizes")
    vf.add_argument(
        "-c", type=_float_list, default=(0.0, 0.5, 1.0, 1.5, 2.0), help="comma list of masses"
    )

    ce = sub.add_parser("counterexamples", help="inverse-norm and non-monotonicity evidence")
    ce.add_argument("--t-range", dest="t_range", type=_t_grid, default="5:20:151")
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
        return int(args.func(args) or 0)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RootCountMismatch, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
