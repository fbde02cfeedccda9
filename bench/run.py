#!/usr/bin/env python3
"""Closed-loop benchmark of the gapcert command line.

    python3 bench/run.py --workload cert-all --seed 1 --seconds 15 --trace 0

One client in one process calls `gapcert.cli.main` in process; each
request is sent only after the previous one has returned.  A run repeats
the workload's fixed request list (a pass) until `--seconds` of request
time have been measured and at least the workload's minimum number of
passes is done.  Every output is checked against the benchmark's own
oracle outside the timed window.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` passes alternate untraced and traced, and the last line
carries the per-layer metrics of the traced passes, the tracing overhead
and the factorization counts of two fixed probe requests.  The last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Details go to `.bench_run/` at the repository root.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
SETUP_SPAWNS = 10  # half before the loop, half after it
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("cert-all", "cert-single", "chain"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    """Interpreter, library, BLAS and CPU facts recorded with every result."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
    }
    # numpy wheels bundle OpenBLAS with prefixed, suffixed symbol names
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for stem in ("scipy_openblas_get_{}64_", "openblas_get_{}64_", "openblas_get_{}"):
            if hasattr(handle, stem.format("num_threads")):
                get, cfg = getattr(handle, stem.format("num_threads")), getattr(handle, stem.format("config"))
                get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                facts["blas_threads"], facts["blas_config"] = get(), cfg().decode()
                break
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            facts["cpu"] = line.split(":", 1)[1].strip()
            break
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append(f"L{_read(d / 'level')} {_read(d / 'type')} {_read(d / 'size')}")
    facts["caches"] = caches
    return facts


def measure_setup(spawns: int, cal) -> list[tuple[float, float]]:
    """Wall times of fresh interpreters importing gapcert.cli, each with its
    time at reference speed: (scaled, raw).

    The import is CPU-bound, like the requests, so each spawn is scaled by
    the kernel runs on either side of it.  One warm spawn first is
    discarded: the first of a run writes the bytecode caches.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import gapcert.cli"]
    times = []
    cal.factor()  # a fresh kernel time just before the first spawn
    for _ in range(spawns + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        dt = perf_counter() - t0
        times.append((dt * cal.factor(), dt))
    return times[1:]


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if count * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def harrell_davis(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics, steadier than one order statistic when the requests'
    costs are spread out."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    w = np.diff(betainc((n + 1) * p, (n + 1) * (1.0 - p), np.arange(n + 1) / n))
    return float(w @ x)


def request_class(req, wl) -> str:
    return f"{req.kind}/{wl.instances[req.instance].cls}" if req.instance else req.kind


def call(cli, argv) -> tuple[int | None, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # an unexpected crash fails the request, the loop goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), perf_counter() - t0


def warm_up(cli, wl) -> None:
    """Run numpy's LAPACK entry points and each request kind once, untimed."""
    import numpy as np

    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 8))
    S = M + M.T
    np.linalg.eigh(S), np.linalg.eigvalsh(S), np.linalg.svd(M), np.linalg.solve(S, M)
    np.linalg.norm(M, 2)
    seen = set()
    for req in wl.requests:
        if req.kind not in seen:
            seen.add(req.kind)
            call(cli, req.argv)


def run_loop(cli, wl, checker, seconds: float, tracer=None, cal=None) -> dict:
    """Run passes until `seconds` of raw request time and the minimum passes are done.

    Latencies of untraced passes are kept per request slot, scaled to
    reference speed by `cal` (unscaled without one).
    """
    import speed

    n = len(wl.requests)
    lat: list[list[float]] = [[] for _ in range(n)]
    passes = []  # (scaled busy seconds, raw busy seconds, traced)
    failures, tight = [], []
    attempted = failed = traced_requests = traced_errors = 0
    min_passes = max(wl.min_passes, 2 if tracer else 1)
    busy = 0.0
    while len(passes) < min_passes or busy < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
        scaled_busy = raw_busy = 0.0
        pending: list[tuple[int, float]] = []
        try:
            for i, req in enumerate(wl.requests):
                if traced:
                    tracer.begin(len(passes) * n + i, {"class": request_class(req, wl)})
                rc, out, err, dt = call(cli, req.argv)
                if traced:
                    tracer.end()
                    traced_requests += 1
                    traced_errors += rc != 0
                pending.append((i, dt))
                # the kernel runs before the check, so oracle work never precedes it
                if i == n - 1 or sum(d for _, d in pending) >= speed.EVERY_S:
                    f = cal.factor() if cal else 1.0
                    for j, d in pending:
                        if not traced:
                            lat[j].append(d * f)
                        scaled_busy += d * f
                        raw_busy += d
                    pending.clear()
                attempted += 1
                outcome = checker.check(req, rc, out, err)
                tight.extend(outcome.tightness)
                if not outcome.ok:
                    failed += 1
                    failures.append({"pass": len(passes), "argv": list(req.argv), "reason": outcome.reason})
        finally:
            if traced:
                tracer.uninstall()
        passes.append((scaled_busy, raw_busy, traced))
        busy += raw_busy
    return {
        "latencies": lat, "passes": passes, "failures": failures, "tightness": tight,
        "attempted": attempted, "failed": failed,
        "traced_requests": traced_requests, "traced_errors": traced_errors,
    }


def end_to_end(wl, loop: dict, setup: list[tuple[float, float]], cal) -> tuple[dict, list[str]]:
    import speed

    n = len(wl.requests)
    samples = [x for slot in loop["latencies"] for x in slot]
    untraced = [(b, raw) for b, raw, traced in loop["passes"] if not traced]
    p_tail = tail_percentile(n * wl.min_passes)
    rps = n * len(untraced) / sum(b for b, _ in untraced)
    factors = cal.factors
    # chain issues no certificates; 1, the optimum, keeps the metric defined there
    tightness = statistics.fmean(loop["tightness"]) if loop["tightness"] else 1.0
    metrics = {
        "setup_s": (statistics.median(t for t, _ in setup), "s"),
        "requests_per_s": (rps, "1/s"),
        "latency_p50_ms": (1e3 * harrell_davis(samples, 0.5), "ms"),
        "latency_tail_ms": (1e3 * harrell_davis(samples, p_tail / 100.0), "ms"),
        "success_frac": (1.0 - loop["failed"] / loop["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cert_tightness_mean": (tightness, "ratio"),
    }
    notes = [
        f"times are at reference speed: raw time x {speed.REFERENCE_S:g} s / calibration kernel"
        f" time; {len(factors)} kernel runs, factor median {statistics.median(factors):.4g}"
        f" (min {min(factors):.4g}, max {max(factors):.4g})",
        f"setup_s: median of {len(setup)} fresh interpreters importing gapcert.cli"
        f" (raw median {statistics.median(raw for _, raw in setup):.4g} s)",
        f"requests_per_s: {n * len(untraced)} requests over {len(untraced)} passes / their request time"
        f" (raw {n * len(untraced) / sum(raw for _, raw in untraced):.4g} 1/s)",
        f"latency_p50_ms: median of {len(samples)} requests (Harrell-Davis estimate)",
        f"latency_tail_ms: p{p_tail:g} of {len(samples)} requests (Harrell-Davis estimate)"
        f" (at least 10 beyond it at the fixed count {n} x {wl.min_passes})",
        f"success_frac: {loop['attempted'] - loop['failed']} of {loop['attempted']} requests passed"
        f" the oracle (failed_frac {loop['failed'] / loop['attempted']:.6g})",
        "peak_rss_mb: peak resident memory of the loop process (ru_maxrss)",
        f"cert_tightness_mean: mean over {len(loop['tightness'])} issued certificates (1 is optimal)"
        if loop["tightness"] else "cert_tightness_mean: no certificates issued; reported as 1, not measured",
    ]
    return metrics, notes


def probe_counts(pkg, seed: int, directory: Path) -> dict[str, dict[str, list[int]]]:
    """Factorizations of `bounds --method all` on a square definite saddle and
    `stokes --method all` on a Stokes saddle, each run twice: the distinct
    counts seen, by kind and in total (one value each when they repeat)."""
    import inputs
    import spans

    definite, stokes = inputs.probe_instances(seed)
    counts = {}
    for name, inst, cmd in (("bounds_all_definite", definite, "bounds"), ("stokes_all", stokes, "stokes")):
        path = directory / f"{inst.key}.txt"
        path.write_text(inputs.block_text(inst))
        tracer = spans.Tracer(pkg)
        tracer.install()
        try:
            for rep in range(2):
                tracer.begin(rep, {"class": name})
                call(pkg.cli, (cmd, str(path), "--method", "all"))
                tracer.end()
        finally:
            tracer.uninstall()
        counts[name] = spans.factorizations_by_class(tracer)[name]
    return counts


def defect_probes(cli, checker) -> list[dict]:
    """Check the known-defect requests of `inputs.defect_probes`, untimed."""
    import inputs

    rows = []
    for req in inputs.defect_probes():
        rc, out, err, _ = call(cli, req.argv)
        outcome = checker.check(req, rc, out, err)
        rows.append({"argv": list(req.argv), "ok": outcome.ok, "reason": outcome.reason})
    return rows


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gapcert" / "cli.py").is_file():
        print(f"error: no gapcert sources at {SRC}", file=sys.stderr)
        return 2
    # fix the BLAS pool before numpy loads: one thread is faster at these
    # sizes on two cores and keeps the calibration kernel representative
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import gapcert.cli

    if Path(gapcert.__file__).resolve().parent != SRC / "gapcert":
        print(f"error: imported gapcert from {gapcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs
    import oracle
    import spans
    import speed

    OUT.mkdir(exist_ok=True)
    indir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    facts = machine_facts()
    # one CPU for the loop, its kernel helper and the set-up spawns: on a
    # virtual machine each CPU's speed drifts on its own, so the kernel
    # must run where the requests run
    facts["cpu_pinned"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {facts["cpu_pinned"]})
    cal = speed.Calibration()
    try:
        # the host's speed drifts over tens of seconds, so the spawns are
        # split between the two ends of the run
        setup = [] if args.trace else measure_setup(SETUP_SPAWNS // 2, cal)
        wl = inputs.build(args.workload, args.seed, indir)
        written = inputs.write_inputs(wl, indir)
        checker = oracle.Checker(wl)
        checker.prepare()
        warm_up(gapcert.cli, wl)
        tracer = spans.Tracer(gapcert) if args.trace else None
        loop = run_loop(gapcert.cli, wl, checker, args.seconds, tracer, cal)
        if not args.trace:
            setup += measure_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2, cal)
        defects = defect_probes(gapcert.cli, checker)
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": facts, "requests_per_pass": len(wl.requests),
                  "input_bytes": written, "passes": loop["passes"], "failures": loop["failures"][:50],
                  "defect_probes": defects}
        if args.trace:
            metrics = spans.per_layer_metrics(tracer.spans, loop["traced_requests"], loop["traced_errors"])
            traced = [b for b, _, t in loop["passes"] if t]
            plain = [b for b, _, t in loop["passes"] if not t]
            metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
            probes = probe_counts(gapcert, args.seed, indir)
            for name, row in probes.items():
                metrics[f"linalg.factorizations.{name}"] = (float(row["total"][-1]), "count")
            notes = [f"per-layer values are per traced request over {loop['traced_requests']} requests;"
                     f" trace.overhead_frac compares {len(traced)} traced with {len(plain)} untraced passes",
                     f"probe factorization counts (two runs each): {probes}"]
            detail["factorizations_by_class"] = spans.factorizations_by_class(tracer)
            detail["probes"] = probes
            tracer.write(OUT / f"spans-{args.workload}.jsonl")
            for cls, row in detail["factorizations_by_class"].items():
                notes.append(f"factorizations {cls}: " + ", ".join(f"{k} {v}" for k, v in row.items()))
        else:
            metrics, notes = end_to_end(wl, loop, setup, cal)
            detail["slot_median_ms"] = [1e3 * statistics.median(s) for s in loop["latencies"]]
            detail["setup_s"] = setup
            detail["speed_factors"] = cal.factors
    finally:
        cal.close()
        shutil.rmtree(indir, ignore_errors=True)
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {len(wl.requests)} requests per pass, {len(loop['passes'])} passes, closed loop, one client")
    print("# machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"#   {line}")
    for f in loop["failures"][:10]:
        print(f"# FAILED pass {f['pass']}: {' '.join(f['argv'])}: {f['reason']}")
    for row in defects:
        verdict = "passes the oracle" if row["ok"] else f"KNOWN DEFECT, wrong output: {row['reason']}"
        print(f"# defect probe (untimed, not a workload request): {' '.join(row['argv'])}: {verdict}")
    result = {
        "correct": loop["failed"] == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": detail["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
