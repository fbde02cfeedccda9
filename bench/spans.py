"""Span tracing and factorization counting, installed from outside the program.

`Tracer.install` rebinds module attributes: every public function of the
six gapcert layers (also where another module bound it with
`from ... import`), `BlockSaddle.__post_init__` (validation), and the
dense LAPACK entry points gapcert calls through `numpy.linalg` and
`scipy.linalg`.  `uninstall` restores the originals.  Spans are recorded
only inside a request, kept in memory, and reduced to per-layer metrics
(and optionally written out) after the run.
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
import scipy.linalg

LAYERS = ("cli", "matio", "bounds", "stokes", "model", "linalg")
KINDS = ("eigh", "eigvalsh", "svd", "norm2", "solve", "scipy_svd")

BOUND_CERTS = (
    "diag_gap", "stretch_certificate", "hbinv_certificate",
    "zero_dichotomy_certificate", "kirsch_certificate", "winklmeier_bound",
)
STOKES_CERTS = ("minimal_intervals", "ruwa_intervals", "axel_intervals", "new_gap_estimate")
MODEL_FUNCS = ("hc_spectrum", "secular_solve", "stable_gap_check", "build_modified", "gap_scan")

# span record fields
NAME, START, END, PARENT, REQUEST, OK, INFO = range(7)


def _svd_flops(m: int, n: int, uv: bool, full: bool) -> float:
    # Golub & Van Loan, table 8.6.1 (Golub-Reinsch SVD), p >= q
    p, q = max(m, n), min(m, n)
    if not uv:
        return 4.0 * p * q * q - 4.0 * q**3 / 3.0
    return (4.0 * p * p * q if full else 4.0 * p * q * q) + 8.0 * p * q * q + 9.0 * q**3


def lapack_cost(kind: str, args: tuple, kwargs: dict) -> tuple[float, float]:
    """Computed (flops, bytes) of one call from its argument shapes.

    Standard dense counts: symmetric QR with vectors 9n^3, values only
    4n^3/3; SVD as in `_svd_flops`; LU solve 2n^3/3 + 2n^2 r.  Bytes are
    8 per input and output element, each touched once.
    """
    a = np.asarray(args[0])
    m, n = (a.shape[-2], a.shape[-1]) if a.ndim >= 2 else (a.size, 1)
    if kind == "eigh":
        return 9.0 * n**3, 8.0 * (2 * n * n + n)
    if kind == "eigvalsh":
        return 4.0 * n**3 / 3.0, 8.0 * (n * n + n)
    if kind == "solve":
        b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
        r = b.shape[-1] if b.ndim > 1 else 1
        return 2.0 * n**3 / 3.0 + 2.0 * n * n * r, 8.0 * (n * n + 2 * n * r)
    if kind == "norm2":
        return _svd_flops(m, n, False, False), 8.0 * (m * n + 1)
    uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
    k = min(m, n)
    out = k + ((m * m + n * n if full else (m + n) * k) if uv else 0)
    return _svd_flops(m, n, uv, full), 8.0 * (m * n + out)


class Tracer:
    """Records spans of one process; one request at a time."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.requests: dict[int, dict] = {}
        self._stack: list[int] = []
        self._request: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------------

    def begin(self, request_id: int, info: dict) -> None:
        self._request = request_id
        self.requests[request_id] = info

    def end(self) -> None:
        self._request = None
        self._stack.clear()

    def _span(self, name: str, fn, info=None, outcome=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._request is None:
                return fn(*args, **kwargs)
            extra = info(args, kwargs) if info is not None else None
            if extra is False:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1,
                   tracer._request, False, extra]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[OK] = True if outcome is None else outcome(result)
                return result
            finally:
                rec[END] = perf_counter()
                tracer._stack.pop()

        return traced

    # --- installing ----------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        pkg = self.package
        modules = [getattr(pkg, layer) for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    # a nonpositive Winklmeier radius certifies nothing
                    outcome = (lambda r: r > 0.0) if attr == "winklmeier_bound" else None
                    info = (lambda a, k: {"bytes": len(a[0])}) if attr == "parse_block_saddle" else None
                    wrapped[id(obj)] = self._span(f"{layer}.{attr}", obj, info, outcome)
        # names bound elsewhere by `from ... import` (model.bidiag_svd_hra, ...)
        for mod in [pkg, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, types.FunctionType):
                    self._rebind(mod, attr, wrapped[id(obj)])
        saddle = pkg.bounds.BlockSaddle
        self._rebind(saddle, "__post_init__", self._span("bounds.validate", saddle.__post_init__))

        def lapack(kind: str, fn, when=None):
            def info(args, kwargs):
                if when is not None and not when(args, kwargs):
                    return False
                flops, nbytes = lapack_cost(kind, args, kwargs)
                return {"kind": kind, "flops": flops, "bytes": nbytes}

            return self._span(f"lapack.{kind}", fn, info=info)

        for kind in ("eigh", "eigvalsh", "svd", "solve"):
            self._rebind(np.linalg, kind, lapack(kind, getattr(np.linalg, kind)))
        self._rebind(np.linalg, "norm", lapack("norm2", np.linalg.norm, when=_is_norm2))
        self._rebind(scipy.linalg, "svd", lapack("scipy_svd", scipy.linalg.svd))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # --- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, request id."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                       "parent": s[PARENT], "request": s[REQUEST], "ok": bool(s[OK])}
                if s[INFO]:
                    row.update(s[INFO])
                f.write(json.dumps(row) + "\n")


def _is_norm2(args, kwargs) -> bool:
    order = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return order == 2 and np.ndim(args[0]) == 2


class Reduced:
    """Per-layer figures derived from a list of spans."""

    def __init__(self, spans: list[list]):
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.self_time = [s[END] - s[START] - child[i] for i, s in enumerate(spans)]
        self.inclusive: Counter = Counter()
        self.self_by_layer: Counter = Counter()
        self.calls: Counter = Counter()
        self.issued: Counter = Counter()
        for i, s in enumerate(spans):
            self.inclusive[s[NAME]] += s[END] - s[START]
            self.calls[s[NAME]] += 1
            self.issued[s[NAME]] += bool(s[OK])
            self.self_by_layer[s[NAME].split(".")[0]] += self.self_time[i]
        # factorizations by kind, by owning layer (nearest non-linalg span)
        # and issued by cli itself
        self.kinds: Counter = Counter()
        self.owner: Counter = Counter()
        self.lapack_s = self.flops = self.bytes = self.cli_oracle_s = 0.0
        for s in spans:
            if not s[NAME].startswith("lapack."):
                continue
            self.kinds[s[INFO]["kind"]] += 1
            self.lapack_s += s[END] - s[START]
            self.flops += s[INFO]["flops"]
            self.bytes += s[INFO]["bytes"]
            p = s[PARENT]
            if p >= 0 and spans[p][NAME] == "cli.main":
                self.cli_oracle_s += s[END] - s[START]
            while p >= 0 and spans[p][NAME].split(".")[0] in ("linalg", "lapack"):
                p = spans[p][PARENT]
            self.owner[spans[p][NAME].split(".")[0] if p >= 0 else "none"] += 1
        self.text_bytes = sum(s[INFO]["bytes"] for s in spans if s[NAME] == "matio.parse_block_saddle")

    def ratio(self, names) -> float:
        attempted = sum(self.calls[n] for n in names)
        return sum(self.issued[n] for n in names) / attempted if attempted else 0.0


def per_layer_metrics(spans: list[list], n_requests: int, n_errors: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced request unless the unit says otherwise."""
    r = Reduced(spans)
    per = max(n_requests, 1)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("cli.self_s", r.self_by_layer["cli"] / per, "s/req")
    put("cli.oracle_s", r.cli_oracle_s / per, "s/req")
    # a sample count: more requests fit in the run when the program is faster
    put("cli.requests", n_requests, "count")
    put("cli.errors", n_errors / per, "1/req")
    # matio's self time excludes the validation and LAPACK children
    put("matio.read_s", r.self_by_layer["matio"] / per, "s/req")
    put("matio.bytes", r.text_bytes / per, "B/req")
    put("bounds.validate_s", r.inclusive["bounds.validate"] / per, "s/req")
    put("bounds.validate_calls", r.calls["bounds.validate"] / per, "1/req")
    for f in BOUND_CERTS:
        put(f"bounds.{f}_s", r.inclusive[f"bounds.{f}"] / per, "s/req")
    put("bounds.factorizations", r.owner["bounds"] / per, "1/req")
    put("bounds.issued_ratio", r.ratio([f"bounds.{f}" for f in BOUND_CERTS]), "ratio")
    for f in ("pencil_spectrum",) + STOKES_CERTS:
        put(f"stokes.{f}_s", r.inclusive[f"stokes.{f}"] / per, "s/req")
    put("stokes.factorizations", r.owner["stokes"] / per, "1/req")
    put("stokes.issued_ratio", r.ratio([f"stokes.{f}" for f in STOKES_CERTS]), "ratio")
    for f in MODEL_FUNCS:
        put(f"model.{f}_s", r.inclusive[f"model.{f}"] / per, "s/req")
    put("model.factorizations", r.owner["model"] / per, "1/req")
    put("linalg.bidiag_svd_hra_s", r.inclusive["linalg.bidiag_svd_hra"] / per, "s/req")
    put("linalg.factorizations", sum(r.kinds.values()) / per, "1/req")
    for k in KINDS:
        put(f"linalg.factorizations.{k}", r.kinds[k] / per, "1/req")
    put("linalg.lapack_s", r.lapack_s / per, "s/req")
    put("linalg.flops_computed", r.flops / per, "flop/req")
    put("linalg.bytes_computed", r.bytes / per, "B/req")
    return out


def factorizations_by_class(tracer: Tracer) -> dict[str, dict[str, list[int]]]:
    """For each request class, the factorization counts seen, by kind and in total."""
    counts: dict[int, Counter] = defaultdict(Counter)
    for s in tracer.spans:
        if s[NAME].startswith("lapack."):
            counts[s[REQUEST]][s[INFO]["kind"]] += 1
    table: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
    for rid, info in tracer.requests.items():
        c = counts.get(rid, Counter())
        row = table[info["class"]]
        row["total"].add(sum(c.values()))
        for k in KINDS:
            row[k].add(c[k])
    return {cls: {k: sorted(v) for k, v in row.items()} for cls, row in sorted(table.items())}
