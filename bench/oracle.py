"""Independent checks of CLI outputs.

Each check compares properties of an output with values the benchmark
computes itself: dense eigenvalues of the assembled saddle, tridiagonal
eigenvalues of the chain Gram matrices, and closed forms.  It never
compares bytes, so a change that legitimately moves a value still passes,
while a certificate that claims more than the spectrum allows fails.

Soundness margins are relative to ||H||, with no absolute floor, so a
certificate is judged the same way at every input scale.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from inputs import APPLICABLE, BOUND_METHODS, STOKES_METHODS, Request, Workload

# Bound before any tracing wrapper is installed, so the benchmark's own
# oracle calls are never counted as the program's factorizations.
_eigvalsh = np.linalg.eigvalsh
_eigvalsh_tridiagonal = scipy.linalg.eigvalsh_tridiagonal

MARGIN_REL = 1e-10  # certificate soundness margin, times ||H||
INV_BOUND_SLACK = 1e-8  # inv_norm_bound * dist(shift, spectrum) >= 1 - slack
AGREE_REL = 1e-9  # computed spectra against the reference, times the matrix scale
LOG10_SLACK = 1e-3  # exponentially small central pair against its asymptote, in log10
TWO53 = float(1 << 53)


class CheckFailed(Exception):
    """An output does not have a property the oracle requires."""


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    tightness: list[float] = field(default_factory=list)


class Spectrum:
    """Ascending eigenvalues of a symmetric matrix and the margin they imply."""

    def __init__(self, evals: np.ndarray):
        self.evals = np.sort(np.asarray(evals, dtype=float))
        self.norm = float(max(abs(self.evals[0]), abs(self.evals[-1])))
        self.margin = MARGIN_REL * self.norm


def gap_certificate(cert: dict, sp: Spectrum) -> float | None:
    """Check one gap certificate; return its tightness, or None if it is void.

    Tightness is the interval width over the width of the spectrum-free gap
    that contains it, so 1 is optimal.
    """
    lo, hi = (float(v) for v in cert["interval"])
    w, mg = sp.evals, sp.margin
    claim = cert["claim"]
    if claim not in ("excludes_all", "excludes_nonzero") or not lo <= hi:
        raise CheckFailed(f"{cert['method']}: malformed interval {lo!r}, {hi!r} ({claim})")
    pool = w if claim == "excludes_all" else w[np.abs(w) > mg]
    inside = pool[(pool > lo + mg) & (pool < hi - mg)]
    if inside.size:
        raise CheckFailed(f"{cert['method']}: eigenvalue {inside[0]!r} inside ({lo!r}, {hi!r})")
    bound = cert.get("inv_norm_bound")
    if bound is not None:
        # the true distance may exceed the computed one by the margin
        shift = float(cert["quantities"].get("lambda0", 0.0))
        dist = float(np.min(np.abs(w - shift))) + mg
        if not float(bound) * dist >= 1.0 - INV_BOUND_SLACK:
            raise CheckFailed(f"{cert['method']}: inv_norm_bound {bound!r} below 1/{dist!r}")
    if not hi > lo:
        return None
    # eigenvalues within the margin of an edge may sit inside; split at the midpoint
    mid = 0.5 * (lo + hi)
    below, above = pool[pool <= mid], pool[pool > mid]
    if not (below.size and above.size):
        return None
    return (hi - lo) / float(above[0] - below[-1])


def branch_pair(entry: dict, neg: np.ndarray, pos: np.ndarray, mg: float) -> list[float]:
    """Check Stokes branch enclosures; return minimal width / enclosure width per branch."""
    ratios = []
    for name, branch in (("i_minus", neg), ("i_plus", pos)):
        lo, hi = (float(v) for v in entry[name])
        if branch.size and not (branch[0] >= lo - mg and branch[-1] <= hi + mg):
            raise CheckFailed(
                f"{entry['source']}: {name} [{lo!r}, {hi!r}] misses the branch"
                f" [{branch[0]!r}, {branch[-1]!r}]"
            )
        width = float(branch[-1] - branch[0]) if branch.size else 0.0
        if hi > lo and width > 0.0:
            ratios.append(width / (hi - lo))
    return ratios


def _agree(got: np.ndarray, ref: np.ndarray, scale: float, what: str) -> None:
    if got.shape != ref.shape:
        raise CheckFailed(f"{what}: {got.size} values, expected {ref.size}")
    err = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    if not err <= AGREE_REL * scale:
        raise CheckFailed(f"{what}: deviates by {err:.3e} (scale {scale:.3e})")


def _csv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def disorder_draw(m: int, low: float, high: float, seed: int) -> np.ndarray:
    """The chain's uniform disorder law: 53-bit integers scaled to [low, high)."""
    u = np.random.default_rng(seed).integers(0, 1 << 53, size=m, dtype=np.int64) / TWO53
    return low + (high - low) * u


def central_pair_count(m: int, c: float) -> int:
    """Eigenvalues of H_c inside the stable gap |lambda| < 2 |c - 1|.

    The central pair exists for 0 <= c < 1 where m (1 - c) > c (at c = 0
    it is exactly zero); otherwise the gap is empty.
    """
    return 2 if 0.0 <= c < 1.0 and m * (1.0 - c) > c else 0


def central_pair_log10(m: int, c: float) -> float:
    """log10 of the asymptotic central eigenvalue 2 (1 - c^2) c^m of H_c, 0 < c < 1."""
    return math.log10(2.0) + math.log10(1.0 - c * c) + m * math.log10(c)


class Checker:
    """Checks each response of one workload; caches per-instance references."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self._spectra: dict[tuple[str, str], Spectrum] = {}

    def spectrum(self, key: str, form: str = "H") -> Spectrum:
        if (key, form) not in self._spectra:
            inst = self.wl.instances[key]
            if form == "H" or inst.cls == "kirsch":
                M = inst.assemble()
            else:  # the symmetric-coupling form [[A, B], [B, -A]] of the kirsch certificate
                M = np.block([[inst.A, inst.B], [inst.B, -inst.A]])
            self._spectra[(key, form)] = Spectrum(_eigvalsh(M))
        return self._spectra[(key, form)]

    def prepare(self) -> None:
        """Compute every saddle spectrum up front, so every pass does the same work."""
        for req in self.wl.requests:
            if req.instance is not None:
                self.spectrum(req.instance)

    def check(self, req: Request, rc: int | None, out: str, err: str) -> Outcome:
        if rc != req.expect_rc:
            said = err.strip() or "; ".join(ln for ln in out.splitlines() if ln.startswith("FAIL "))
            return Outcome(False, f"exit {rc}, expected {req.expect_rc}: {said[:200]}")
        if rc != 0:
            return Outcome(out == "", "" if out == "" else "error exit with output")
        handler = getattr(self, "_" + req.kind.split("-")[0])
        try:
            return Outcome(True, "", handler(req, out))
        except CheckFailed as exc:
            return Outcome(False, str(exc))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return Outcome(False, f"malformed output: {exc!r}")

    # --- saddle certificates -------------------------------------------------

    def _bounds(self, req: Request, out: str) -> list[float]:
        p = json.loads(out)
        cls = self.wl.instances[req.instance].cls
        method = req.argv[3]
        if method == "all":
            entries = {e["method"]: e for e in p["results"]}
            if set(entries) != set(BOUND_METHODS):
                raise CheckFailed(f"methods {sorted(entries)} reported, expected {BOUND_METHODS}")
        else:
            entries = {method: p}
        tight = []
        for name, e in entries.items():
            if "certificate" not in e:
                if name in APPLICABLE[cls]:
                    raise CheckFailed(f"{name} skipped on a {cls} saddle: {e.get('skipped')}")
                continue
            sp = self.spectrum(req.instance, "kirsch" if name == "kirsch" else "H")
            t = gap_certificate(e["certificate"], sp)
            if t is not None:
                tight.append(t)
        return tight

    def _stokes(self, req: Request, out: str) -> list[float]:
        p = json.loads(out)
        sp = self.spectrum(req.instance)
        w, mg = sp.evals, sp.margin
        neg, pos = w[w < -mg], w[w > mg]
        spec = p["spectrum"]
        lam_minus = np.asarray(spec["lambda_minus"], dtype=float)
        _agree(np.sort(np.asarray(spec["lambda_plus"], dtype=float)), pos, sp.norm, "lambda_plus")
        _agree(np.sort(lam_minus[lam_minus < -mg]), neg, sp.norm, "lambda_minus")
        method = req.argv[3]
        names = STOKES_METHODS if method == "all" else (method,)
        tight = []
        for name in names:
            e = p["intervals"][name]
            if "skipped" in e:
                raise CheckFailed(f"{name} skipped on a Stokes saddle: {e['skipped']}")
            if "certificate" in e:
                t = gap_certificate(e["certificate"], sp)
                tight += [] if t is None else [t]
            else:
                tight += branch_pair(e, neg, pos, mg)
        return tight

    # --- chain model ---------------------------------------------------------

    def _model(self, req: Request, out: str) -> list[float]:
        """Chain commands issue no certificates, so they add no tightness."""
        getattr(self, "_" + req.kind.replace("-", "_"))(req.params, out)
        return []

    def _model_stable_gap(self, prm: dict, out: str) -> None:
        p = json.loads(out)
        m, c = prm["m"], prm["c"]
        expected = central_pair_count(m, c)
        if abs(float(p["radius"]) - 2.0 * abs(c - 1.0)) > 1e-12:
            raise CheckFailed(f"stable gap radius {p['radius']!r} for c = {c!r}")
        if p["inside_count"] != expected or p["expected_count"] != expected or p["ok"] is not True:
            raise CheckFailed(f"inside_count {p['inside_count']}, expected_count {p['expected_count']},"
                              f" ok {p['ok']}; the gap holds {expected}")
        if expected and c > 0.0:
            asym = central_pair_log10(m, c)
            for v in p["central_abs"]:
                if not (v > 0.0 and abs(math.log10(v) - asym) <= LOG10_SLACK):
                    raise CheckFailed(f"central pair {v!r} against asymptote 1e{asym:.4f}")

    def _model_secular(self, prm: dict, out: str) -> None:
        m, c = prm["m"], prm["c"]
        header, rows = _csv_rows(out)
        log_scale = header[2] == "log10_lambda"
        if len(rows) != m:
            raise CheckFailed(f"{len(rows)} secular roots for m = {m}")
        hyp = [float(r[2]) for r in rows if r[3] == "hyp"]
        trig = np.sort([float(r[2]) for r in rows if r[3] == "trig"])
        if log_scale:
            trig = 10.0**trig
        d = np.full(m, c * c + 1.0)
        d[-1] = c * c
        ref = _eigvalsh_tridiagonal(d, np.full(m - 1, -c))
        has_hyp = c > 0.0 and central_pair_count(m, c) > 0
        if len(hyp) != int(has_hyp):
            raise CheckFailed(f"{len(hyp)} hyperbolic roots, expected {int(has_hyp)}")
        _agree(trig, ref[1:] if has_hyp else ref, (1.0 + c) ** 2, "secular bulk")
        if has_hyp:
            got = hyp[0] if log_scale else math.log10(hyp[0])
            asym = 2.0 * math.log10(1.0 - c * c) + 2.0 * m * math.log10(c)
            if not abs(got - asym) <= LOG10_SLACK:
                raise CheckFailed(f"hyperbolic root 1e{got:.4f} against asymptote 1e{asym:.4f}")

    def _model_modified(self, prm: dict, out: str) -> None:
        p = json.loads(out)
        m, c = prm["m"], prm["c"]
        ev = np.asarray(p["eigenvalues"], dtype=float)
        if ev.size != 2 * m or np.any(np.diff(ev) < 0.0):
            raise CheckFailed(f"{ev.size} eigenvalues, expected {2 * m} ascending")
        k = np.arange(1, m + 1)
        closed = np.sort(np.repeat(4.0 + 4.0 * c * c + 8.0 * c * np.cos((2 * k - 1) * np.pi / (2 * m)), 2))
        _agree(np.sort(ev**2), closed, max(1.0, float(closed[-1])), "modified squares")
        radius = 2.0 * abs(c - 1.0)
        smallest = float(np.min(np.abs(ev)))
        if abs(float(p["gap_radius"]) - radius) > 1e-12 or p["inside_gap_count"] != 0:
            raise CheckFailed(f"gap radius {p['gap_radius']!r}, {p['inside_gap_count']} inside")
        if smallest < radius * (1.0 - AGREE_REL):
            raise CheckFailed(f"eigenvalue {smallest!r} inside the stable gap {radius!r}")

    def _model_scan(self, prm: dict, out: str) -> None:
        m, delta, seed = prm["m"], prm["delta"], prm["seed"]
        _, rows = _csv_rows(out)
        groups: dict[tuple[float, str], list[float]] = {}
        for r in rows:
            groups.setdefault((float(r[0]), r[1]), []).append(float(r[3]))
        if len(groups) != 2 * len(prm["means"]):
            raise CheckFailed(f"{len(groups)} spectra, expected {2 * len(prm['means'])}")
        for i, M in enumerate(prm["means"]):
            omega = disorder_draw(m, M - delta, M + delta, seed + i)
            ev = np.asarray(groups[(M, "H")])
            scale = 4.0 + float(np.max(np.abs(omega))) ** 2
            _agree(ev, -ev[::-1], math.sqrt(scale), "H spectral symmetry")
            gram_diag = omega**2 + 4.0
            gram_diag[-1] = omega[-1] ** 2
            gram = _eigvalsh_tridiagonal(gram_diag, 2.0 * omega[1:])
            _agree(np.sort(ev[m:] ** 2), gram, scale, "H against the Gram spectrum")
            evt = np.asarray(groups[(M, "Htilde")])
            if evt.size != 2 * m:
                raise CheckFailed(f"{evt.size} Htilde eigenvalues, expected {2 * m}")
            corner = np.zeros(m)
            corner[0] += 1.0
            corner[-1] -= 1.0
            fro2 = float(np.sum((omega + corner) ** 2) + np.sum((corner - omega) ** 2))
            fro2 += 4.0 * (m - 1) + 2.0 * (2.0 * (m - 1) + 2.0)
            if abs(float(np.sum(evt))) > AGREE_REL * 2 * m * math.sqrt(scale):
                raise CheckFailed(f"Htilde trace {float(np.sum(evt))!r}, expected 0")
            if abs(float(np.sum(evt**2)) - fro2) > AGREE_REL * fro2:
                raise CheckFailed(f"Htilde sum of squares {float(np.sum(evt**2))!r}, expected {fro2!r}")

    def _model_verify(self, prm: dict, out: str) -> None:
        # every invariant is a theorem, so the right verdict is PASS throughout
        lines = out.strip().splitlines()
        failed = [ln for ln in lines if not ln.startswith("PASS ")]
        if len(lines) != 10 or failed:
            raise CheckFailed(f"{len(lines)} invariant lines, failing: {failed[:3]}")
