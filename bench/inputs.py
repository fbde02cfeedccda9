"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of CLI requests (one pass).  The seed fixes
the random entries of every block instance and the chain parameters;
the request list, the sizes and the scale of each block do not depend on
the seed, so runs on different seeds do comparable work.  Every instance
draws from its own stream, so its bytes do not depend on which other
instances a workload builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cert-all", "cert-single", "chain")
CLASSES = ("definite", "kirsch", "semidefinite", "rectangular", "stokes")
BOUND_METHODS = ("diag", "stretch", "hbinv", "zero-dichotomy", "kirsch", "winklmeier")
STOKES_METHODS = ("minimal", "ruwa", "axel", "new")

# Block scale exponents (A, B, C) cycle through this table by instance, so
# entries span several decades on every seed.
SCALES = ((0, 0, 0), (2, 0, -2), (-2, 1, 1), (1, -2, 0), (-1, 2, -1), (3, 1, 2), (0, -1, -3))

# Which certificate families a class satisfies the hypotheses of.  A request
# whose family is listed for its class must issue; any other family may be
# skipped (`all`) or must exit with the domain-error code 3 (single method).
APPLICABLE = {
    "definite": {"diag", "stretch", "hbinv", "zero-dichotomy", "winklmeier"},
    "kirsch": {"diag", "stretch", "hbinv", "zero-dichotomy", "kirsch", "winklmeier"},
    "semidefinite": {"hbinv", "zero-dichotomy", "winklmeier"},
    "rectangular": {"diag", "stretch", "zero-dichotomy"},
    "stokes": {"hbinv", "winklmeier", *STOKES_METHODS},
}


@dataclass(frozen=True)
class Instance:
    """Blocks of H = [[A, B], [B^T, -C]] for one generated file."""

    key: str
    cls: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def assemble(self) -> np.ndarray:
        return np.block([[self.A, self.B], [self.B.T, -self.C]])


@dataclass(frozen=True)
class Request:
    """One CLI call.  `kind` names the request class used in reports."""

    kind: str
    argv: tuple[str, ...]
    instance: str | None = None
    expect_rc: int = 0
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    requests: list[Request]
    instances: dict[str, Instance]
    min_passes: int


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _definite(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    # strictly diagonally dominant, so positive definite by Gershgorin
    E = np.triu(rng.standard_normal((n, n)), 1)
    E = E + E.T
    d = np.abs(E).sum(axis=1) * rng.uniform(1.05, 2.0, n) + 1.0
    return (scale / n) * (E + np.diag(d))


def _semidefinite(rng: np.random.Generator, keep: np.ndarray, n: int, scale: float) -> np.ndarray:
    M = np.zeros((n, n))
    M[np.ix_(keep, keep)] = _definite(rng, keep.size, scale)
    return M


def _coupling(rng: np.random.Generator, n: int, k: int, scale: float) -> np.ndarray:
    """Gaussian coupling; a square one is made row diagonally dominant.

    A square Gaussian matrix is now and then singular to working precision,
    and then H has eigenvalues at rounding level that no check can resolve.
    """
    B = rng.standard_normal((n, k))
    if n == k:
        np.fill_diagonal(B, 0.0)
        B[np.diag_indices(n)] = np.abs(B).sum(axis=1) * rng.uniform(1.05, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return B * (scale / math.sqrt(n))


def make_instance(key: str, cls: str, n: int, rng: np.random.Generator, scale_index: int) -> Instance:
    ea, eb, ec = SCALES[scale_index % len(SCALES)]
    sa, sb, sc = 10.0**ea, 10.0**eb, 10.0**ec
    if cls == "definite":
        A, C = _definite(rng, n, sa), _definite(rng, n, sc)
        B = _coupling(rng, n, n, sb)
    elif cls == "kirsch":
        A = _definite(rng, n, sa)
        B = _definite(rng, n, sb)
        C = A
    elif cls == "semidefinite":
        # A and C vanish on the same coordinates, so B22 is a principal
        # submatrix of the dominant B and stays invertible
        keep = rng.permutation(n)[: n - max(1, n // 10)]
        A, C = _semidefinite(rng, keep, n, sa), _semidefinite(rng, keep, n, sc)
        B = _coupling(rng, n, n, sb)
    elif cls == "rectangular":
        k = max(1, (3 * n) // 4)
        A, C = _definite(rng, n, sa), _definite(rng, k, sc)
        B = _coupling(rng, n, k, sb)
    elif cls == "stokes":
        A = _definite(rng, n, sa)
        B = _coupling(rng, n, n, sb)
        C = np.zeros((n, n))
    else:
        raise ValueError(f"unknown class {cls!r}")
    return Instance(key, cls, A, B, C)


def _format_matrix(M: np.ndarray) -> str:
    # same layout and "%.17g" digits as the program's own writer
    row = " ".join(["%.17g"] * M.shape[1])
    body = "\n".join(row % tuple(r) for r in M.tolist())
    return f"{M.shape[0]} {M.shape[1]}\n{body}\n"


def block_text(inst: Instance) -> str:
    parts = ["A\n", _format_matrix(inst.A), "B\n", _format_matrix(inst.B), "C\n"]
    parts.append(_format_matrix(inst.C) if np.any(inst.C) else f"zero {inst.C.shape[0]}\n")
    return "".join(parts)


def write_inputs(wl: Workload, directory: Path) -> int:
    """Write every block file of the workload; returns the bytes written."""
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    for key, inst in wl.instances.items():
        data = block_text(inst).encode()
        (directory / f"{key}.txt").write_bytes(data)
        total += len(data)
    return total


def _cert_request(command: str, method: str, inst: Instance, directory: Path) -> Request:
    """A `bounds` or `stokes` call, expected to exit 3 where the class misses the hypotheses."""
    path = str(directory / f"{inst.key}.txt")
    if command == "stokes":
        ok = inst.cls == "stokes"
    else:
        ok = method == "all" or method in APPLICABLE[inst.cls]
    return Request(f"{command}-{method}", (command, path, "--method", method), inst.key, 0 if ok else 3)


def cert_all(seed: int, directory: Path) -> Workload:
    """Every certificate family on every request, n from 100 to 400.

    25 sizes log-spaced over 100..400, the classes taken in turn, so every
    class meets small and large n and request costs spread evenly: the
    median and the tail percentile then rest on many requests of similar
    cost, not on one request next to a jump.
    """
    instances: dict[str, Instance] = {}
    requests = []
    for idx in range(25):
        n = round(100 * 4 ** (idx / 24))
        cls = CLASSES[idx % len(CLASSES)]
        inst = make_instance(f"{cls}-{n}", cls, n, _rng(seed, "cert-all", idx), idx)
        instances[inst.key] = inst
        requests.append(_cert_request("stokes" if cls == "stokes" else "bounds", "all", inst, directory))
    return Workload(requests, instances, min_passes=3)


def cert_single(seed: int, directory: Path) -> Workload:
    """One family per request, n log-spread over 8..256, every class.

    Each family runs once per size on a class that satisfies its
    hypotheses, except at one size where it gets a class that does not
    and must exit with code 3.
    """
    sizes = [round(8 * 32 ** (i / 9)) for i in range(10)]
    families = list(BOUND_METHODS) + list(STOKES_METHODS)
    instances: dict[str, Instance] = {}
    requests = []

    def instance(cls: str, i: int) -> Instance:
        key = f"{cls}-{sizes[i]}"
        if key not in instances:
            idx = CLASSES.index(cls) * len(sizes) + i
            instances[key] = make_instance(key, cls, sizes[i], _rng(seed, "cert-single", idx), idx)
        return instances[key]

    for f, fam in enumerate(families):
        good = [c for c in CLASSES if fam in APPLICABLE[c]]
        bad = [c for c in CLASSES if fam not in APPLICABLE[c]]
        for i in range(len(sizes)):
            if i == (3 * f) % len(sizes):
                cls = bad[f % len(bad)]
            else:
                cls = good[(i + f) % len(good)]
            command = "stokes" if fam in STOKES_METHODS else "bounds"
            requests.append(_cert_request(command, fam, instance(cls, i), directory))
    return Workload(requests, instances, min_passes=2)


def chain(seed: int, directory: Path) -> Workload:
    """Chain-model commands: dense O(m^3) spectra and the pure-Python secular solve.

    The c ranges keep every central pair above the double-precision
    underflow threshold, so its log can be compared with the asymptote.
    """
    rng = _rng(seed, "chain", 0)

    def c_in(lo: float, hi: float) -> float:
        return round(float(rng.uniform(lo, hi)), 6)

    requests = []

    def add(kind: str, argv: list[str], **params) -> None:
        requests.append(Request(kind, tuple(argv), None, 0, params))

    for m, (lo, hi) in ((300, (0.55, 0.9)), (600, (0.75, 0.92)), (1000, (0.8, 0.95)),
                        (1500, (0.85, 0.95)), (400, (1.1, 1.6)), (1200, (1.05, 1.4))):
        c = c_in(lo, hi)
        add("model-stable-gap", ["model", "stable-gap", "-m", str(m), "-c", repr(c)], m=m, c=c)
    for m, (lo, hi) in ((1000, (0.3, 0.9)), (2000, (0.5, 0.95)), (3000, (1.1, 2.0)),
                        (4000, (0.6, 0.95)), (5000, (0.2, 0.9))):
        c = c_in(lo, hi)
        add("model-secular", ["model", "secular", "-m", str(m), "-c", repr(c)], m=m, c=c)
    # c stays away from 1, where the stable gap closes
    for m, (lo, hi) in ((150, (0.1, 0.8)), (300, (1.2, 2.0)), (600, (0.0, 0.8)), (900, (1.2, 2.0))):
        c = c_in(lo, hi)
        add("model-modified", ["model", "modified", "-m", str(m), "-c", repr(c), "--format", "json"],
            m=m, c=c)
    for m, count in ((100, 4), (250, 2), (500, 1), (1000, 1)):
        means = [round(float(x), 4) for x in rng.uniform(0.0, 2.5, count)]
        delta = round(float(rng.uniform(0.1, 0.8)), 4)
        scan_seed = int(rng.integers(0, 2**31))
        add("model-scan", ["model", "scan", "-m", str(m), "--M", ",".join(map(repr, means)),
                           "--delta", repr(delta), "--seed", str(scan_seed)],
            m=m, means=means, delta=delta, seed=scan_seed)
    # Below c = 1 the central pair exists only where m (1 - c) > c; outside
    # that regime stable_gap_check still expects it (a known defect of the
    # program, checked by defect_probes() after the loop).  A workload
    # operation must not fail, so every mass of a grid keeps the margin 0.5
    # in m - (m + 1) c for the grid's smallest m.
    for g in ("2,3,5,10", "4,8,16", "2,6,12,24", "3,7,20", "5,9,30", "2,11,40"):
        m_min = min(int(x) for x in g.split(","))
        below = [c_in(0.05, (m_min - 0.5) / (m_min + 1.0)) for _ in range(2)]
        cs = sorted({0.0, 1.0, *below, c_in(1.05, 2.5)})
        add("model-verify", ["model", "verify", "-m", g, "-c", ",".join(map(repr, cs))])
    return Workload(requests, {}, min_passes=3)


def defect_probes() -> list[Request]:
    """Fixed chain requests in the regime 0 < c < 1, m (1 - c) <= c.

    There the central pair does not exist and the stable gap is empty, but
    stable_gap_check still expects two eigenvalues inside it, so the program
    reports `ok: false` and `model verify` FAIL.  A run checks these after
    its loop and prints the outcome; they are not workload requests.
    """
    return [
        Request("model-stable-gap", ("model", "stable-gap", "-m", "2", "-c", "0.7"), params={"m": 2, "c": 0.7}),
        Request("model-verify", ("model", "verify", "-m", "2,3", "-c", "0.0,0.7,0.8,1.0,1.5")),
    ]


BUILDERS = {"cert-all": cert_all, "cert-single": cert_single, "chain": chain}


def build(name: str, seed: int, directory: Path) -> Workload:
    return BUILDERS[name](seed, directory)


def probe_instances(seed: int) -> tuple[Instance, Instance]:
    """Small square definite and Stokes saddles for the factorization count probe."""
    definite = make_instance("probe-definite", "definite", 24, _rng(seed, "cert-all", 1000), 0)
    stokes = make_instance("probe-stokes", "stokes", 24, _rng(seed, "cert-all", 1001), 0)
    return definite, stokes
