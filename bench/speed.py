"""Machine-speed calibration for timings on a shared, noisy host.

On a small shared machine the speed of the whole CPU drifts by tens of
percent within seconds, so two runs of identical code differ more than
the changes the benchmark must resolve.  A fixed kernel that mixes the
workloads' kinds of work (Python float parsing, many small numpy calls,
JSON output and dense symmetric eigensolves) is timed between requests;
each request time is multiplied by REFERENCE_S / (kernel time next to
it).  Times are thus reported in reference-speed units: what the request
would take on a machine that runs the kernel in REFERENCE_S.

The kernel runs in a helper process of its own, started with this file
as its program, and the loop waits for it.  Nothing the program does to
its own process's memory (garbage collection over the objects it keeps
alive, heap growth) reaches the kernel, so it cannot be divided out of
the program's figures.  The helper inherits the loop's CPU pinning, so
both see the same CPU's speed; that CPU, its caches and any thread the
program leaves running on it are what the two share.

    python3 bench/speed.py   # the helper: one kernel time per input line
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

REFERENCE_S = 0.05  # kernel time on the reference machine
EVERY_S = 0.75  # request time between two kernel runs


class Kernel:
    """The fixed work whose time measures the machine's speed."""

    def __init__(self):
        rng = np.random.default_rng(20140417)
        M = rng.standard_normal((250, 250))
        self.S = M + M.T
        M = rng.standard_normal((500, 500))
        self.S2 = M + M.T
        row = " ".join(["%.17g"] * 120)
        self.lines = [row % tuple(r) for r in rng.standard_normal((120, 120)).tolist()]
        self.small = [M + M.T for M in rng.standard_normal((20, 8, 8))]
        self.payload = {"x": rng.standard_normal(1500).tolist(), "q": {f"k{i}": float(i) for i in range(200)}}

    def run(self) -> float:
        t0 = perf_counter()
        for line in self.lines:
            [float(x) for x in line.split()]
        for _ in range(15):
            for M in self.small:
                np.linalg.eigvalsh(M)
                float(np.max(np.abs(M - M.T)))
                np.block([[M, M], [M, -M]])
        for _ in range(3):
            json.dumps(self.payload, indent=2, sort_keys=True)
        np.linalg.eigh(self.S)
        np.linalg.eigvalsh(self.S2)
        return perf_counter() - t0


class Calibration:
    """Times the kernel in the helper and turns raw times into reference-speed times."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.last = self.kernel()
        self.factors: list[float] = []

    def close(self) -> None:
        """Stop the helper and wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def kernel(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def factor(self) -> float:
        """Scale for the times measured since the previous kernel run."""
        now = self.kernel()
        f = REFERENCE_S / (0.5 * (self.last + now))
        self.last = now
        self.factors.append(f)
        return f


def serve() -> None:
    """Answer each input line with one kernel time, until end of input."""
    kernel = Kernel()
    kernel.run()  # numpy's first calls load and dispatch; not a measurement
    for _ in sys.stdin:
        print(repr(kernel.run()), flush=True)


if __name__ == "__main__":
    serve()
