"""Soundness corpus: certificates judged against 60-digit eigenvalues at zero margin.

Each case is a saddle H = [[A, B], [B^T, -C]] and a gap certificate.  The
judge takes mpmath's 60-digit eigenvalues of the floating-point H, the
matrix the certificate was computed from, and lists those strictly inside
the certified open interval; a sound certificate leaves none.  A case that
fails today carries pytest.mark.xfail(strict=True, reason="ROADMAP item N"):
it reports as xfailed until a change mends it, and then fails until that
change takes the mark off.  Every case uses diagonal blocks, so every LAPACK
build returns the same certificate.
"""

import mpmath as mp
import numpy as np
import pytest

from gapcert import bounds
from gapcert.bounds import BlockSaddle, GapCertificate

EPS = np.finfo(float).eps
ITEM_11 = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 11")


def inside(cert: GapCertificate, S: BlockSaddle) -> list:
    """The 60-digit eigenvalues of S's floating-point H strictly inside cert's interval."""
    assert cert.claim == "excludes_all"
    lo, hi = map(float, cert.interval)
    with mp.workdps(60):
        eigs = mp.eigsy(mp.matrix(S.assemble().tolist()), eigvals_only=True)
        return [w for w in eigs if lo < w < hi]


@pytest.mark.parametrize(
    "A, B, C",
    [
        # A's eigenvalue -5e-11 passes validation as rounding and counts as a
        # null direction: (-1e-6, 1e-6) is certified, 9.99975000312e-7 lies inside
        pytest.param(
            np.diag([1.0, -5e-11]), np.diag([0.0, 1e-6]), np.diag([1.0, 0.0]), marks=ITEM_11, id="accepted-negative"
        ),
        # 1.5 eps on A's diagonal counts as zero: (-1, 1) is certified,
        # -0.99999999999999983 lies inside
        pytest.param(np.diag([1.0, 1.5 * EPS]), np.eye(2), np.diag([1.0, 0.0]), marks=ITEM_11, id="eps-as-null"),
    ],
)
def test_zero_dichotomy_on_accepted_null_directions(A, B, C):
    S = BlockSaddle(A, B, C)
    assert inside(bounds.zero_dichotomy_certificate(S), S) == []


def test_definite_diagonal_saddle_every_gap_certificate():
    # the control: C = A so kirsch applies, and A's and B's smallest entries sit
    # in different 2x2 blocks, so no end meets an eigenvalue +-sqrt(a^2 + b^2)
    A, B = np.diag([0.5, 1.0]), np.diag([3.0, 2.0])
    S = BlockSaddle(A, B, A)
    for cert in (
        bounds.diag_gap,
        bounds.stretch_certificate,
        bounds.hbinv_certificate,
        bounds.zero_dichotomy_certificate,
        bounds.kirsch_certificate,
        bounds.winklmeier_certificate,
    ):
        c = cert(S)
        assert c.interval[0] < 0.0 < c.interval[1], cert.__name__
        assert inside(c, S) == [], cert.__name__
