"""Certified spectral gaps at zero for Hermitian block saddle matrices.

Import names from their module: `gapcert.bounds`, `gapcert.stokes`,
`gapcert.model`, `gapcert.linalg`, `gapcert.matio` and `gapcert.errors`;
`gapcert.cli` is the command line.
"""

__version__ = "0.1.0"
