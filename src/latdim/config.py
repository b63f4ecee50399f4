"""Numerical tolerances (the settable ones and every fixed check bound) and size bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import InputError


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs, each finite and non-negative (InputError otherwise).

    tol_unit and tol_id are absolute. tol_psd and tol_frame are relative
    factors: PSD checks scale tol_psd by max(1, operator norm) and frame
    checks scale tol_frame by the upper frame bound.
    """

    tol_unit: float = 1e-9
    tol_id: float = 1e-9
    tol_psd: float = 1e-9
    tol_frame: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 <= value < math.inf:  # false on NaN too
                raise InputError(f"{f.name} must be finite and non-negative, got {value}")


DEFAULT_TOL = Tolerances()

# Fixed bounds of internal checks, each named once; "rel" bounds are
# scaled by max(1, size of the compared quantity) where they are applied.
WINDOW_NORM = 1e-9  # | |window| - 1 |
PHI_IDENTITY = 1e-9  # phi(e) vs dpi_vol (rel); phi vs dpi_vol delta_e in the scan
BLOCK_TRACE = 1e-8  # phi_oracle's Tr P / |lattice| vs dpi_vol (rel)
DENSITY_SLACK = 1e-9  # slack on dpi_vol <= n/d and dpi_vol >= n/d
PARSEVAL = 1e-8  # Parseval bounds vs 1, S^-1/2 commutation, basis orthonormality
FRAME_CONDITION = 1e6  # largest condition tightened: S^-1/2 errs by ~30 eps times it < PARSEVAL
ORTHOGONALITY = 1e-8  # Schur orthogonality relation (rel)
WAVELET = 1e-10  # wavelet intertwining and isometry
PSD_ASYMMETRY = 1e-8  # convolution operator asymmetry vs its 2-norm (rel)
CDIM_ASYMMETRY = 1e-9  # Phi asymmetry vs its largest entry (rel)
EIG_CUT = 1e-6  # relative gap that splits eigenvalue clusters in the irrep cut
CHARACTER_NORM = 1e-9  # character norm vs its nearest integer (rel)

# Bounds on request sizes, checked before the allocations they would cause.
TF_BASE = 16  # order of a time-frequency base; its group has TF_BASE**2 elements
SCAN_CELLS = 64  # n_max * d_max cells per lattice; a scan holds one row per lattice and cell
SCAN_ROWS = 1 << 20  # lattices x cells of a whole scan, each row a dict held in memory
SYSTEM_ENTRIES = 1 << 20  # (n |lattice|) x (d dim) entries of a constructed system

# Row blocks of the blocked checks hold about this many entries (256 KB
# complex) per temporary, so that each one stays in cache.  Each module
# that blocks (reps, cocycles, gabor, cli) reads it as its own ``_BLOCK``,
# which a test may shrink.
ROW_BLOCK = 1 << 14


def row_blocks(n: int, per_row: int, block: int) -> list[slice]:
    """Consecutive slices of range(n), each of about block / per_row rows."""
    step = max(1, block // per_row)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]
