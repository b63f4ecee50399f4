"""Numerical tolerances: the settable ones and every fixed check bound."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Tolerance knobs.

    tol_unit and tol_id are absolute. tol_psd and tol_frame are relative
    factors: PSD checks scale tol_psd by max(1, operator norm) and frame
    checks scale tol_frame by the upper frame bound.
    """

    tol_unit: float = 1e-9
    tol_id: float = 1e-9
    tol_psd: float = 1e-9
    tol_frame: float = 1e-8


DEFAULT_TOL = Tolerances()

# Fixed bounds of internal checks, each named once; "rel" bounds are
# scaled by max(1, size of the compared quantity) where they are applied.
WINDOW_NORM = 1e-9  # | |window| - 1 |
PHI_IDENTITY = 1e-9  # phi(e) vs dpi_vol (rel); phi vs dpi_vol delta_e in the scan
BLOCK_TRACE = 1e-8  # phi_oracle's diagonal block trace vs dpi_vol (rel)
DENSITY_SLACK = 1e-9  # slack on dpi_vol <= n/d and dpi_vol >= n/d
PARSEVAL = 1e-8  # Parseval bounds vs 1, S^-1/2 commutation, basis orthonormality
ORTHOGONALITY = 1e-8  # Schur orthogonality relation (rel)
WAVELET = 1e-10  # wavelet intertwining and isometry
PSD_ASYMMETRY = 1e-8  # convolution operator asymmetry vs its 2-norm (rel)
CDIM_ASYMMETRY = 1e-9  # Phi asymmetry vs its largest entry (rel)
EIG_CUT = 1e-6  # relative eigenvalue cut: fixed-space null space, irrep clusters
FIXED_RESIDUAL = 1e-7  # |U v - v| a fixed-space candidate may keep
