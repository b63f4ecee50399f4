"""Time-frequency systems over finite abelian groups.

Builds the translation-modulation representation of a group times its
dual, scans every lattice for frame/Riesz/basis existence, and checks
the scan against the exact closed-form density predicate.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from .cocycles import Cocycle, regularity, restricted_tables, weyl_heisenberg
from .config import (DEFAULT_TOL, DENSITY_SLACK, PHI_IDENTITY, SCAN_CELLS, SCAN_ROWS, TF_BASE,
                     Tolerances)
from .dimension import WindowedRep, off_identity_peaks, phi_spectra, phi_values, windowed_rep
from .errors import BoundExceeded, ConsistencyError, InputError, check_residual
from .frames import construct_parseval_generators, decision_grids
from .groups import (DualGroup, FiniteGroup, Subgroup, block_slices, dual_group, subgroup_blocks,
                     subgroup_tables)
from .reps import ProjectiveRep, is_irreducible


def _text(field: str) -> str:
    """Text columns are kept exactly as read."""
    return field


# every scan CSV column in order, with the parser that reads it back
SCAN_COLUMNS = {
    "base": _text,
    "group": _text,
    "cocycle": _text,
    "lattice_order": int,
    "n": int,
    "d": int,
    "dpi_vol": float,
    "frame": _text,
    "riesz": _text,
    "basis": _text,
}


@dataclass(frozen=True)
class TimeFrequencyGroup:
    """A finite abelian group with its dual, twist, and standard rep.

    The rep acts on functions over the base group: the base part
    translates, the dual part modulates.  Formal dimension under
    counting measure is 1/|base|.
    """

    base: FiniteGroup
    dual: DualGroup
    group: FiniteGroup
    cocycle: Cocycle
    rep: ProjectiveRep

    @property
    def dpi_counting(self) -> float:
        return 1.0 / self.base.order


def build_tf(a: FiniteGroup, dual: DualGroup | None = None,
             tol: Tolerances = DEFAULT_TOL) -> TimeFrequencyGroup:
    """Construct the time-frequency data for an abelian base group.

    Validates the whole stack: twisted composition law and unitarity at
    ``tol``, which the rep carries, irreducibility, and that only the
    identity class is regular for the twist at the default tolerances.
    That last check tests this construction, not ``tol``: the twist is
    Kleppner on every finite abelian base, the pairing being nondegenerate;
    ``tol`` governs the rep's validation and regular masks.
    A rep that fails validation at a ``tol`` other than the default is
    bad input (InputError); at the default it is an internal fault.
    Pass a precomputed dual to pin the coordinate basis; by default the
    largest-order-first decomposition is used.
    """
    if a.order > TF_BASE:
        raise BoundExceeded(
            f"base order {a.order} exceeds {TF_BASE}; the product group would be too large"
        )
    if dual is None:
        dual = dual_group(a)
    coc = weyl_heisenberg(a, dual)
    g = coc.group
    na = a.order

    mats = np.zeros((g.order, na, na), dtype=np.complex128)
    # element (x, w), row t takes its value from position x^-1 t, scaled by
    # the character w at t
    x, w, t = np.ix_(np.arange(na), np.arange(na), np.arange(na))
    mats.reshape(na, na, na, na)[x, w, t, a.cayley[a.inverse[x], t]] = dual.pairing[w, t]
    rep = ProjectiveRep(g, coc, na, mats, tol)

    if not rep.report.ok:
        if tol != DEFAULT_TOL:
            raise InputError(
                f"time-frequency rep fails validation at the given {tol}: {rep.report.message}"
            )
        raise ConsistencyError(f"time-frequency rep invalid: {rep.report.message}")
    irr, cdim = is_irreducible(rep)
    if not irr:
        raise ConsistencyError(
            f"time-frequency rep has commutant dimension {cdim}"
        )
    if not regularity(coc).kleppner:
        raise ConsistencyError(
            "time-frequency cocycle admits a nonidentity regular class"
        )
    return TimeFrequencyGroup(a, dual, g, coc, rep)


def _scan_block(tf: TimeFrequencyGroup, source: WindowedRep, elems: np.ndarray, n_max: int,
                d_max: int, construct: bool, seed: int) -> list[dict]:
    """Scan rows of a (B, order) block of lattices, one per row, in the block's order."""
    order = elems.shape[1]
    dpi_vol = source.rep.dim / order
    cayley, _, identity = subgroup_tables(tf.group, elems)
    table = restricted_tables(tf.cocycle, elems)
    values = phi_values(source, elems)

    at_identity = np.abs(values.ravel()[identity] - dpi_vol)
    check_residual(f"|phi - dpi_vol delta_e| on the lattice of order {order}",
                   np.maximum(at_identity, off_identity_peaks(values, identity)), PHI_IDENTITY)

    # n |lattice| - d |base| has the sign of n/d - |base|/|lattice|: the exact
    # density predicate every verdict must match
    ns, ds = np.arange(1, n_max + 1)[:, None], np.arange(1, d_max + 1)
    excess = ns * order - ds * tf.base.order
    spectra = phi_spectra(values, cayley, table, identity)
    frame, riesz = decision_grids(spectra, n_max, d_max, source.rep.tol)
    bad = np.flatnonzero((frame != (excess >= 0)) | (riesz != (excess <= 0)))
    if bad.size:
        i, j = divmod(int(bad[0]) % excess.size, d_max)
        f, r = bool(frame.flat[bad[0]]), bool(riesz.flat[bad[0]])
        e = int(excess[i, j])
        raise ConsistencyError(
            f"decision disagrees with closed form at |lattice|={order}, "
            f"n={i + 1}, d={j + 1}: got {(f, r, f and r)}, want {(e >= 0, e <= 0, e == 0)}"
        )

    if construct:
        # feasible cells of bounded size: n |lattice| <= 2 d |base|; on a basis
        # cell the Parseval check is the orthonormality check
        small = excess <= ds * tf.base.order
        for row, feasible in zip(elems, frame & small):
            if feasible.any():
                spec = source.spec(Subgroup(tf.group, row))
                for i, j in zip(*np.nonzero(feasible)):
                    construct_parseval_generators(spec, int(i) + 1, int(j) + 1, seed=seed)

    # past the closed-form check every lattice of the block has the same verdicts
    head = {"base": tf.base.label, "group": tf.group.label, "cocycle": tf.cocycle.label,
            "lattice_order": order}
    cells = itertools.product(range(1, n_max + 1), range(1, d_max + 1))
    rows = [
        {**head, "n": n, "d": d, "dpi_vol": dpi_vol, "frame": "yes" if f else "no",
         "riesz": "yes" if r else "no", "basis": "yes" if f and r else "no"}
        for (n, d), f, r in zip(cells, frame[0].ravel().tolist(), riesz[0].ravel().tolist())
    ]
    return [dict(row) for _ in range(len(elems)) for row in rows]


def gabor_scan(
    tf: TimeFrequencyGroup,
    n_max: int,
    d_max: int,
    construct: bool = False,
    seed: int = 0,
) -> list[dict]:
    """Scan all lattices and all (n, d) up to the given limits.

    Every cell's decision, at the tolerances of ``tf.rep``, is checked
    against the exact predicate |base|/|lattice| vs n/d; a mismatch
    raises immediately.  More than SCAN_CELLS cells per lattice raise
    BoundExceeded before any lattice is enumerated, and more than
    SCAN_ROWS rows in all before any lattice is decided.  With
    ``construct`` the feasible cells of bounded size also get explicit
    Parseval generators built and verified.  Lattices come in the order
    of ``subgroup_blocks``, and each order's block is decided in the
    slices of ``block_slices``.
    """
    if n_max * d_max > SCAN_CELLS:
        raise BoundExceeded(
            f"{n_max} x {d_max} cells per lattice exceed the scan bound of {SCAN_CELLS}"
        )
    blocks = subgroup_blocks(tf.group)
    lattices = sum(len(block) for block in blocks)
    if lattices * n_max * d_max > SCAN_ROWS:
        raise BoundExceeded(
            f"{lattices} lattices x {n_max * d_max} cells exceed the scan bound "
            f"of {SCAN_ROWS} rows"
        )
    source = windowed_rep(tf.rep)
    rows: list[dict] = []
    for elems in block_slices(blocks):
        rows.extend(_scan_block(tf, source, elems, n_max, d_max, construct, seed))
    return rows


def write_scan_csv(rows: list[dict], path: str) -> None:
    """RFC-4180 style output with a fixed header and stable formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCAN_COLUMNS)
        for row in rows:
            writer.writerow(
                f"{row[key]:.12g}" if parse is float else row[key]
                for key, parse in SCAN_COLUMNS.items()
            )


def read_scan_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != tuple(SCAN_COLUMNS):
            raise InputError(
                f"{path}: expected columns {','.join(SCAN_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        for i, raw in enumerate(reader, start=2):
            # DictReader fills a short row with None and files extras under None
            if None in raw or None in raw.values():
                raise InputError(f"{path} line {i}: expected {len(SCAN_COLUMNS)} fields")
            try:
                row = {key: parse(raw[key]) for key, parse in SCAN_COLUMNS.items()}
            except (KeyError, ValueError) as exc:
                raise InputError(f"{path} line {i}: {exc}") from exc
            if row["n"] < 1 or row["d"] < 1:
                raise InputError(f"{path} line {i}: n and d must be at least 1")
            if not np.isfinite(row["dpi_vol"]):
                raise InputError(f"{path} line {i}: dpi_vol must be finite")
            for key in ("frame", "riesz", "basis"):
                if row[key] not in ("yes", "no"):
                    raise InputError(
                        f"{path} line {i}: {key} must be yes or no, got {row[key]!r}"
                    )
            rows.append(row)
    return rows


def audit_rows(rows: list[dict]) -> list[str]:
    """Density re-check of scan rows; returns human-readable violations."""
    problems = []
    for i, row in enumerate(rows):
        ratio = row["n"] / row["d"]
        dpi_vol = row["dpi_vol"]
        found = []
        # negated, so that a NaN dpi_vol is flagged
        if row["frame"] == "yes" and not dpi_vol <= ratio + DENSITY_SLACK:
            found.append("frame despite dpi_vol > n/d")
        if row["riesz"] == "yes" and not dpi_vol >= ratio - DENSITY_SLACK:
            found.append("riesz despite dpi_vol < n/d")
        if (row["basis"] == "yes") != (row["frame"] == "yes" and row["riesz"] == "yes"):
            found.append("basis flag inconsistent with frame+riesz")
        if found:
            where = (f"row {i} ({row['base']}, |lattice|={row['lattice_order']}, "
                     f"n={row['n']}, d={row['d']})")
            problems.extend(f"{where}: {what}" for what in found)
    return problems
