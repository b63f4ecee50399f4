"""Time-frequency systems over finite abelian groups.

Builds the translation-modulation representation of a group times its
dual, scans every lattice for frame/Riesz/basis existence, and checks
the scan against the exact closed-form density predicate.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cocycles import Cocycle, regularity, weyl_heisenberg
from .config import ROW_BLOCK as _BLOCK
from .config import (DEFAULT_TOL, DENSITY_SLACK, PHI_IDENTITY, SCAN_CELLS, SCAN_ROWS, TF_BASE,
                     Tolerances)
from .dimension import (WindowedRep, _scalar_rows, off_identity_peaks, phi_spectra, phi_values,
                        windowed_rep)
from .errors import BoundExceeded, ConsistencyError, InputError, check_residual
from .frames import construct_parseval_generators, decision_grids
from .groups import DualGroup, FiniteGroup, Subgroup, dual_group, subgroup_blocks
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

    @cached_property
    def windowed(self) -> WindowedRep:
        """``rep`` with its default window, built once and read by every scan."""
        return windowed_rep(self.rep)


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


def _chunks(blocks: list[np.ndarray], cap: int):
    """The rows of ``blocks`` in order, in runs of at most ``cap`` element entries.

    Each run is a list of slices of consecutive order blocks and holds at
    least one lattice, so a run may cross orders and an order may span runs.
    """
    chunk, used = [], 0
    for block in blocks:
        m, start = block.shape[1], 0
        while start < len(block):
            take = min(len(block) - start, max(0 if chunk else 1, (cap - used) // m))
            if take:
                chunk.append(block[start:start + take])
                start, used = start + take, used + take * m
            if start < len(block):
                yield chunk
                chunk, used = [], 0
    if chunk:
        yield chunk


def _scan_chunk(tf: TimeFrequencyGroup, segments: list[np.ndarray], n_max: int, d_max: int,
                construct: bool, seed: int) -> list[dict]:
    """Scan rows of a run of lattices, one (B, order) slice per order, in scan order."""
    g, source = tf.group, tf.windowed
    values = [phi_values(source, elems) for elems in segments]
    counts = [len(elems) for elems in segments]
    firsts = np.cumsum([0, *counts[:-1]])  # each slice's first lattice in the run
    orders = np.repeat([elems.shape[1] for elems in segments], counts)
    dpi_vol = source.rep.dim / orders
    flat = np.concatenate([v.ravel() for v in values])
    identity = np.flatnonzero(np.concatenate([elems.ravel() for elems in segments]) == g.identity)
    starts = np.cumsum(orders) - orders
    at_e = flat[identity]

    peaks = off_identity_peaks(flat, identity, starts)
    residual = np.maximum(np.abs(at_e - dpi_vol), peaks)
    b = np.argmin(residual <= PHI_IDENTITY)  # the first lattice that fails, or 0
    check_residual(f"|phi - dpi_vol delta_e| on the lattice of order {orders[b]}", residual[b],
                   PHI_IDENTITY)

    # Phi is Re(phi(e) sigma(e, e)) I wherever phi lives on {e}; only the other
    # lattices' spectra are solved, by order.  The verdicts read the ends alone.
    trivial, scalar = _scalar_rows(peaks, at_e, tf.cocycle.table[g.identity, g.identity])
    ends = np.empty((len(orders), 2))
    ends[trivial] = scalar[:, None]
    if not trivial.all():
        for elems, v, at in zip(segments, values, firsts):
            solve = np.flatnonzero(~trivial[at:at + len(elems)])
            if solve.size:
                ends[at + solve] = phi_spectra(v[solve], elems[solve], tf.cocycle)[:, [0, -1]]
    frame, riesz = decision_grids(ends, n_max, d_max, source.rep.tol)

    # n |lattice| - d |base| has the sign of n/d - |base|/|lattice|: the exact
    # density predicate every verdict must match
    ns, ds = np.arange(1, n_max + 1)[:, None], np.arange(1, d_max + 1)
    excess = ns * orders[:, None, None] - ds * tf.base.order
    bad = np.flatnonzero((frame != (excess >= 0)) | (riesz != (excess <= 0)))
    if bad.size:
        b, i, j = np.unravel_index(bad[0], frame.shape)
        f, r, e = bool(frame[b, i, j]), bool(riesz[b, i, j]), int(excess[b, i, j])
        raise ConsistencyError(
            f"decision disagrees with closed form at |lattice|={orders[b]}, "
            f"n={i + 1}, d={j + 1}: got {(f, r, f and r)}, want {(e >= 0, e <= 0, e == 0)}"
        )

    if construct:
        # feasible cells of bounded size: n |lattice| <= 2 d |base|; on a basis
        # cell the Parseval check is the orthonormality check
        feasible = frame & (excess <= ds * tf.base.order)
        for row, cells in zip(itertools.chain.from_iterable(segments), feasible):
            if cells.any():
                spec = source.spec(Subgroup(g, row))
                for i, j in zip(*np.nonzero(cells)):
                    construct_parseval_generators(spec, int(i) + 1, int(j) + 1, seed=seed)

    # past the closed-form check every lattice of one order has the same verdicts:
    # nine template rows per order (at the default 3 x 3 cells), copied per lattice
    base, group, cocycle = tf.base.label, g.label, tf.cocycle.label
    cells = list(itertools.product(range(1, n_max + 1), range(1, d_max + 1)))
    yes = ("no", "yes")
    rows: list[dict] = []
    for elems, fs, rs in zip(segments, frame[firsts].reshape(len(firsts), -1).tolist(),
                             riesz[firsts].reshape(len(firsts), -1).tolist()):
        order = elems.shape[1]
        dpi = source.rep.dim / order
        template = [
            {"base": base, "group": group, "cocycle": cocycle, "lattice_order": order, "n": n,
             "d": d, "dpi_vol": dpi, "frame": yes[f], "riesz": yes[r], "basis": yes[f and r]}
            for (n, d), f, r in zip(cells, fs, rs)
        ]
        rows.extend(map(dict, template * len(elems)))
    return rows


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
    of ``subgroup_blocks`` and are decided in runs of at most ``_BLOCK``
    element entries, one pass per run across its orders.
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
    rows: list[dict] = []
    for segments in _chunks(blocks, _BLOCK):
        rows.extend(_scan_chunk(tf, segments, n_max, d_max, construct, seed))
    return rows


def write_scan_csv(rows: list[dict], path: str) -> None:
    """RFC-4180 style output with a fixed header and stable formatting."""
    fields = operator.itemgetter(*SCAN_COLUMNS)
    (at,) = (i for i, parse in enumerate(SCAN_COLUMNS.values()) if parse is float)

    def formatted(row: dict) -> list:
        out = list(fields(row))
        out[at] = f"{out[at]:.12g}"
        return out

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCAN_COLUMNS)
        writer.writerows(map(formatted, rows))


def read_scan_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or tuple(reader.fieldnames) != tuple(SCAN_COLUMNS):
                raise InputError(f"{path}: expected columns {','.join(SCAN_COLUMNS)}, "
                                 f"got {reader.fieldnames}")
            for raw in reader:
                line = reader.line_num  # the physical line, past any quoted newline
                # DictReader fills a short row with None and files extras under None
                if None in raw or None in raw.values():
                    raise InputError(f"{path} line {line}: expected {len(SCAN_COLUMNS)} fields")
                try:
                    row = {key: parse(raw[key]) for key, parse in SCAN_COLUMNS.items()}
                except (KeyError, ValueError) as exc:
                    raise InputError(f"{path} line {line}: {exc}") from exc
                if row["n"] < 1 or row["d"] < 1:
                    raise InputError(f"{path} line {line}: n and d must be at least 1")
                if not np.isfinite(row["dpi_vol"]):
                    raise InputError(f"{path} line {line}: dpi_vol must be finite")
                for key in ("frame", "riesz", "basis"):
                    if row[key] not in ("yes", "no"):
                        raise InputError(f"{path} line {line}: {key} must be yes or no, "
                                         f"got {row[key]!r}")
                rows.append(row)
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise InputError(f"{path} line {reader.reader.line_num}: {exc}") from None
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
