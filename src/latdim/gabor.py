"""Time-frequency systems over finite abelian groups.

Builds the translation-modulation representation of a group times its
dual, scans every lattice for frame/Riesz/basis existence, and checks
the scan against the exact closed-form density predicate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cocycles import Cocycle, regularity, weyl_heisenberg
from .config import DENSITY_SLACK, PARSEVAL, PHI_IDENTITY
from .dimension import ModuleSpec, make_module_spec, phi
from .errors import BoundExceeded, ConsistencyError, InputError, check_residual
from .frames import (
    construct_parseval_generators,
    existence_decision,
    gram_matrix,
    multiwindow_system,
)
from .groups import DualGroup, FiniteGroup, Subgroup, all_subgroups, dual_group
from .reps import ProjectiveRep, is_irreducible, validate_rep

SCAN_COLUMNS = (
    "base",
    "group",
    "cocycle",
    "lattice_order",
    "n",
    "d",
    "dpi_vol",
    "frame",
    "riesz",
    "basis",
)


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


def build_tf(a: FiniteGroup, dual: DualGroup | None = None) -> TimeFrequencyGroup:
    """Construct the time-frequency data for an abelian base group.

    Validates the whole stack: twisted composition law, unitarity,
    irreducibility, and that only the identity class is regular for
    the twist.  Pass a precomputed dual to pin the coordinate basis;
    by default the largest-order-first decomposition is used.
    """
    if a.order > 16:
        raise BoundExceeded(
            f"base order {a.order} exceeds 16; the product group would "
            "be too large"
        )
    if dual is None:
        dual = dual_group(a)
    coc = weyl_heisenberg(a, dual)
    g = coc.group
    na = a.order

    mats = np.zeros((g.order, na, na), dtype=np.complex128)
    ts = np.arange(na)
    for gi in range(g.order):
        x, w = gi // na, gi % na
        # row t takes its value from position x^-1 t, scaled by the character
        cols = a.cayley[a.inverse[x], ts]
        mats[gi, ts, cols] = dual.pairing[w, ts]
    rep = ProjectiveRep(g, coc, na, mats)

    report = validate_rep(rep)
    if not report.ok:
        raise ConsistencyError(f"time-frequency rep invalid: {report.message}")
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


def _closed_form(
    base_order: int, lattice_order: int, n: int, d: int
) -> tuple[bool, bool, bool]:
    """Exact density predicate: compare |base|/|lattice| with n/d."""
    ratio = Fraction(base_order, lattice_order)
    bound = Fraction(n, d)
    return ratio <= bound, ratio >= bound, ratio == bound


def _scan_lattice(
    tf: TimeFrequencyGroup,
    sub: Subgroup,
    n_max: int,
    d_max: int,
    construct: bool,
    seed: int,
) -> list[dict]:
    spec = make_module_spec(tf.rep, sub)
    fn = phi(spec)
    dpi_vol = spec.dpi_vol

    delta_res = fn.values.copy()
    delta_res[spec.lattice_group.identity] -= dpi_vol
    check_residual(f"|phi - dpi_vol delta_e| on the lattice of order {sub.order}",
                   float(np.abs(delta_res).max()), PHI_IDENTITY)

    rows = []
    for n in range(1, n_max + 1):
        for d in range(1, d_max + 1):
            decision = existence_decision(spec, n, d, fn=fn)
            want_frame, want_riesz, want_basis = _closed_form(
                tf.base.order, sub.order, n, d
            )
            if (
                decision.frame != want_frame
                or decision.riesz != want_riesz
                or decision.basis != want_basis
            ):
                raise ConsistencyError(
                    f"decision disagrees with closed form at "
                    f"|lattice|={sub.order}, n={n}, d={d}: "
                    f"got ({decision.frame}, {decision.riesz}, "
                    f"{decision.basis}), want "
                    f"({want_frame}, {want_riesz}, {want_basis})"
                )
            if (
                construct
                and decision.frame
                and n * sub.order <= 2 * d * tf.base.order
            ):
                gens = construct_parseval_generators(
                    spec, n, d, seed=seed, fn=fn
                )
                if decision.basis:
                    _check_orthonormal(spec, gens)
            rows.append(
                {
                    "base": tf.base.label,
                    "group": tf.group.label,
                    "cocycle": tf.cocycle.label,
                    "lattice_order": sub.order,
                    "n": n,
                    "d": d,
                    "dpi_vol": dpi_vol,
                    "frame": "yes" if decision.frame else "no",
                    "riesz": "yes" if decision.riesz else "no",
                    "basis": "yes" if decision.basis else "no",
                }
            )
    return rows


def _check_orthonormal(spec: ModuleSpec, gens: np.ndarray) -> None:
    sys = multiwindow_system(spec.rep, spec.lattice, gens)
    gram = gram_matrix(sys)
    res = float(np.abs(gram - np.eye(gram.shape[0])).max())
    check_residual("orthonormality residual of a basis-cell construction", res, PARSEVAL)


def gabor_scan(
    tf: TimeFrequencyGroup,
    n_max: int,
    d_max: int,
    construct: bool = False,
    seed: int = 0,
) -> list[dict]:
    """Scan all lattices and all (n, d) up to the given limits.

    Every cell's decision is checked against the exact predicate
    |base|/|lattice| vs n/d; a mismatch raises immediately.  With
    ``construct`` the feasible cells of bounded size also get explicit
    Parseval generators built and verified.
    """
    rows: list[dict] = []
    for sub in all_subgroups(tf.group):
        rows.extend(_scan_lattice(tf, sub, n_max, d_max, construct, seed))
    return rows


def write_scan_csv(rows: list[dict], path: str) -> None:
    """RFC-4180 style output with a fixed header and stable formatting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SCAN_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["base"],
                    row["group"],
                    row["cocycle"],
                    row["lattice_order"],
                    row["n"],
                    row["d"],
                    f"{row['dpi_vol']:.12g}",
                    row["frame"],
                    row["riesz"],
                    row["basis"],
                ]
            )


def read_scan_csv(path: str) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != SCAN_COLUMNS:
            raise InputError(
                f"{path}: expected columns {','.join(SCAN_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        for i, raw in enumerate(reader, start=2):
            try:
                rows.append(
                    {
                        "base": raw["base"],
                        "group": raw["group"],
                        "cocycle": raw["cocycle"],
                        "lattice_order": int(raw["lattice_order"]),
                        "n": int(raw["n"]),
                        "d": int(raw["d"]),
                        "dpi_vol": float(raw["dpi_vol"]),
                        "frame": raw["frame"],
                        "riesz": raw["riesz"],
                        "basis": raw["basis"],
                    }
                )
            except (KeyError, ValueError) as exc:
                raise InputError(f"{path} line {i}: {exc}") from exc
            if rows[-1]["n"] < 1 or rows[-1]["d"] < 1:
                raise InputError(f"{path} line {i}: n and d must be at least 1")
    return rows


def audit_rows(rows: list[dict]) -> list[str]:
    """Density re-check of scan rows; returns human-readable violations."""
    problems = []
    for i, row in enumerate(rows):
        ratio = row["n"] / row["d"]
        dpi_vol = row["dpi_vol"]
        where = (
            f"row {i} ({row['base']}, |lattice|={row['lattice_order']}, "
            f"n={row['n']}, d={row['d']})"
        )
        # negated, so that a NaN dpi_vol read from a file is flagged
        if row["frame"] == "yes" and not dpi_vol <= ratio + DENSITY_SLACK:
            problems.append(f"{where}: frame despite dpi_vol > n/d")
        if row["riesz"] == "yes" and not dpi_vol >= ratio - DENSITY_SLACK:
            problems.append(f"{where}: riesz despite dpi_vol < n/d")
        basis = row["basis"] == "yes"
        both = row["frame"] == "yes" and row["riesz"] == "yes"
        if basis != both:
            problems.append(f"{where}: basis flag inconsistent with frame+riesz")
    return problems
