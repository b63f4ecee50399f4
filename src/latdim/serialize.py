"""File formats: Cayley tables as text, everything else as JSON.

Complex arrays are stored as nested lists of [re, im] pairs so the
files stay valid JSON and round-trip exactly at double precision.
"""

from __future__ import annotations

import json

import numpy as np

from .cocycles import Cocycle, validate
from .config import DEFAULT_TOL, Tolerances
from .errors import InputError
from .groups import FiniteGroup, from_cayley_table
from .reps import ProjectiveRep, projective_rep


def complex_to_pairs(arr: np.ndarray) -> list:
    """Nested [re, im] lists matching the array's shape."""
    stacked = np.stack([np.real(arr), np.imag(arr)], axis=-1)
    return stacked.tolist()


def pairs_to_complex(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric
        raise InputError(f"complex data must be nested [re, im] pairs: {exc}") from None
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise InputError("complex data must be nested [re, im] pairs")
    if np.isinf(arr).any():  # a NaN is kept: the validators report it as a residual
        raise InputError("complex data holds an infinite number")
    return arr[..., 0] + 1j * arr[..., 1]


def _typed(what: str, value, kind: type):
    """``value`` unless it is a JSON value of another type than ``kind``; null passes."""
    # type() rather than isinstance: JSON true is not a count
    if value is None or type(value) is kind or (kind is float and type(value) is int):
        return value
    name = "number" if kind is float else kind.__name__
    raise InputError(f"{what} must be a JSON {name}, got {value!r}")


def read_cayley_text(path: str) -> FiniteGroup:
    """Parse the plain-text table format: `order n`, then n index rows."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InputError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "order":
        raise InputError(f"{path} line 1: expected `order n`, got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise InputError(f"{path} line 1: bad order {head[1]!r}") from exc
    if len(lines) != n + 1:
        raise InputError(
            f"{path}: expected {n} table rows, found {len(lines) - 1}"
        )
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != n:
            raise InputError(
                f"{path} line {i}: expected {n} entries, found {len(parts)}"
            )
        try:
            rows.append([int(p) for p in parts])
        except ValueError as exc:
            raise InputError(f"{path} line {i}: {exc}") from exc
    return from_cayley_table(np.array(rows, dtype=np.int64))


def write_cayley_text(g: FiniteGroup, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(f"order {g.order}\n")
        for row in g.cayley:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "cayley": g.cayley.tolist(),
        "label": g.label,
    }


def group_from_json(data: dict) -> FiniteGroup:
    try:
        table = np.array(data["cayley"])
        label = data.get("label", "")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad group record: {exc}") from exc
    if table.size and table.dtype.kind != "i":  # a cast to int64 would truncate 1.7 to 1
        raise InputError("bad group record: every Cayley entry must be an integer")
    return from_cayley_table(table, label=label)


def cocycle_to_json(c: Cocycle) -> dict:
    return {
        "group": group_to_json(c.group),
        "table": complex_to_pairs(c.table),
        "label": c.label,
    }


def cocycle_from_json(data: dict, check: bool = True, tol: Tolerances = DEFAULT_TOL) -> Cocycle:
    try:
        g = group_from_json(data["group"])
        table = np.ascontiguousarray(pairs_to_complex(data["table"]))
        label = data.get("label", "")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad cocycle record: {exc}") from exc
    table.setflags(write=False)  # freshly parsed, so the cocycle keeps it without a copy
    c = Cocycle(g, table, label)
    if check:
        report = validate(c, tol)
        if not report.ok:
            raise InputError(f"cocycle table invalid: {report.message}")
    return c


def rep_to_json(rep: ProjectiveRep) -> dict:
    return {
        "cocycle": cocycle_to_json(rep.cocycle),
        "dim": rep.dim,
        "matrices": complex_to_pairs(rep.matrices),
    }


def rep_from_json(data: dict, check: bool = True, tol: Tolerances = DEFAULT_TOL) -> ProjectiveRep:
    """The stored rep, validated at ``tol`` (which it keeps for its report) if ``check``."""
    try:
        coc = cocycle_from_json(data["cocycle"], check=check, tol=tol)
        mats = pairs_to_complex(data["matrices"])
        dim = _typed("header dim", data["dim"], int)
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad rep record: {exc}") from exc
    rep = projective_rep(coc.group, coc, mats, tol)
    if rep.dim != dim:
        raise InputError(f"rep matrices are {rep.dim} x {rep.dim}, header says dim {dim!r}")
    if check and not rep.report.ok:
        raise InputError(f"rep matrices invalid: {rep.report.message}")
    return rep


def generators_to_json(gens: np.ndarray) -> dict:
    gens = np.asarray(gens)
    return {
        "n": int(gens.shape[0]),
        "d": int(gens.shape[1]),
        "dim": int(gens.shape[2]),
        "generators": complex_to_pairs(gens),
    }


def generators_from_json(data: dict) -> np.ndarray:
    try:
        gens = pairs_to_complex(data["generators"])
        shape = tuple(_typed(f"header {key}", data[key], int) for key in ("n", "d", "dim"))
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad generators record: {exc}") from exc
    if gens.shape != shape:
        raise InputError(
            f"generator data has shape {gens.shape}, header says {shape}"
        )
    return gens


def dump_json(data: dict, path: str) -> None:
    text = json.dumps(data, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (RecursionError, ValueError) as exc:  # too deep a nesting; bad JSON, too long an integer
        raise InputError(f"{path}: {exc}") from exc
