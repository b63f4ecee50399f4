"""Unit-modulus 2-cocycles on finite groups.

A table sigma satisfies sigma(x,y) sigma(xy,z) = sigma(x,yz) sigma(y,z) with
sigma(e,e) = 1. The validator additionally insists on sigma(e,x) =
sigma(x,e) = 1; that normalization is in fact forced by the identity, so
enforcing it only guards against numerically corrupted tables.

The conjugation-twisted companion
    tilde(x, y) = sigma(x, y) * conj(sigma(y, y^-1 x y))
drives the trace formulas downstream. Its three structural identities are
checked exhaustively by verify_tilde_identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .config import DEFAULT_TOL, Tolerances, row_blocks
from .config import ROW_BLOCK as _BLOCK
from .errors import ConsistencyError, DimensionMismatch, InputError, NotAbelian, worst_entry
from .groups import (
    ConjugacyData,
    DualGroup,
    FiniteGroup,
    Subgroup,
    conjugacy,
    direct_product,
    dual_group,
    subgroup_group,
)


_T = TypeVar("_T")


@dataclass(frozen=True, eq=False)
class Cocycle:
    """A cocycle table on a group, indexed [x, y] and read-only from construction on.

    A read-only ``table`` is kept as given; a writable one is copied first,
    so the caller's array stays writable and later writes to it change
    nothing here.  That is what lets ``regularity`` and
    ``algebra.center_valued_trace_table`` be computed once per cocycle and
    ``tol_id``, the one tolerance they read, and kept on it.  ``restrict``
    to the full lattice returns the cocycle itself, so there
    ``ModuleSpec.regular`` is G's own regularity report.
    """

    group: FiniteGroup
    table: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        if self.table.flags.writeable:
            table = self.table.copy()
            table.setflags(write=False)
            object.__setattr__(self, "table", table)
        object.__setattr__(self, "_kept", {})

    def kept(self, key: tuple, make: Callable[[], _T]) -> _T:
        """``make()`` on the first call with ``key``; the same object on every later one."""
        if key not in self._kept:
            self._kept[key] = make()
        return self._kept[key]


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    unit_residual: float
    identity_residual: float
    normalization_residual: float
    worst_triple: tuple[int, int, int]
    message: str


@dataclass(frozen=True)
class TildeReport:
    ok: bool
    residual_multiplicativity: float
    residual_inverse: float
    residual_class_constancy: float
    worst: dict

    def violated(self, tol: float = DEFAULT_TOL.tol_id) -> list[str]:
        names = []
        if not self.residual_multiplicativity <= tol:  # negated, so NaN is named
            names.append("tilde-multiplicativity")
        if not self.residual_inverse <= tol:
            names.append("tilde-inverse")
        if not self.residual_class_constancy <= tol:
            names.append("tilde-class-constancy")
        return names


@dataclass(frozen=True, eq=False)
class RegularityReport:
    regular_elements: np.ndarray
    regular_classes: np.ndarray
    kleppner: bool
    conjugacy: ConjugacyData


def trivial(group: FiniteGroup) -> Cocycle:
    table = np.ones((group.order, group.order), dtype=np.complex128)
    table.setflags(write=False)
    return Cocycle(group, table, label="trivial")


def validate(c: Cocycle, tol: Tolerances = DEFAULT_TOL) -> CocycleReport:
    g = c.group
    n = g.order
    t = np.asarray(c.table)
    if t.shape != (n, n):
        raise DimensionMismatch(f"cocycle table shape {t.shape} for group of order {n}")

    unit_res = float(np.abs(np.abs(t) - 1.0).max())

    e = g.identity
    norm_res = float(max(np.abs(t[e, :] - 1.0).max(), np.abs(t[:, e] - 1.0).max()))

    def identity_gap(x):  # [y, z]
        lhs = t[x][:, None] * t[g.cayley[x]]  # sigma(x, y) sigma(xy, z)
        rhs = t[x][g.cayley] * t              # sigma(x, yz) sigma(y, z)
        return np.abs(lhs - rhs)

    id_res, worst = worst_entry(n, identity_gap)

    ok = unit_res <= tol.tol_unit and id_res <= tol.tol_id and norm_res <= tol.tol_id
    if ok:
        msg = "ok"
    elif not unit_res <= tol.tol_unit:  # negated, so a NaN entry is reported here
        msg = f"entry modulus off by {unit_res:.3e}"
    elif not id_res <= tol.tol_id:
        msg = f"cocycle identity fails at triple {worst} with residual {id_res:.3e}"
    else:
        msg = f"identity-row normalization off by {norm_res:.3e}"
    return CocycleReport(ok, unit_res, id_res, norm_res, worst, msg)


def conjugate_cocycle(c: Cocycle) -> Cocycle:
    table = np.conj(c.table)
    table.setflags(write=False)
    return Cocycle(c.group, table, label=f"conj({c.label})" if c.label else "conj")


def tilde_table(c: Cocycle) -> np.ndarray:
    """Full table of the conjugation-twisted cocycle, indexed [x, y]."""
    return c.table * np.conj(c.table[np.arange(c.group.order), c.group.conjugation])


def tilde(c: Cocycle, x: int, y: int) -> complex:
    return complex(c.table[x, y] * np.conj(c.table[y, c.group.conjugate(x, y)]))


def verify_tilde_identities(c: Cocycle, tol: Tolerances = DEFAULT_TOL) -> TildeReport:
    g = c.group
    n = g.order
    tt = tilde_table(c)
    ci = g.conjugation
    idx = np.arange(n)

    def multiplicativity_gap(x):  # [y, z]
        lhs = tt[x][g.cayley]             # tilde(x, y z)
        rhs = tt[x][:, None] * tt[ci[x]]  # tilde(x, y) tilde(y^-1 x y, z)
        return np.abs(lhs - rhs)

    res1, w1 = worst_entry(n, multiplicativity_gap)

    # inverse: tilde(x, y^-1) = conj(tilde(y x y^-1, y))
    x2 = idx[:, None]
    y2 = idx[None, :]
    yinv = g.inverse[y2]
    fwd_conj = ci[x2, yinv]          # y x y^-1
    d2 = np.abs(tt[x2, yinv] - np.conj(tt[fwd_conj, y2]))
    res2 = float(d2.max())
    w2 = tuple(int(v) for v in np.unravel_index(int(np.argmax(d2)), d2.shape))

    # class constancy on regular elements: same conjugate means same value,
    # compared against the first y of each (x, conjugate) pair
    xs = np.flatnonzero(regularity(c, tol).regular_elements)
    keys = (xs[:, None] * n + ci[xs]).ravel()
    _, first, pair = np.unique(keys, return_index=True, return_inverse=True)
    vals = tt[xs].ravel()
    d3 = np.abs(vals - vals[first][pair])
    at = int(np.argmax(d3))
    res3 = float(d3[at])
    w3: tuple = ()
    if not res3 <= 0:  # negated, so a NaN is placed too
        x, y = int(xs[at // n]), at % n
        w3 = (x, y, int(ci[x, y]))

    bar = tol.tol_id
    ok = res1 <= bar and res2 <= bar and res3 <= bar
    return TildeReport(ok, res1, res2, res3,
                       {"multiplicativity": w1, "inverse": w2, "class_constancy": w3})


def regularity(c: Cocycle, tol: Tolerances = DEFAULT_TOL) -> RegularityReport:
    """Regular elements and classes of one cocycle, kept per cocycle and ``tol.tol_id``.

    An element is regular when sigma(x, y) = sigma(y, x) for every y in its
    centralizer; kleppner is true when the identity class is the only regular
    one.  One pass over the group's Cayley and cocycle tables, in blocks of
    rows of about ``_BLOCK`` entries each, asserts that regularity is constant
    on conjugacy classes and holds at the identity.  Later calls with the same
    cocycle and ``tol.tol_id`` return the first call's report.
    """
    return c.kept(("regularity", tol.tol_id), lambda: _regularity(c, tol.tol_id))


def _regularity(c: Cocycle, tol_id: float) -> RegularityReport:
    g = c.group
    cj = conjugacy(g)
    regular = np.empty(g.order, dtype=bool)
    for xs in row_blocks(g.order, g.order, _BLOCK):
        # the asymmetry stays inline, so no block's temporaries live on into the next block
        comm = g.cayley[xs] == g.cayley[:, xs].T
        regular[xs] = ~np.any(comm & (np.abs(c.table[xs] - c.table[:, xs].T) > tol_id), axis=1)
    off = regular[cj.least[cj.class_of]] != regular
    if off.any():
        raise ConsistencyError(f"regularity not constant on class {cj.class_of[off].min()}")
    if not regular[g.identity]:
        raise ConsistencyError("identity class must be regular")
    regular_classes = regular[cj.least]
    kleppner = bool(regular_classes.sum() == 1)
    regular.setflags(write=False)
    regular_classes.setflags(write=False)
    return RegularityReport(regular, regular_classes, kleppner, cj)


def weyl_heisenberg(a: FiniteGroup, dual: DualGroup | None = None) -> Cocycle:
    """Time-frequency cocycle on a x a^ for a finite abelian base.

    With elements g = (x, w) indexed base-major, the table is
    sigma((x, w), (x', w')) = conj(w'(x)).
    """
    if not a.is_abelian():
        raise NotAbelian("weyl_heisenberg needs an abelian base")
    if dual is None:
        dual = dual_group(a)
    big = direct_product(a, dual.group)
    nd = dual.group.order
    gidx = np.arange(big.order)
    x1 = gidx[:, None] // nd
    w2 = gidx[None, :] % nd
    table = np.conj(dual.pairing)[w2, x1]
    table.setflags(write=False)
    return Cocycle(big, table, label="weyl-heisenberg")


def restricted_tables(c: Cocycle, elems: np.ndarray) -> np.ndarray:
    """Cocycle tables of a block of equal-order subgroups, shape (B, m, m).

    Row b of ``elems`` holds one subgroup's elements in increasing order,
    indexed as ``subgroup_tables`` indexes them.
    """
    return c.table[elems[:, :, None], elems[:, None, :]]


def restrict(c: Cocycle, h: Subgroup) -> Cocycle:
    """Restriction to a subgroup, reindexed on the materialized subgroup.

    The whole group is its own materialization, so its restriction is
    ``c`` itself and shares its tables.
    """
    if h.parent is not c.group:
        raise InputError("subgroup does not belong to the cocycle's group")
    if h.order == c.group.order:
        return c
    table = restricted_tables(c, h.members[None])[0]
    table.setflags(write=False)
    lbl = f"{c.label}|{h.order}" if c.label else f"restricted|{h.order}"
    return Cocycle(subgroup_group(h), table, label=lbl)
