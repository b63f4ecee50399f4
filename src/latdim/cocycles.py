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

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConsistencyError, DimensionMismatch, InputError, NotAbelian
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


@dataclass(frozen=True, eq=False)
class Cocycle:
    group: FiniteGroup
    table: np.ndarray
    label: str = ""

    def value(self, x: int, y: int) -> complex:
        return complex(self.table[x, y])


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

    # one x at a time keeps memory O(n^2); the first strict maximum in
    # (x, y, z) order is the worst triple
    id_res, worst = 0.0, (0, 0, 0)
    for x in range(n):
        lhs = t[x][:, None] * t[g.cayley[x]]  # [y, z] = sigma(x, y) sigma(xy, z)
        rhs = t[x][g.cayley] * t              # [y, z] = sigma(x, yz) sigma(y, z)
        diff = np.abs(lhs - rhs)
        at = int(np.argmax(diff))
        if diff.flat[at] > id_res:
            id_res = float(diff.flat[at])
            worst = (x, *map(int, np.unravel_index(at, diff.shape)))

    ok = unit_res <= tol.tol_unit and id_res <= tol.tol_id and norm_res <= tol.tol_id
    if ok:
        msg = "ok"
    elif not unit_res <= tol.tol_unit:  # negated, so a NaN entry is reported here
        msg = f"entry modulus off by {unit_res:.3e}"
    elif id_res > tol.tol_id:
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

    # multiplicativity: tilde(x, y z) = tilde(x, y) tilde(y^-1 x y, z);
    # one x at a time keeps memory O(n^2), and the first strict maximum
    # in (x, y, z) order is the worst triple
    res1, w1 = 0.0, (0, 0, 0)
    for x in range(n):
        lhs = tt[x][g.cayley]                   # [y, z] = tilde(x, y z)
        rhs = tt[x][:, None] * tt[ci[x]]        # [y, z] = tilde(x, y) tilde(y^-1 x y, z)
        d1 = np.abs(lhs - rhs)
        at = int(np.argmax(d1))
        if d1.flat[at] > res1:
            res1 = float(d1.flat[at])
            w1 = (x, *map(int, np.unravel_index(at, d1.shape)))

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
    xs = np.flatnonzero(regularity(c).regular_elements)
    keys = (xs[:, None] * n + ci[xs]).ravel()
    _, first, pair = np.unique(keys, return_index=True, return_inverse=True)
    vals = tt[xs].ravel()
    d3 = np.abs(vals - vals[first][pair])
    at = int(np.argmax(d3))
    res3 = float(d3[at])
    w3: tuple = ()
    if res3 > 0:
        x, y = int(xs[at // n]), at % n
        w3 = (x, y, int(ci[x, y]))

    bar = tol.tol_id
    ok = res1 <= bar and res2 <= bar and res3 <= bar
    return TildeReport(ok, res1, res2, res3,
                       {"multiplicativity": w1, "inverse": w2, "class_constancy": w3})


def regularity(c: Cocycle, tol: Tolerances = DEFAULT_TOL) -> RegularityReport:
    """Symmetry of sigma on commuting pairs, per element and per class.

    An element is regular when sigma(x, y) = sigma(y, x) for every y in its
    centralizer. Regularity is constant on conjugacy classes; that constancy
    is asserted rather than assumed. kleppner is true when the identity class
    is the only regular one.
    """
    g = c.group
    comm = g.cayley == g.cayley.T
    asym = np.abs(c.table - c.table.T)
    regular_elements = ~np.any(comm & (asym > tol.tol_id), axis=1)

    cj = conjugacy(g)
    regular_classes = regular_elements[np.unique(cj.class_of, return_index=True)[1]]
    off = regular_classes[cj.class_of] != regular_elements
    if off.any():
        k = int(cj.class_of[off].min())
        raise ConsistencyError(f"regularity not constant on class {k}")

    identity_class = int(cj.class_of[g.identity])
    if not regular_classes[identity_class]:
        raise ConsistencyError("identity class must be regular")
    kleppner = bool(regular_classes.sum() == 1)
    regular_elements.setflags(write=False)
    regular_classes.setflags(write=False)
    return RegularityReport(regular_elements, regular_classes, kleppner, cj)


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
    table = np.conj(dual.pairing[w2, x1])
    table.setflags(write=False)
    return Cocycle(big, table, label="weyl-heisenberg")


def restrict(c: Cocycle, h: Subgroup, lattice_group: FiniteGroup | None = None) -> Cocycle:
    """Restriction to a subgroup, reindexed on the materialized subgroup."""
    if h.parent is not c.group:
        raise InputError("subgroup does not belong to the cocycle's group")
    if lattice_group is None:
        lattice_group = subgroup_group(h)
    elems = np.asarray(h.elements, dtype=np.int64)
    table = c.table[np.ix_(elems, elems)].copy()
    table.setflags(write=False)
    lbl = f"{c.label}|{len(elems)}" if c.label else f"restricted|{len(elems)}"
    return Cocycle(lattice_group, table, label=lbl)
