"""Twisted group algebra operators on l2 of a finite group.

An algebra element is stored by its coefficient vector a-hat on the group;
the associated operator is the twisted convolution sum(a_hat[g] * lam(g))
built from the left regular family
    lam(x) delta_y = sigma(x, y) delta_{x y}.
The right regular family with the conjugated table spans the commutant.
Both families are permutation-phase matrices, so work on them is an index
gather over the Cayley, inverse and cocycle tables; ``left_regular`` and
``right_regular`` build the dense stacks only for callers that ask.  The
averaging route of the center-valued trace reads column e of
|G|^-1 sum_b lam(b)^* A lam(b) as such a gather, without the class formula,
which keeps the two computation routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import Cocycle, regularity, tilde_table
from .config import CHARACTER_NORM, DEFAULT_TOL, PSD_ASYMMETRY, Tolerances
from .errors import DimensionMismatch, NotHermitian, check_residual
from .groups import FiniteGroup


@dataclass(frozen=True, eq=False)
class RegularRep:
    side: str
    group: FiniteGroup
    cocycle: Cocycle
    matrices: np.ndarray


def _monomial(group: FiniteGroup, table: np.ndarray, side: str):
    """Row index and phase of the one entry in each column of every lam(b) or rho(b).

    Both arrays are indexed [b, i]: lam(b) delta_i = sigma(b, i) delta_{b i}
    and rho(b) delta_i = sigma(i b^-1, b) delta_{i b^-1}.
    """
    if side == "left":
        return group.cayley, table
    rows = group.cayley[:, group.inverse].T  # [b, i] = i b^-1
    return rows, table[rows, np.arange(group.order)[:, None]]


def _regular(group: FiniteGroup, cocycle: Cocycle, side: str) -> RegularRep:
    n = group.order
    rows, phases = _monomial(group, cocycle.table, side)
    mats = np.zeros((n, n, n), dtype=np.complex128)
    b, i = np.indices((n, n))
    mats[b, rows, i] = phases
    mats.setflags(write=False)
    return RegularRep(side, group, cocycle, mats)


def left_regular(group: FiniteGroup, cocycle: Cocycle) -> RegularRep:
    return _regular(group, cocycle, "left")


def right_regular(group: FiniteGroup, cocycle: Cocycle) -> RegularRep:
    return _regular(group, cocycle, "right")


def _average_column(group: FiniteGroup, table: np.ndarray, side: str,
                    op: np.ndarray) -> np.ndarray:
    """Column e of |G|^-1 sum_b M(b)^* op M(b), M = lam or rho over ``table``.

    With M(b) delta_i = p[b, i] delta_{r[b, i]}, entry i of that column is
    |G|^-1 sum_b conj(p[b, i]) op[r[b, i], r[b, e]] p[b, e]: an O(|G|^2)
    gather that reads only the Cayley, inverse and cocycle tables.
    """
    rows, phases = _monomial(group, table, side)
    e = group.identity
    terms = np.conj(phases) * op[rows, rows[:, e, None]] * phases[:, e, None]
    return terms.sum(axis=0) / group.order


def conv_operators(values: np.ndarray, cayley: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Matrices of f -> values[b] * f for a block of equal-order groups.

    ``values`` is (B, m); ``cayley`` and ``table`` are the (B, m, m) Cayley
    tables, in block places as ``subgroup_tables`` gives them, and cocycle
    tables.  lam(x) sends delta_mu to sigma(x, mu) delta_{x mu}, so entry
    [b, x mu, mu] of the result is values[b, x] sigma_b(x, mu): one scatter
    into the flattened block.
    """
    nb, m = values.shape
    op = np.empty(nb * m * m, dtype=np.result_type(values, table))
    op[cayley * m + np.arange(m)] = values[:, :, None] * table
    return op.reshape(nb, m, m)


def conv_operator(values: np.ndarray, cocycle: Cocycle) -> np.ndarray:
    """Matrix of f -> values * f, equal to sum_g values[g] lam(g)."""
    grp = cocycle.group
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (grp.order,):
        raise DimensionMismatch("coefficient vector must match the group order")
    return conv_operators(values[None], grp.cayley[None], cocycle.table[None])[0]


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    group: FiniteGroup
    cocycle: Cocycle
    coeffs: np.ndarray

    def operator(self) -> np.ndarray:
        return conv_operator(self.coeffs, self.cocycle)


def element(cocycle: Cocycle, coeffs) -> AlgebraElement:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.shape != (cocycle.group.order,):
        raise DimensionMismatch("coefficient vector must match the group order")
    return AlgebraElement(cocycle.group, cocycle, arr)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Twisted convolution (a * b)(c) = sum_x sigma(x, x^-1 c) a(x) b(x^-1 c)."""
    return element(a.cocycle, conv_operator(a.coeffs, a.cocycle) @ b.coeffs)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    g = a.group
    inv = g.inverse
    coeffs = np.conj(a.coeffs[inv] * a.cocycle.table[inv, np.arange(g.order)])
    return element(a.cocycle, coeffs)


def trace_tau(a: AlgebraElement) -> complex:
    """Canonical trace, the coefficient at the identity."""
    return complex(a.coeffs[a.group.identity])


def center_valued_trace(a: AlgebraElement) -> AlgebraElement:
    """Class formula route.

    lam(x) maps to |G|^-1 sum_y tilde(x, y) lam(y^-1 x y) over the whole
    group when x is regular, and to zero otherwise; extended linearly.
    The sum is constant on each coset C y of the centralizer C of x:
    tilde(x, c y) = tilde(x, c) tilde(x, y), and tilde(x, c) = 1 for a
    regular x, so every class member gets |C| equal terms.
    """
    return element(a.cocycle, a.coeffs @ center_valued_trace_table(a.cocycle))


def center_valued_trace_table(cocycle: Cocycle, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Row x holds the class formula's image of lam(x), all filled by one scatter.

    The table reads only ``tol.tol_id``, through ``regularity``; it is
    computed once per cocycle and tol_id and kept read-only on the cocycle.
    """
    return cocycle.kept(("center_valued_trace_table", tol.tol_id),
                        lambda: _center_valued_trace_table(cocycle, tol))


def _center_valued_trace_table(cocycle: Cocycle, tol: Tolerances) -> np.ndarray:
    g = cocycle.group
    n = g.order
    vals = (regularity(cocycle, tol).regular_elements / n)[:, None] * tilde_table(cocycle)
    at = (np.arange(0, n * n, n)[:, None] + g.conjugation).ravel()
    out = np.empty((n, n), dtype=np.complex128)
    out.real.flat = np.bincount(at, vals.real.ravel(), n * n)
    out.imag.flat = np.bincount(at, vals.imag.ravel(), n * n)
    out.setflags(write=False)
    return out


def center_valued_trace_oracle(a: AlgebraElement) -> AlgebraElement:
    """Averaging route: column e of |G|^-1 sum_b lam(b)^* A lam(b), A = a.operator().

    Entry i is the gather |G|^-1 sum_b conj(sigma(b, i)) sigma(b, e) A[b i, b].
    """
    return element(a.cocycle, _average_column(a.group, a.cocycle.table, "left", a.operator()))


def is_sigma_positive_definite(values: np.ndarray, cocycle: Cocycle,
                               tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test for the convolution operator of a coefficient vector.

    The matrix is symmetrized first; asymmetry beyond PSD_ASYMMETRY relative
    is an error because the callers only pass vectors inducing Hermitian operators.
    Returns the verdict and the minimal eigenvalue of the symmetrized matrix.
    """
    op = conv_operator(values, cocycle)
    norm = float(np.linalg.norm(op, 2)) if op.size else 0.0
    asym = float(np.linalg.norm(op - op.conj().T, 2))
    check_residual("convolution operator asymmetry", asym,
                   PSD_ASYMMETRY * max(1.0, norm), NotHermitian)
    herm = (op + op.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(herm)
    scale = max(1.0, float(np.abs(eigs).max())) if eigs.size else 1.0
    min_eig = float(eigs[0])
    return min_eig >= -tol.tol_psd * scale, min_eig


def center_dimension(group: FiniteGroup, cocycle: Cocycle) -> int:
    """Dimension of the center of the twisted group algebra: its regular classes.

    It is |G|^-1 sum over commuting pairs (x, y) of sigma(x, y) conj(sigma(y, x)).
    For each x, y -> sigma(x, y) / sigma(y, x) is a character of the
    centralizer C(x), trivial exactly when x is regular; its mean over C(x)
    is 1 or 0, and the weight |C(x)| / |G| = 1 / |class of x| counts each
    regular class once.  Only the Cayley and cocycle tables are read, so
    the count stays independent of ``regularity``.  A sum off an integer
    by more than CHARACTER_NORM (rel) raises ConsistencyError.
    """
    t = cocycle.table
    commuting = group.cayley == group.cayley.T
    total = np.vdot(t.T[commuting], t[commuting]) / group.order
    k = np.rint(total.real)
    check_residual("center dimension distance to an integer", abs(total - k),
                   CHARACTER_NORM * max(1.0, abs(total)))
    return int(k)
