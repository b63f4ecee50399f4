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
from .config import DEFAULT_TOL, EIG_CUT, FIXED_RESIDUAL, PSD_ASYMMETRY, Tolerances
from .errors import DimensionMismatch, NotHermitian, check_residual
from .groups import FiniteGroup, generators


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


def verify_commutant(group: FiniteGroup, cocycle: Cocycle) -> float:
    """Max Frobenius norm of [lam_sigma(x), rho_sigmabar(y)] over all pairs.

    Both products send delta_z to a multiple of delta_{x z y^-1}, so the
    commutator's norm is that of the coefficient differences over z.  One
    x at a time keeps memory O(|G|^2).
    """
    lam_rows, lam_phases = _monomial(group, cocycle.table, "left")
    rho_rows, rho_phases = _monomial(group, np.conj(cocycle.table), "right")
    worst = 0.0
    for x in range(group.order):
        lr = lam_phases[x][rho_rows] * rho_phases           # [y, z]: lam(x) rho(y) delta_z
        rl = rho_phases[:, lam_rows[x]] * lam_phases[x]     # [y, z]: rho(y) lam(x) delta_z
        worst = max(worst, float(np.linalg.norm(lr - rl, axis=1).max()))
    return worst


def twisted_convolution(f: np.ndarray, g_vec: np.ndarray, cocycle: Cocycle) -> np.ndarray:
    """(f * g)(c) = sum_b sigma(b, b^-1 c) f(b) g(b^-1 c)."""
    grp = cocycle.group
    n = grp.order
    f = np.asarray(f, dtype=np.complex128)
    g_vec = np.asarray(g_vec, dtype=np.complex128)
    if f.shape != (n,) or g_vec.shape != (n,):
        raise DimensionMismatch("coefficient vectors must match the group order")
    ldiv = grp.cayley[grp.inverse, :]          # ldiv[b, c] = b^-1 c
    b_grid = np.arange(n)[:, None]
    weights = cocycle.table[b_grid, ldiv] * g_vec[ldiv]
    return f @ weights


def conv_operator(values: np.ndarray, cocycle: Cocycle) -> np.ndarray:
    """Matrix of f -> values * f, equal to sum_g values[g] lam(g)."""
    grp = cocycle.group
    n = grp.order
    values = np.asarray(values, dtype=np.complex128)
    if values.shape != (n,):
        raise DimensionMismatch("coefficient vector must match the group order")
    mu = np.arange(n)[None, :]
    diff = grp.cayley[:, grp.inverse]          # diff[c, mu] = c mu^-1
    return values[diff] * cocycle.table[diff, mu]


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


def element_from_operator(cocycle: Cocycle, mat: np.ndarray) -> AlgebraElement:
    """Read Fourier coefficients a-hat = a delta_e off an operator matrix."""
    return element(cocycle, np.asarray(mat)[:, cocycle.group.identity])


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return element(a.cocycle, twisted_convolution(a.coeffs, b.coeffs, a.cocycle))


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
    g = a.group
    reg = regularity(a.cocycle)
    weights = np.where(reg.regular_elements, a.coeffs, 0) / g.order
    out = np.zeros(g.order, dtype=np.complex128)
    np.add.at(out, g.conjugation, weights[:, None] * tilde_table(a.cocycle))
    return element(a.cocycle, out)


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


def fixed_space(unitaries: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as rows, of {v : U v = v for every U in the stack}.

    ``unitaries`` has shape (m, N, N).  Candidates span the null space of
    H = sum_U (2 I - U - U^*); each one is kept only if it is fixed by every
    U directly.  An empty stack fixes the whole space.
    """
    m, size, _ = unitaries.shape
    s = unitaries.sum(axis=0)
    h = 2.0 * m * np.eye(size) - s - s.conj().T
    eigvals, eigvecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.abs(eigvals).max()))
    cand = eigvecs[:, eigvals < EIG_CUT * scale]
    if m:
        res = np.abs(unitaries @ cand - cand).max(axis=(0, 1))
        cand = cand[:, res < FIXED_RESIDUAL]
    return cand.T


def sandwich_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack of a[k] kron conj(b[k]).

    These are the maps A -> a[k] A b[k]^* acting on row-major vec(A).
    """
    m = a.shape[0]
    out = np.einsum("kij,klm->kiljm", a, b.conj())
    return out.reshape(m, a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def center_dimension(group: FiniteGroup, cocycle: Cocycle) -> int:
    """Dimension of the center of the twisted group algebra.

    The center is the fixed space of the conjugations a -> lam(x) a lam(x)^*
    on coefficient vectors, for x in a generating set.  Each one is monomial:
    lam(x) lam(g) lam(x)^* = sigma(x, g) sigma(xg, x^-1) conj(sigma(x, x^-1))
    lam(x g x^-1).
    """
    n = group.order
    t = cocycle.table
    g_all = np.arange(n)
    gens = generators(group)
    stack = np.zeros((len(gens), n, n), dtype=np.complex128)
    for k, x in enumerate(gens):
        xg = group.cayley[x, g_all]
        xinv = group.inverse[x]
        stack[k, group.cayley[xg, xinv], g_all] = (
            t[x, g_all] * t[xg, xinv] * np.conj(t[x, xinv])
        )
    return len(fixed_space(stack))
