"""Dense numerical references for the closed forms in ``latdim``.

Each invariant is found here as the common fixed space of a stack of
unitaries: a dense eigensolve of a penalty sum, with every candidate
re-checked against a residual bound.  The package computes the same
invariants in closed form; the suite compares the two.
"""

import numpy as np

from latdim.algebra import conv_operator

EIG_CUT = 1e-6  # relative eigenvalue cut of the null space of the penalty sum
FIXED_RESIDUAL = 1e-7  # |U v - v| a fixed-space candidate may keep


def fixed_space(unitaries):
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


def sandwich_stack(a, b):
    """Stack of a[k] kron conj(b[k]): the maps A -> a[k] A b[k]^* on row-major vec(A)."""
    m = a.shape[0]
    out = np.einsum("kij,klm->kiljm", a, b.conj())
    return out.reshape(m, a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def center_dimension(group, cocycle):
    """Fixed space of the conjugations a -> lam(x) a lam(x)^*, x over the generators.

    Each one is monomial on coefficient vectors:
    lam(x) lam(g) lam(x)^* = sigma(x, g) sigma(xg, x^-1) conj(sigma(x, x^-1)) lam(x g x^-1).
    """
    n = group.order
    t = cocycle.table
    g_all = np.arange(n)
    gens = group.generators
    stack = np.zeros((len(gens), n, n), dtype=np.complex128)
    for k, x in enumerate(gens):
        xg = group.cayley[x, g_all]
        xinv = group.inverse[x]
        stack[k, group.cayley[xg, xinv], g_all] = (
            t[x, g_all] * t[xg, xinv] * np.conj(t[x, xinv])
        )
    return len(fixed_space(stack))


def intertwiner_basis(spec):
    """Common fixed space of lambda(gamma) kron conj(pi(gamma)), gamma over the lattice's generators.

    Shape (m, |lattice|, dim), like ``latdim.intertwiner_basis``.
    """
    lat = spec.lattice_group
    gens = list(lat.generators)
    deltas = np.eye(lat.order)[gens]  # lambda(x) is convolution by delta_x
    lam = np.array(
        [conv_operator(e, spec.restricted_cocycle) for e in deltas]
    ).reshape(len(gens), lat.order, lat.order)
    pis = spec.rep.matrices[spec.lattice.elements[gens]]
    basis = fixed_space(sandwich_stack(lam, pis))
    return basis.reshape(len(basis), lat.order, spec.rep.dim)
