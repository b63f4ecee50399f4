"""Projective unitary representations and their matrix coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import _monomial, fixed_space, sandwich_stack
from .cocycles import Cocycle, conjugate_cocycle, restrict
from .config import DEFAULT_TOL, EIG_CUT, ORTHOGONALITY, WAVELET, WINDOW_NORM, Tolerances
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NotIrreducible,
    WindowNotUnit,
    check_residual,
)
from .groups import FiniteGroup, Subgroup, generators, subgroup_group


@dataclass(frozen=True)
class ProjectiveRep:
    """A projective unitary representation given by explicit matrices.

    ``matrices`` has shape (order, dim, dim); row x holds the unitary
    assigned to group element x.  Multiplying two of them picks up the
    cocycle: pi(x) pi(y) = sigma(x, y) pi(x y).  The stack is made
    read-only on construction, which is what lets derived data such as
    the commutant dimension be computed once per rep.
    """

    group: FiniteGroup
    cocycle: Cocycle
    dim: int
    matrices: np.ndarray

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[x]

    @cached_property
    def commutant_dim(self) -> int:
        """Dimension of the commutant, as the fixed space of X kron conj(X).

        A vec'd A commutes with X exactly when it is fixed by X kron
        conj(X), and commuting with a generating set means commuting
        with every matrix.
        """
        mats = self.matrices[list(generators(self.group))]
        return len(fixed_space(sandwich_stack(mats, mats)))


@dataclass(frozen=True)
class RepReport:
    ok: bool
    unitary_residual: float
    composition_residual: float
    worst_pair: tuple[int, int]
    message: str


def projective_rep(
    group: FiniteGroup, cocycle: Cocycle, matrices: np.ndarray
) -> ProjectiveRep:
    # a copy, so the caller's array neither aliases nor loses write access
    matrices = np.array(matrices, dtype=np.complex128, order="C")
    if matrices.ndim != 3 or matrices.shape[0] != group.order:
        raise DimensionMismatch(
            f"expected ({group.order}, d, d) matrix stack, got {matrices.shape}"
        )
    if matrices.shape[1] != matrices.shape[2]:
        raise DimensionMismatch("representation matrices must be square")
    if cocycle.group.order != group.order:
        raise DimensionMismatch("cocycle and group orders differ")
    return ProjectiveRep(group, cocycle, matrices.shape[1], matrices)


def validate_rep(rep: ProjectiveRep, tol: Tolerances = DEFAULT_TOL) -> RepReport:
    """Check unitarity of every matrix and the twisted composition law.

    The law is checked for every x against the generators s (and the
    identity), together with the cocycle identity
    sigma(x, y) sigma(xy, s) = sigma(x, ys) sigma(y, s) on the same s;
    by induction on the word length of y these two imply
    pi(x) pi(y) = sigma(x, y) pi(xy) for every pair.  Only when that
    check fails are all pairs multiplied, to locate the worst one.
    Every reduction is a NumPy max or argmax, which keeps a NaN.
    """
    g = rep.group
    mats = rep.matrices
    unit_res = float(np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(rep.dim)).max())

    t = rep.cocycle.table
    gens = (g.identity,) + generators(g)
    comp = np.empty((len(gens), g.order))
    coc = np.empty(len(gens))
    for k, s in enumerate(gens):
        # pi(x) pi(s) = sigma(x, s) pi(xs) for every x
        r = np.abs(mats @ mats[s] - t[:, s, None, None] * mats[g.cayley[:, s]])
        comp[k] = r.reshape(g.order, -1).max(axis=1)
        # sigma(x, y) sigma(xy, s) = sigma(x, ys) sigma(y, s) for every x, y
        coc[k] = np.abs(t * t[g.cayley, s] - t[:, g.cayley[:, s]] * t[:, s]).max()
    k, x = divmod(int(comp.argmax()), g.order)
    comp_res, worst = float(comp[k, x]), (x, gens[k])

    if not (comp_res <= tol.tol_id and coc.max() <= tol.tol_id):
        comp_res, worst = _worst_pair(rep)

    ok = unit_res <= tol.tol_unit and comp_res <= tol.tol_id
    if not ok:
        if not unit_res <= tol.tol_unit:
            message = f"matrix is not unitary (residual {unit_res:.3e})"
        else:
            message = (
                f"composition law fails at {worst} (residual {comp_res:.3e})"
            )
    else:
        message = "ok"
    return RepReport(ok, unit_res, comp_res, worst, message)


def _worst_pair(rep: ProjectiveRep) -> tuple[float, tuple[int, int]]:
    """Largest composition-law residual over all pairs, and where it sits."""
    g = rep.group
    mats = rep.matrices
    res = np.empty((g.order, g.order))
    for x in range(g.order):
        lhs = mats[x] @ mats  # (order, d, d)
        rhs = rep.cocycle.table[x][:, None, None] * mats[g.cayley[x]]
        res[x] = np.abs(lhs - rhs).reshape(g.order, -1).max(axis=1)
    x, y = divmod(int(res.argmax()), g.order)
    return float(res[x, y]), (x, y)


def is_irreducible(rep: ProjectiveRep) -> tuple[bool, int]:
    """Whether the commutant is trivial, plus its actual dimension."""
    cdim = rep.commutant_dim
    if cdim < 1:
        raise ConsistencyError("commutant lost the identity operator")
    return cdim == 1, cdim


def formal_dimension(rep: ProjectiveRep, check: bool = True) -> float:
    """d_pi = dim / |G| for an irreducible rep, with counting measure on G.

    With ``check`` the orthogonality relation
        sum_x <xi, pi(x) eta> conj(<xi', pi(x) eta'>)
            = (|G| / dim) <xi, xi'> conj(<eta, eta'>)
    is spot-checked on a few seeded vector quadruples.
    """
    irr, cdim = is_irreducible(rep)
    if not irr:
        raise NotIrreducible(f"commutant has dimension {cdim}")
    d_pi = rep.dim / rep.group.order
    if check:
        rng = np.random.default_rng(7)
        d = rep.dim
        res = np.empty(3)
        for k in range(3):
            xi, eta, xi2, eta2 = (
                rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
            )
            a = rep.matrices @ eta  # rows: pi(x) eta
            a2 = rep.matrices @ eta2
            c1 = a.conj() @ xi  # row x: <xi, pi(x) eta>
            c2 = a2.conj() @ xi2
            lhs = np.sum(c1 * np.conj(c2))
            rhs = (1.0 / d_pi) * np.vdot(xi2, xi) * np.conj(np.vdot(eta2, eta))
            res[k] = abs(lhs - rhs) / max(1.0, abs(rhs))
        check_residual("relative orthogonality residual", float(res.max()), ORTHOGONALITY)
    return d_pi


@dataclass(frozen=True)
class WaveletTransform:
    """Matrix of the map v |-> (x |-> <v, pi(x) eta>) scaled into an isometry.

    ``matrix`` has shape (order, dim): row x is the functional
    v |-> <v, pi(x) eta>, so matrix @ v evaluates the transform.
    """

    rep: ProjectiveRep
    window: np.ndarray
    matrix: np.ndarray
    diagonal: np.ndarray  # transform of the window itself, as a vector over G


def unit_window(window: np.ndarray, dim: int) -> np.ndarray:
    """The window as a flat complex vector, checked for length dim and unit norm."""
    w = np.asarray(window, dtype=np.complex128).reshape(-1)
    if w.shape[0] != dim:
        raise DimensionMismatch(f"window has length {w.shape[0]}, rep has dim {dim}")
    check_residual("window norm deviation", abs(float(np.linalg.norm(w)) - 1.0),
                   WINDOW_NORM, WindowNotUnit)
    return w


def wavelet(rep: ProjectiveRep, window: np.ndarray) -> WaveletTransform:
    """Build the matrix-coefficient transform for a unit window.

    Checks that the window has unit norm, that the scaled transform
    sqrt(d_pi) V is an isometry, and that V intertwines pi with the
    twisted left translation.
    """
    window = unit_window(window, rep.dim)
    d_pi = formal_dimension(rep, check=False)
    a = rep.matrices @ window  # (order, dim), row x = pi(x) eta
    v = a.conj()  # row x: v |-> <v, pi(x) eta> applied by v_mat @ vec

    # V pi(y) = lambda_sigma(y) V for every y; row r of lambda_sigma(y) V
    # is sigma(y, y^-1 r) times row y^-1 r of V
    g, t = rep.group, rep.cocycle.table
    inter = np.empty(g.order)
    for y in range(g.order):
        cols = g.cayley[g.inverse[y]]
        inter[y] = np.abs(v @ rep.matrices[y] - t[y, cols][:, None] * v[cols]).max()
    check_residual("wavelet intertwining residual", float(inter.max()), WAVELET)

    gram = d_pi * (v.conj().T @ v)
    iso = float(np.abs(gram - np.eye(rep.dim)).max())
    check_residual("wavelet isometry residual", iso, WAVELET)

    diag = v @ window  # x |-> <eta, pi(x) eta>
    return WaveletTransform(rep, window, v, diag)


@dataclass(frozen=True)
class LatticeRestriction:
    """A rep restricted to a subgroup, with the subgroup materialized."""

    parent: ProjectiveRep
    subgroup: Subgroup
    lattice_group: FiniteGroup
    cocycle: Cocycle
    rep: ProjectiveRep


def restrict_to_lattice(
    rep: ProjectiveRep, sub: Subgroup, label: str | None = None
) -> LatticeRestriction:
    """Restrict a projective rep to a subgroup of its domain."""
    if sub.parent is not rep.group:
        raise DimensionMismatch("subgroup does not live in the rep's group")
    lattice_group = subgroup_group(sub, label=label)
    restricted = restrict(rep.cocycle, sub, lattice_group=lattice_group)
    mats = rep.matrices[list(sub.elements)]
    sub_rep = ProjectiveRep(lattice_group, restricted, rep.dim, mats)
    return LatticeRestriction(rep, sub, lattice_group, restricted, sub_rep)


def irreducible_subrep(group: FiniteGroup, cocycle: Cocycle, seed: int = 0) -> ProjectiveRep:
    """Cut an irreducible summand out of the twisted left regular rep.

    Averages a random Hermitian matrix over the rep to get a commutant
    element, takes the eigenspace cluster of largest dimension (ties go
    to the lowest eigenvalue), and compresses the rep onto it.  Retries
    with fresh randomness, at most 8 times, if the cut summand is not
    irreducible.  The rep is read as the monomial
    lam(b) delta_i = sigma(b, i) delta_{b i}, so both steps are gathers
    in O(|G|^2) memory.
    """
    rows, phases = _monomial(group, cocycle.table, "left")
    n = group.order
    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt, 0x1D])
        h_rand = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_rand = h_rand + h_rand.conj().T
        # average over the rep: lands in the commutant, stays Hermitian;
        # lam(b) H lam(b)* holds sigma(b, i) H[i, j] conj sigma(b, j) at (b i, b j)
        e = np.zeros((n, n), dtype=np.complex128)
        for b in range(n):
            e[np.ix_(rows[b], rows[b])] += phases[b, :, None] * h_rand * phases[b].conj()
        e = (e + e.conj().T) / (2 * n)
        eigvals, eigvecs = np.linalg.eigh(e)
        scale = max(1.0, float(np.abs(eigvals).max()))
        # cluster eigenvalues, then take the largest cluster
        clusters: list[list[int]] = [[0]]
        for i in range(1, n):
            if eigvals[i] - eigvals[i - 1] < EIG_CUT * scale:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        best = max(clusters, key=lambda c: (len(c), -eigvals[c[0]]))
        q = eigvecs[:, best]  # (n, k) orthonormal
        # (q* lam(x) q)[i, j] = sum_s conj(q[x s, i]) sigma(x, s) q[s, j]
        mats = np.stack([(q[rows[x]].conj().T * phases[x]) @ q for x in range(n)])
        candidate = ProjectiveRep(group, cocycle, q.shape[1], mats)
        report = validate_rep(candidate)
        if not report.ok:
            continue
        irr, _ = is_irreducible(candidate)
        if irr:
            return candidate
    raise NotIrreducible("no irreducible summand found in 8 attempts")


def conjugate_rep(rep: ProjectiveRep) -> ProjectiveRep:
    """Entrywise conjugate rep, projective over the conjugate cocycle."""
    return ProjectiveRep(
        rep.group,
        conjugate_cocycle(rep.cocycle),
        rep.dim,
        rep.matrices.conj(),
    )
