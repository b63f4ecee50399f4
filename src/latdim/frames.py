"""Multiwindow super systems: bounds, existence decisions, construction.

A system is the orbit of n generator tuples under the diagonal action
of a lattice on d stacked copies of the representation space.  Frame
and Riesz bounds come from one dense eigensolve.  Existence
is decided from the spectrum of the convolution operator Phi of the
dimension function: twisted convolution by delta_e is the identity, so
(n/d) delta_e - phi is positive exactly when the largest eigenvalue of
Phi is at most n/d, and phi - (n/d) delta_e exactly when the smallest
is at least n/d.  Parseval generators are the canonical tight frame
S^-1/2 g of a seeded random frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import conv_operator, fixed_space, sandwich_stack
from .config import DEFAULT_TOL, DENSITY_SLACK, PARSEVAL, Tolerances
from .dimension import ModuleSpec, PhiFunction, phi
from .errors import ConsistencyError, DimensionMismatch, Infeasible, check_residual
from .groups import Subgroup, generators
from .reps import ProjectiveRep


@dataclass(frozen=True)
class MultiwindowSystem:
    """Orbit system of n generators, each a d-tuple of window vectors.

    ``generators`` has shape (n, d, dim).  The system vector for
    (generator i, lattice element gamma) is the concatenation over
    j of pi(gamma) applied to generators[i, j], living in the d-fold
    stacked space of dimension d*dim.
    """

    rep: ProjectiveRep
    lattice: Subgroup
    n: int
    d: int
    generators: np.ndarray


@dataclass(frozen=True)
class FrameReport:
    lower: float
    upper: float
    is_frame: bool
    riesz_lower: float
    riesz_upper: float
    is_riesz_sequence: bool
    is_riesz_basis: bool


@dataclass(frozen=True)
class DecisionReport:
    """Existence verdicts for (n, d) from the dimension function.

    Witnesses are the minimal eigenvalues of the twisted convolution
    operators whose positivity is being decided.  ``basis_residual`` is
    the largest deviation of phi from (n/d) delta_e, reported only.
    """

    frame: bool
    riesz: bool
    basis: bool
    frame_witness: float
    riesz_witness: float
    basis_residual: float
    dpi_vol: float
    n: int
    d: int
    phi: PhiFunction


@dataclass(frozen=True)
class DensityVerdict:
    ok: bool
    violations: tuple[str, ...]
    dpi_vol: float
    ratio: float


def multiwindow_system(
    rep: ProjectiveRep, lattice: Subgroup, generators: np.ndarray
) -> MultiwindowSystem:
    generators = np.ascontiguousarray(
        np.asarray(generators, dtype=np.complex128)
    )
    if generators.ndim != 3:
        raise DimensionMismatch(
            f"generators must be (n, d, dim), got {generators.shape}"
        )
    if generators.shape[2] != rep.dim:
        raise DimensionMismatch(
            f"generator length {generators.shape[2]} != rep dim {rep.dim}"
        )
    if lattice.parent is not rep.group:
        raise DimensionMismatch("lattice does not live in the rep's group")
    n, d = generators.shape[0], generators.shape[1]
    return MultiwindowSystem(rep, lattice, n, d, generators)


def _system_vectors(sys: MultiwindowSystem) -> np.ndarray:
    """All system vectors, shape (n*|lattice|, d*dim); row i*|lattice|+g."""
    mats = sys.rep.matrices[list(sys.lattice.elements)]  # (nl, dim, dim)
    nl, dim = len(mats), sys.rep.dim
    # orbit[g, i*d+j, :] = pi(elems[g]) @ generators[i, j]
    orbit = sys.generators.reshape(sys.n * sys.d, dim) @ mats.transpose(0, 2, 1)
    orbit = orbit.reshape(nl, sys.n, sys.d * dim).transpose(1, 0, 2)
    return orbit.reshape(sys.n * nl, sys.d * dim)


def frame_operator(sys: MultiwindowSystem) -> np.ndarray:
    """Sum of rank-one operators of the system vectors, on the stacked space."""
    w = _system_vectors(sys)
    return w.T @ w.conj()


def gram_matrix(sys: MultiwindowSystem) -> np.ndarray:
    """Pairwise inner products of the system vectors."""
    w = _system_vectors(sys)
    return w @ w.conj().T


def frame_report(
    sys: MultiwindowSystem, tol: Tolerances = DEFAULT_TOL
) -> FrameReport:
    """Frame and Riesz bounds from one eigensolve.

    S and the Gram matrix share their nonzero spectrum, so the smaller
    gives all four bounds; the larger one's lower bound is exactly 0.
    The verdicts use a threshold relative to the upper bound, so the
    zero system is cleanly rejected.
    """
    w = _system_vectors(sys)
    rows, cols = w.shape
    m = w.T @ w.conj() if cols <= rows else w @ w.conj().T
    eigs = np.linalg.eigvalsh((m + m.conj().T) / 2)
    low, upper = float(eigs[0]), float(eigs[-1])
    lower = low if cols <= rows else 0.0
    riesz_lower = low if rows <= cols else 0.0

    is_frame = lower > tol.tol_frame * upper
    is_riesz = riesz_lower > tol.tol_frame * upper
    is_basis = is_frame and is_riesz and rows == cols
    return FrameReport(
        lower, upper, is_frame, riesz_lower, upper, is_riesz, is_basis
    )


def existence_decision(
    spec: ModuleSpec,
    n: int,
    d: int,
    tol: Tolerances = DEFAULT_TOL,
    fn: PhiFunction | None = None,
) -> DecisionReport:
    """Decide frame/Riesz/basis existence for n generators, d copies.

    A frame exists iff (n/d) delta_e - phi is positive definite in the
    twisted sense, i.e. iff the largest eigenvalue of Phi is at most
    n/d; a Riesz sequence iff phi - (n/d) delta_e is, i.e. iff the
    smallest is at least n/d; a basis iff both.  Each test allows
    tol_psd times max(1, largest |eigenvalue| of the shifted operator).
    Pass a precomputed ``fn`` to reuse the dimension function, and the
    one eigensolve cached on it, across several (n, d) cells.
    """
    if fn is None:
        fn = phi(spec)
    ratio = n / d
    eigs = fn.spectrum
    frame_witness = ratio - float(eigs[-1])
    riesz_witness = float(eigs[0]) - ratio
    slack = tol.tol_psd * max(1.0, abs(frame_witness), abs(riesz_witness))
    frame = frame_witness >= -slack
    riesz = riesz_witness >= -slack
    residual = fn.values.copy()
    residual[fn.lattice_group.identity] -= ratio
    return DecisionReport(
        frame, riesz, frame and riesz, frame_witness, riesz_witness,
        float(np.abs(residual).max()), spec.dpi_vol, n, d, fn,
    )


def riesz_basis_criterion(
    spec: ModuleSpec, n: int, d: int, fn: PhiFunction | None = None
) -> bool:
    """Whether a Riesz basis exists: a frame and a Riesz sequence at once."""
    return existence_decision(spec, n, d, fn=fn).basis


def density_check(
    report: FrameReport, spec: ModuleSpec, n: int, d: int
) -> DensityVerdict:
    """Assert the density inequalities against a concrete report.

    A frame forces dpi_vol <= n/d and a Riesz sequence forces
    dpi_vol >= n/d; any violation means a bug upstream, so the verdict
    carries the details instead of raising.
    """
    ratio = n / d
    dpi_vol = spec.dpi_vol
    violations = []
    if report.is_frame and dpi_vol > ratio + DENSITY_SLACK:
        violations.append(
            f"frame with dpi_vol {dpi_vol:.6g} > n/d {ratio:.6g}"
        )
    if report.is_riesz_sequence and dpi_vol < ratio - DENSITY_SLACK:
        violations.append(
            f"riesz sequence with dpi_vol {dpi_vol:.6g} < n/d {ratio:.6g}"
        )
    return DensityVerdict(not violations, tuple(violations), dpi_vol, ratio)


def intertwiner_basis(spec: ModuleSpec) -> np.ndarray:
    """Orthonormal basis of lattice-equivariant maps into lattice functions.

    Returns shape (m, |lattice|, dim): matrices W with
    W pi(gamma) = lambda(gamma) W for every lattice element, where
    lambda is the twisted left translation on the lattice.  Found as
    the common fixed space of lambda(gamma) kron conj(pi(gamma)) over
    a generating set of the lattice.
    """
    lat = spec.lattice_group
    gens = list(generators(lat))
    deltas = np.eye(lat.order)[gens]  # lambda(x) is convolution by delta_x
    lam = np.array(
        [conv_operator(e, spec.restricted_cocycle) for e in deltas]
    ).reshape(len(gens), lat.order, lat.order)
    pis = spec.rep.matrices[[spec.lattice.elements[x] for x in gens]]
    basis = fixed_space(sandwich_stack(lam, pis))
    return basis.reshape(len(basis), lat.order, spec.rep.dim)


def construct_parseval_generators(
    spec: ModuleSpec,
    n: int,
    d: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
    fn: PhiFunction | None = None,
) -> np.ndarray:
    """Generators of an n-window d-copy Parseval system, shape (n, d, dim).

    Requires the existence decision to be positive; raises Infeasible
    otherwise.  On a feasible cell a generic system is a frame, so this
    takes the canonical tight frame S^-1/2 g of a seeded random system,
    drawing a fresh one (at most 8 times) while the draw is not a frame.
    S^-1/2 must commute with the lattice action, and the result is
    verified Parseval before it is returned; on square cells
    (n |lattice| = d dim) a Parseval system is orthonormal.
    """
    decision = existence_decision(spec, n, d, tol=tol, fn=fn)
    if not decision.frame:
        raise Infeasible(
            f"no frame at n={n}, d={d}: dpi_vol {spec.dpi_vol:.6g}, "
            f"witness {decision.frame_witness:.3e}"
        )
    for attempt in range(8):
        try:
            # one stream per (seed, attempt)
            tight, comm_res = tighten(
                random_system(spec, n, d, seed=8 * seed + attempt), tol
            )
            break
        except Infeasible:
            continue
    else:
        raise ConsistencyError("no seeded system is a frame on a feasible cell")
    check_residual("commutation residual of S^-1/2", comm_res, PARSEVAL)

    report = frame_report(tight, tol=tol)
    dev = np.abs(np.array([report.lower, report.upper]) - 1.0).max()
    check_residual("distance of the frame bounds from 1", float(dev), PARSEVAL)
    return tight.generators


def tighten(sys: MultiwindowSystem, tol: Tolerances = DEFAULT_TOL):
    """Canonical tight version of a frame system.

    Applies the inverse square root of the frame operator to every
    stacked generator.  Also returns the commutation residual of that
    correction against the lattice action, which the theory says is
    zero.
    """
    s = frame_operator(sys)
    s = (s + s.conj().T) / 2
    eigvals, eigvecs = np.linalg.eigh(s)
    if eigvals[-1] <= 0 or eigvals[0] <= tol.tol_frame * eigvals[-1]:
        raise Infeasible("system is not a frame, cannot tighten")
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T

    pis = sys.rep.matrices[list(sys.lattice.elements)]
    comm_res = _commutation_residual(inv_sqrt, pis, sys.d)

    flat = sys.generators.reshape(sys.n, sys.d * sys.rep.dim)
    new_flat = flat @ inv_sqrt.T
    new_gens = new_flat.reshape(sys.n, sys.d, sys.rep.dim)
    tight = multiwindow_system(sys.rep, sys.lattice, new_gens)
    return tight, comm_res


def _commutation_residual(op: np.ndarray, pis: np.ndarray, d: int) -> float:
    """max |op (I_d kron pi) - (I_d kron pi) op| over the stack ``pis``.

    Block (j, k) of that commutator is B pi - pi B for the block B of
    op: two matrix products against the whole stack, B [pi_1 ... pi_L]
    and [pi_1; ...; pi_L] B, so temporaries hold |L| dim^2 entries.
    """
    nl, dim = pis.shape[0], pis.shape[1]
    side_by_side = pis.transpose(1, 0, 2).reshape(dim, nl * dim)
    stacked = pis.reshape(nl * dim, dim)
    blocks = op.reshape(d, dim, d, dim)
    res = np.empty((d, d))
    for j in range(d):
        for k in range(d):
            b = blocks[j, :, k, :]
            left = (b @ side_by_side).reshape(dim, nl, dim).transpose(1, 0, 2)
            right = (stacked @ b).reshape(nl, dim, dim)
            res[j, k] = np.abs(left - right).max()
    return float(res.max())


def random_system(
    spec: ModuleSpec, n: int, d: int, seed: int
) -> MultiwindowSystem:
    """Seeded system with iid standard complex normal generator entries."""
    rng = np.random.default_rng([seed, 0x5EED])
    gens = rng.normal(size=(n, d, spec.rep.dim)) + 1j * rng.normal(
        size=(n, d, spec.rep.dim)
    )
    return multiwindow_system(spec.rep, spec.lattice, gens)
