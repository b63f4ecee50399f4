"""Center-valued module dimension of an irreducible rep over a lattice.

Two independent routes compute the same function phi on the lattice:
``phi`` evaluates a closed-form class sum over the whole group, and
``phi_oracle`` builds the module embedding explicitly and reads the
answer off a projection.  Their agreement is the main correctness
property of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import _average_column, conv_operator
from .cocycles import Cocycle, conjugate_cocycle, regularity, restrict
from .config import BLOCK_TRACE, CDIM_ASYMMETRY, PHI_IDENTITY
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NotHermitian,
    NotIrreducible,
    PreconditionFailed,
    check_residual,
)
from .groups import FiniteGroup, Subgroup, right_transversal, subgroup_group
from .reps import ProjectiveRep, is_irreducible, unit_window, wavelet


@dataclass(frozen=True)
class ModuleSpec:
    """An irreducible rep together with a lattice to restrict to.

    ``lattice_group`` is the subgroup materialized as a group of its
    own (indices 0..|lattice|-1), and ``restricted_cocycle`` lives on
    it.  ``window`` is a unit vector used to realize the module inside
    functions on the big group; the dimension function does not depend
    on the choice.
    """

    rep: ProjectiveRep
    lattice: Subgroup
    lattice_group: FiniteGroup
    restricted_cocycle: Cocycle
    window: np.ndarray

    @property
    def dpi_vol(self) -> float:
        """Scalar module dimension dim(pi)/|lattice|."""
        return self.rep.dim / self.lattice.order


@dataclass(frozen=True)
class PhiFunction:
    """The dimension function on the lattice, plus its evaluation context.

    ``values[gamma]`` is phi at lattice index gamma; the associated
    positive operator is twisted convolution by ``values`` over
    ``cocycle``.  ``regular`` flags lattice elements whose conjugacy
    class is cocycle-regular; phi vanishes off those.  ``values`` is
    read-only, so the spectrum of that operator is computed once.
    """

    values: np.ndarray
    dpi_vol: float
    cocycle: Cocycle
    lattice_group: FiniteGroup
    regular: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of twisted convolution by phi."""
        return np.linalg.eigvalsh(cdim_operator(self))


def random_window(dim: int, seed: int) -> np.ndarray:
    """Seeded complex unit vector."""
    rng = np.random.default_rng([seed, 0x57A8])
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return w / np.linalg.norm(w)


def make_module_spec(
    rep: ProjectiveRep,
    lattice: Subgroup,
    window: np.ndarray | None = None,
) -> ModuleSpec:
    """Assemble and validate a ModuleSpec.

    The rep must be irreducible and the window (default: first basis
    vector) must have unit norm.
    """
    if lattice.parent is not rep.group:
        raise DimensionMismatch("lattice does not live in the rep's group")
    irr, cdim = is_irreducible(rep)
    if not irr:
        raise NotIrreducible(f"commutant has dimension {cdim}")
    if window is None:
        w = np.zeros(rep.dim, dtype=np.complex128)
        w[0] = 1.0
    else:
        w = unit_window(window, rep.dim)
    lattice_group = subgroup_group(lattice)
    restricted = restrict(rep.cocycle, lattice, lattice_group=lattice_group)
    return ModuleSpec(rep, lattice, lattice_group, restricted, w)


def _window_diagonal(spec: ModuleSpec) -> np.ndarray:
    """x |-> <window, pi(x) window> over the big group."""
    a = spec.rep.matrices @ spec.window
    return a.conj() @ spec.window


def phi(spec: ModuleSpec) -> PhiFunction:
    """Dimension function by the closed-form class sum.

    For a lattice element gamma that is regular for the restricted
    cocycle,

        phi(gamma) = d_pi / |lattice| * sum_y conj(tilde(gamma, y))
                        * <window, pi(y^-1 gamma y) window>

    where y runs over the whole big group and tilde(gamma, y) =
    sigma(gamma, y) conj(sigma(y, y^-1 gamma y)) is the conjugation-
    twisted form of the full cocycle.  The terms are constant on each
    coset C y of the centralizer C of gamma in the lattice, because
    tilde(gamma, c y) = tilde(gamma, c) tilde(gamma, y) and
    tilde(gamma, c) = 1 for a regular gamma.  So the sum is |C| times a
    sum over coset representatives, and |C| k = |lattice| for the class
    size k.  Off regular elements phi is zero.
    """
    g = spec.rep.group
    lat = spec.lattice_group
    elems = np.asarray(spec.lattice.elements, dtype=np.int64)
    d_pi = spec.rep.dim / g.order

    regular = regularity(spec.restricted_cocycle).regular_elements
    gammas = elems[regular]
    conj = g.conjugation[gammas]  # [i, y] = y^-1 gammas[i] y
    sigma = spec.rep.cocycle.table
    tilde = sigma[gammas] * np.conj(sigma[np.arange(g.order), conj])
    values = np.zeros(lat.order, dtype=np.complex128)
    values[regular] = (d_pi / lat.order) * np.sum(
        np.conj(tilde) * _window_diagonal(spec)[conj], axis=1
    )

    dpi_vol = spec.dpi_vol
    check_residual("|phi(e) - dpi_vol|", abs(values[lat.identity] - dpi_vol),
                   PHI_IDENTITY * max(1.0, dpi_vol))
    return PhiFunction(values, dpi_vol, spec.restricted_cocycle, lat, regular)


def phi_oracle(spec: ModuleSpec) -> PhiFunction:
    """Dimension function by the explicit module embedding.

    Steps: realize the module inside functions on the big group via
    the scaled wavelet isometry, with range projection P; transport P
    to lattice x transversal coordinates through the coset relabeling
    u delta_(gamma, y) = sigma(gamma, y) delta_(gamma y), a
    permutation-phase unitary, so u* P u is the gather
    conj(vals[k]) P[flat[k], flat[l]] vals[l]; sum the diagonal blocks
    into B; average B over the twisted right translations of the
    conjugate restricted cocycle (the center-valued trace of the block
    algebra) and read phi off the identity column, which is the gather
    |lattice|^-1 sum_b sigma(i b^-1, b) conj(sigma(b^-1, b))
    B[i b^-1, b^-1].  No use of the class formula anywhere.
    """
    g = spec.rep.group
    lat = spec.lattice_group
    nl = lat.order
    e_lat = lat.identity

    wt = wavelet(spec.rep, spec.window)
    v = wt.matrix
    d_pi = spec.rep.dim / g.order
    p_big = d_pi * (v @ v.conj().T)

    # x = gamma * y is unique for y in a right transversal
    elems = np.asarray(spec.lattice.elements, dtype=np.int64)
    bs = np.asarray(right_transversal(g, spec.lattice.elements), dtype=np.int64)
    nb = len(bs)
    flat = g.cayley[elems[:, None], bs[None, :]].ravel()
    if np.unique(flat).size != g.order:
        raise ConsistencyError("coset factorization is not unique")
    vals = spec.rep.cocycle.table[elems[:, None], bs[None, :]].ravel()
    p = np.conj(vals)[:, None] * p_big[flat[:, None], flat] * vals
    p4 = p.reshape(nl, nb, nl, nb)

    block_sum = np.einsum("aibi->ab", p4)
    scalar = float(np.real(block_sum[e_lat, e_lat]))
    dpi_vol = spec.dpi_vol
    check_residual("|diagonal block trace - dpi_vol|", abs(scalar - dpi_vol),
                   BLOCK_TRACE * max(1.0, dpi_vol))

    values = _average_column(
        lat, conjugate_cocycle(spec.restricted_cocycle).table, "right", block_sum
    )

    regular = regularity(spec.restricted_cocycle).regular_elements
    return PhiFunction(values, dpi_vol, spec.restricted_cocycle, lat, regular)


def phi_oracle_sum(specs: Sequence[ModuleSpec]) -> PhiFunction:
    """Oracle for a direct sum of modules over one common lattice.

    The embedded projection is block diagonal, one block per summand,
    so the dimension function of the sum is computed by accumulating
    each summand's contribution.  Windows may differ per summand.
    """
    if not specs:
        raise DimensionMismatch("need at least one summand")
    first = specs[0]
    for s in specs[1:]:
        if s.rep.group is not first.rep.group and not np.array_equal(
            s.rep.group.cayley, first.rep.group.cayley
        ):
            raise DimensionMismatch("summands live over different groups")
        if s.lattice.elements != first.lattice.elements:
            raise DimensionMismatch("summands use different lattices")
    parts = [phi_oracle(s) for s in specs]
    values = np.sum([p.values for p in parts], axis=0)
    dpi_vol = float(sum(p.dpi_vol for p in parts))
    return PhiFunction(
        values, dpi_vol, first.restricted_cocycle,
        first.lattice_group, parts[0].regular,
    )


def cdim_operator(fn: PhiFunction) -> np.ndarray:
    """Matrix of twisted convolution by phi on lattice functions.

    The operator this represents is positive, so the matrix must come
    out Hermitian; a failure here means phi was computed wrong.
    """
    op = conv_operator(fn.values, fn.cocycle)
    scale = max(1.0, float(np.abs(op).max()))
    asym = float(np.abs(op - op.conj().T).max())
    check_residual("convolution operator asymmetry", asym, CDIM_ASYMMETRY * scale,
                   NotHermitian)
    return (op + op.conj().T) / 2


def abelian_kleppner_shortcut(spec: ModuleSpec) -> PhiFunction:
    """Collapsed dimension function for abelian groups with factor twist.

    When the big group is abelian and the full cocycle admits only the
    identity as a regular class, phi is (dim/|lattice|) at the identity
    and zero elsewhere.  No sums are computed.
    """
    g = spec.rep.group
    if not g.is_abelian():
        raise PreconditionFailed("group is not abelian")
    reg = regularity(spec.rep.cocycle)
    if not reg.kleppner:
        raise PreconditionFailed(
            "full cocycle has nonidentity regular classes"
        )
    lat = spec.lattice_group
    values = np.zeros(lat.order, dtype=np.complex128)
    values[lat.identity] = spec.dpi_vol

    regular = regularity(spec.restricted_cocycle).regular_elements
    return PhiFunction(
        values, spec.dpi_vol, spec.restricted_cocycle, lat, regular
    )
