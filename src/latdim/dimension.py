"""Center-valued module dimension of an irreducible rep over a lattice.

Two independent routes compute the same function phi on the lattice:
``phi`` evaluates a closed-form class sum over the whole group, and
``phi_oracle`` realizes the module inside functions on the group and
reads the answer off its range projection P, as the trace
Tr(lambda_sigma(gamma)* P) / |lattice| against the twisted left regular
rep.  Their agreement is the main correctness property of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import conv_operators
from .cocycles import Cocycle, lattice_regular, regularity, restrict
from .config import BLOCK_TRACE, CDIM_ASYMMETRY, PHI_IDENTITY
from .errors import DimensionMismatch, NotHermitian, NotIrreducible, check_residual
from .groups import FiniteGroup, Subgroup, generated_subgroups
from .reps import ProjectiveRep, WaveletTransform, is_irreducible, unit_window, wavelet

# Lattices below this order keep the dense solve of Phi: a stacked eigvalsh
# of such small operators costs less than closing each row's support.
_REDUCE_FROM = 32


@dataclass(frozen=True)
class WindowedRep:
    """An irreducible rep with a unit window: what every lattice of a scan shares.

    ``window`` is a read-only unit vector used to realize modules inside
    functions on the group; the dimension function does not depend on
    the choice.  Each route reads its own cached field and never the
    other's: ``phi`` reads ``class_sums``, built from ``diagonal`` on
    the group's regular elements, and ``phi_oracle`` reads ``traces``,
    built from ``transform``.  Build one with ``windowed_rep`` and cut a
    module for each lattice with ``spec``.
    """

    rep: ProjectiveRep
    window: np.ndarray

    @cached_property
    def diagonal(self) -> np.ndarray:
        """x |-> <window, pi(x) window> over the whole group."""
        a = self.rep.matrices @ self.window
        diag = a.conj() @ self.window
        diag.setflags(write=False)
        return diag

    @cached_property
    def class_sums(self) -> np.ndarray:
        """Read-only class sum of ``phi_values`` at each element of the group.

        The sum at gamma, sum_y conj(tilde(gamma, y)) <window, pi(y^-1
        gamma y) window>, depends on gamma alone and not on a lattice.  It
        is taken at each element that ``regularity`` at the rep's tol marks
        regular in the group; elsewhere tilde(gamma, .) is a nontrivial
        character of the centralizer of gamma, the sum is exactly 0, and 0
        is written rather than rounding residue.
        """
        g = self.rep.group
        regular = np.flatnonzero(regularity(self.rep.cocycle, self.rep.tol).regular_elements)
        conj = g.conjugation[regular]  # [i, y] = y^-1 regular[i] y
        sigma = self.rep.cocycle.table
        tilde = sigma[regular] * np.conj(sigma[np.arange(g.order), conj])
        sums = np.zeros(g.order, dtype=np.complex128)
        sums[regular] = np.sum(np.conj(tilde) * self.diagonal[conj], axis=1)
        sums.setflags(write=False)
        return sums

    @cached_property
    def transform(self) -> WaveletTransform:
        """The checked wavelet transform of the window."""
        return wavelet(self.rep, self.window)

    @cached_property
    def traces(self) -> np.ndarray:
        """Read-only Tr(lambda_sigma(gamma)* P) at each element gamma of the group.

        P = d_pi V V* is the module's range projection, built from ``transform``
        and not kept.  lambda_sigma(gamma) delta_x = sigma(gamma, x) delta_(gamma x),
        so the trace is sum_x conj(sigma(gamma, x)) P[gamma x, x].
        """
        t = self.transform
        g, n = t.rep.group, t.rep.group.order
        p = t.rep.dim / n * (t.matrix @ t.matrix.conj().T)
        traces = np.sum(np.conj(t.rep.cocycle.table) * p[g.cayley, np.arange(n)], axis=1)
        traces.setflags(write=False)
        return traces

    def spec(self, lattice: Subgroup) -> ModuleSpec:
        """The module of this rep and window over ``lattice``."""
        if lattice.parent is not self.rep.group:
            raise DimensionMismatch("lattice does not live in the rep's group")
        return ModuleSpec(self, lattice, restrict(self.rep.cocycle, lattice))


@dataclass(frozen=True)
class ModuleSpec:
    """An irreducible rep and window together with a lattice to restrict to.

    ``restricted_cocycle`` lives on the lattice materialized as a group
    of its own (indices 0..|lattice|-1), which ``lattice_group`` returns.
    The rep and window come from ``windowed``, which every spec cut from
    it shares.  The dimension function is derived once per spec and read
    by every decision and construction on it.  ``regular``, the lattice's
    own regular mask, is only printed: phi reads the group's.
    """

    windowed: WindowedRep
    lattice: Subgroup
    restricted_cocycle: Cocycle

    @property
    def rep(self) -> ProjectiveRep:
        return self.windowed.rep

    @property
    def window(self) -> np.ndarray:
        return self.windowed.window

    @property
    def lattice_group(self) -> FiniteGroup:
        """The lattice as a group of its own, the restricted cocycle's group."""
        return self.restricted_cocycle.group

    @property
    def dpi_vol(self) -> float:
        """Scalar module dimension dim(pi)/|lattice|."""
        return self.rep.dim / self.lattice.order

    @cached_property
    def regular(self) -> np.ndarray:
        """Lattice elements regular for the restricted cocycle at the rep's tol: a block of one."""
        return lattice_regular(self.rep.cocycle, self.lattice.elements[None], self.rep.tol)[0]

    @cached_property
    def dimension_function(self) -> PhiFunction:
        """phi of this spec, by the class-sum formula."""
        return phi(self)


@dataclass(frozen=True)
class PhiFunction:
    """The dimension function on the lattice.

    ``values[gamma]`` is phi at lattice index gamma; the associated
    positive operator is twisted convolution by ``values`` over
    ``cocycle``, the restricted cocycle, whose group is the lattice.
    ``values`` is read-only, so the spectrum of that operator is
    computed once.
    """

    values: np.ndarray
    cocycle: Cocycle

    def __post_init__(self) -> None:
        self.values.setflags(write=False)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Ascending eigenvalues of twisted convolution by phi: ``phi_spectra`` on a block of one."""
        g = self.cocycle.group
        return phi_spectra(self.values[None], g.cayley[None], self.cocycle.table[None],
                           g.identity)[0]

    @cached_property
    def off_identity_peak(self) -> np.float64:
        """Largest |phi| off the identity, 0 on the trivial lattice; NaN comes through."""
        return off_identity_peaks(self.values[None], self.cocycle.group.identity)[0]


def random_window(dim: int, seed: int) -> np.ndarray:
    """Seeded complex unit vector."""
    rng = np.random.default_rng([seed, 0x57A8])
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return w / np.linalg.norm(w)


def windowed_rep(rep: ProjectiveRep, window: np.ndarray | None = None) -> WindowedRep:
    """Check and pair a rep with a window.

    The rep must be irreducible and the window (default: first basis
    vector) must have unit norm.  The pair keeps a read-only copy of
    the window, so later writes to the caller's array cannot change it.
    """
    irr, cdim = is_irreducible(rep)
    if not irr:
        raise NotIrreducible(f"commutant has dimension {cdim}")
    if window is None:
        w = np.zeros(rep.dim, dtype=np.complex128)
        w[0] = 1.0
    else:
        w = unit_window(window, rep.dim).copy()
    w.setflags(write=False)
    return WindowedRep(rep, w)


def make_module_spec(
    rep: ProjectiveRep,
    lattice: Subgroup,
    window: np.ndarray | None = None,
) -> ModuleSpec:
    """Assemble and validate the ModuleSpec of one rep, window and lattice.

    A caller with several lattices of one (rep, window) pair builds
    ``windowed_rep`` once and calls its ``spec`` per lattice instead.
    """
    return windowed_rep(rep, window).spec(lattice)


def phi(spec: ModuleSpec) -> PhiFunction:
    """Dimension function by the closed-form class sum: ``phi_values`` on a block of one."""
    values = phi_values(spec.windowed, spec.lattice.elements[None])[0]
    return PhiFunction(values, spec.restricted_cocycle)


def phi_values(source: WindowedRep, elems: np.ndarray) -> np.ndarray:
    """Dimension function on each lattice of a block of equal-order lattices.

    Row b of ``elems`` and of the result belongs to one lattice: its
    elements in increasing order and phi at each element.  For a lattice
    element gamma,

        phi(gamma) = d_pi / |lattice| * sum_y conj(tilde(gamma, y))
                        * <window, pi(y^-1 gamma y) window>

    where y runs over the whole big group and tilde(gamma, y) =
    sigma(gamma, y) conj(sigma(y, y^-1 gamma y)) is the conjugation-
    twisted form of the full cocycle.  The terms are constant on each
    coset C y of the centralizer C of gamma in the lattice, because
    tilde(gamma, c y) = tilde(gamma, c) tilde(gamma, y) and
    tilde(gamma, c) = 1 for a regular gamma.  So the sum is |C| times a
    sum over coset representatives, and |C| k = |lattice| for the class
    size k.  The sum depends on gamma and not on the lattice, and is 0
    unless gamma is regular in the big group, so it is read from
    ``source.class_sums``.  phi(e) must be dpi_vol; it is one number for
    the whole block.
    """
    g = source.rep.group
    sums = source.class_sums
    scale = source.rep.dim / g.order / elems.shape[1]
    dpi_vol = source.rep.dim / elems.shape[1]
    check_residual("|phi(e) - dpi_vol|", abs(scale * sums[g.identity] - dpi_vol),
                   PHI_IDENTITY * max(1.0, dpi_vol))
    return scale * sums[elems]


def off_identity_peaks(values: np.ndarray, identity: np.ndarray | int) -> np.ndarray:
    """Largest |phi| off the identity on each row of a block; 0 on the trivial lattice.

    ``identity`` holds block places, as ``subgroup_tables`` gives them.  A
    NaN off the identity comes through.
    """
    peaks = np.abs(values)
    peaks.ravel()[identity] = 0.0
    return peaks.max(axis=1)


def phi_oracle(spec: ModuleSpec) -> PhiFunction:
    """Dimension function by the module embedding: ``phi_oracle_values`` on a block of one."""
    values = phi_oracle_values(spec.windowed, spec.lattice.elements[None])[0]
    return PhiFunction(values, spec.restricted_cocycle)


def phi_oracle_values(source: WindowedRep, elems: np.ndarray) -> np.ndarray:
    """Dimension function on each lattice of a block, by the explicit module embedding.

    Row b of ``elems`` holds one lattice's elements in increasing order.  The
    embedding relabels G as lattice x right transversal, x = c y, sums the
    diagonal blocks of the relabeled range projection P and averages them over
    the lattice's twisted right translations.  The cocycle identity at (gamma,
    c, c^-1) and at (gamma, c, y) reduces every phase of that sum to
    conj(sigma(gamma, c y)), and x = c y runs over G exactly once, so

        phi(gamma) = |lattice|^-1 sum_x conj(sigma(gamma, x)) P[gamma x, x]
                   = Tr(lambda_sigma(gamma)* P) / |lattice|,

    read off ``WindowedRep.traces`` with no transversal and no lattice table.
    At gamma = e it is Tr P / |lattice| = dpi_vol, checked once per block.
    """
    m, dpi_vol = elems.shape[1], source.rep.dim / elems.shape[1]
    trace_p = source.traces[source.rep.group.identity]
    check_residual("|Tr P / |lattice| - dpi_vol|", abs(trace_p / m - dpi_vol),
                   BLOCK_TRACE * max(1.0, dpi_vol))
    return source.traces[elems] / m


def cdim_operator(fn: PhiFunction) -> np.ndarray:
    """Matrix of twisted convolution by phi on lattice functions: a block of one."""
    return cdim_operators(fn.values[None], fn.cocycle.group.cayley[None],
                          fn.cocycle.table[None])[0]


def cdim_operators(values: np.ndarray, cayley: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Twisted convolution by each row of ``values`` over a block of lattices.

    The block's tables are those ``conv_operators`` reads.  Each operator
    is positive, so its matrix must come out Hermitian; a failure here
    means phi was computed wrong, and the first lattice that fails raises.
    The Hermitian parts are returned.
    """
    op = conv_operators(values, cayley, table)
    adj = op.conj().transpose(0, 2, 1)
    scale = np.maximum(1.0, np.abs(op).max(axis=(1, 2)))
    asym = np.abs(op - adj).max(axis=(1, 2))
    check_residual("convolution operator asymmetry", asym, CDIM_ASYMMETRY * scale,
                   NotHermitian)
    return (op + adj) / 2


def phi_spectra(values: np.ndarray, cayley: np.ndarray, table: np.ndarray,
                identity: np.ndarray | int) -> np.ndarray:
    """Ascending spectra of Phi, twisted convolution by each row of ``values``.

    The tables and identities are in block places, as ``subgroup_tables``
    gives them.  Row b of phi vanishes off a set S; let H be the subgroup
    of the lattice generated by S and e, closed in the lattice's own Cayley
    table.  Then Phi = sum_{h in H} phi(h) lam(h) maps l2(H c) to itself for
    every coset H c, and entries between two cosets are exactly 0.  The
    twisted right translation by c is a phase permutation that commutes
    with every lam(h) by the cocycle identity and carries the H block onto
    the H c block, so every coset block has the spectrum of the H block,
    and its asymmetry entries are those of the H block up to unit phases.
    So only the |H| x |H| operator is built, checked Hermitian by
    ``cdim_operators`` and solved, and each eigenvalue is repeated [L:H]
    times, which keeps the order ascending.  No tolerance decides S: the
    class sums hold exact zeros off the group's regular elements, so under
    Kleppner's condition H = {e} and Phi = dpi_vol I on every lattice.
    Lattices of order below ``_REDUCE_FROM`` are solved densely; above it
    one ``generated_subgroups`` call closes every row's H, and rows are
    stacked by |H|.
    """
    nb, m = values.shape
    if m < _REDUCE_FROM:
        return np.linalg.eigvalsh(cdim_operators(values, cayley, table))
    support = values != 0
    support.ravel()[identity] = True
    closed = generated_subgroups(cayley, support)
    sizes = np.count_nonzero(closed, axis=1)
    spectra = np.empty((nb, m))
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == k)
        h = np.nonzero(closed[rows])[1].reshape(rows.size, k)  # ascending in each row
        # H's Cayley tables, naming its elements by their places in a block of H's
        places = h + m * rows[:, None]
        pos = np.empty(nb * m, dtype=np.int64)
        pos[places] = np.arange(places.size).reshape(places.shape)
        cay = pos[cayley[rows[:, None, None], h[:, :, None], h[:, None, :]]]
        tab = table[rows[:, None, None], h[:, :, None], h[:, None, :]]
        ops = cdim_operators(values[rows[:, None], h], cay, tab)
        spectra[rows] = np.repeat(np.linalg.eigvalsh(ops), m // k, axis=1)
    return spectra
