"""Projective unitary representations and their matrix coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .cocycles import Cocycle
from .config import ROW_BLOCK as _BLOCK
from .config import (CHARACTER_NORM, DEFAULT_TOL, EIG_CUT, ORTHOGONALITY, WAVELET,
                     WINDOW_NORM, Tolerances, row_blocks)
from .errors import (ConsistencyError, DimensionMismatch, InputError, NotIrreducible,
                     WindowNotUnit, check_residual)
from .groups import FiniteGroup


@dataclass(frozen=True)
class ProjectiveRep:
    """A projective unitary representation given by explicit matrices.

    ``matrices`` has shape (order, dim, dim); row x holds the unitary
    assigned to group element x.  Multiplying two of them picks up the
    cocycle: pi(x) pi(y) = sigma(x, y) pi(x y).  The stack is made
    read-only on construction, which is what lets derived data such as
    the validation report and the commutant dimension be computed once
    per rep.  ``tol`` holds the tolerances that everything built on it reads.
    """

    group: FiniteGroup
    cocycle: Cocycle
    dim: int
    matrices: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self) -> None:
        self.matrices.setflags(write=False)

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[x]

    @cached_property
    def report(self) -> RepReport:
        """``validate_rep`` of this rep at its tolerances ``tol``."""
        return validate_rep(self)

    @cached_property
    def commutant_dim(self) -> int:
        """Dimension of the commutant, as the character norm |G|^-1 sum_x |tr pi(x)|^2.

        Schur orthogonality of projective characters makes the two equal
        for a sigma-rep, so a rep whose ``report`` is not ok raises
        InputError.  A NaN norm, or one off an integer by more than
        CHARACTER_NORM (rel), raises ConsistencyError.
        """
        if not self.report.ok:
            raise InputError(f"rep invalid: {self.report.message}")
        chi = np.trace(self.matrices, axis1=1, axis2=2)
        norm = float(np.sum(np.abs(chi) ** 2)) / self.group.order
        k = np.rint(norm)
        check_residual("character norm distance to an integer", abs(norm - k),
                       CHARACTER_NORM * max(1.0, norm))
        return int(k)


@dataclass(frozen=True)
class RepReport:
    ok: bool
    unitary_residual: float
    composition_residual: float
    worst_pair: tuple[int, int]
    message: str


def projective_rep(
    group: FiniteGroup, cocycle: Cocycle, matrices: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> ProjectiveRep:
    # a copy, so the caller's array neither aliases nor loses write access
    matrices = np.array(matrices, dtype=np.complex128, order="C")
    if matrices.ndim != 3 or matrices.shape[0] != group.order:
        raise DimensionMismatch(
            f"expected ({group.order}, d, d) matrix stack, got {matrices.shape}"
        )
    if matrices.shape[1] != matrices.shape[2] or matrices.shape[1] == 0:
        raise DimensionMismatch("representation matrices must be square and nonempty")
    if cocycle.group.order != group.order:
        raise DimensionMismatch("cocycle and group orders differ")
    return ProjectiveRep(group, cocycle, matrices.shape[1], matrices, tol)


def _monomial_rows(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Column index and phase of the one nonzero in each row of every matrix, or None.

    Both arrays are indexed [i, x], rows i leading.  None unless every entry
    is finite and every row holds exactly one nonzero.  NaN and inf count as
    nonzeros, so only the phases need the finiteness check.
    """
    n, d, _ = mats.shape
    mats = np.ascontiguousarray(mats)
    # an entry is nonzero where its pair of (real, imag) flags, read as one
    # 16-bit word, is; the flat positions come in row order, and a bool mask
    # is the one np.flatnonzero reads fast
    at = np.flatnonzero((mats.view(np.float64) != 0).view(np.uint16) != 0)
    if at.size != n * d:
        return None
    at = np.ascontiguousarray(at.reshape(n, d).T)
    index = at - np.add.outer(np.arange(0, d * d, d), np.arange(0, n * d * d, d * d))
    # |G| dim nonzeros fill one a row unless one of them lies outside its row
    if index.min() < 0 or index.max() >= d:
        return None
    phase = np.take(mats, at)
    return (index, phase) if np.isfinite(phase).all() else None


def validate_rep(rep: ProjectiveRep) -> RepReport:
    """Check unitarity of every matrix and the twisted composition law, at ``rep.tol``.

    The law pi(x) pi(s) = sigma(x, s) pi(xs) for every x and every s in S,
    the identity and the generators, and unitarity give
    pi(x) pi(y) = c(x, y) pi(xy) for every pair and some unimodular scalar
    c(x, y), by induction on the word length of y: the step is
    pi(x) pi(ys) = sigma(y, s)^-1 c(x, y) sigma(xy, s) pi(xys).  Row 0 of
    the unitary pi(xy) is not zero, so the law holds on all pairs iff row 0
    of it does.  Each stack form has one unitarity kernel and one law
    kernel, which checks given rows of the law for every x and given y, and
    the law kernel serves every pass: every row on S, for the reported
    residual and pair; row 0 on every y, a block of y at a time, as the
    gate; and, where either fails, every row on the same blocks of y, for
    the first worst pair in (x, y) order.  The dense all-pairs reference,
    one product pi(x) pi(y) per pair, lives in the tests.

    A stack of finite permutation-phase matrices, one nonzero per row, is
    read as (index, phase) rows and checked by gathers, with no matrix
    product; any other stack is multiplied out.  Everything runs over
    blocks of about ``_BLOCK`` entries, so no temporary grows with
    |G| dim^2 or |G|^2, and every reduction is a NumPy max or argmax,
    which keeps a NaN.
    """
    g, mats, t, tol = rep.group, rep.matrices, rep.cocycle.table, rep.tol
    gens = np.array((g.identity,) + g.generators)
    monomial = _monomial_rows(mats)
    if monomial is None:
        unit_res, law = _dense_unitarity(mats), partial(_dense_law, mats, g, t)
    else:
        unit_res, law = _monomial_unitarity(*monomial), partial(_monomial_law, *monomial, g, t)
    comp = law(slice(None), gens)
    # first maximum in (s, x) order
    j, x = divmod(int(comp.argmax()), g.order)
    comp_res, worst = float(comp[j, x]), (x, int(gens[j]))

    # the gate: row 0 on every y, in blocks of y whose [j, x] gaps and pi(y) each
    # hold at most about _BLOCK entries
    y_blocks = row_blocks(g.order, max(g.order, rep.dim ** 2), _BLOCK)
    if not (comp_res <= tol.tol_id
            and np.max([law(slice(0, 1), ys).max() for ys in y_blocks]) <= tol.tol_id):
        # the search: every row on the same blocks of y; first maximum or NaN in (x, y) order
        gaps = np.hstack([law(slice(None), ys).T for ys in y_blocks])  # [x, y]
        x, y = divmod(int(gaps.argmax()), g.order)
        comp_res, worst = float(gaps[x, y]), (x, y)

    ok = unit_res <= tol.tol_unit and comp_res <= tol.tol_id
    if not unit_res <= tol.tol_unit:
        message = f"matrix is not unitary (residual {unit_res:.3e})"
    elif not ok:
        message = f"composition law fails at {worst} (residual {comp_res:.3e})"
    else:
        message = "ok"
    return RepReport(ok, unit_res, comp_res, worst, message)


def _monomial_unitarity(index: np.ndarray, phase: np.ndarray) -> float:
    """Largest entry of pi(x)* pi(x) - I over the stack that ``_monomial_rows`` read."""
    d, n = index.shape
    # pi(x)* pi(x) is diagonal; its entry at a sums |phase|^2 over the rows on column a
    diag = np.bincount((index + d * np.arange(n)).ravel(),
                       (phase.real ** 2 + phase.imag ** 2).ravel(), n * d)
    return float(np.abs(diag - 1).max())


def _monomial_law(index: np.ndarray, phase: np.ndarray, g: FiniteGroup, t: np.ndarray,
                  rows: slice, ys: slice | np.ndarray) -> np.ndarray:
    """[j, x] gaps: largest entry of rows ``rows`` of pi(x) pi(y_j) - sigma(x, y_j) pi(x y_j).

    Reads the [i, x] stack that ``_monomial_rows`` read.
    Row i of pi(x) pi(y) holds phase_x(i) phase_y(c) at column index_y(c),
    c = index_x(i), and row i of sigma(x, y) pi(xy) holds sigma(x, y) phase_xy(i)
    at column index_xy(i).
    """
    n = g.order
    xy, t_y = np.ascontiguousarray(g.cayley[:, ys]), t[:, ys]  # [x, j] = x y_j and sigma(x, y_j)
    # [c, j]: row c of pi(y_j), so that row c of every y_j is one contiguous gather
    index_y, phase_y = (np.ascontiguousarray(a[:, ys]) for a in (index, phase))
    index, phase = index[rows], phase[rows]
    comp = np.empty(xy.shape)
    for xs in row_blocks(n, 4 * len(index) * xy.shape[1], _BLOCK):  # ~4 entries a (row, y)
        # [i, x, j], so that the largest gap over i reduces a leading axis
        c, xy_s = index[:, xs], xy[xs]
        apart = index_y.take(c, axis=0) != index.take(xy_s, axis=1)
        lhs = phase_y.take(c, axis=0)
        lhs *= phase[:, xs, None]
        rhs = phase.take(xy_s, axis=1)
        rhs *= t_y[xs]
        # on two columns, the row's largest entry is the larger modulus
        apart_gap = np.maximum(np.abs(lhs[apart]), np.abs(rhs[apart]))
        gap = np.abs(np.subtract(lhs, rhs, out=rhs))
        gap[apart] = apart_gap
        np.maximum.reduce(gap, axis=0, out=comp[xs])
    return comp.T


def _dense_unitarity(mats: np.ndarray) -> float:
    """Largest entry of pi(x)* pi(x) - I, over row blocks of x."""
    d = mats.shape[1]
    return float(np.max([np.abs(mats[xs].conj().transpose(0, 2, 1) @ mats[xs] - np.eye(d)).max()
                         for xs in row_blocks(len(mats), d * d, _BLOCK)]))


def _dense_law(mats: np.ndarray, g: FiniteGroup, t: np.ndarray, rows: slice,
               ys: slice | np.ndarray) -> np.ndarray:
    """The [j, x] gaps of ``_monomial_law``, from matrix products on any stack."""
    d = mats.shape[1]
    xy, t_y = g.cayley[:, ys], t[:, ys]  # [x, j] = x y_j and sigma(x, y_j)
    k = xy.shape[1]
    # [pi(y_1) ... pi(y_k)] side by side: the rows of pi(x) times each are one product
    right = mats[ys].transpose(1, 0, 2).reshape(d, k * d)
    at = mats[:, rows]  # [x, i, l]
    r = at.shape[1]
    comp = np.empty(xy.shape)
    for xs in row_blocks(g.order, k * r * d, _BLOCK):
        lhs = (at[xs].reshape(-1, d) @ right).reshape(-1, r, k, d)  # [x, i, j, l]
        res = at.take(xy[xs], axis=0)  # [x, j, i, l] = rows of pi(x y_j)
        res *= t_y[xs, :, None, None]
        np.subtract(lhs.transpose(0, 2, 1, 3), res, out=res)
        # [(i, l), (x, j)], so that the largest gap over (i, l) reduces a leading axis
        gap = np.abs(res.reshape(-1, r * d).T, order="C")
        np.maximum.reduce(gap, axis=0, out=comp[xs].reshape(-1))
    return comp.T


def is_irreducible(rep: ProjectiveRep) -> tuple[bool, int]:
    """Whether the commutant is trivial, plus its dimension; an invalid rep raises InputError."""
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

    check_residual("wavelet intertwining residual", _intertwining_residual(rep, v), WAVELET)

    gram = d_pi * (v.conj().T @ v)
    iso = float(np.abs(gram - np.eye(rep.dim)).max())
    check_residual("wavelet isometry residual", iso, WAVELET)
    return WaveletTransform(rep, window, v)


def _intertwining_residual(rep: ProjectiveRep, v: np.ndarray) -> float:
    """Largest entry of V pi(y) - lambda_sigma(y) V over every y.

    Row r of lambda_sigma(y) V is sigma(y, y^-1 r) times row y^-1 r of V.
    Over each block of y, V times the block's pi(y) side by side is one
    product, and every temporary holds about _BLOCK entries.
    """
    g, t, n, d = rep.group, rep.cocycle.table, rep.group.order, rep.dim
    blocks = row_blocks(n, n * d, _BLOCK)
    res = np.empty(len(blocks))
    for b, ys in enumerate(blocks):
        lhs = v @ rep.matrices[ys].transpose(1, 0, 2).reshape(d, -1)  # [r, (y, i)]
        cols = g.cayley[g.inverse[ys]].T  # [r, y] = y^-1 r
        rhs = np.take(v, cols, axis=0)
        rhs *= t[np.arange(ys.start, ys.stop), cols][..., None]
        np.subtract(lhs.reshape(rhs.shape), rhs, out=rhs)
        res[b] = np.abs(rhs).max()
    return float(res.max())


def irreducible_subrep(group: FiniteGroup, cocycle: Cocycle, seed: int = 0,
                       tol: Tolerances = DEFAULT_TOL) -> ProjectiveRep:
    """Cut an irreducible summand, carrying ``tol``, out of the twisted left regular rep.

    The average E of lam(b) H lam(b)* over G, for a random Hermitian H, lies in the
    commutant; the cut takes E's eigenspace cluster of largest dimension (ties go to
    the lowest eigenvalue) and compresses the rep onto it.  Retries with fresh
    randomness, at most 8 times, while the cut summand is not valid at ``tol`` or not
    irreducible; then raises InputError or NotIrreducible, for the last cut.  With
    lam(b) delta_i = sigma(b, i) delta_{b i}, the commutant is spanned by
    rho(c) delta_i = sigma(i, c) delta_{i c}, pairwise orthogonal of Hilbert-Schmidt
    norm^2 |G|, so E is H's projection onto them: E[i c, i] = f(c) sigma(i, c) with
    f(c) = |G|^-1 sum_i conj sigma(i, c) H[i c, i].  Both steps are O(|G|^2) gathers.
    """
    n, cay, t = group.order, group.cayley, cocycle.table
    cols = np.arange(n)[:, None]
    for attempt in range(8):
        rng = np.random.default_rng([seed, attempt, 0x1D])
        h_rand = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_rand = h_rand + h_rand.conj().T
        f = (np.conj(t) * h_rand[cay, cols]).sum(axis=0) / n  # term [i, c] reads H[i c, i]
        e = np.empty((n, n), dtype=np.complex128)
        e[cay, cols] = f * t
        e = (e + e.conj().T) / 2
        eigvals, eigvecs = np.linalg.eigh(e)
        scale = max(1.0, float(np.abs(eigvals).max()))
        # a cluster starts wherever the gap is not below the cut, a NaN gap too
        starts = np.flatnonzero(np.r_[True, ~(np.diff(eigvals) < EIG_CUT * scale)])
        sizes = np.diff(np.r_[starts, n])
        k = int(np.argmax(sizes))  # the first largest: ties go to the lowest eigenvalue
        d = int(sizes[k])
        q = eigvecs[:, starts[k]:starts[k] + d]  # (n, d) orthonormal
        # (q* lam(x) q)[i, j] = sum_s conj(q[x s, i]) sigma(x, s) q[s, j]
        mats = np.empty((n, d, d), dtype=np.complex128)
        for xs in row_blocks(n, n * d, _BLOCK):
            qx = q[cay[xs]].conj()  # [x, s, i]
            qx *= t[xs, :, None]
            mats[xs] = qx.transpose(0, 2, 1) @ q
        candidate = ProjectiveRep(group, cocycle, d, mats, tol)
        if not candidate.report.ok:
            failure = InputError(f"cut summand invalid: {candidate.report.message}")
        elif is_irreducible(candidate)[0]:
            return candidate
        else:
            failure = NotIrreducible("no irreducible summand found in 8 attempts")
    raise failure
