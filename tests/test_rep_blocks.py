"""The blocked representation checks against dense references.

``validate_rep`` and the intertwining check of ``wavelet`` run over
blocks of a fixed size, and ``validate_rep`` reads a stack of finite
permutation-phase matrices, one nonzero per row, as (index, phase) rows
with no matrix product.  The references below are dense forms that share
none of that code: one |G| x dim^2 product per generator for the
composition law and one (|G| x dim) product per y for the intertwining
check.  In front of the all-pairs search, ``validate_rep`` checks row 0
of the law on every pair, and the reference checks the cocycle identity
on the generators, one |G| x |G| table each; both trip exactly when the
law fails on some pair, so the reports agree.  The search itself runs
the stack form's law kernel on every row and every y; its dense
reference is ``_all_pairs_worst``, one product pi(x) pi(y) per pair.
On a permutation-phase stack, |phase|^2 is rounded differently from
BLAS's conj(phi) phi, so the unitarity residual matches to 1e-15, not
exactly; the kernels' products round differently from the reference's
too, so the composition residual matches to 1e-15 and the pair exactly.
"""

import time
from functools import partial

import numpy as np
import pytest

import latdim.reps
from latdim import Cocycle, projective_rep, random_window, validate_rep, wavelet
from latdim.config import DEFAULT_TOL, Tolerances
from latdim.reps import (RepReport, _dense_law, _intertwining_residual, _monomial_law,
                         _monomial_rows)

from fixtures_common import pauli_product_irrep, rep_fixtures, tf, traced_peak, trivial_irrep


def _all_pairs_worst(rep):
    g, mats = rep.group, rep.matrices
    res = np.empty((g.order, g.order))
    for x in range(g.order):
        rhs = rep.cocycle.table[x][:, None, None] * mats[g.cayley[x]]
        res[x] = np.abs(mats[x] @ mats - rhs).reshape(g.order, -1).max(axis=1)
    x, y = divmod(int(res.argmax()), g.order)
    return float(res[x, y]), (x, y)


def _law_gaps(rep, s):
    """[x]: largest entry of pi(x) pi(s) - sigma(x, s) pi(x s), from one dense product."""
    g, mats, t = rep.group, rep.matrices, rep.cocycle.table
    r = np.abs(mats @ mats[s] - t[:, s, None, None] * mats[g.cayley[:, s]])
    return r.reshape(g.order, -1).max(axis=1)


def _dense_gate(rep):
    """[k, x] law gaps on e and the generators, and the largest cocycle-identity gap on them."""
    g, t = rep.group, rep.cocycle.table
    gens = (g.identity,) + g.generators
    comp = np.empty((len(gens), g.order))
    coc = np.empty(len(gens))
    for k, s in enumerate(gens):
        comp[k] = _law_gaps(rep, s)
        coc[k] = np.abs(t * t[g.cayley, s] - t[:, g.cayley[:, s]] * t[:, s]).max()
    return comp, coc.max()


def _dense_validate_rep(rep, tol=DEFAULT_TOL):
    g, mats = rep.group, rep.matrices
    unit_res = float(np.abs(mats.conj().transpose(0, 2, 1) @ mats - np.eye(rep.dim)).max())
    gens = (g.identity,) + g.generators
    comp, coc = _dense_gate(rep)
    k, x = divmod(int(comp.argmax()), g.order)
    comp_res, worst = float(comp[k, x]), (x, gens[k])
    if not (comp_res <= tol.tol_id and coc <= tol.tol_id):
        comp_res, worst = _all_pairs_worst(rep)
    ok = unit_res <= tol.tol_unit and comp_res <= tol.tol_id
    if ok:
        message = "ok"
    elif not unit_res <= tol.tol_unit:
        message = f"matrix is not unitary (residual {unit_res:.3e})"
    else:
        message = f"composition law fails at {worst} (residual {comp_res:.3e})"
    return RepReport(ok, unit_res, comp_res, worst, message)


def _per_y_intertwining(rep, v):
    g, t = rep.group, rep.cocycle.table
    res = np.empty(g.order)
    for y in range(g.order):
        cols = g.cayley[g.inverse[y]]  # y^-1 r
        res[y] = np.abs(v @ rep.matrices[y] - t[y, cols][:, None] * v[cols]).max()
    return float(res.max())


def _close(a, b, atol):
    return (np.isnan(a) and np.isnan(b)) or abs(a - b) <= atol


def _assert_same_report(rep):
    got, want = validate_rep(rep), _dense_validate_rep(rep, rep.tol)
    assert got.ok == want.ok
    if _monomial_rows(rep.matrices) is None:
        assert got.unitary_residual == want.unitary_residual or (
            np.isnan(got.unitary_residual) and np.isnan(want.unitary_residual))
    else:
        assert _close(got.unitary_residual, want.unitary_residual, 1e-15)
    assert _close(got.composition_residual, want.composition_residual, 1e-15)
    if not want.composition_residual <= rep.tol.tol_id:
        assert got.worst_pair == want.worst_pair
    else:
        # residuals at rounding level: which pair is the largest depends on
        # rounding, so the pair only has to be within the same 1e-15 of it
        x, y = got.worst_pair
        assert want.composition_residual - _law_gaps(rep, y)[x] <= 1e-15
    assert got.message == want.message


def _swapped(rep):
    mats = rep.matrices.copy()
    last = rep.group.order - 1
    mats[[last - 1, last]] = mats[[last, last - 1]]
    return projective_rep(rep.group, rep.cocycle, mats)


def _nan_entry(rep):
    mats = rep.matrices.copy()
    mats[rep.group.order - 1, 0, rep.dim - 1] = np.nan
    return projective_rep(rep.group, rep.cocycle, mats)


def _scaled(rep):
    mats = rep.matrices.copy()
    mats[rep.group.order - 1] *= 1 + 1e-6
    return projective_rep(rep.group, rep.cocycle, mats)


def _shared_column(rep):
    """Row 1 of the last matrix copied from row 0: a permutation-phase stack misses a column."""
    mats = rep.matrices.copy()
    mats[rep.group.order - 1, 1] = mats[rep.group.order - 1, 0]
    return projective_rep(rep.group, rep.cocycle, mats)


def _scaled_phase(rep):
    mats = rep.matrices.copy()
    mats[rep.group.order - 1, 0] *= 1 + 1e-6
    return projective_rep(rep.group, rep.cocycle, mats)


def _extra_entry(rep):
    """1e-3 added to the smallest entry of a row: on a permutation-phase stack, a second nonzero unless dim is 1."""
    mats = rep.matrices.copy()
    row = mats[rep.group.order - 1, 0]
    row[np.argmin(np.abs(row))] += 1e-3
    return projective_rep(rep.group, rep.cocycle, mats)


def _moved_entry(rep):
    """Row 1's largest entry moved into row 0: on a permutation-phase stack, as many nonzeros."""
    mats = rep.matrices.copy()
    m = mats[rep.group.order - 1]
    c = np.argmax(np.abs(m[1]))
    m[0, c], m[1, c] = m[1, c], 0
    return projective_rep(rep.group, rep.cocycle, mats)


def _inf_entry(rep):
    mats = rep.matrices.copy()
    mats[rep.group.order - 1, 0, rep.dim - 1] = np.inf
    return projective_rep(rep.group, rep.cocycle, mats)


def _rotated_at(rep, x, y):
    """sigma(x, y) rotated by e^{0.3i}."""
    table = rep.cocycle.table.copy()
    table[x, y] *= np.exp(0.3j)
    return projective_rep(rep.group, Cocycle(rep.group, table), rep.matrices)


def _rotated_cocycle_entry(rep):
    return _rotated_at(rep, rep.group.order // 2, rep.group.order - 1)


def _off_generator_pair(g):
    """A pair (x, y) whose y is neither e nor a generator, or None if every y is one."""
    ys = sorted(set(range(g.order)) - {g.identity, *g.generators})
    return (g.order // 2, ys[-1]) if ys else None


def _cocycle_pair_entry(rep):
    """sigma rotated at a pair off the generators: the law on them still holds."""
    return _rotated_at(rep, *_off_generator_pair(rep.group))


# The fixtures fit in one block of the default size; a block of one
# entry puts every row in a block of its own.
BLOCKS = pytest.mark.parametrize("block", [latdim.reps._BLOCK, 1])


@BLOCKS
@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_blocked_validate_rep_matches_dense_reference(label, rep, block, monkeypatch):
    monkeypatch.setattr(latdim.reps, "_BLOCK", block)
    _assert_same_report(rep)
    assert validate_rep(rep).ok


CORRUPTIONS = (_swapped, _nan_entry, _scaled, _rotated_cocycle_entry, _shared_column,
               _scaled_phase, _extra_entry, _moved_entry, _inf_entry, _cocycle_pair_entry)


def _applies(rep, corrupt):
    # Z1 has no two matrices to swap, a rep of dim 1 no two rows, and a
    # group generated by all its nonidentity elements no pair off the generators
    if corrupt is _swapped:
        return rep.group.order > 1
    if corrupt is _cocycle_pair_entry:
        return _off_generator_pair(rep.group) is not None
    return rep.dim > 1 or corrupt not in (_shared_column, _moved_entry)


@BLOCKS
@pytest.mark.parametrize("label, rep, corrupt", [
    (label, rep, corrupt)
    for label, rep in rep_fixtures()
    for corrupt in CORRUPTIONS
    if _applies(rep, corrupt)
])
def test_blocked_validate_rep_matches_dense_reference_on_corrupted_reps(
    label, rep, corrupt, block, monkeypatch
):
    monkeypatch.setattr(latdim.reps, "_BLOCK", block)
    bad = corrupt(rep)
    # inf times a zero of a matrix product is invalid: the one warning expected here
    with np.errstate(invalid="ignore" if corrupt is _inf_entry else "warn"):
        _assert_same_report(bad)
        # a swap that is an automorphism of the rep, as on Z3, leaves a sigma-rep
        assert not validate_rep(bad).ok or corrupt is _swapped


def _phase_at(rep, x):
    mats = rep.matrices.copy()
    mats[x] *= np.exp(0.3j)
    return projective_rep(rep.group, rep.cocycle, mats)


def _phase(rep):
    return _phase_at(rep, rep.group.order - 1)


def _swapped_rows(rep):
    mats = rep.matrices.copy()
    mats[rep.group.order - 1, [0, 1]] = mats[rep.group.order - 1, [1, 0]]
    return projective_rep(rep.group, rep.cocycle, mats)


@BLOCKS
@pytest.mark.parametrize("label, rep, monomial", [
    ("wh-Z4", tf("Z4").rep, True), ("S4", trivial_irrep("S4"), False),
    ("s3-pauli", pauli_product_irrep(), False)])
@pytest.mark.parametrize("corrupt", [_phase, _nan_entry, _swapped_rows])
def test_failure_search_runs_the_stack_forms_own_law_kernel(label, rep, monomial, corrupt, block,
                                                            monkeypatch):
    monkeypatch.setattr(latdim.reps, "_BLOCK", block)
    bad = corrupt(rep)
    # a NaN entry sends a permutation-phase stack down the dense path
    monomial = monomial and corrupt is not _nan_entry
    assert (_monomial_rows(bad.matrices) is not None) == monomial
    # the other form's kernels are never called
    other = ("_monomial_law",) if not monomial else ("_dense_law", "_dense_unitarity")
    for name in other:
        monkeypatch.setattr(latdim.reps, name, None)
    # and its own law kernel runs on every row of every y
    own, searched = "_monomial_law" if monomial else "_dense_law", []
    kernel = getattr(latdim.reps, own)

    def spy(*args):
        rows, ys = args[-2:]
        if rows == slice(None) and isinstance(ys, slice):
            searched.extend(range(bad.group.order)[ys])
        return kernel(*args)

    monkeypatch.setattr(latdim.reps, own, spy)
    report = validate_rep(bad)
    assert searched == list(range(bad.group.order))
    want, pair = _all_pairs_worst(bad)
    assert not report.ok and report.worst_pair == pair
    assert _close(report.composition_residual, want, 1e-15)


def test_failure_search_at_256_is_fast_and_small():
    rep = _phase_at(tf("Z16").rep, 77)  # Weyl-Heisenberg over Z16 x Z16, dim 16
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        report = validate_rep(rep)
        seconds.append(time.perf_counter() - start)
    assert report.message == "composition law fails at (77, 77) (residual 5.910e-01)"
    assert min(seconds) < 0.25
    traced, peak = traced_peak(validate_rep, rep)
    assert traced == report and peak < 2 * 2 ** 20


def test_infinite_entry_gives_the_dense_nan_report():
    with np.errstate(invalid="ignore"):
        report = validate_rep(_inf_entry(tf("Z4").rep))
    assert not report.ok and np.isnan(report.unitary_residual)
    assert report.message == "matrix is not unitary (residual nan)"


# the nonabelian cuts that the routes benchmark validates: dense, random bases
NONABELIAN_CUTS = [("s3-pauli", pauli_product_irrep())] + [
    (name, trivial_irrep(name)) for name in ("S3", "D4", "Q8", "S4", "D4xZ2xZ2")]
ONE_NONZERO_PER_ROW = (_swapped, _scaled, _rotated_cocycle_entry, _shared_column, _scaled_phase,
                       _cocycle_pair_entry)
DENSE_PATH = (_extra_entry, _moved_entry, _nan_entry, _inf_entry)


@pytest.mark.parametrize("base", ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z4xZ4", "Z16"])
def test_time_frequency_reps_take_the_permutation_phase_path(base, monkeypatch):
    rep = tf(base).rep
    # no matrix product: calling either dense step fails
    monkeypatch.setattr(latdim.reps, "_dense_law", None)
    monkeypatch.setattr(latdim.reps, "_dense_unitarity", None)
    assert validate_rep(projective_rep(rep.group, rep.cocycle, rep.matrices)).ok
    index, phase = _monomial_rows(rep.matrices)
    rebuilt = np.zeros_like(rep.matrices)
    np.put_along_axis(rebuilt, index.T[..., None], phase.T[..., None], axis=2)
    assert np.array_equal(rebuilt, rep.matrices)
    for corrupt in ONE_NONZERO_PER_ROW + DENSE_PATH:
        if _applies(rep, corrupt):
            dense = corrupt in DENSE_PATH and (rep.dim > 1 or corrupt is not _extra_entry)
            assert (_monomial_rows(corrupt(rep).matrices) is None) == dense, corrupt.__name__


@pytest.mark.parametrize("label, rep", NONABELIAN_CUTS)
def test_nonabelian_cuts_take_the_dense_path(label, rep):
    assert rep.dim > 1
    for corrupt in ONE_NONZERO_PER_ROW + DENSE_PATH:
        assert _monomial_rows(corrupt(rep).matrices) is None, corrupt.__name__
    assert _monomial_rows(rep.matrices) is None
    _assert_same_report(rep)


def test_a_cocycle_entry_off_the_generators_is_caught_only_by_the_gate():
    rep = tf("Z4").rep
    x, y = _off_generator_pair(rep.group)
    bad = _cocycle_pair_entry(rep)
    comp, coc = _dense_gate(bad)
    assert comp.max() < 1e-12 and coc > 0.1
    report = validate_rep(bad)
    assert not report.ok and report.worst_pair == (x, y)
    assert report.message == f"composition law fails at {(x, y)} (residual {abs(np.exp(0.3j) - 1):.3e})"


PERMUTATION_PHASE = [(label, rep) for label, rep in rep_fixtures()
                     if _monomial_rows(rep.matrices) is not None]


def _row_0_gap(rep):
    """Largest gap of row 0 of the law over all pairs, from the law kernel of the stack's form."""
    monomial = _monomial_rows(rep.matrices)
    law = partial(_dense_law, rep.matrices) if monomial is None else partial(_monomial_law, *monomial)
    return law(rep.group, rep.cocycle.table, slice(0, 1), slice(None)).max()


@pytest.mark.parametrize("label, rep", PERMUTATION_PHASE + NONABELIAN_CUTS)
def test_first_row_gap_trips_exactly_when_the_dense_gate_does(label, rep):
    g, tol = rep.group, DEFAULT_TOL.tol_id
    cases = [corrupt(rep) for corrupt in ONE_NONZERO_PER_ROW + DENSE_PATH if _applies(rep, corrupt)]
    rng = np.random.default_rng(44)
    cases += [_rotated_at(rep, *(int(v) for v in rng.integers(g.order, size=2)))
              for _ in range(20)]
    off = sorted(set(range(g.order)) - {g.identity, *g.generators})
    cases += [_rotated_at(rep, int(rng.integers(g.order)), int(rng.choice(off)))
              for _ in range(20 if off else 0)]
    for bad in [rep] + cases:
        # inf times a zero of a matrix product is invalid
        with np.errstate(invalid="ignore"):
            gap = _row_0_gap(bad)
            comp, coc = _dense_gate(bad)
        assert (not gap <= tol) == (not (comp.max() <= tol and coc <= tol))


@pytest.mark.parametrize("label, rep", PERMUTATION_PHASE)
def test_permutation_phase_reports_match_at_a_loose_tol_id(label, rep):
    """At tol_id 1.5 a stack whose permutations do not compose can pass the law on
    the generators; the row-0 gate then takes a gap on two columns as the larger
    modulus, as the dense reference does."""
    loose = Tolerances(tol_id=1.5)
    for corrupt in ONE_NONZERO_PER_ROW:
        if _applies(rep, corrupt):
            bad = corrupt(rep)
            _assert_same_report(projective_rep(bad.group, bad.cocycle, bad.matrices, loose))


@pytest.mark.parametrize("base", ["Z16", "Z4xZ4"])
def test_blocked_validate_rep_matches_dense_reference_at_256(base):
    rep = tf(base).rep
    _assert_same_report(projective_rep(rep.group, rep.cocycle, rep.matrices))
    _assert_same_report(_rotated_cocycle_entry(rep))
    _assert_same_report(_cocycle_pair_entry(rep))


@BLOCKS
@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_blocked_intertwining_matches_per_y_reference(label, rep, block, monkeypatch):
    monkeypatch.setattr(latdim.reps, "_BLOCK", block)
    v = (rep.matrices @ random_window(rep.dim, 11)).conj()
    got, want = _intertwining_residual(rep, v), _per_y_intertwining(rep, v)
    assert abs(got - want) <= 1e-15
    assert got < 1e-12


def test_blocked_intertwining_keeps_a_nan():
    rep = tf("Z3").rep
    v = (rep.matrices @ random_window(rep.dim, 11)).conj()
    v[4, 1] = np.nan
    assert np.isnan(_intertwining_residual(rep, v))
    assert np.isnan(_per_y_intertwining(rep, v))


def test_validate_rep_at_256_in_cache_sized_blocks():
    rep = tf("Z16").rep  # Weyl-Heisenberg over Z16 x Z16, dim 16
    fresh = projective_rep(rep.group, rep.cocycle, rep.matrices)
    report, peak = traced_peak(validate_rep, fresh)
    assert report.ok
    assert peak < 1.5e6


def test_wavelet_at_256_in_cache_sized_blocks():
    rep = tf("Z16").rep
    window = random_window(rep.dim, 3)
    rep.commutant_dim  # the character norm is not part of the check
    w, peak = traced_peak(wavelet, rep, window)
    assert w.matrix.shape == (256, 16)
    assert peak < 2e6
