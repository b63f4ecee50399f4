import numpy as np
import pytest

import latdim.reps
from latdim import (
    Cocycle,
    ConsistencyError,
    DimensionMismatch,
    NotIrreducible,
    WindowNotUnit,
    build_cyclic,
    conjugate_cocycle,
    conjugate_rep,
    formal_dimension,
    full_subgroup,
    irreducible_subrep,
    is_irreducible,
    left_regular,
    make_module_spec,
    projective_rep,
    restrict_to_lattice,
    subgroup_generated,
    symmetric_group,
    trivial,
    validate_rep,
    wavelet,
)
from latdim.groups import generators

from fixtures_common import (
    cocycle_fixtures, group, rep_fixtures, tf, traced_peak, trivial_irrep,
)


def _unit_window(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_projective_rep_shape_errors():
    g = build_cyclic(3)
    coc = trivial(g)
    with pytest.raises(DimensionMismatch):
        projective_rep(g, coc, np.zeros((2, 1, 1)))
    with pytest.raises(DimensionMismatch):
        projective_rep(g, coc, np.zeros((3, 2, 3)))
    with pytest.raises(DimensionMismatch):
        projective_rep(g, trivial(build_cyclic(4)), np.zeros((3, 1, 1)))


def test_projective_rep_casts_to_complex():
    g = build_cyclic(2)
    rep = projective_rep(g, trivial(g), [[[1.0]], [[-1.0]]])
    assert rep.matrices.dtype == np.complex128
    assert rep.dim == 1
    assert np.allclose(rep.matrix(1), [[-1.0]])


def test_projective_rep_copies_its_input():
    rep = tf("Z2").rep
    mats = rep.matrices.copy()
    own = projective_rep(rep.group, rep.cocycle, mats)
    assert not np.shares_memory(own.matrices, mats)
    mats[0] = 0.0
    assert np.array_equal(own.matrices, rep.matrices)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_rep_matrices_are_read_only(label, rep):
    for r in (rep, conjugate_rep(rep), projective_rep(rep.group, rep.cocycle, rep.matrices)):
        with pytest.raises(ValueError):
            r.matrices[0, 0, 0] = r.matrices[0, 0, 0]


def test_irreducibility_is_computed_once_per_rep(monkeypatch):
    calls = []
    solve = latdim.reps.fixed_space
    monkeypatch.setattr(latdim.reps, "fixed_space", lambda u: calls.append(1) or solve(u))
    base = tf("Z3").rep
    rep = projective_rep(base.group, base.cocycle, base.matrices)
    assert is_irreducible(rep) == (True, 1)
    assert is_irreducible(rep) == (True, 1)
    formal_dimension(rep)
    make_module_spec(rep, full_subgroup(rep.group))
    assert len(calls) == 1


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_fixture_reps_validate(label, rep):
    report = validate_rep(rep)
    assert report.ok, report.message
    assert report.unitary_residual < 1e-12
    assert report.composition_residual < 1e-12


def test_validate_rep_catches_scaled_matrix():
    rep = tf("Z3").rep
    mats = rep.matrices.copy()
    mats[2] *= 1.5
    bad = projective_rep(rep.group, rep.cocycle, mats)
    report = validate_rep(bad)
    assert not report.ok
    assert report.unitary_residual > 1e-3
    assert "unitary" in report.message


def test_validate_rep_catches_tampered_phase():
    rep = tf("Z3").rep
    mats = rep.matrices.copy()
    mats[4] = mats[4] * np.exp(0.3j)  # still unitary, wrong composition
    bad = projective_rep(rep.group, rep.cocycle, mats)
    report = validate_rep(bad)
    assert not report.ok
    assert report.unitary_residual < 1e-12
    assert report.composition_residual > 1e-3
    assert "composition" in report.message
    assert 4 in report.worst_pair


def test_validate_rep_catches_tampered_cocycle_off_generators():
    # the tampered pair (x, y) has y outside the generators, so only the
    # cocycle identity on generator triples can see it
    rep = tf("Z3").rep
    y = min(set(range(1, rep.group.order)) - set(generators(rep.group)))
    x = 2
    table = rep.cocycle.table.copy()
    table[x, y] *= np.exp(0.3j)
    bad = projective_rep(rep.group, Cocycle(rep.group, table), rep.matrices)
    report = validate_rep(bad)
    assert not report.ok
    assert report.unitary_residual < 1e-12
    assert report.composition_residual > 1e-3
    assert report.worst_pair == (x, y)


@pytest.mark.parametrize("where", ["matrix", "cocycle"])
def test_validate_rep_rejects_a_nan_entry(where):
    # y is no generator: a NaN in sigma(2, y) reaches the composition
    # residual only through the cocycle identity and the all-pairs pass
    rep = tf("Z3").rep
    y = min(set(range(1, rep.group.order)) - set(generators(rep.group)))
    mats, table = rep.matrices.copy(), rep.cocycle.table.copy()
    if where == "matrix":
        mats[y, 0, 0] = np.nan
    else:
        table[2, y] = np.nan
    report = validate_rep(projective_rep(rep.group, Cocycle(rep.group, table), mats))
    assert not report.ok
    if where == "matrix":
        assert np.isnan(report.unitary_residual)
        assert "unitary" in report.message
    else:
        assert np.isnan(report.composition_residual)
        assert report.worst_pair == (2, y)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_fixture_reps_irreducible(label, rep):
    irr, cdim = is_irreducible(rep)
    assert irr
    assert cdim == 1


def test_block_sum_doubles_are_reducible():
    rep = tf("Z2").rep
    n, d = rep.group.order, rep.dim
    doubled = np.zeros((n, 2 * d, 2 * d), dtype=np.complex128)
    doubled[:, :d, :d] = rep.matrices
    doubled[:, d:, d:] = rep.matrices
    big = projective_rep(rep.group, rep.cocycle, doubled)
    assert validate_rep(big).ok
    irr, cdim = is_irreducible(big)
    assert not irr
    # commutant of pi (+) pi is a full 2x2 matrix algebra
    assert cdim == 4
    with pytest.raises(NotIrreducible):
        formal_dimension(big)


@pytest.mark.parametrize("base", ["Z2", "Z3", "Z4", "Z5"])
def test_formal_dimension_time_frequency(base):
    rep = tf(base).rep
    n = rep.dim
    assert formal_dimension(rep) == pytest.approx(1.0 / n)
    assert formal_dimension(rep, check=False) == pytest.approx(n / rep.group.order)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_formal_dimension_with_orthogonality_check(label, rep):
    # check=True exercises the seeded orthogonality spot-check
    assert formal_dimension(rep, check=True) == pytest.approx(
        rep.dim / rep.group.order
    )


def test_wavelet_window_errors():
    rep = tf("Z3").rep
    with pytest.raises(DimensionMismatch):
        wavelet(rep, np.ones(2) / np.sqrt(2))
    with pytest.raises(WindowNotUnit):
        wavelet(rep, np.ones(rep.dim))
    with pytest.raises(WindowNotUnit):
        wavelet(rep, np.full(rep.dim, np.nan))


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_wavelet_isometry_and_intertwining(label, rep):
    w = wavelet(rep, _unit_window(rep.dim, seed=3))
    d_pi = rep.dim / rep.group.order
    gram = d_pi * (w.matrix.conj().T @ w.matrix)
    assert np.abs(gram - np.eye(rep.dim)).max() < 1e-10
    # diagonal holds the transform of the window itself
    assert np.allclose(w.diagonal, w.matrix @ w.window)
    assert w.diagonal[rep.group.identity] == pytest.approx(1.0)


def test_wavelet_matrix_rows_are_coefficients():
    rep = tf("Z2").rep
    eta = _unit_window(rep.dim, seed=5)
    v = _unit_window(rep.dim, seed=6)
    w = wavelet(rep, eta)
    out = w.matrix @ v
    for x in range(rep.group.order):
        assert out[x] == pytest.approx(np.vdot(rep.matrix(x) @ eta, v))


def test_irreducible_subrep_s3_deterministic():
    g = symmetric_group(3)
    a = irreducible_subrep(g, trivial(g), seed=0)
    b = irreducible_subrep(g, trivial(g), seed=0)
    assert a.dim == 2  # the largest summand of the regular rep
    assert np.array_equal(a.matrices, b.matrices)
    assert validate_rep(a).ok
    irr, _ = is_irreducible(a)
    assert irr


def test_irreducible_subrep_seed_changes_cut():
    g = symmetric_group(3)
    a = irreducible_subrep(g, trivial(g), seed=0)
    c = irreducible_subrep(g, trivial(g), seed=9)
    # both are valid irreducible cuts, not necessarily the same matrices
    assert validate_rep(c).ok
    assert a.dim == c.dim


@pytest.mark.parametrize("name", ["Z6", "D4", "Q8"])
def test_irreducible_subrep_fixture_groups(name):
    rep = trivial_irrep(name)
    assert validate_rep(rep).ok
    irr, cdim = is_irreducible(rep)
    assert irr and cdim == 1


def _dense_irreducible_subrep(group, cocycle, seed, max_attempts=8):
    """The cut on the dense |G|^3 left regular stack, as the gathers replaced it."""
    lam = left_regular(group, cocycle).matrices
    n = group.order
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt, 0x1D])
        h_rand = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_rand = h_rand + h_rand.conj().T
        e = np.einsum("xij,jk,xlk->il", lam, h_rand, lam.conj(), optimize=True) / n
        e = (e + e.conj().T) / 2
        eigvals, eigvecs = np.linalg.eigh(e)
        scale = max(1.0, float(np.abs(eigvals).max()))
        clusters = [[0]]
        for i in range(1, n):
            if eigvals[i] - eigvals[i - 1] < 1e-6 * scale:
                clusters[-1].append(i)
            else:
                clusters.append([i])
        best = max(clusters, key=lambda c: (len(c), -eigvals[c[0]]))
        q = eigvecs[:, best]
        mats = np.einsum("ri,xrs,sj->xij", q.conj(), lam, q, optimize=True)
        candidate = projective_rep(group, cocycle, mats)
        if validate_rep(candidate).ok and is_irreducible(candidate)[0]:
            return candidate
    raise NotIrreducible(f"no irreducible summand found in {max_attempts} attempts")


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_irreducible_subrep_matches_dense_reference(label, coc, seed):
    got = irreducible_subrep(coc.group, coc, seed=seed)
    want = _dense_irreducible_subrep(coc.group, coc, seed)
    assert got.dim == want.dim
    chars = np.trace(got.matrices, axis1=1, axis2=2)
    assert np.abs(chars - np.trace(want.matrices, axis1=1, axis2=2)).max() < 1e-10


def test_irreducible_subrep_memory_is_quadratic():
    g = group("D4xZ2xZ2xZ2xZ2")  # |G| = 128; the dense stack alone is 32 MB
    rep, peak = traced_peak(irreducible_subrep, g, trivial(g))
    assert rep.dim == 2
    assert peak < 16 * 2**20


def test_restrict_to_lattice_validates():
    t = tf("Z4")
    rep = t.rep
    na = t.base.order
    sub = subgroup_generated(rep.group, [1 * na + 0, 0 * na + 2])
    res = restrict_to_lattice(rep, sub, label="lat")
    assert res.lattice_group.order == sub.order
    assert res.rep.group is res.lattice_group
    assert res.rep.cocycle is res.cocycle
    assert validate_rep(res.rep).ok
    # matrices are plucked from the parent in subgroup element order
    for j, x in enumerate(sub.elements):
        assert np.array_equal(res.rep.matrices[j], rep.matrices[x])


def test_restrict_to_lattice_rejects_foreign_subgroup():
    rep = tf("Z2").rep
    other = build_cyclic(4)
    sub = subgroup_generated(other, [2])
    with pytest.raises(DimensionMismatch):
        restrict_to_lattice(rep, sub)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_conjugate_rep_validates(label, rep):
    conj = conjugate_rep(rep)
    assert validate_rep(conj).ok
    assert np.array_equal(
        conj.cocycle.table, conjugate_cocycle(rep.cocycle).table
    )
    assert np.array_equal(conj.matrices, rep.matrices.conj())


def test_wavelet_rejects_broken_intertwining():
    # a rep whose matrices were permuted no longer intertwines; the
    # transform refuses to come up rather than return garbage
    rep = tf("Z2").rep
    mats = rep.matrices.copy()
    mats[[1, 2]] = mats[[2, 1]]
    bad = projective_rep(rep.group, rep.cocycle, mats)
    with pytest.raises(ConsistencyError):
        wavelet(bad, _unit_window(rep.dim, seed=1))
