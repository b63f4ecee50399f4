import numpy as np
import pytest

import latdim.reps
from latdim import (
    Cocycle,
    ConsistencyError,
    DimensionMismatch,
    InputError,
    NotIrreducible,
    WindowNotUnit,
    build_cyclic,
    formal_dimension,
    full_subgroup,
    irreducible_subrep,
    is_irreducible,
    left_regular,
    make_module_spec,
    projective_rep,
    symmetric_group,
    trivial,
    validate,
    validate_rep,
    wavelet,
    windowed_rep,
)

from dense_reference import fixed_space, sandwich_stack
from fixtures_common import (
    NEAR_TOL, cocycle_fixtures, gauge_twisted, group, near_rep, rep_fixtures, tf, traced_peak,
    trivial_irrep,
)


def _swapped(rep):
    """The rep with pi(1) and pi(2) exchanged: unitary, but no sigma-rep."""
    mats = rep.matrices.copy()
    mats[[1, 2]] = mats[[2, 1]]
    return projective_rep(rep.group, rep.cocycle, mats)


def _with_forged_report(bad, good):
    """Give a broken stack the report of a valid rep, to reach the checks behind it."""
    bad.__dict__["report"] = good.report


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
    with pytest.raises(DimensionMismatch):
        projective_rep(g, coc, np.zeros((3, 0, 0)))


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
    for r in (rep, projective_rep(rep.group, rep.cocycle, rep.matrices)):
        with pytest.raises(ValueError):
            r.matrices[0, 0, 0] = r.matrices[0, 0, 0]


def test_irreducibility_is_computed_once_per_rep(monkeypatch):
    calls = []
    check = latdim.reps.check_residual

    def spy(what, *args, **kwargs):
        if what.startswith("character norm"):
            calls.append(1)
        return check(what, *args, **kwargs)

    monkeypatch.setattr(latdim.reps, "check_residual", spy)
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
    y = min(set(range(1, rep.group.order)) - set(rep.group.generators))
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
    y = min(set(range(1, rep.group.order)) - set(rep.group.generators))
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


def _fixed_space_commutant_dim(rep):
    """Reference: A commutes with a generating set X iff vec(A) is fixed by X kron conj(X)."""
    gens = rep.matrices[list(rep.group.generators)]
    return len(fixed_space(sandwich_stack(gens, gens)))


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_character_norm_matches_fixed_space_on_fixtures(label, rep):
    assert rep.commutant_dim == _fixed_space_commutant_dim(rep) == 1


@pytest.mark.parametrize("label, coc", [
    (label, coc) for label, coc in cocycle_fixtures() if label in ("wh-Z2", "wh-Z3", "s3-pauli")
])
def test_character_norm_of_twisted_left_regular_rep(label, coc):
    # the commutant of lambda_sigma is spanned by the |G| right translations
    rep = projective_rep(coc.group, coc, left_regular(coc.group, coc).matrices)
    assert validate_rep(rep).ok
    assert rep.commutant_dim == _fixed_space_commutant_dim(rep) == coc.group.order


@pytest.mark.parametrize("where", ["nan", "scaled"])
def test_character_norm_fails_closed(where):
    rep = tf("Z2").rep
    mats, e = rep.matrices.copy(), rep.group.identity
    if where == "nan":
        mats[e, 0, 0] = np.nan
    else:
        mats[e] *= 1.5  # tr pi(e) = 3 and the other traces vanish: norm 9/4
    bad = projective_rep(rep.group, rep.cocycle, mats)
    with pytest.raises(InputError, match="not unitary"):
        is_irreducible(bad)
    _with_forged_report(bad, rep)
    with pytest.raises(ConsistencyError, match="character norm"):
        is_irreducible(bad)


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
    assert cdim == 4 == _fixed_space_commutant_dim(big)
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
    # the transform of the window itself is the diagonal that phi reads
    diagonal = windowed_rep(rep, w.window).diagonal
    assert np.allclose(diagonal, w.matrix @ w.window)
    assert diagonal[rep.group.identity] == pytest.approx(1.0)


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


def test_irreducible_subrep_cuts_at_the_tolerances_it_is_given():
    """The near cocycle misses the cocycle identity by about 1e-7; a cut at NEAR_TOL is valid."""
    near = near_rep()
    rep = irreducible_subrep(near.group, near.cocycle, tol=NEAR_TOL)
    assert rep.tol == NEAR_TOL and rep.report.ok
    with pytest.raises(InputError, match="cut summand invalid: composition law fails"):
        irreducible_subrep(near.group, near.cocycle)


class _Dense:
    """The average |G|^-1 sum_x lam(x) H lam(x)* and the compression on the dense |G|^3 stack."""

    def __init__(self, group, cocycle):
        self.lam = left_regular(group, cocycle).matrices

    def average(self, h_rand):
        lam = self.lam
        return np.einsum("xij,jk,xlk->il", lam, h_rand, lam.conj(), optimize=True) / len(lam)

    def compress(self, q):
        return np.einsum("ri,xrs,sj->xij", q.conj(), self.lam, q, optimize=True)


class _Loop:
    """The same two steps as one scatter or gather per group element, in O(|G|^2) memory."""

    def __init__(self, group, cocycle):
        self.rows, self.phases = group.cayley, cocycle.table

    def average(self, h_rand):
        e = np.zeros_like(h_rand)
        for rows, ph in zip(self.rows, self.phases):
            e[np.ix_(rows, rows)] += ph[:, None] * h_rand * ph.conj()
        return e / len(self.rows)

    def compress(self, q):
        return np.stack([(q[rows].conj().T * ph) @ q for rows, ph in zip(self.rows, self.phases)])


def _reference_irreducible_subrep(group, cocycle, seed, form, max_attempts=8):
    """The cut with the average over G taken term by term, as the closed form replaced it."""
    n, steps = group.order, form(group, cocycle)
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt, 0x1D])
        h_rand = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h_rand = h_rand + h_rand.conj().T
        e = steps.average(h_rand)
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
        candidate = projective_rep(group, cocycle, steps.compress(q))
        if validate_rep(candidate).ok and is_irreducible(candidate)[0]:
            return candidate
    raise NotIrreducible(f"no irreducible summand found in {max_attempts} attempts")


def _assert_same_cut(group, cocycle, seed, form):
    got = irreducible_subrep(group, cocycle, seed=seed)
    want = _reference_irreducible_subrep(group, cocycle, seed, form)
    assert got.dim == want.dim
    chars = np.trace(got.matrices, axis1=1, axis2=2)
    assert np.abs(chars - np.trace(want.matrices, axis1=1, axis2=2)).max() < 1e-10


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("label, coc", cocycle_fixtures() + [
    # phases other than 1 on every fixture, so that sigma(i, c) read as sigma(c, i) shows
    (f"{label}-gauged", gauge_twisted(coc)) for label, coc in cocycle_fixtures()
])
def test_irreducible_subrep_matches_dense_reference(label, coc, seed):
    _assert_same_cut(coc.group, coc, seed, _Dense)


def test_irreducible_subrep_matches_the_loop_average_at_256():
    g = group("D8xD8")  # the dense stack would take 256 MiB
    _assert_same_cut(g, trivial(g), 3, _Loop)


def test_irreducible_subrep_memory_is_quadratic():
    g = group("D4xZ2xZ2xZ2xZ2")  # |G| = 128; the dense stack alone is 32 MB
    rep, peak = traced_peak(irreducible_subrep, g, trivial(g))
    assert rep.dim == 2
    assert peak < 16 * 2**20


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_conjugate_rep_validates(label, rep):
    # the entrywise conjugate is a rep over the conjugate cocycle
    conj = projective_rep(rep.group, Cocycle(rep.group, np.conj(rep.cocycle.table)),
                          rep.matrices.conj())
    assert validate(conj.cocycle).ok
    assert validate_rep(conj).ok
    assert np.array_equal(conj.matrices, rep.matrices.conj())


def test_wavelet_rejects_broken_intertwining():
    # a rep whose matrices were permuted no longer intertwines; the
    # transform refuses to come up rather than return garbage, first on
    # the rep's report and, past a forged one, on the intertwining check
    rep = tf("Z2").rep
    bad = _swapped(rep)
    with pytest.raises(InputError, match="composition law"):
        wavelet(bad, _unit_window(rep.dim, seed=1))
    _with_forged_report(bad, rep)
    with pytest.raises(ConsistencyError, match="intertwining"):
        wavelet(bad, _unit_window(rep.dim, seed=1))


def test_an_invalid_rep_gets_no_module_spec():
    rep = tf("Z2").rep
    bad = _swapped(rep)
    assert not validate_rep(bad).ok
    with pytest.raises(InputError, match="composition law fails"):
        make_module_spec(bad, full_subgroup(rep.group))
    with pytest.raises(InputError, match="composition law fails"):
        formal_dimension(bad)


def _loop_intertwining_residual(rep, window):
    """Reference: max |V pi(y) - lambda_sigma(y) V| one element y at a time."""
    g, t = rep.group, rep.cocycle.table
    v = (rep.matrices @ window).conj()
    worst = 0.0
    for y in range(g.order):
        cols = g.cayley[g.inverse[y]]
        worst = max(worst, float(np.abs(v @ rep.matrices[y] - t[y, cols][:, None] * v[cols]).max()))
    return worst


@pytest.mark.parametrize("label, rep", [
    (label, rep) for label, rep in rep_fixtures() if label in ("wh-Z3", "wh-Z4", "s3-pauli")
])
def test_wavelet_intertwining_residual_matches_per_element_loop(label, rep, monkeypatch):
    # a phase on the last matrix keeps every |tr pi(x)| but breaks
    # intertwining, worst at the last chunk of elements y
    mats = rep.matrices.copy()
    mats[-1] *= np.exp(0.7j)
    bad = projective_rep(rep.group, rep.cocycle, mats)
    window = _unit_window(rep.dim, seed=4)
    with pytest.raises(InputError, match="composition law"):
        wavelet(bad, window)
    _with_forged_report(bad, rep)
    seen = {}
    check = latdim.reps.check_residual

    def spy(what, residual, *args):
        seen[what] = residual
        return check(what, residual, *args)

    monkeypatch.setattr(latdim.reps, "check_residual", spy)
    with pytest.raises(ConsistencyError, match="intertwining"):
        wavelet(bad, window)
    want = _loop_intertwining_residual(bad, window)
    assert want > 1e-3
    assert seen["wavelet intertwining residual"] == pytest.approx(want, rel=1e-12)
