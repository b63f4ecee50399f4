import dataclasses
from functools import cached_property

import numpy as np
import pytest

from latdim import (
    DimensionMismatch,
    ModuleSpec,
    NotHermitian,
    NotIrreducible,
    PhiFunction,
    Subgroup,
    WindowNotUnit,
    WindowedRep,
    all_subgroups,
    build_cyclic,
    build_tf,
    cdim_operator,
    existence_decision,
    full_subgroup,
    gabor_scan,
    irreducible_subrep,
    is_sigma_positive_definite,
    left_regular,
    make_module_spec,
    phi,
    phi_oracle,
    projective_rep,
    random_window,
    regularity,
    right_transversal,
    subgroup_blocks,
    subgroup_generated,
    trivial,
    trivial_subgroup,
    wavelet,
    weyl_heisenberg,
    windowed_rep,
)
import latdim.dimension as dim_mod
from latdim import cli

from fixtures_common import (gauge_twisted_rep, group, near_rep, pauli_product_irrep, rep_fixtures, tf,
                             traced_peak, trivial_irrep)


def _sign_character():
    g = build_cyclic(2)
    return projective_rep(g, trivial(g), [[[1.0]], [[-1.0]]])


def test_sign_character_full_lattice_frozen_values():
    rep = _sign_character()
    spec = make_module_spec(rep, full_subgroup(rep.group))
    fn = phi(spec)
    assert np.allclose(fn.values, [0.5, -0.5])
    assert spec.dpi_vol == pytest.approx(0.5)
    assert spec.regular.all()
    op = cdim_operator(fn)
    assert np.allclose(op, [[0.5, -0.5], [-0.5, 0.5]])
    # the operator is a projection: phi really is a module dimension
    assert np.allclose(op @ op, op)


def test_phi_values_are_read_only():
    rep = tf("Z2").rep
    spec = make_module_spec(rep, full_subgroup(rep.group))
    for fn in (phi(spec), phi_oracle(spec)):
        with pytest.raises(ValueError):
            fn.values[0] = fn.values[0]


def test_spec_owns_the_lattice_group_and_phi_only_its_values():
    rep = tf("Z2").rep
    spec = make_module_spec(rep, subgroup_generated(rep.group, [1]))
    assert "lattice_group" not in {f.name for f in dataclasses.fields(ModuleSpec)}
    assert spec.lattice_group is spec.restricted_cocycle.group
    assert [f.name for f in dataclasses.fields(PhiFunction)] == ["values", "cocycle"]
    for fn in (phi(spec), phi_oracle(spec)):
        assert fn.cocycle is spec.restricted_cocycle


def test_trivial_lattice_gives_plain_dimension():
    rep = tf("Z3").rep
    spec = make_module_spec(rep, trivial_subgroup(rep.group))
    fn = phi(spec)
    assert fn.values.shape == (1,)
    assert fn.values[0] == pytest.approx(rep.dim)
    assert np.allclose(phi_oracle(spec).values, fn.values)


def test_translation_lattice_is_delta():
    t = tf("Z4")
    na = t.base.order
    sub = subgroup_generated(t.rep.group, [k * na for k in range(1, na)])
    assert sub.order == na
    spec = make_module_spec(t.rep, sub)
    fn = phi(spec)
    expected = np.zeros(na)
    expected[spec.lattice_group.identity] = 1.0
    assert np.abs(fn.values - expected).max() < 1e-12
    assert spec.dpi_vol == pytest.approx(1.0)


def test_full_lattice_kleppner_concentrates_at_identity():
    t = tf("Z4")
    spec = make_module_spec(t.rep, full_subgroup(t.rep.group))
    fn = phi(spec)
    assert spec.regular.sum() == 1  # only the identity class is regular
    expected = np.zeros(t.rep.group.order)
    expected[spec.lattice_group.identity] = 0.25
    assert np.abs(fn.values - expected).max() < 1e-12


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_phi_matches_oracle_on_all_subgroups(label, rep):
    worst = 0.0
    for sub in all_subgroups(rep.group):
        spec = make_module_spec(rep, sub, window=random_window(rep.dim, 11))
        a = phi(spec)
        b = phi_oracle(spec)
        worst = max(worst, float(np.abs(a.values - b.values).max()))
        assert a.values[spec.lattice_group.identity] == pytest.approx(
            spec.dpi_vol
        )
    assert worst < 1e-10


def _reference_phi(spec):
    """The class sum over right-coset representatives of each centralizer.

    For gamma regular in the lattice, with centralizer C there and class
    size k, phi(gamma) = dim / (|G| k) * sum over one y per coset C y of
    conj(tilde(gamma, y)) <pi(y^-1 gamma y) window, window>.  Returns
    the values and the regular mask.
    """
    g, lat = spec.rep.group, spec.lattice_group
    elems = spec.lattice.elements
    sigma, rc = spec.rep.cocycle.table, spec.restricted_cocycle.table
    w = [np.vdot(spec.rep.matrices[x] @ spec.window, spec.window) for x in range(g.order)]
    values = np.zeros(lat.order, dtype=np.complex128)
    regular = np.zeros(lat.order, dtype=bool)
    for li, gamma in enumerate(elems):
        cent = [m for m in range(lat.order) if lat.cayley[li, m] == lat.cayley[m, li]]
        if any(abs(rc[li, m] - rc[m, li]) > 1e-9 for m in cent):
            continue
        regular[li] = True
        k = len({lat.conjugate(li, m) for m in range(lat.order)})
        seen, total = set(), 0.0
        for y in range(g.order):
            if y in seen:
                continue
            seen.update(int(g.cayley[elems[m], y]) for m in cent)
            c = g.conjugate(gamma, y)
            total += np.conj(sigma[gamma, y] * np.conj(sigma[y, c])) * w[c]
        values[li] = spec.rep.dim / (g.order * k) * total
    return values, regular


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_phi_matches_transversal_reference(label, rep):
    for sub in all_subgroups(rep.group):
        for seed in (None, 3, 4):
            window = None if seed is None else random_window(rep.dim, seed)
            spec = make_module_spec(rep, sub, window=window)
            fn = phi(spec)
            values, regular = _reference_phi(spec)
            assert np.abs(fn.values - values).max() < 1e-12, (label, sub.elements)
            assert np.array_equal(spec.regular, regular)


def _lattice_masked_phi(spec):
    """The class sum at each element regular in the lattice, 0 elsewhere.

    Each sum runs over the whole group, but the mask is the lattice's own,
    so an element regular in the lattice and not in the group gets the
    rounding residue of a sum that is exactly 0.
    """
    g, rep = spec.rep.group, spec.rep
    gammas = spec.lattice.elements[spec.regular]
    conj = g.conjugation[gammas]
    sigma = rep.cocycle.table
    tilde = sigma[gammas] * np.conj(sigma[np.arange(g.order), conj])
    values = np.zeros(spec.lattice.order, dtype=np.complex128)
    values[spec.regular] = (rep.dim / g.order / spec.lattice.order
                            * np.sum(np.conj(tilde) * spec.windowed.diagonal[conj], axis=1))
    return values


@pytest.mark.parametrize("label, rep", rep_fixtures()
                         + [(f"lifted-{n}", pauli_product_irrep(n)) for n in ("Z4xZ4", "S4")])
def test_phi_vanishes_exactly_off_the_regular_elements_of_the_group(label, rep):
    """And matches the class sum taken under each lattice's own regular mask."""
    source = windowed_rep(rep, random_window(rep.dim, 6))
    regular = regularity(rep.cocycle, rep.tol).regular_elements
    for sub in all_subgroups(rep.group):
        spec = source.spec(sub)
        values = phi(spec).values
        assert not values[~regular[sub.elements]].any(), (label, sub.elements)
        assert np.abs(values - _lattice_masked_phi(spec)).max() <= 1e-15, (label, sub.elements)


def _reference_phi_oracle(spec):
    """The embedding route on dense matrices: the coset unitary u, the
    product u* P u, and column e of the average of the block sum B under
    the right regular family rho of the conjugate restricted cocycle.

    rho(x) delta_i = tau(i x^-1, x) delta_(i x^-1), so entry [i, e] of
    sum_x rho(x)* B rho(x) is sum_x conj(tau(r_i, x)) B[r_i, r_e] tau(r_e, x)
    with r_i = i x^-1: one (index, phase) gather per x, no dense stack."""
    g, lat = spec.rep.group, spec.lattice_group
    elems = np.asarray(spec.lattice.elements)
    bs = np.asarray(right_transversal(g, elems))
    nl, nb = lat.order, len(bs)
    v = wavelet(spec.rep, spec.window).matrix
    p_big = spec.rep.dim / g.order * (v @ v.conj().T)
    u = np.zeros((g.order, g.order), dtype=np.complex128)
    u[g.cayley[elems[:, None], bs].ravel(), np.arange(g.order)] = (
        spec.rep.cocycle.table[elems[:, None], bs].ravel()
    )
    p = u.conj().T @ p_big @ u
    block_sum = np.einsum("aibi->ab", p.reshape(nl, nb, nl, nb))
    tau = np.conj(spec.restricted_cocycle.table)
    rows = lat.cayley[:, lat.inverse].T  # [x, i] = i x^-1
    phases = tau[rows, np.arange(nl)[:, None]]
    e = lat.identity
    terms = np.conj(phases) * block_sum[rows, rows[:, e, None]] * phases[:, e, None]
    return terms.sum(axis=0) / nl


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_phi_oracle_matches_dense_reference(label, rep):
    for sub in all_subgroups(rep.group):
        for seed in (None, 5, 6):
            window = None if seed is None else random_window(rep.dim, seed)
            spec = make_module_spec(rep, sub, window=window)
            got = phi_oracle(spec).values
            assert np.abs(got - _reference_phi_oracle(spec)).max() < 1e-12, (label, sub.elements)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_traces_are_the_traces_of_the_dense_left_regular_rep_against_p(label, rep):
    """traces[gamma] is Tr(lambda_sigma(gamma)* P), with lambda the dense left regular stack."""
    source = windowed_rep(rep, random_window(rep.dim, 8))
    v = source.transform.matrix
    p = rep.dim / rep.group.order * (v @ v.conj().T)
    lam = left_regular(rep.group, rep.cocycle).matrices
    want = np.einsum("gyx,yx->g", lam.conj(), p)  # Tr(lam(g)* P) = sum conj(lam[y, x]) P[y, x]
    assert np.abs(source.traces - want).max() < 1e-12, label


def test_phi_oracle_matches_dense_reference_on_one_lattice_per_order_of_d8xd8():
    g = group("D8xD8")
    rep = irreducible_subrep(g, trivial(g), seed=3)
    source = windowed_rep(rep, random_window(rep.dim, 3))
    for elems in subgroup_blocks(g):
        spec = source.spec(Subgroup(g, elems[0]))
        got = phi_oracle(spec).values
        assert np.abs(got - _reference_phi_oracle(spec)).max() < 1e-12, elems.shape[1]


@pytest.mark.parametrize("gens, order", [
    ([16 * 4, 4], 16), ([16 * 2, 2], 64), ([16, 2], 128), ([16, 1], 256),
])
def test_phi_matches_oracle_at_256_in_quadratic_memory(gens, order):
    # Weyl-Heisenberg over Z16 x Z16, index (x, w) -> 16 x + w, on a fresh cocycle
    # so that phi computes G's regularity rather than reading a kept report
    coc = weyl_heisenberg(build_cyclic(16))
    rep = projective_rep(coc.group, coc, tf("Z16").rep.matrices)
    sub = subgroup_generated(rep.group, gens)
    assert sub.order == order
    spec = make_module_spec(rep, sub, window=random_window(rep.dim, 7))
    closed, peak_closed = traced_peak(phi, spec)
    oracle, peak_oracle = traced_peak(phi_oracle, spec)
    assert np.abs(closed.values - oracle.values).max() < 1e-12
    assert max(peak_closed, peak_oracle) < 64e6


@pytest.mark.parametrize("seed", [1, 2])
def test_phi_does_not_depend_on_window(seed):
    rep = trivial_irrep("S3")
    sub = subgroup_generated(rep.group, [1])  # the 3-cycle lattice
    base = phi(make_module_spec(rep, sub)).values
    other = phi(
        make_module_spec(rep, sub, window=random_window(rep.dim, seed))
    ).values
    assert np.abs(base - other).max() < 1e-10


def test_phi_values_are_positive_definite():
    for label, rep in rep_fixtures():
        sub = full_subgroup(rep.group)
        fn = phi(make_module_spec(rep, sub))
        assert is_sigma_positive_definite(fn.values, fn.cocycle)[0], label
        op = cdim_operator(fn)
        assert np.linalg.eigvalsh(op).min() > -1e-9


def test_make_module_spec_errors():
    rep = tf("Z2").rep
    other = build_cyclic(4)
    with pytest.raises(DimensionMismatch):
        make_module_spec(rep, full_subgroup(other))
    with pytest.raises(DimensionMismatch):
        make_module_spec(rep, full_subgroup(rep.group), window=np.ones(3))
    with pytest.raises(WindowNotUnit):
        make_module_spec(
            rep, full_subgroup(rep.group), window=np.full(rep.dim, 2.0)
        )
    with pytest.raises(WindowNotUnit):
        make_module_spec(
            rep, full_subgroup(rep.group), window=np.full(rep.dim, np.nan)
        )
    n, d = rep.group.order, rep.dim
    doubled = np.zeros((n, 2 * d, 2 * d), dtype=np.complex128)
    doubled[:, :d, :d] = rep.matrices
    doubled[:, d:, d:] = rep.matrices
    big = projective_rep(rep.group, rep.cocycle, doubled)
    with pytest.raises(NotIrreducible):
        make_module_spec(big, full_subgroup(rep.group))


def test_spec_keeps_its_own_window():
    rep = trivial_irrep("S3")
    sub = subgroup_generated(rep.group, [1])
    window = random_window(rep.dim, 3)
    spec = make_module_spec(rep, sub, window=window)
    kept, before = spec.window.copy(), phi(spec).values
    window *= 2  # a later write to the caller's array
    assert not spec.window.flags.writeable
    assert np.array_equal(spec.window, kept)
    assert np.array_equal(phi(spec).values, before)


def test_one_regularity_of_the_group_per_windowed_rep(monkeypatch):
    """phi reads the group's regular elements, once for every spec cut from one source."""
    calls = []
    real = dim_mod.regularity
    monkeypatch.setattr(
        dim_mod, "regularity", lambda c, *args: calls.append(c) or real(c, *args)
    )
    rep = trivial_irrep("S3")
    source = windowed_rep(rep)
    for sub in all_subgroups(rep.group):
        spec = source.spec(sub)
        phi(spec), phi_oracle(spec)
    assert calls == [rep.cocycle]


def test_random_window_seeded_and_unit():
    a = random_window(5, 7)
    b = random_window(5, 7)
    c = random_window(5, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_cdim_operator_rejects_nonhermitian_values():
    g = build_cyclic(3)
    fn = PhiFunction(values=np.array([0.0, 1.0, 0.0], dtype=np.complex128), cocycle=trivial(g))
    with pytest.raises(NotHermitian):
        cdim_operator(fn)


def _count_computations(monkeypatch, name):
    """Replace the cached field ``name`` of WindowedRep by one that records each computation."""
    calls = []
    real = getattr(WindowedRep, name).func

    def counted(self):
        calls.append(self)
        return real(self)

    field = cached_property(counted)
    field.__set_name__(WindowedRep, name)
    monkeypatch.setattr(WindowedRep, name, field)
    return calls


def test_scan_computes_one_diagonal_per_rep_window(monkeypatch):
    """And one vector of class sums, kept on the time-frequency group: a second
    scan of it computes neither again and returns the same rows."""
    diagonals = _count_computations(monkeypatch, "diagonal")
    sums = _count_computations(monkeypatch, "class_sums")
    t = build_tf(build_cyclic(4))  # not the suite's shared one, which may hold them already
    rows = gabor_scan(t, 1, 1)
    assert len(rows) == len(all_subgroups(t.group)) > 1
    assert gabor_scan(t, 1, 1) == rows
    assert (len(diagonals), len(sums)) == (1, 1)
    assert sums[0] is t.windowed


def test_routes_computes_one_diagonal_and_one_wavelet(monkeypatch, capsys):
    """And one vector of oracle traces, shared by every lattice."""
    diagonals = _count_computations(monkeypatch, "diagonal")
    traces = _count_computations(monkeypatch, "traces")
    wavelets = []
    real = dim_mod.wavelet
    monkeypatch.setattr(dim_mod, "wavelet", lambda *a: wavelets.append(1) or real(*a))
    assert cli.main(["routes", "--group", "Z3xZ3", "--cocycle", "weyl-heisenberg"]) == 0
    lattices = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|lattice|")]
    assert len(lattices) == len(all_subgroups(tf("Z3").group)) > 1
    assert (len(diagonals), len(wavelets), len(traces)) == (1, 1, 1)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_each_route_reads_only_its_own_field(monkeypatch, label, rep):
    """phi never reads the wavelet transform or the oracle's traces, phi_oracle never
    the diagonal, the class sums, phi or phi_values."""
    source = windowed_rep(rep, random_window(rep.dim, 2))
    spec = source.spec(full_subgroup(rep.group))
    with monkeypatch.context() as m:
        for name in ("transform", "traces"):
            m.setattr(WindowedRep, name, property(lambda self, name=name: pytest.fail(f"phi read {name}")))
        closed = phi(spec)
    with monkeypatch.context() as m:
        for name in ("diagonal", "class_sums"):
            m.setattr(WindowedRep, name, property(lambda self, name=name: pytest.fail(f"phi_oracle read {name}")))
        m.setattr(dim_mod, "phi", lambda *a: pytest.fail("phi_oracle called phi"))
        m.setattr(dim_mod, "phi_values", lambda *a: pytest.fail("phi_oracle called phi_values"))
        oracle = phi_oracle(spec)
    assert np.abs(closed.values - oracle.values).max() < 1e-9


def test_windowed_rep_window_is_a_checked_read_only_copy():
    rep = trivial_irrep("S3")
    window = random_window(rep.dim, 4)
    source = windowed_rep(rep, window)
    window *= 2
    assert not source.window.flags.writeable
    assert not source.diagonal.flags.writeable
    assert not source.traces.flags.writeable
    assert np.linalg.norm(source.window) == pytest.approx(1.0)
    with pytest.raises(WindowNotUnit):
        windowed_rep(rep, window)
    other = tf("Z2").rep
    with pytest.raises(DimensionMismatch):
        source.spec(full_subgroup(other.group))


def test_regular_mask_uses_the_rep_tolerances():
    """A rep valid only at tol_id 1e-6 gets its regular mask at 1e-6 too."""
    rep = near_rep()
    spec = make_module_spec(rep, full_subgroup(rep.group))
    assert spec.regular.all()
    assert np.array_equal(spec.regular,
                          regularity(spec.restricted_cocycle, rep.tol).regular_elements)
    # the defaults would have left only the identity regular
    assert np.flatnonzero(regularity(spec.restricted_cocycle).regular_elements).tolist() == [0]


_CELLS = [(n, d) for n in (1, 2, 3) for d in (1, 2, 3)]


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_a_gauge_change_of_the_rep_multiplies_phi_by_its_conjugate_phases(label, rep):
    """x -> f(x) pi(x) turns phi into conj(f) phi on every lattice, by both routes.

    The regular mask, the spectrum of Phi and every (n, d) verdict stay as they were.
    """
    gauged = gauge_twisted_rep(rep)
    # pi and f pi are unitary, so <f pi(x), pi(x)> = f(x) dim
    f = np.einsum("xij,xij->x", gauged.matrices, rep.matrices.conj()) / rep.dim
    source, gauged_source = windowed_rep(rep), windowed_rep(gauged)
    for sub in all_subgroups(rep.group):
        spec, gauged_spec = source.spec(sub), gauged_source.spec(sub)
        fn = phi(spec)
        want = np.conj(f[list(sub.elements)]) * fn.values
        for route in (phi, phi_oracle):
            assert np.abs(route(gauged_spec).values - want).max() <= 1e-12
        assert np.abs(phi(gauged_spec).spectrum - fn.spectrum).max() <= 1e-12
        assert np.array_equal(gauged_spec.regular, spec.regular)
        for n, d in _CELLS:
            before, after = existence_decision(spec, n, d), existence_decision(gauged_spec, n, d)
            verdicts = [(r.frame, r.riesz, r.basis) for r in (before, after)]
            assert verdicts[0] == verdicts[1], (sub.order, n, d)


def test_conjugate_lattices_have_equal_phi_spectra():
    """pi(g) intertwines the restrictions to L and g L g^-1, so Phi has one spectrum on both."""
    pairs = 0
    for label, rep in rep_fixtures():
        g, source = rep.group, windowed_rep(rep)
        subs = all_subgroups(g)
        by_elements = {frozenset(sub.elements): sub for sub in subs}
        for sub in subs:
            spectrum = phi(source.spec(sub)).spectrum
            elems = list(sub.elements)
            for x in range(g.order):
                conj = by_elements[frozenset(g.cayley[g.cayley[x, elems], g.inverse[x]])]
                if conj is not sub:
                    pairs += 1
                    gap = np.abs(phi(source.spec(conj)).spectrum - spectrum).max()
                    assert gap <= 1e-9, (label, sub.elements, x)
    assert pairs == 556  # every (lattice, g) pair of the fixtures that moves the lattice
