import numpy as np
import pytest

from latdim import (
    ConsistencyError,
    DimensionMismatch,
    NotHermitian,
    NotIrreducible,
    PhiFunction,
    PreconditionFailed,
    WindowNotUnit,
    abelian_kleppner_shortcut,
    all_subgroups,
    build_cyclic,
    cdim_operator,
    conjugate_cocycle,
    full_subgroup,
    is_sigma_positive_definite,
    make_module_spec,
    phi,
    phi_oracle,
    phi_oracle_sum,
    projective_rep,
    random_window,
    right_regular,
    right_transversal,
    subgroup_generated,
    trivial,
    trivial_subgroup,
    wavelet,
)

from fixtures_common import rep_fixtures, tf, traced_peak, trivial_irrep


def _sign_character():
    g = build_cyclic(2)
    return projective_rep(g, trivial(g), [[[1.0]], [[-1.0]]])


def test_sign_character_full_lattice_frozen_values():
    rep = _sign_character()
    spec = make_module_spec(rep, full_subgroup(rep.group))
    fn = phi(spec)
    assert np.allclose(fn.values, [0.5, -0.5])
    assert fn.dpi_vol == pytest.approx(0.5)
    assert fn.regular.all()
    op = cdim_operator(fn)
    assert np.allclose(op, [[0.5, -0.5], [-0.5, 0.5]])
    # the operator is a projection: phi really is a module dimension
    assert np.allclose(op @ op, op)


def test_phi_values_are_read_only():
    rep = tf("Z2").rep
    spec = make_module_spec(rep, full_subgroup(rep.group))
    for fn in (phi(spec), phi_oracle(spec), phi_oracle_sum([spec, spec])):
        with pytest.raises(ValueError):
            fn.values[0] = fn.values[0]


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
    assert fn.dpi_vol == pytest.approx(1.0)


def test_full_lattice_kleppner_concentrates_at_identity():
    t = tf("Z4")
    spec = make_module_spec(t.rep, full_subgroup(t.rep.group))
    fn = phi(spec)
    assert fn.regular.sum() == 1  # only the identity class is regular
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
            assert np.array_equal(fn.regular, regular)


def _reference_phi_oracle(spec):
    """The embedding route on dense matrices: the coset unitary u, the
    product u* P u, and the average of the block sum over the dense
    right regular stack of the conjugate restricted cocycle, column e."""
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
    rho = right_regular(lat, conjugate_cocycle(spec.restricted_cocycle)).matrices
    avg = np.einsum("xji,jk,xkl->il", rho.conj(), block_sum, rho, optimize=True)
    return avg[:, lat.identity] / nl


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_phi_oracle_matches_dense_reference(label, rep):
    for sub in all_subgroups(rep.group):
        for seed in (None, 5, 6):
            window = None if seed is None else random_window(rep.dim, seed)
            spec = make_module_spec(rep, sub, window=window)
            got = phi_oracle(spec).values
            assert np.abs(got - _reference_phi_oracle(spec)).max() < 1e-12, (label, sub.elements)


def test_phi_oracle_rejects_a_non_unique_coset_factorization(monkeypatch):
    rep = tf("Z2").rep
    spec = make_module_spec(rep, subgroup_generated(rep.group, [1]))
    good = right_transversal(rep.group, spec.lattice.elements)
    monkeypatch.setattr(
        "latdim.dimension.right_transversal", lambda g, h: (good[0],) * len(good)
    )
    with pytest.raises(ConsistencyError, match="coset factorization is not unique"):
        phi_oracle(spec)


@pytest.mark.parametrize("gens, order", [
    ([16 * 4, 4], 16), ([16 * 2, 2], 64), ([16, 2], 128), ([16, 1], 256),
])
def test_phi_matches_oracle_at_256_in_quadratic_memory(gens, order):
    rep = tf("Z16").rep  # Weyl-Heisenberg over Z16 x Z16, index (x, w) -> 16 x + w
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
        assert is_sigma_positive_definite(fn.values, fn.cocycle)
        op = cdim_operator(fn)
        assert np.linalg.eigvalsh(op).min() > -1e-9


def test_oracle_sum_is_additive():
    rep = tf("Z3").rep
    sub = subgroup_generated(rep.group, [1 * 3 + 0])  # pure translations
    specs = [
        make_module_spec(rep, sub, window=random_window(rep.dim, s))
        for s in (4, 5, 6)
    ]
    total = phi_oracle_sum(specs)
    parts = [phi_oracle(s) for s in specs]
    assert np.allclose(total.values, sum(p.values for p in parts))
    assert total.dpi_vol == pytest.approx(3 * specs[0].dpi_vol)


def test_oracle_sum_rejects_mixed_lattices():
    rep = tf("Z2").rep
    a = make_module_spec(rep, full_subgroup(rep.group))
    b = make_module_spec(rep, trivial_subgroup(rep.group))
    with pytest.raises(DimensionMismatch):
        phi_oracle_sum([a, b])
    with pytest.raises(DimensionMismatch):
        phi_oracle_sum([])


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


def test_random_window_seeded_and_unit():
    a = random_window(5, 7)
    b = random_window(5, 7)
    c = random_window(5, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.linalg.norm(a) == pytest.approx(1.0)


def test_cdim_operator_rejects_nonhermitian_values():
    g = build_cyclic(3)
    fn = PhiFunction(
        values=np.array([0.0, 1.0, 0.0], dtype=np.complex128),
        dpi_vol=1.0,
        cocycle=trivial(g),
        lattice_group=g,
        regular=np.ones(3, dtype=bool),
    )
    with pytest.raises(NotHermitian):
        cdim_operator(fn)


@pytest.mark.parametrize("base", ["Z2", "Z3", "Z4", "Z5", "Z6"])
def test_abelian_shortcut_agrees_with_phi(base):
    t = tf(base)
    for sub in all_subgroups(t.rep.group):
        spec = make_module_spec(t.rep, sub)
        fast = abelian_kleppner_shortcut(spec)
        slow = phi(spec)
        assert np.abs(fast.values - slow.values).max() < 1e-10
        assert fast.dpi_vol == slow.dpi_vol


def test_abelian_shortcut_preconditions():
    rep = trivial_irrep("S3")
    with pytest.raises(PreconditionFailed):
        abelian_kleppner_shortcut(
            make_module_spec(rep, full_subgroup(rep.group))
        )
    flat = trivial_irrep("Z4")
    with pytest.raises(PreconditionFailed):
        abelian_kleppner_shortcut(
            make_module_spec(flat, full_subgroup(flat.group))
        )
