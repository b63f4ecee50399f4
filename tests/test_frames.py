import time

import numpy as np
import pytest

import latdim.frames as frames_mod
from latdim import (
    BoundExceeded,
    ConsistencyError,
    DimensionMismatch,
    FrameReport,
    Infeasible,
    Tolerances,
    all_subgroups,
    build_cyclic,
    build_tf,
    construct_parseval_generators,
    conv_operator,
    decision_grids,
    density_check,
    existence_decision,
    frame_report,
    full_subgroup,
    intertwiner_basis,
    left_regular,
    make_module_spec,
    multiwindow_system,
    projective_rep,
    random_system,
    riesz_basis_criterion,
    subgroup_generated,
    tighten,
)
from latdim.cli import _tf_parts
from latdim.config import PARSEVAL, SYSTEM_ENTRIES

import dense_reference
from fixtures_common import pauli_product_irrep, rep_fixtures, tf, traced_peak, trivial_irrep
from latdim.frames import _commutation_residual, _system_vectors


def _wh_spec(base="Z2", lattice=None):
    t = tf(base)
    sub = lattice if lattice is not None else full_subgroup(t.rep.group)
    return make_module_spec(t.rep, sub)


def _carrying(spec, **tol):
    """The same module, its rep carrying the given non-default tolerances."""
    rep = spec.rep
    return make_module_spec(projective_rep(rep.group, rep.cocycle, rep.matrices,
                                           Tolerances(**tol)), spec.lattice)


def _frame_operator(sys):
    """Sum of rank-one operators of the system vectors, on the stacked space."""
    w = _system_vectors(sys)
    return w.T @ w.conj()


def _gram(sys):
    """Pairwise inner products of the system vectors."""
    w = _system_vectors(sys)
    return w @ w.conj().T


def _translations(t):
    na = t.base.order
    return subgroup_generated(t.rep.group, [k * na for k in range(1, na)])


def test_multiwindow_system_shape_errors():
    t = tf("Z2")
    sub = full_subgroup(t.rep.group)
    with pytest.raises(DimensionMismatch):
        multiwindow_system(t.rep, sub, np.zeros((2, 2)))
    with pytest.raises(DimensionMismatch):
        multiwindow_system(t.rep, sub, np.zeros((1, 1, 3)))
    other = build_cyclic(4)
    with pytest.raises(DimensionMismatch):
        multiwindow_system(t.rep, full_subgroup(other), np.zeros((1, 1, 2)))


def test_frame_operator_matches_double_loop():
    t = tf("Z2")
    sub = full_subgroup(t.rep.group)
    rng = np.random.default_rng(0)
    gens = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    sys = multiwindow_system(t.rep, sub, gens)
    s = _frame_operator(sys)

    dd = sys.d * t.rep.dim
    expected = np.zeros((dd, dd), dtype=np.complex128)
    for i in range(sys.n):
        for x in sub.elements:
            stacked = np.concatenate(
                [t.rep.matrix(x) @ gens[i, j] for j in range(sys.d)]
            )
            expected += np.outer(stacked, stacked.conj())
    assert np.abs(s - expected).max() < 1e-12

    g = _gram(sys)
    assert g.shape == (sys.n * sub.order, sys.n * sub.order)
    # frame operator and Gram share their nonzero spectrum
    se = np.sort(np.linalg.eigvalsh((s + s.conj().T) / 2))[::-1]
    ge = np.sort(np.linalg.eigvalsh((g + g.conj().T) / 2))[::-1]
    k = min(len(se), len(ge))
    assert np.abs(se[:k] - ge[:k]).max() < 1e-10


@pytest.mark.parametrize("lattice", ["translations", "full"])
def test_system_vector_rows_match_double_loop(lattice):
    # n, d, dim and |lattice| differ, so a transposed reshape shows
    t = tf("Z3")
    full = full_subgroup(t.rep.group)
    sub = _translations(t) if lattice == "translations" else full
    rng = np.random.default_rng(4)
    n, d = 2, 4
    gens = rng.normal(size=(n, d, 3)) + 1j * rng.normal(size=(n, d, 3))
    w = _system_vectors(multiwindow_system(t.rep, sub, gens))
    assert w.shape == (n * sub.order, d * t.rep.dim)
    for i in range(n):
        for g, x in enumerate(sub.elements):
            row = np.concatenate([t.rep.matrix(x) @ gens[i, j] for j in range(d)])
            assert np.abs(w[i * sub.order + g] - row).max() < 1e-12


def _reference_frame_report(sys, tol=frames_mod.DEFAULT_TOL):
    """Two eigensolves: frame bounds from S, Riesz bounds from the Gram."""
    s = _frame_operator(sys)
    s_eigs = np.linalg.eigvalsh((s + s.conj().T) / 2)
    g = _gram(sys)
    g_eigs = np.linalg.eigvalsh((g + g.conj().T) / 2)
    lower, upper = float(s_eigs[0]), float(s_eigs[-1])
    riesz_lower, riesz_upper = float(g_eigs[0]), float(g_eigs[-1])
    is_frame = lower > tol.tol_frame * upper
    is_riesz = riesz_lower > tol.tol_frame * riesz_upper
    square = sys.n * sys.lattice.order == sys.d * sys.rep.dim
    return FrameReport(
        lower, upper, is_frame, riesz_lower, riesz_upper, is_riesz,
        is_frame and is_riesz and square,
    )


@pytest.mark.parametrize("base, lattice, n, d", [
    ("Z2", "full", 2, 1),  # 8 vectors in dimension 2
    ("Z2", "full", 1, 2),  # 4 in 4
    ("Z2", "full", 1, 3),  # 4 in 6
    ("Z3", "translations", 2, 1),  # 6 in 3
    ("Z3", "translations", 1, 1),  # 3 in 3
    ("Z3", "translations", 1, 2),  # 3 in 6
    ("Z3", "full", 1, 2),  # 9 in 6
])
@pytest.mark.parametrize("zero", [False, True])
def test_frame_report_matches_two_eigensolves(base, lattice, n, d, zero):
    t = tf(base)
    sub = _translations(t) if lattice == "translations" else full_subgroup(t.rep.group)
    spec = make_module_spec(t.rep, sub)
    sys = random_system(spec, n, d, seed=11)
    if zero:
        sys = multiwindow_system(t.rep, sub, np.zeros_like(sys.generators))
    got, want = frame_report(sys), _reference_frame_report(sys)
    assert (got.is_frame, got.is_riesz_sequence, got.is_riesz_basis) == (
        want.is_frame, want.is_riesz_sequence, want.is_riesz_basis
    )
    slack = 1e-12 * max(1.0, want.upper)
    for field in ("lower", "upper", "riesz_lower", "riesz_upper"):
        assert abs(getattr(got, field) - getattr(want, field)) <= slack, field


def test_frame_report_solves_once(monkeypatch):
    calls = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or solve(a)
    )
    spec = _wh_spec("Z3")
    frame_report(random_system(spec, 2, 1, seed=0))
    assert calls == [(3, 3)]  # S (3x3), not the 18x18 Gram


@pytest.mark.parametrize("base", ["Z2", "Z3"])
def test_full_orbit_of_unit_window_is_tight(base):
    t = tf(base)
    rng = np.random.default_rng(1)
    w = rng.normal(size=t.rep.dim) + 1j * rng.normal(size=t.rep.dim)
    w = w / np.linalg.norm(w)
    sys = multiwindow_system(
        t.rep, full_subgroup(t.rep.group), w.reshape(1, 1, -1)
    )
    rep = frame_report(sys)
    bound = t.rep.group.order / t.rep.dim
    assert rep.is_frame
    assert rep.lower == pytest.approx(bound)
    assert rep.upper == pytest.approx(bound)
    assert not rep.is_riesz_sequence  # strictly overcomplete


def test_zero_system_is_not_a_frame():
    t = tf("Z2")
    sys = multiwindow_system(
        t.rep, full_subgroup(t.rep.group), np.zeros((1, 1, 2))
    )
    rep = frame_report(sys)
    assert not rep.is_frame
    assert not rep.is_riesz_sequence
    assert not rep.is_riesz_basis


@pytest.mark.parametrize("base", ["Z2", "Z3"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_decisions_match_generic_systems(base, n, d):
    # generic generators realize whatever the dimension function allows
    t = tf(base)
    for sub in (full_subgroup(t.rep.group), _translations(t)):
        spec = make_module_spec(t.rep, sub)
        decision = existence_decision(spec, n, d)
        rep = frame_report(random_system(spec, n, d, seed=17))
        assert rep.is_frame == decision.frame
        assert rep.is_riesz_sequence == decision.riesz
        verdict = density_check(rep, spec, n, d)
        assert verdict.ok, verdict.violations


def test_riesz_basis_criterion_matches_decision():
    t = tf("Z2")
    spec = make_module_spec(t.rep, full_subgroup(t.rep.group))
    for n in (1, 2):
        for d in (1, 2, 3):
            decision = existence_decision(spec, n, d)
            assert riesz_basis_criterion(spec, n, d) == decision.basis
            assert decision.basis == (decision.frame and decision.riesz)
    # dpi_vol = 1/2: the exact basis cells are n/d = 1/2
    assert riesz_basis_criterion(spec, 1, 2)
    assert not riesz_basis_criterion(spec, 1, 1)


def _copy_and_subtract_residual(fn, ratio):
    """The basis residual as a copy of phi with n/d taken off at the identity."""
    residual = fn.values.copy()
    residual[fn.cocycle.group.identity] -= ratio
    return float(np.abs(residual).max())


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_basis_residual_matches_copy_and_subtract(label, rep):
    for sub in all_subgroups(rep.group):
        spec = make_module_spec(rep, sub)
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                got = existence_decision(spec, n, d).basis_residual
                assert got == _copy_and_subtract_residual(spec.dimension_function, n / d)


@pytest.mark.parametrize("where", ["identity", "off identity"])
def test_basis_residual_keeps_a_nan(where):
    spec = _wh_spec("Z2", _translations(tf("Z2")))
    fn = spec.dimension_function
    values = fn.values.copy()
    values[spec.lattice_group.identity if where == "identity" else 1] = np.nan
    nan_fn = type(fn)(values, fn.cocycle)
    nan_fn.__dict__["spectrum"] = fn.spectrum  # the witnesses stay finite
    spec.__dict__["dimension_function"] = nan_fn
    assert np.isnan(existence_decision(spec, 1, 1).basis_residual)


def test_off_identity_peak_of_the_trivial_lattice_is_zero():
    t = tf("Z2")
    spec = make_module_spec(t.rep, subgroup_generated(t.rep.group, []))
    fn = spec.dimension_function
    assert fn.off_identity_peak == 0.0
    assert existence_decision(spec, 1, 2).basis_residual == abs(fn.values[0] - 0.5)


def test_decisions_share_one_spectrum(monkeypatch):
    # the support-{e} screen of the spectrum runs once per spec; on this
    # Kleppner lattice it reads Phi off phi(e) and solves nothing
    import latdim.dimension as dim_mod

    calls, solves = [], []
    kernel, solve = dim_mod._scalar_rows, np.linalg.eigvalsh
    monkeypatch.setattr(dim_mod, "_scalar_rows", lambda *a: calls.append(1) or kernel(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or solve(a))
    spec = _wh_spec("Z3", _translations(tf("Z3")))
    first = existence_decision(spec, 1, 1)
    again = existence_decision(spec, 1, 1)
    existence_decision(spec, 2, 3)
    assert len(calls) == 1
    assert solves == []
    assert first.frame_witness == again.frame_witness


def test_decision_and_construction_share_one_phi(monkeypatch):
    # phi and the support-{e} screen of Phi's spectrum each run once per spec,
    # not once per call; on this Kleppner lattice the screen reads Phi off
    # phi(e) and nothing is solved
    import latdim.dimension as dim_mod

    phi_calls, kernel_calls, solves = [], [], []
    real_phi, real_kernel, solve = dim_mod.phi, dim_mod._scalar_rows, np.linalg.eigvalsh

    def counted_kernel(*args):
        kernel_calls.append(1)
        try:
            return real_kernel(*args)
        finally:
            kernel_calls.append(0)  # closes the call: solves after it are not the kernel's

    for mod in (dim_mod, frames_mod):  # every binding of phi, wherever it is read
        if vars(mod).get("phi") is real_phi:
            monkeypatch.setattr(
                mod, "phi", lambda spec: phi_calls.append(1) or real_phi(spec)
            )
    monkeypatch.setattr(dim_mod, "_scalar_rows", counted_kernel)
    monkeypatch.setattr(dim_mod, "_solve_spectra", lambda *a: pytest.fail("solved"))
    monkeypatch.setattr(
        np.linalg, "eigvalsh",
        lambda a: solves.append(kernel_calls[-1:] == [1]) or solve(a)
    )
    spec = _wh_spec("Z2", _translations(tf("Z2")))
    assert existence_decision(spec, 1, 1).frame
    construct_parseval_generators(spec, 1, 1)
    assert len(phi_calls) == 1
    assert kernel_calls == [1, 0]
    assert solves.count(True) == 0


def test_density_check_flags_fabricated_reports():
    t = tf("Z2")
    spec = make_module_spec(t.rep, _translations(t))  # dpi_vol = 1
    frame_claim = FrameReport(1.0, 1.0, True, 0.0, 1.0, False, False)
    verdict = density_check(frame_claim, spec, 1, 2)  # n/d = 1/2 < 1
    assert not verdict.ok
    assert "frame" in verdict.violations[0]
    riesz_claim = FrameReport(0.0, 1.0, False, 1.0, 1.0, True, False)
    verdict = density_check(riesz_claim, spec, 3, 1)  # n/d = 3 > 1
    assert not verdict.ok
    assert "riesz" in verdict.violations[0]
    assert density_check(frame_claim, spec, 1, 1).ok


def test_intertwiner_basis_counts_multiplicity():
    spec = _wh_spec("Z2")
    basis = intertwiner_basis(spec)
    # the twisted regular rep contains the irrep with multiplicity dim
    assert basis.shape == (spec.rep.dim, spec.lattice.order, spec.rep.dim)
    for w in basis:
        assert np.abs(np.vdot(w, w) - 1.0) < 1e-10


def test_intertwiner_basis_trivial_lattice_spans_everything():
    t = tf("Z2")
    sub = subgroup_generated(t.rep.group, [])
    spec = make_module_spec(t.rep, sub)
    basis = intertwiner_basis(spec)
    assert basis.shape[0] == t.rep.dim  # no constraint, one row per dim


def _projector(basis):
    flat = basis.reshape(len(basis), -1)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_intertwiner_basis_matches_dense_reference(label, rep):
    """On every lattice: the reference's span, orthonormal, and W pi(gamma) = lambda(gamma) W."""
    for sub in all_subgroups(rep.group):
        spec = make_module_spec(rep, sub)
        basis = intertwiner_basis(spec)
        assert basis.shape == (rep.dim, sub.order, rep.dim)
        ref = dense_reference.intertwiner_basis(spec)
        assert np.abs(_projector(basis) - _projector(ref)).max() < 1e-12
        flat = basis.reshape(rep.dim, -1)
        assert np.abs(flat @ flat.conj().T - np.eye(rep.dim)).max() < 1e-12
        lam = left_regular(spec.lattice_group, spec.restricted_cocycle).matrices
        pis = rep.matrices[sub.elements]
        gap = basis[:, None] @ pis - lam @ basis[:, None]
        assert np.abs(gap).max() < 1e-12


def test_intertwiner_basis_at_256_is_quick_and_small():
    """Z16xZ16 Weyl-Heisenberg on its full lattice: a dense solve has side 4096 there."""
    spec = _wh_spec("Z16")
    start = time.perf_counter()
    basis, peak = traced_peak(intertwiner_basis, spec)
    assert time.perf_counter() - start < 1.0
    assert peak < 4 << 20, peak
    assert basis.shape == (16, 256, 16)
    flat = basis.reshape(16, -1)
    assert np.abs(flat @ flat.conj().T - np.eye(16)).max() < 1e-12
    gens = list(spec.lattice_group.generators)
    deltas = np.eye(spec.lattice.order)[gens]
    lam = np.array([conv_operator(e, spec.restricted_cocycle) for e in deltas])
    gap = basis[:, None] @ spec.rep.matrices[spec.lattice.elements[gens]] - lam @ basis[:, None]
    assert np.abs(gap).max() < 1e-12


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_construct_parseval(n, d):
    spec = _wh_spec("Z2")  # dpi_vol = 1/2, frame iff n/d >= 1/2
    if n / d < 0.5:
        with pytest.raises(Infeasible):
            construct_parseval_generators(spec, n, d, seed=0)
        return
    gens = construct_parseval_generators(spec, n, d, seed=0)
    assert gens.shape == (n, d, spec.rep.dim)
    rep = frame_report(multiwindow_system(spec.rep, spec.lattice, gens))
    assert abs(rep.lower - 1.0) < 1e-8
    assert abs(rep.upper - 1.0) < 1e-8


def test_construct_orthonormal_on_basis_cell():
    spec = _wh_spec("Z2")
    gens = construct_parseval_generators(spec, 1, 2, seed=3)
    sys = multiwindow_system(spec.rep, spec.lattice, gens)
    g = _gram(sys)
    assert np.abs(g - np.eye(g.shape[0])).max() < 1e-8
    assert frame_report(sys).is_riesz_basis


def test_construct_catches_a_non_orthonormal_basis_cell(monkeypatch):
    """The Parseval bound check is what rejects a basis cell that is not orthonormal."""
    spec = _wh_spec("Z2")
    assert existence_decision(spec, 1, 2).basis  # 4 vectors in dimension 4
    real = frames_mod.tighten

    def scaled(sys):
        tight, comm_res = real(sys)
        off = multiwindow_system(tight.rep, tight.lattice, tight.generators * (1 + 1e-6))
        return off, comm_res

    monkeypatch.setattr(frames_mod, "tighten", scaled)
    with pytest.raises(ConsistencyError, match="distance of the frame bounds from 1"):
        construct_parseval_generators(spec, 1, 2, seed=3)


def test_construct_redraws_an_ill_conditioned_frame():
    """The |lattice| = 16 square cell of the Z2xZ2xZ4 scan at n = d = 3, seed 0.

    The first draw's frame operator has condition number 2.7e7, and its
    S^-1/2 missed commutation by 1.8e-7.  It is redrawn, and the second
    draw passes both checks at PARSEVAL.
    """
    base, dual, _ = _tf_parts("Z2xZ2xZ4")
    t = build_tf(base, dual)
    lattice = subgroup_generated(t.group, [0, 2, 9, 11, 68, 70, 77, 79, 128, 130, 137, 139,
                                           196, 198, 205, 207])
    assert lattice.order == 16
    spec = make_module_spec(t.rep, lattice)
    with pytest.raises(Infeasible, match="ill-conditioned"):
        tighten(random_system(spec, 3, 3, seed=0))
    gens = construct_parseval_generators(spec, 3, 3, seed=0)
    tight, comm_res = tighten(random_system(spec, 3, 3, seed=1))
    assert np.array_equal(gens, tight.generators)
    assert comm_res <= PARSEVAL
    report = frame_report(tight)
    assert max(abs(report.lower - 1.0), abs(report.upper - 1.0)) <= PARSEVAL


def test_construct_infeasible_cell():
    t = tf("Z2")
    spec = make_module_spec(t.rep, _translations(t))  # dpi_vol = 1
    with pytest.raises(Infeasible):
        construct_parseval_generators(spec, 1, 2)


def test_construct_deterministic_in_seed():
    spec = _wh_spec("Z3")
    a = construct_parseval_generators(spec, 2, 3, seed=5)
    b = construct_parseval_generators(spec, 2, 3, seed=5)
    c = construct_parseval_generators(spec, 2, 3, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_tighten_random_frame():
    spec = _wh_spec("Z3")
    sys = random_system(spec, 1, 1, seed=2)
    assert frame_report(sys).is_frame
    tight, comm_res = tighten(sys)
    assert comm_res < 1e-9
    rep = frame_report(tight)
    assert abs(rep.lower - 1.0) < 1e-8
    assert abs(rep.upper - 1.0) < 1e-8


def test_tighten_rejects_deficient_system():
    t = tf("Z2")
    spec = make_module_spec(t.rep, _translations(t))
    sys = random_system(spec, 1, 2, seed=0)  # 2 vectors in dimension 4
    with pytest.raises(Infeasible):
        tighten(sys)


def test_random_system_seeded():
    spec = _wh_spec("Z2")
    a = random_system(spec, 2, 2, seed=9)
    b = random_system(spec, 2, 2, seed=9)
    c = random_system(spec, 2, 2, seed=10)
    assert np.array_equal(a.generators, b.generators)
    assert not np.array_equal(a.generators, c.generators)
    assert a.generators.shape == (2, 2, spec.rep.dim)


def test_nonabelian_fixture_construction():
    rep = trivial_irrep("S3")  # dim 2 over a group of order 6
    sub = subgroup_generated(rep.group, [1])
    spec = make_module_spec(rep, sub)
    decision = existence_decision(spec, 1, 1)
    if decision.frame:
        gens = construct_parseval_generators(spec, 1, 1, seed=0)
        rep_out = frame_report(
            multiwindow_system(spec.rep, spec.lattice, gens)
        )
        assert abs(rep_out.lower - 1.0) < 1e-8
        assert abs(rep_out.upper - 1.0) < 1e-8
    else:
        with pytest.raises(Infeasible):
            construct_parseval_generators(spec, 1, 1, seed=0)


@pytest.mark.parametrize("label", ["s3-pauli", "D4", "Q8"])
def test_construction_on_every_nonabelian_cell(label):
    rep = pauli_product_irrep() if label == "s3-pauli" else trivial_irrep(label)
    for sub in all_subgroups(rep.group):
        spec = make_module_spec(rep, sub)
        for n in (1, 2):
            for d in (1, 2):
                decision = existence_decision(spec, n, d)
                if not decision.frame:
                    with pytest.raises(Infeasible):
                        construct_parseval_generators(spec, n, d)
                    continue
                gens = construct_parseval_generators(spec, n, d, seed=1)
                sys = multiwindow_system(rep, sub, gens)
                rep_out = frame_report(sys)
                assert abs(rep_out.lower - 1.0) < 1e-8
                assert abs(rep_out.upper - 1.0) < 1e-8
                if decision.basis:
                    g = _gram(sys)
                    assert np.abs(g - np.eye(g.shape[0])).max() < 1e-8


def _kron_commutation_residual(op, pis, d):
    """The commutator of op with I_d kron pi, one lattice element at a time."""
    res = 0.0
    for p in pis:
        big = np.kron(np.eye(d), p)
        res = max(res, float(np.abs(op @ big - big @ op).max()))
    return res


def _inv_sqrt_frame_operator(sys):
    s = _frame_operator(sys)
    eigvals, eigvecs = np.linalg.eigh((s + s.conj().T) / 2)
    return (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T


@pytest.mark.parametrize("label", ["wh-Z3", "wh-Z4", "s3-pauli"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_commutation_residual_matches_kron_loop(label, d):
    rep = pauli_product_irrep() if label == "s3-pauli" else tf(label[3:]).rep
    sub = full_subgroup(rep.group)
    spec = make_module_spec(rep, sub)
    pis = rep.matrices[list(sub.elements)]
    # S^-1/2 of a frame commutes with the lattice action
    inv_sqrt = _inv_sqrt_frame_operator(random_system(spec, d, d, seed=d))
    want = _kron_commutation_residual(inv_sqrt, pis, d)
    assert want < 1e-12
    assert abs(_commutation_residual(inv_sqrt, pis, d) - want) <= 1e-15
    # a Hermitian matrix that does not commute
    rng = np.random.default_rng(d)
    size = d * rep.dim
    h = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    h = h + h.conj().T
    want = _kron_commutation_residual(h, pis, d)
    assert want > 0.1
    assert abs(_commutation_residual(h, pis, d) - want) <= 1e-15 * want


def test_commutation_residual_keeps_a_nan():
    rep = tf("Z3").rep
    op = np.eye(2 * rep.dim, dtype=np.complex128)
    op[rep.dim + 1, 0] = np.nan  # in block (1, 0)
    assert np.isnan(_commutation_residual(op, rep.matrices, 2))


def test_construct_rejects_a_large_commutation_residual(monkeypatch):
    spec = _wh_spec("Z3")
    construct_parseval_generators(spec, 1, 1)
    monkeypatch.setattr(frames_mod, "_commutation_residual", lambda op, pis, d: 2e-8)
    with pytest.raises(ConsistencyError, match="commutation residual"):
        construct_parseval_generators(spec, 1, 1)


def _grid(spec):
    """The 3 x 3 decision grid of one spec, as a block of one spectrum."""
    frame, riesz = decision_grids(spec.dimension_function.spectrum[None], 3, 3)
    return frame[0], riesz[0]


def _assert_grid_matches_decisions(spec):
    frame, riesz = _grid(spec)
    assert frame.shape == riesz.shape == (3, 3)
    for n in range(1, 4):
        for d in range(1, 4):
            dec = existence_decision(spec, n, d)
            cell = (frame[n - 1, d - 1], riesz[n - 1, d - 1])
            assert (*cell, cell[0] and cell[1]) == (dec.frame, dec.riesz, dec.basis), (n, d)
    return frame, riesz


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_decision_grid_matches_existence_decision(label, rep):
    for sub in all_subgroups(rep.group):
        _assert_grid_matches_decisions(make_module_spec(rep, sub))


@pytest.mark.parametrize("end", [0, -1])
def test_decision_grid_skips_a_nan_witness_in_the_slack(end):
    """A NaN at one end of the spectrum fails only the verdict that reads it.

    The slack takes max(1, |frame witness|, |riesz witness|), which skips
    a NaN witness, so the other verdict keeps its value.
    """
    spec = _wh_spec("Z2")
    clean_frame, clean_riesz = _grid(spec)
    assert clean_frame.any() and clean_riesz.any()
    fn = spec.dimension_function
    eigs = fn.spectrum.copy()
    eigs[end] = np.nan
    vars(fn)["spectrum"] = eigs  # the cached value every decision reads
    frame, riesz = _assert_grid_matches_decisions(spec)
    if end == 0:  # the smallest eigenvalue: no Riesz sequence, frames as before
        assert not riesz.any() and np.array_equal(frame, clean_frame)
    else:
        assert not frame.any() and np.array_equal(riesz, clean_riesz)


def test_decisions_read_the_rep_tol_psd():
    """existence_decision at the rep's tolerances is the grid decided at them explicitly."""
    spec = _wh_spec("Z2")  # Phi = 1/2, so (1, 3) misses a frame by 1/6
    loose = _carrying(spec, tol_psd=0.2)
    frame, riesz = decision_grids(spec.dimension_function.spectrum[None], 3, 3, loose.rep.tol)
    for n in range(1, 4):
        for d in range(1, 4):
            dec = existence_decision(loose, n, d)
            assert (dec.frame, dec.riesz) == (frame[0, n - 1, d - 1], riesz[0, n - 1, d - 1])
    assert existence_decision(loose, 1, 3).frame and not existence_decision(spec, 1, 3).frame


def test_frame_report_and_construction_read_the_rep_tol_frame():
    """A tol_frame of 0.4 rejects the draws whose frame bounds are further apart.

    On Z2 at (1, 2) the seed-0 draws have lower/upper 0.031, 0.108, 0.442, ...,
    so the construction tightens the third draw instead of the first.
    """
    spec = _wh_spec("Z2")
    strict = _carrying(spec, tol_frame=0.4)
    first = frame_report(random_system(spec, 1, 2, seed=0))
    first_strict = frame_report(random_system(strict, 1, 2, seed=0))
    assert (first.lower, first.upper) == (first_strict.lower, first_strict.upper)
    assert first.is_frame and not first_strict.is_frame
    with pytest.raises(Infeasible):
        tighten(random_system(strict, 1, 2, seed=0))
    want = tighten(random_system(spec, 1, 2, seed=2))[0].generators
    assert np.array_equal(construct_parseval_generators(strict, 1, 2, seed=0), want)
    assert not np.array_equal(construct_parseval_generators(spec, 1, 2, seed=0), want)


def test_construct_refuses_an_oversized_system_before_drawing(monkeypatch):
    spec = _wh_spec("Z2")  # |lattice| 4, dim 2
    monkeypatch.setattr(frames_mod, "random_system", lambda *args, **kw: pytest.fail("drew"))
    assert (4 * 512) * (2 * 512) > SYSTEM_ENTRIES
    with pytest.raises(BoundExceeded, match="2048 vectors of length 1024 exceeds"):
        construct_parseval_generators(spec, 512, 512)
    # an infeasible cell is infeasible at any size
    with pytest.raises(Infeasible):
        construct_parseval_generators(spec, 1, 10**6)
