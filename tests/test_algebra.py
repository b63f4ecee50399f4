import numpy as np
import pytest
from hypothesis import given, strategies as st

from latdim import (
    Cocycle,
    ConsistencyError,
    adjoint,
    build_cyclic,
    center_dimension,
    center_valued_trace,
    center_valued_trace_oracle,
    conv_operator,
    element,
    is_sigma_positive_definite,
    left_regular,
    multiply,
    regularity,
    right_regular,
    trace_tau,
    trivial,
    weyl_heisenberg,
)

from latdim.algebra import center_valued_trace_table

import dense_reference
from dense_reference import fixed_space
from fixtures_common import (
    cocycle_fixtures,
    gauge_twisted,
    group,
    pauli_product,
    tf,
    traced_peak,
)


def _rand_coeffs(coc, seed):
    rng = np.random.default_rng(seed)
    n = coc.group.order
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def test_left_regular_swap_on_z2():
    lam = left_regular(build_cyclic(2), trivial(build_cyclic(2)))
    assert np.allclose(lam.matrices[1], [[0, 1], [1, 0]])


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_regular_reps_unitary_and_twisted(label, coc):
    g = coc.group
    for rep in (left_regular(g, coc), right_regular(g, coc)):
        assert np.allclose(rep.matrices[g.identity], np.eye(g.order))
        mats = rep.matrices
        prod = np.abs(np.einsum("xij,xkj->xik", mats, mats.conj()))
        assert np.abs(prod - np.eye(g.order)).max() < 1e-12
    lam = left_regular(g, coc).matrices
    for x in range(g.order):
        lhs = lam[x] @ lam
        rhs = coc.table[x][:, None, None] * lam[g.cayley[x]]
        assert np.abs(lhs - rhs).max() < 1e-12


def _reference_commutant(group, cocycle):
    """Max commutator norm from the dense regular stacks, one batched matmul per x."""
    lam = left_regular(group, cocycle).matrices
    rho = right_regular(group, Cocycle(group, np.conj(cocycle.table))).matrices
    worst = 0.0
    for x in range(group.order):
        diff = lam[x] @ rho - rho @ lam[x]
        worst = max(worst, float(np.linalg.norm(diff.reshape(group.order, -1), axis=1).max()))
    return worst


@pytest.mark.parametrize("label", [label for label, _ in cocycle_fixtures()])
def test_left_right_commute(label):
    coc = dict(cocycle_fixtures())[label]
    for c in (coc, gauge_twisted(coc)):
        assert _reference_commutant(c.group, c) < 1e-12


def test_left_right_fail_to_commute_on_a_broken_cocycle():
    coc = tf("Z3").cocycle
    t = np.array(coc.table)
    t[4, 5] *= -1
    bad = Cocycle(coc.group, t, label="broken")
    assert _reference_commutant(bad.group, bad) > 0.5


def _conv(f, h, coc):
    """Twisted convolution f * h through ``multiply``."""
    return multiply(element(coc, f), element(coc, h)).coeffs


def test_convolution_identity_and_deltas():
    coc = tf("Z3").cocycle
    g = coc.group
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    de = np.zeros(g.order, complex)
    de[g.identity] = 1
    assert np.allclose(_conv(de, f, coc), f)
    for a in (2, 5):
        for b in (1, 7):
            da = np.zeros(g.order, complex); da[a] = 1
            db = np.zeros(g.order, complex); db[b] = 1
            out = _conv(da, db, coc)
            want = np.zeros(g.order, complex)
            want[g.cayley[a, b]] = coc.table[a, b]
            assert np.allclose(out, want)


def test_convolution_against_double_loop():
    """Definition check with an independent two-index loop."""
    coc = trivial(build_cyclic(6))
    g = coc.group
    rng = np.random.default_rng(3)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    want = np.zeros(6, complex)
    for gamma in range(6):
        for gp in range(6):
            rest = g.cayley[g.inverse[gp], gamma]
            want[gamma] += coc.table[gp, rest] * f[gp] * h[rest]
    assert np.abs(_conv(f, h, coc) - want).max() < 1e-12


def test_twisted_double_loop_wh():
    coc = tf("Z2").cocycle
    g = coc.group
    f = _rand_coeffs(coc, 5)
    h = _rand_coeffs(coc, 6)
    want = np.zeros(g.order, complex)
    for gamma in range(g.order):
        for gp in range(g.order):
            rest = g.cayley[g.inverse[gp], gamma]
            want[gamma] += coc.table[gp, rest] * f[gp] * h[rest]
    assert np.abs(_conv(f, h, coc) - want).max() < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_conv_operator_applies_convolution(seed):
    coc = tf("Z2").cocycle
    f = _rand_coeffs(coc, seed)
    h = _rand_coeffs(coc, seed + 1)
    # the operator is sum_g f[g] lam(g), read off the dense left regular stack
    lam = left_regular(coc.group, coc).matrices
    assert np.allclose(conv_operator(f, coc) @ h, np.einsum("g,gij,j->i", f, lam, h))


def test_convolution_associative():
    coc = tf("Z3").cocycle
    f, g_, h = (_rand_coeffs(coc, s) for s in (1, 2, 3))
    lhs = _conv(_conv(f, g_, coc), h, coc)
    rhs = _conv(f, _conv(g_, h, coc), coc)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_multiply_matches_operator_product():
    coc = tf("Z2").cocycle
    a = element(coc, _rand_coeffs(coc, 10))
    b = element(coc, _rand_coeffs(coc, 11))
    ab = multiply(a, b)
    assert np.abs(ab.operator() - a.operator() @ b.operator()).max() < 1e-11


def test_adjoint_matches_operator_adjoint():
    coc = tf("Z4").cocycle
    a = element(coc, _rand_coeffs(coc, 12))
    assert np.abs(adjoint(a).operator() - a.operator().conj().T).max() < 1e-11


def test_trace_basics():
    coc = trivial(group("S3"))
    n = coc.group.order
    de = np.zeros(n, complex); de[0] = 1
    assert trace_tau(element(coc, de)) == 1
    dg = np.zeros(n, complex); dg[3] = 1
    assert trace_tau(element(coc, dg)) == 0


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_trace_is_tracial(label, coc):
    a = element(coc, _rand_coeffs(coc, 20))
    b = element(coc, _rand_coeffs(coc, 21))
    assert abs(trace_tau(multiply(a, b)) - trace_tau(multiply(b, a))) < 1e-10


def test_cvt_identity_on_abelian_trivial():
    coc = trivial(build_cyclic(5))
    a = element(coc, _rand_coeffs(coc, 30))
    assert np.allclose(center_valued_trace(a).coeffs, a.coeffs)


def test_cvt_transposition_class_average():
    coc = trivial(group("S3"))
    g = coc.group
    # transpositions of S3 in one-line lexicographic order
    transpositions = [x for x in range(6) if g.element_order(x) == 2]
    assert len(transpositions) == 3
    d = np.zeros(6, complex)
    d[transpositions[0]] = 1
    out = center_valued_trace(element(coc, d)).coeffs
    want = np.zeros(6, complex)
    for t in transpositions:
        want[t] = 1 / 3
    assert np.allclose(out, want)


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_cvt_formula_vs_oracle(label, coc):
    for seed in (40, 41):
        a = element(coc, _rand_coeffs(coc, seed))
        d1 = center_valued_trace(a).coeffs
        d2 = center_valued_trace_oracle(a).coeffs
        assert np.abs(d1 - d2).max() < 1e-9, label


def _reference_cvt_oracle(a):
    """The averaging route on dense stacks: |G|^-1 sum_b lam(b)^* A lam(b), column e."""
    lam = left_regular(a.group, a.cocycle).matrices
    avg = np.einsum("xji,jk,xkl->il", np.conj(lam), a.operator(), lam, optimize=True)
    return avg[:, a.group.identity] / a.group.order


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_cvt_oracle_matches_dense_reference(label, coc):
    for c in (coc, gauge_twisted(coc)):
        for seed in (43, 44):
            a = element(c, _rand_coeffs(c, seed))
            got = center_valued_trace_oracle(a).coeffs
            assert np.abs(got - _reference_cvt_oracle(a)).max() < 1e-12, label


def _reference_cvt(a):
    """The class formula summed over centralizer coset representatives.

    Regular x sends a[x] / k * tilde(x, b) to each conjugate b^-1 x b, one
    b per distinct conjugate, k of them; non-regular x contributes nothing.
    """
    g, t = a.group, a.cocycle.table
    out = np.zeros(g.order, dtype=np.complex128)
    for x in range(g.order):
        conj = [g.conjugate(x, y) for y in range(g.order)]
        if any(abs(t[x, y] - t[y, x]) > 1e-9 for y in range(g.order) if conj[y] == x):
            continue
        reps = {}
        for b in range(g.order):
            reps.setdefault(conj[b], b)
        for c, b in reps.items():
            out[c] += a.coeffs[x] / len(reps) * t[x, b] * np.conj(t[b, c])
    return out


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_cvt_matches_transversal_reference(label, coc):
    for c in (coc, gauge_twisted(coc)):
        a = element(c, _rand_coeffs(c, 42))
        got = center_valued_trace(a).coeffs
        assert np.abs(got - _reference_cvt(a)).max() < 1e-12, label


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_cvt_table_rows_match_transversal_reference(label, coc):
    for c in (coc, gauge_twisted(coc)):
        table = center_valued_trace_table(c)
        for x, row in enumerate(np.eye(c.group.order, dtype=np.complex128)):
            assert np.abs(table[x] - _reference_cvt(element(c, row))).max() < 1e-12, label


def test_cvt_axioms():
    _, coc = pauli_product()
    a = element(coc, _rand_coeffs(coc, 50))
    b = element(coc, _rand_coeffs(coc, 51))
    # tracial
    lhs = center_valued_trace(multiply(a, b)).coeffs
    rhs = center_valued_trace(multiply(b, a)).coeffs
    assert np.abs(lhs - rhs).max() < 1e-10
    # idempotent on its range, and multiplicative over central factors
    z = center_valued_trace(a)
    assert np.abs(center_valued_trace(z).coeffs - z.coeffs).max() < 1e-10
    za = multiply(z, b)
    assert np.abs(
        center_valued_trace(za).coeffs - multiply(z, center_valued_trace(b)).coeffs
    ).max() < 1e-10
    # compatible with the scalar trace: tau absorbs the projection, and
    # the projected factors can sit on either side
    assert abs(
        trace_tau(center_valued_trace(multiply(a, b))) - trace_tau(multiply(a, b))
    ) < 1e-10
    t1 = trace_tau(multiply(center_valued_trace(a), b))
    t2 = trace_tau(multiply(a, center_valued_trace(b)))
    t3 = trace_tau(multiply(center_valued_trace(a), center_valued_trace(b)))
    assert abs(t1 - t3) < 1e-10
    assert abs(t2 - t3) < 1e-10
    # with one factor already central the projection can move freely
    assert abs(
        trace_tau(multiply(b, z)) - trace_tau(multiply(center_valued_trace(b), z))
    ) < 1e-10
    # faithful on the spanning deltas
    n = coc.group.order
    for gamma in range(0, n, 5):
        d = np.zeros(n, complex); d[gamma] = 1
        dd = multiply(adjoint(element(coc, d)), element(coc, d))
        assert abs(trace_tau(center_valued_trace(dd)) - 1) < 1e-10


def test_cvt_kills_nonregular_translates():
    _, coc = pauli_product()
    reg = regularity(coc)
    n = coc.group.order
    for gamma in range(n):
        d = np.zeros(n, complex); d[gamma] = 1
        out = center_valued_trace(element(coc, d)).coeffs
        if not reg.regular_elements[gamma]:
            assert np.abs(out).max() < 1e-12


def test_sigma_psd_basics():
    coc = tf("Z2").cocycle
    n = coc.group.order
    de = np.zeros(n); de[coc.group.identity] = 1
    ok, eig = is_sigma_positive_definite(de, coc)
    assert ok and abs(eig - 1) < 1e-12
    ok2, eig2 = is_sigma_positive_definite(-de, coc)
    assert not ok2 and eig2 < 0


def test_sigma_psd_star_square():
    coc = trivial(build_cyclic(5))
    b = element(coc, _rand_coeffs(coc, 60))
    bb = multiply(adjoint(b), b)
    ok, _ = is_sigma_positive_definite(bb.coeffs, coc)
    assert ok


@pytest.mark.parametrize("seed", [70, 71, 72])
def test_sigma_psd_iff_operator_psd(seed):
    coc = tf("Z3").cocycle
    a = element(coc, _rand_coeffs(coc, seed))
    h = multiply(adjoint(a), a)
    shifted = h.coeffs.copy()
    shifted[coc.group.identity] -= 0.5 * np.linalg.norm(h.coeffs)
    for vec in (h.coeffs, shifted):
        op = conv_operator(vec, coc)
        op = (op + op.conj().T) / 2
        direct = bool(np.linalg.eigvalsh(op)[0] >= -1e-9 * max(1.0, np.abs(op).max()))
        got, _ = is_sigma_positive_definite(vec, coc)
        assert got == direct


@pytest.mark.parametrize("name, want", [
    ("Z1", 1), ("Z5", 5), ("S3", 3), ("D4", 5), ("Q8", 5), ("S4", 5), ("D4xZ2xZ2", 20),
])
def test_center_dimension_trivial_cocycle(name, want):
    g = group(name)
    assert center_dimension(g, trivial(g)) == want


@pytest.mark.parametrize("base", ["Z2", "Z3", "Z4"])
def test_center_dimension_wh_is_factor(base):
    t = tf(base)
    assert center_dimension(t.group, t.cocycle) == 1


def test_center_dimension_counts_regular_classes():
    g, coc = pauli_product()
    reg = regularity(coc)
    assert center_dimension(g, coc) == int(reg.regular_classes.sum())


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_center_dimension_under_gauge_twist(label, coc):
    # multiplying by a coboundary f(x) f(y) / f(xy) changes no center
    g = coc.group
    twisted = gauge_twisted(coc)
    want = int(regularity(twisted).regular_classes.sum())
    assert center_dimension(g, twisted) == center_dimension(g, coc) == want


@pytest.mark.parametrize("gauged", [False, True])
@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_center_dimension_matches_dense_reference(label, coc, gauged):
    """The commuting-pair sum, the dense fixed-space solve and the regular class count agree."""
    coc = gauge_twisted(coc) if gauged else coc
    g = coc.group
    want = int(regularity(coc).regular_classes.sum())
    assert center_dimension(g, coc) == dense_reference.center_dimension(g, coc) == want


@pytest.mark.parametrize("name, cocycle", [
    ("D4xD4xZ2xZ2", trivial), ("S5xZ2", trivial),
    ("Z16", weyl_heisenberg), ("Z4xZ4", weyl_heisenberg),
])
def test_center_dimension_at_the_largest_groups_in_small_memory(name, cocycle):
    """At |G| = 240 and 256 the commuting-pair sum holds a few |G|^2 tables, not a k x |G| x |G| stack."""
    coc = cocycle(group(name))
    g = coc.group
    assert g.order in (240, 256)
    got, peak = traced_peak(center_dimension, g, coc)
    assert got == dense_reference.center_dimension(g, coc) == int(
        regularity(coc).regular_classes.sum())
    assert peak < 3 << 20, peak


def test_center_dimension_refuses_a_sum_off_an_integer():
    g = group("Z2xZ4")
    table = trivial(g).table.copy()
    x, y = 1, 2  # every pair of an abelian group commutes
    table[x, y] *= np.exp(0.3j)
    with pytest.raises(ConsistencyError, match="center dimension distance to an integer"):
        center_dimension(g, Cocycle(g, table))


def test_fixed_space_empty_stack_is_whole_space():
    basis = fixed_space(np.zeros((0, 3, 3), dtype=np.complex128))
    assert np.abs(basis @ basis.conj().T - np.eye(3)).max() < 1e-12


def test_fixed_space_of_cyclic_shift_is_constants():
    shift = np.roll(np.eye(4), 1, axis=0)[None].astype(np.complex128)
    basis = fixed_space(shift)
    assert basis.shape == (1, 4)
    assert np.abs(np.abs(basis[0]) - 0.5).max() < 1e-12
    # a phased shift whose phases multiply to -1 fixes nothing
    phased = shift.copy()
    phased[0, 0, 3] = -1.0
    assert fixed_space(phased).shape == (0, 4)


def test_routes_at_256_in_quadratic_memory():
    coc = weyl_heisenberg(build_cyclic(16))  # fresh, so no trace table is kept on it yet
    a = element(coc, _rand_coeffs(coc, 80))
    formula, peak_formula = traced_peak(center_valued_trace, a)
    oracle, peak_oracle = traced_peak(center_valued_trace_oracle, a)
    assert np.abs(formula.coeffs - oracle.coeffs).max() < 1e-12
    assert max(peak_formula, peak_oracle) < 64e6
