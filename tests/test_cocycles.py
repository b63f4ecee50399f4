"""Two-variable composition laws: validation, conjugation twist, regularity."""

import tracemalloc

import numpy as np
import pytest

import latdim.cocycles as cocycles
from latdim import (
    DEFAULT_TOL,
    Cocycle,
    ConsistencyError,
    build_cyclic,
    dual_group,
    regularity,
    restrict,
    subgroup_generated,
    symmetric_group,
    tilde,
    tilde_table,
    trivial,
    validate,
    verify_tilde_identities,
    weyl_heisenberg,
)
from latdim.algebra import center_valued_trace_table
from latdim.cli import _token_group
from latdim.groups import all_subgroups, conjugacy, cyclic_factor_generators

from fixtures_common import (
    NEAR_TOL,
    cocycle_fixtures,
    gauge_twisted,
    group,
    near_rep,
    pauli_product,
    tf,
    traced_peak,
)


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_fixture_cocycles_validate(label, coc):
    rpt = validate(coc)
    assert rpt.ok, (label, rpt.message)
    assert rpt.unit_residual < 1e-12
    assert rpt.identity_residual < 1e-12
    assert rpt.normalization_residual < 1e-12


def test_trivial_is_all_ones():
    c = trivial(group("S3"))
    assert np.all(c.table == 1.0)


def test_validate_catches_unit_violation():
    c = trivial(build_cyclic(3))
    t = c.table.copy()
    t[1, 2] = 2.0
    bad = Cocycle(c.group, t, label="bad")
    rpt = validate(bad)
    assert not rpt.ok
    assert rpt.unit_residual > 0.5


def test_validate_catches_broken_composition():
    c = weyl_heisenberg(build_cyclic(2))
    t = c.table.copy()
    t[3, 3] = -t[3, 3]
    rpt = validate(Cocycle(c.group, t, label="bad"))
    assert not rpt.ok
    assert rpt.identity_residual > 0.5
    x, y, z = rpt.worst_triple
    assert 0 <= x < 4 and 0 <= y < 4 and 0 <= z < 4


def _tampered(coc, seed):
    """coc with one seeded entry rotated off the cocycle identity."""
    t = np.array(coc.table)
    i, j = np.random.default_rng(seed).integers(coc.group.order, size=2)
    t[i, j] *= np.exp(0.7j)
    return Cocycle(coc.group, t, label="tampered")


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_triple_broadcast(seed):
    # reference: the identity evaluated on all triples at once
    for coc in (tf("Z3").cocycle, pauli_product()[1], trivial(group("D4"))):
        c = _tampered(coc, seed)
        g, t = c.group, c.table
        x, y, z = np.ix_(*3 * [np.arange(g.order)])
        diff = np.abs(t[x, y] * t[g.cayley[x, y], z] - t[x, g.cayley[y, z]] * t[y, z])
        rpt = validate(c)
        assert rpt.identity_residual == diff.max()
        assert rpt.worst_triple == np.unravel_index(np.argmax(diff), diff.shape)


def test_validate_memory_is_quadratic():
    c = weyl_heisenberg(build_cyclic(12))  # |G| = 144
    tracemalloc.start()
    try:
        assert validate(c).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def _reference_multiplicativity(c):
    """Residual and worst triple of tilde multiplicativity over all triples at once."""
    g, tt, ci = c.group, tilde_table(c), c.group.conjugation
    x, y, z = np.ix_(*3 * [np.arange(g.order)])
    diff = np.abs(tt[x, g.cayley[y, z]] - tt[x, y] * tt[ci[x, y], z])
    return diff.max(), tuple(int(v) for v in np.unravel_index(np.argmax(diff), diff.shape))


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_tilde_multiplicativity_matches_triple_broadcast(label, coc):
    for c in (coc, gauge_twisted(coc), _tampered(coc, 2)):
        try:
            rpt = verify_tilde_identities(c)
        except ConsistencyError:
            continue  # the tampered table broke class-constant regularity
        res, worst = _reference_multiplicativity(c)
        assert rpt.residual_multiplicativity == res
        assert rpt.worst["multiplicativity"] == worst


def test_tilde_class_constancy_checks_the_elements_regular_at_tol():
    coc = near_rep().cocycle
    # at the default tol_id only the identity is regular and nothing is compared
    assert verify_tilde_identities(coc).residual_class_constancy == 0
    rpt = verify_tilde_identities(coc, NEAR_TOL)
    assert 0 < rpt.residual_class_constancy <= NEAR_TOL.tol_id


def test_tilde_identities_memory_is_quadratic():
    c = weyl_heisenberg(build_cyclic(12))  # |G| = 144
    rpt, peak = traced_peak(verify_tilde_identities, c)
    assert rpt.ok
    assert peak < 16e6


def test_validate_catches_nonnormalized():
    c = trivial(build_cyclic(2))
    t = c.table.copy()
    t[0, 1] = -1.0
    rpt = validate(Cocycle(c.group, t, label="bad"))
    assert not rpt.ok


def test_weyl_heisenberg_matches_pairing():
    a = group("Z3")
    d = dual_group(a)
    c = weyl_heisenberg(a, d)
    na = a.order
    for x in range(na):
        for w in range(na):
            for x2 in range(na):
                for w2 in range(na):
                    got = c.table[x * na + w, x2 * na + w2]
                    want = np.conj(d.pairing[w2, x])
                    assert abs(got - want) < 1e-12


def test_weyl_heisenberg_normalized():
    c = tf("Z4").cocycle
    e = c.group.identity
    assert np.allclose(c.table[e, :], 1.0)
    assert np.allclose(c.table[:, e], 1.0)


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_tilde_identities(label, coc):
    rpt = verify_tilde_identities(coc)
    assert rpt.ok, (label, rpt.worst)
    assert rpt.violated(1e-12) == []


@pytest.mark.parametrize("make, entry", [(lambda: tf("Z3").cocycle, (1, 2)),
                                         (lambda: trivial(symmetric_group(3)), (2, 3))],
                         ids=["wh-Z3", "trivial-S3"])
def test_a_nan_entry_fails_and_is_named(make, entry):
    c = make()
    table = c.table.copy()
    table[entry] = np.nan
    bad = Cocycle(c.group, table)
    rpt = validate(bad)
    assert not rpt.ok
    assert "modulus" in rpt.message
    # the identity scan keeps the NaN, at the first NaN triple of the full broadcast
    g, t = bad.group, bad.table
    x, y, z = np.ix_(*3 * [np.arange(g.order)])
    diff = np.abs(t[x, y] * t[g.cayley[x, y], z] - t[x, g.cayley[y, z]] * t[y, z])
    assert np.isnan(rpt.identity_residual)
    assert rpt.worst_triple == np.unravel_index(np.argmax(diff), diff.shape)
    tilde_rpt = verify_tilde_identities(bad)
    assert not tilde_rpt.ok
    assert np.isnan(tilde_rpt.residual_multiplicativity)
    assert tilde_rpt.worst["multiplicativity"] == _reference_multiplicativity(bad)[1]
    assert {"tilde-multiplicativity", "tilde-inverse"} <= set(tilde_rpt.violated())
    res, worst = _reference_class_constancy(bad)
    assert tilde_rpt.worst["class_constancy"] == worst
    assert np.isnan(tilde_rpt.residual_class_constancy) == np.isnan(res)


def test_tilde_value():
    c = tf("Z4").cocycle
    g = c.group
    tt = tilde_table(c)
    for x in range(g.order):
        assert abs(tt[g.identity, x] - 1.0) < 1e-12
        for y in range(g.order):
            conj_x = g.cayley[g.cayley[g.inverse[y], x], y]
            want = c.table[x, y] * np.conj(c.table[y, conj_x])
            assert abs(tt[x, y] - want) < 1e-12
            assert abs(tilde(c, x, y) - want) < 1e-12


def _reference_class_constancy(c):
    """Residual and worst triple of tilde class constancy: explicit loops fill the gap
    to the first y of each (x, conjugate) pair, and np.argmax places the worst."""
    g, tt = c.group, tilde_table(c)
    xs = np.flatnonzero(regularity(c).regular_elements)
    gap = np.zeros((xs.size, g.order))
    for i, x in enumerate(xs):
        first = {}
        for y in range(g.order):
            gap[i, y] = abs(tt[x, y] - tt[x, first.setdefault(g.conjugate(int(x), y), y)])
    i, y = np.unravel_index(np.argmax(gap), gap.shape)
    if gap[i, y] <= 0:
        return 0.0, ()
    return float(gap[i, y]), (int(xs[i]), int(y), g.conjugate(int(xs[i]), int(y)))


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_tilde_class_constancy_matches_reference(label, coc):
    for c in (coc, gauge_twisted(coc), _tampered(coc, 1)):
        try:
            rpt = verify_tilde_identities(c)
        except ConsistencyError:
            continue  # the tampered table broke class-constant regularity
        res, worst = _reference_class_constancy(c)
        assert rpt.residual_class_constancy == pytest.approx(res, rel=1e-12, abs=1e-15)
        assert rpt.worst["class_constancy"] == worst


def test_regularity_rejects_class_dependent_flags():
    # sigma(t, e) = -1 for one transposition t makes e and t irregular
    # while the other two transpositions stay regular
    g = group("S3")
    t = np.ones((6, 6), dtype=np.complex128)
    t[1, g.identity] = -1.0
    assert g.element_order(1) == 2
    with pytest.raises(ConsistencyError, match="not constant on class"):
        regularity(Cocycle(g, t, label="broken"))


def test_regularity_trivial_cocycle():
    r = regularity(trivial(group("S3")))
    assert bool(r.regular_elements.all())
    assert not r.kleppner


def test_regularity_trivial_group():
    r = regularity(trivial(build_cyclic(1)))
    assert r.kleppner


@pytest.mark.parametrize("base", ["Z2", "Z3", "Z4", "Z5", "Z6"])
def test_weyl_heisenberg_is_kleppner(base):
    r = regularity(tf(base).cocycle)
    assert r.kleppner
    assert int(r.regular_elements.sum()) == 1


def test_lifted_pauli_not_kleppner():
    _, c = pauli_product()
    r = regularity(c)
    assert not r.kleppner
    assert int(r.regular_elements.sum()) == 6


def test_restrict_values_match_parent():
    c = tf("Z4").cocycle
    g = c.group
    for sub in all_subgroups(g):
        rc = restrict(c, sub)
        el = list(sub.elements)
        for i in range(sub.order):
            for j in range(sub.order):
                assert rc.table[i, j] == c.table[el[i], el[j]]
        assert validate(rc).ok


def test_restrict_to_isotropic_lattice_untwists():
    # the pure-translation lattice sees a trivial restricted cocycle
    t = tf("Z4")
    na = 4
    sub = subgroup_generated(t.group, [1 * na + 0])
    rc = restrict(t.cocycle, sub)
    assert sub.order == 4
    assert np.allclose(rc.table, 1.0)
    assert bool(regularity(rc).regular_elements.all())


def test_regularity_is_class_constant_nonabelian():
    _, c = pauli_product()
    r = regularity(c)
    for members in r.conjugacy.classes:
        flags = {bool(r.regular_elements[m]) for m in members}
        assert len(flags) == 1


@pytest.mark.parametrize("base", [f"Z{m}" for m in range(1, 17)] + ["Z2xZ2", "Z2xZ4", "Z3xZ3", "Z4xZ4"])
def test_weyl_heisenberg_table_is_the_gathered_conjugate_pairing(base):
    """Read-only and bit-identical to gathering the pairing over the whole table, then conjugating."""
    a, factors = _token_group(base)
    dual = dual_group(a, *cyclic_factor_generators(list(factors)))
    got = weyl_heisenberg(a, dual).table
    nd = dual.group.order
    gidx = np.arange(a.order * nd)
    want = np.conj(dual.pairing[gidx[None, :] % nd, gidx[:, None] // nd])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not got.flags.writeable


@pytest.mark.parametrize("block", [cocycles._BLOCK, 1])
@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_regularity_matches_the_commutation_mask_formula(label, coc, block, monkeypatch):
    """On an abelian group the commutation mask is skipped; the report stays the mask formula's."""
    monkeypatch.setattr(cocycles, "_BLOCK", block)
    for c in (coc, gauge_twisted(coc)):
        g, t = c.group, c.table
        offending = (g.cayley == g.cayley.T) & (np.abs(t - t.T) > DEFAULT_TOL.tol_id)
        regular = ~offending.any(axis=1)
        classes = regular[conjugacy(g).least]
        got = regularity(Cocycle(g, t))
        assert np.array_equal(got.offending, offending), label
        assert np.array_equal(got.regular_elements, regular), label
        assert np.array_equal(got.regular_classes, classes), label
        assert got.kleppner == (classes.sum() == 1), label


def test_a_writable_table_is_copied_and_the_copy_is_read_only():
    g = tf("Z2").group
    t = np.ones((g.order, g.order), dtype=np.complex128)
    c = Cocycle(g, t)
    assert t.flags.writeable
    assert not c.table.flags.writeable
    r = regularity(c)
    assert not r.kleppner  # the trivial twist: every element is regular
    t[...] = tf("Z2").cocycle.table  # the caller writes the Weyl-Heisenberg twist in
    assert np.all(c.table == 1)
    assert regularity(c) is r and not r.kleppner
    assert regularity(Cocycle(g, t)).kleppner


def test_a_read_only_table_is_shared():
    t = tf("Z3").cocycle.table
    assert not t.flags.writeable
    assert Cocycle(tf("Z3").group, t).table is t


@pytest.mark.parametrize("order", [(DEFAULT_TOL, NEAR_TOL), (NEAR_TOL, DEFAULT_TOL)],
                         ids=["default-first", "near-first"])
def test_one_cocycle_object_keeps_a_report_per_tol_id(order):
    near = near_rep().cocycle
    c = Cocycle(near.group, near.table, near.label)  # one fresh object, no kept reports
    got = {tol: regularity(c, tol) for tol in order}
    assert all(regularity(c, tol) is got[tol] for tol in order)
    assert got[NEAR_TOL].regular_elements.all()
    assert got[DEFAULT_TOL].kleppner
    assert np.flatnonzero(got[DEFAULT_TOL].regular_elements).tolist() == [c.group.identity]


def test_center_valued_trace_table_is_kept_read_only_per_tol_id():
    near = near_rep().cocycle
    c = Cocycle(near.group, near.table, near.label)
    tables = []
    for tol in (DEFAULT_TOL, NEAR_TOL):
        got = center_valued_trace_table(c, tol)
        assert not got.flags.writeable
        assert center_valued_trace_table(c, tol) is got
        fresh = center_valued_trace_table(Cocycle(near.group, near.table), tol)
        assert np.array_equal(got, fresh)
        tables.append(got)
    # at NEAR_TOL every row is some element's image; at the default only e's is
    assert np.count_nonzero(np.abs(tables[0]).sum(axis=1)) == 1
    assert np.count_nonzero(np.abs(tables[1]).sum(axis=1)) == c.group.order
