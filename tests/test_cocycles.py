"""Two-variable composition laws: validation, conjugation twist, regularity."""

import tracemalloc

import numpy as np
import pytest

from latdim import (
    Cocycle,
    ConsistencyError,
    build_cyclic,
    conjugate_cocycle,
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
from latdim.groups import all_subgroups

from fixtures_common import (
    cocycle_fixtures,
    gauge_twisted,
    group,
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


def test_conjugate_cocycle():
    c = tf("Z3").cocycle
    cc = conjugate_cocycle(c)
    assert np.allclose(cc.table, np.conj(c.table))
    assert validate(cc).ok


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_tilde_identities(label, coc):
    rpt = verify_tilde_identities(coc)
    assert rpt.ok, (label, rpt.worst)
    assert rpt.violated(1e-12) == []


def test_a_nan_entry_fails_and_is_named():
    c = tf("Z3").cocycle
    table = c.table.copy()
    table[1, 2] = np.nan
    bad = Cocycle(c.group, table)
    rpt = validate(bad)
    assert not rpt.ok
    assert "modulus" in rpt.message
    tilde_rpt = verify_tilde_identities(bad)
    assert not tilde_rpt.ok
    assert "tilde-inverse" in tilde_rpt.violated()


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
    """Residual and worst triple of tilde class constancy, by explicit loops."""
    g, tt = c.group, tilde_table(c)
    res, worst = 0.0, ()
    for x in np.flatnonzero(regularity(c).regular_elements):
        first = {}
        for y in range(g.order):
            tgt = g.conjugate(int(x), y)
            if tgt not in first:
                first[tgt] = tt[x, y]
            elif abs(tt[x, y] - first[tgt]) > res:
                res, worst = float(abs(tt[x, y] - first[tgt])), (int(x), y, tgt)
    return res, worst


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
