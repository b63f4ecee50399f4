"""Per-lattice and per-request work against the dense forms it replaced.

``phi_oracle`` reads one trace per lattice element off the module's
projection, an abelian group's conjugation table is a broadcast view,
the restriction to the whole group is the cocycle itself, ``regularity``
runs over row blocks, and ``WindowedRep.class_sums`` takes each class sum
once per (rep, window).  The references below are the forms these replace: the
whole |G| x |G| gather summed by ``einsum("aibi->ab")``, the gathered
conjugation table, the gathered restricted table, the unblocked mask,
``np.unique`` class labels, and a class sum taken afresh for every lattice.
"""

import numpy as np
import pytest

import latdim.cocycles
from latdim import (
    Tolerances,
    all_subgroups,
    build_cyclic,
    conjugacy,
    direct_product,
    full_subgroup,
    irreducible_subrep,
    make_module_spec,
    phi,
    phi_oracle,
    projective_rep,
    random_window,
    regularity,
    restrict,
    right_transversal,
    subgroup_generated,
    trivial,
    validate_rep,
    weyl_heisenberg,
    windowed_rep,
)
from latdim.algebra import _average_column
from latdim.cocycles import Cocycle, restricted_tables

from fixtures_common import GROUP_NAMES, cocycle_fixtures, group, rep_fixtures, tf, traced_peak


def _full_gather_phi_oracle(spec):
    """The oracle as it gathered the whole permuted projection u* P u."""
    g, lat = spec.rep.group, spec.lattice_group
    elems = spec.lattice.elements
    bs = np.asarray(right_transversal(g, spec.lattice.elements), dtype=np.int64)
    flat = g.cayley[elems[:, None], bs[None, :]].ravel()
    vals = spec.rep.cocycle.table[elems[:, None], bs[None, :]].ravel()
    v = spec.windowed.transform.matrix
    p_big = spec.rep.dim / g.order * (v @ v.conj().T)
    p = np.conj(vals)[:, None] * p_big[flat[:, None], flat] * vals
    block_sum = np.einsum("aibi->ab", p.reshape(lat.order, bs.size, lat.order, bs.size))
    return _average_column(lat, np.conj(spec.restricted_cocycle.table), "right", block_sum)


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_phi_oracle_matches_the_full_gather(label, rep):
    source = windowed_rep(rep, random_window(rep.dim, 4))
    for sub in all_subgroups(rep.group):
        spec = source.spec(sub)
        got = phi_oracle(spec).values
        assert np.abs(got - _full_gather_phi_oracle(spec)).max() <= 1e-15, (label, sub.elements)


def test_phi_oracle_on_an_order_16_lattice_of_d8xd8_gathers_no_square_table():
    g = group("D8xD8")
    rep = irreducible_subrep(g, trivial(g), seed=3)
    sub = subgroup_generated(g, [2, 32])  # r^2 in each factor, index 16 a + b
    assert sub.order == 16
    spec = make_module_spec(rep, sub, window=random_window(rep.dim, 3))
    spec.windowed.traces, spec.lattice_group  # built once per rep and per lattice
    fn, peak = traced_peak(phi_oracle, spec)
    assert np.abs(fn.values - phi(spec).values).max() < 1e-12
    assert peak < 512 * 1024


ABELIAN = [name for name in GROUP_NAMES if group(name).is_abelian()]


@pytest.mark.parametrize("name", ABELIAN + ["Z16xZ16"])
def test_abelian_conjugation_is_a_read_only_view_of_the_gathered_table(name):
    g = group(name)
    yinv_x = g.cayley[g.inverse].T
    gathered = g.cayley[yinv_x, np.arange(g.order)]
    view = g.conjugation
    assert view is g.conjugation
    assert np.array_equal(view, gathered)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 1


def test_conjugation_of_a_fresh_z16xz16_is_linear_in_the_order():
    g = direct_product(build_cyclic(16), build_cyclic(16))
    table, peak = traced_peak(lambda: g.conjugation)
    assert table.shape == (256, 256)
    assert peak < 256 * 1024


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "D4xZ2xZ2", "S4"])
def test_nonabelian_conjugacy_matches_unique_labels(name):
    g = group(name)
    least, labels = np.unique(g.conjugation.min(axis=1), return_inverse=True)
    cj = conjugacy(g)
    assert cj.class_of.dtype == np.int64
    assert np.array_equal(cj.class_of, labels)
    assert np.array_equal(cj.least, least)


@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_restriction_to_the_whole_group_is_the_cocycle(label, coc):
    full = full_subgroup(coc.group)
    assert restrict(coc, full) is coc
    assert np.array_equal(restrict(coc, full).table,
                          restricted_tables(coc, full.elements[None])[0])


def _unblocked_mask(cayley, table, tol_id):
    comm = cayley == cayley.T
    asym = np.abs(table - table.T)
    return ~np.any(comm & (asym > tol_id), axis=1)


@pytest.mark.parametrize("block", [latdim.cocycles._BLOCK, 1])
@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_blocked_regular_mask_matches_the_unblocked_form(label, coc, block, monkeypatch):
    monkeypatch.setattr(latdim.cocycles, "_BLOCK", block)
    for sub in all_subgroups(coc.group):
        lat = restrict(coc, sub)
        for tol_id in (1e-9, 3.0):
            fresh = Cocycle(lat.group, lat.table)  # no report kept yet
            got = regularity(fresh, Tolerances(tol_id=tol_id)).regular_elements
            want = _unblocked_mask(lat.group.cayley, lat.table, tol_id)
            assert np.array_equal(got, want), (label, sub.elements, tol_id)


def test_regularity_of_a_fresh_weyl_heisenberg_z16xz16_in_cache_sized_blocks():
    coc = weyl_heisenberg(build_cyclic(16))
    report, peak = traced_peak(regularity, coc)
    assert report.kleppner
    assert peak < 1024 * 1024


def test_validate_rep_at_256_holds_two_block_temporaries_at_a_time():
    rep = tf("Z16").rep  # Weyl-Heisenberg over Z16 x Z16, dim 16
    fresh = projective_rep(rep.group, rep.cocycle, rep.matrices)
    report, peak = traced_peak(validate_rep, fresh)
    assert report.ok
    assert peak < 1024 * 1024


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_kept_class_sums_match_a_fresh_source_on_every_lattice(label, rep):
    window = random_window(rep.dim, 8)
    shared = windowed_rep(rep, window)
    for sub in reversed(all_subgroups(rep.group)):
        kept = phi(shared.spec(sub)).values
        fresh = phi(windowed_rep(rep, window).spec(sub)).values
        assert np.array_equal(kept, fresh), (label, sub.elements)
