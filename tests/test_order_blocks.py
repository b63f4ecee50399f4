"""The block kernels a scan runs on lattices of one order, against a block of one.

Every single-lattice call (``restrict``, ``phi``, ``cdim_operator``) is the
same kernel on a block of one lattice, so these tests check that stacking
lattices changes no result.
"""

import numpy as np
import pytest

import latdim.gabor as gabor_mod
from latdim import (ConsistencyError, Subgroup, all_subgroups, conjugacy, gabor_scan, regularity,
                    restrict, subgroup_blocks, subgroup_group)
from latdim.cocycles import Cocycle, restricted_tables
from latdim.dimension import cdim_operators, phi_values, windowed_rep
from latdim.groups import subgroup_tables

from fixtures_common import rep_fixtures, tf


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_a_block_of_lattices_matches_blocks_of_one(label, rep):
    source = windowed_rep(rep)
    for elems in subgroup_blocks(rep.group):
        cayley, inverse, identity = subgroup_tables(rep.group, elems)
        table = restricted_tables(rep.cocycle, elems)
        values = phi_values(source, elems)
        spectra = np.linalg.eigvalsh(cdim_operators(values, cayley, table))
        shift = np.arange(len(elems))[:, None] * elems.shape[1]  # block places to local
        for b, row in enumerate(elems):
            spec = source.spec(Subgroup(rep.group, row))
            lattice = spec.lattice_group
            assert np.array_equal(cayley[b] - shift[b], lattice.cayley), (label, b)
            assert np.array_equal(inverse[b] - shift[b], lattice.inverse), (label, b)
            assert identity[b] - shift[b, 0] == lattice.identity, (label, b)
            assert np.array_equal(table[b], spec.restricted_cocycle.table), (label, b)
            assert np.array_equal(values[b], spec.dimension_function.values), (label, b)
            gap = np.abs(spectra[b] - spec.dimension_function.spectrum).max()
            assert gap <= 1e-15, (label, b, gap)


def test_scan_rows_do_not_depend_on_the_block_size(monkeypatch):
    t = tf("Z2xZ4")
    rows = gabor_scan(t, 3, 3)
    monkeypatch.setattr(gabor_mod, "_BLOCK_ENTRIES", 1)  # every block holds one lattice
    assert gabor_scan(t, 3, 3) == rows


def test_a_tampered_nonabelian_block_is_caught():
    rep = dict(rep_fixtures())["s3-pauli"]
    sub = next(sub for sub in all_subgroups(rep.group) if not subgroup_group(sub).is_abelian())
    lat = restrict(rep.cocycle, sub)
    cj = conjugacy(lat.group)
    # an element whose class has other members: breaking sigma(x, e) = sigma(e, x)
    # makes x irregular and leaves the rest of its class regular
    x = next(x for x in range(sub.order) if np.count_nonzero(cj.class_of == cj.class_of[x]) > 1)
    table = lat.table.copy()
    table[x, lat.group.identity] *= -1
    with pytest.raises(ConsistencyError, match=f"regularity not constant on class {cj.class_of[x]}$"):
        regularity(Cocycle(lat.group, table), rep.tol)
