"""The block kernels a scan runs on lattices of one order, against a block of one.

Every single-lattice call (``restrict``, ``regularity``, ``phi``,
``cdim_operator``) is the same kernel on a block of one lattice, so these
tests check that stacking lattices changes no result.
"""

import numpy as np
import pytest

import latdim.gabor as gabor_mod
from latdim import ConsistencyError, gabor_scan, subgroup_group
from latdim.cocycles import regular_mask, restricted_tables
from latdim.dimension import cdim_operators, phi_values, windowed_rep
from latdim.groups import subgroup_tables

from fixtures_common import class_places, order_blocks, rep_fixtures, tf


def _block(rep, subs, elems):
    cayley, inverse, identity = subgroup_tables(rep.group, elems)
    table = restricted_tables(rep.cocycle, elems)
    regular = regular_mask(cayley, table, identity, class_places(subs), rep.tol.tol_id)
    return cayley, inverse, identity, table, regular


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_a_block_of_lattices_matches_blocks_of_one(label, rep):
    source = windowed_rep(rep)
    for subs, elems in order_blocks(rep.group):
        cayley, inverse, identity, table, regular = _block(rep, subs, elems)
        values = phi_values(source, elems)
        spectra = np.linalg.eigvalsh(cdim_operators(values, cayley, table))
        shift = np.arange(len(subs))[:, None] * elems.shape[1]  # block places to local
        for b, sub in enumerate(subs):
            spec = source.spec(sub)
            lattice = spec.lattice_group
            assert np.array_equal(cayley[b] - shift[b], lattice.cayley), (label, b)
            assert np.array_equal(inverse[b] - shift[b], lattice.inverse), (label, b)
            assert identity[b] - shift[b, 0] == lattice.identity, (label, b)
            assert np.array_equal(table[b], spec.restricted_cocycle.table), (label, b)
            assert np.array_equal(regular[b], spec.regular), (label, b)
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
    subs, elems = next(
        (subs, elems) for subs, elems in order_blocks(rep.group)
        if len(subs) > 1 and any(not subgroup_group(sub).is_abelian() for sub in subs)
    )
    cayley, _, identity, table, _ = _block(rep, subs, elems)
    b = next(b for b, sub in enumerate(subs) if not subgroup_group(sub).is_abelian())
    classes = class_places(subs)[b] - b * elems.shape[1]
    # an element whose class has other members: breaking sigma(x, e) = sigma(e, x)
    # makes x irregular and leaves the rest of its class regular
    x = next(x for x in range(elems.shape[1]) if np.count_nonzero(classes == classes[x]) > 1)
    table = table.copy()
    table[b, x, identity[b] - b * elems.shape[1]] *= -1
    with pytest.raises(ConsistencyError, match="regularity not constant on class"):
        regular_mask(cayley, table, identity, class_places(subs), rep.tol.tol_id)
