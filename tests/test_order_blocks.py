"""The block kernels a scan and ``routes`` run on lattices of one order, against a block of one.

Every single-lattice call (``restrict``, ``phi``, ``phi_oracle``,
``cdim_operator``, ``ModuleSpec.regular``) is the same kernel on a block of
one lattice, so these tests check that stacking lattices changes no result.
"""

import dataclasses

import numpy as np
import pytest

import latdim.cocycles
import latdim.gabor as gabor_mod
from latdim import (ConsistencyError, Subgroup, Tolerances, all_subgroups, conjugacy, gabor_scan,
                    phi_oracle, random_window, regularity, restrict, subgroup_blocks,
                    subgroup_group)
from latdim.cocycles import Cocycle, lattice_regular, restricted_tables
from latdim.dimension import cdim_operators, phi_oracle_values, phi_values, windowed_rep
from latdim.groups import subgroup_tables

from fixtures_common import cocycle_fixtures, gauge_twisted, rep_fixtures, tf


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


def _scan_chunks(monkeypatch, t, block):
    """Scan ``t`` with chunks of at most ``block`` entries; return the rows and each
    chunk's (order, lattices) slices, read from the calls the scan makes."""
    events = []
    real_phi, real_grids = gabor_mod.phi_values, gabor_mod.decision_grids
    monkeypatch.setattr(gabor_mod, "_BLOCK", block)
    monkeypatch.setattr(gabor_mod, "phi_values", lambda source, elems: events.append(
        elems.shape[::-1]) or real_phi(source, elems))
    monkeypatch.setattr(gabor_mod, "decision_grids", lambda *args: events.append(None)
                        or real_grids(*args))
    rows = gabor_scan(t, 3, 3)
    monkeypatch.undo()
    chunks, chunk = [], []
    for event in events:
        if event is None:
            chunks.append(chunk)
            chunk = []
        else:
            chunk.append(event)
    assert chunk == []
    return rows, chunks


def test_scan_rows_do_not_depend_on_the_block_size(monkeypatch):
    """The scan's own chunk size ``gabor._BLOCK`` changes no row: at 1 every
    chunk holds one lattice, at 100 an order block is split between chunks
    (the 59 lattices of order 4 hold 236 entries), and at 1000 chunks run
    across several orders."""
    t = tf("Z2xZ4")
    rows = gabor_scan(t, 3, 3)
    per_order = {block.shape[1]: len(block) for block in subgroup_blocks(t.group)}
    for block in (1, 100, 1000):
        got, chunks = _scan_chunks(monkeypatch, t, block)
        assert got == rows, block
        seen = {}
        for chunk in chunks:
            lattices = sum(k for _, k in chunk)
            assert sum(m * k for m, k in chunk) <= block or lattices == 1, (block, chunk)
            for m, k in chunk:
                seen[m] = seen.get(m, 0) + k
        assert seen == per_order, block
        if block == 1:
            assert len(chunks) == sum(per_order.values())
        elif block == 100:
            assert any(a[-1][0] == b[0][0] == 4 for a, b in zip(chunks, chunks[1:]))
        else:
            assert max(map(len, chunks)) >= 3


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


@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_the_oracle_on_a_block_is_the_oracle_on_each_lattice(label, rep):
    source = windowed_rep(rep, random_window(rep.dim, 5))
    for elems in subgroup_blocks(rep.group):
        values = phi_oracle_values(source, elems)
        for b, row in enumerate(elems):
            one = phi_oracle(source.spec(Subgroup(rep.group, row))).values
            assert np.array_equal(values[b], one), (label, row)


@pytest.mark.parametrize("tol_id", [1e-9, 3.0])
@pytest.mark.parametrize("label, coc", cocycle_fixtures())
def test_lattice_masks_are_the_regularity_of_each_restriction(label, coc, tol_id):
    tol = Tolerances(tol_id=tol_id)
    for c in (coc, gauge_twisted(coc)):
        for elems in subgroup_blocks(c.group):
            got = lattice_regular(c, elems, tol)
            for b, row in enumerate(elems):
                want = regularity(restrict(c, Subgroup(c.group, row)), tol).regular_elements
                assert np.array_equal(got[b], want), (label, row, tol_id)


def test_a_lattice_mask_that_is_not_class_constant_is_caught(monkeypatch):
    rep = dict(rep_fixtures())["s3-pauli"]
    g = rep.group
    sub = next(sub for sub in all_subgroups(g) if not subgroup_group(sub).is_abelian())
    elems = sub.elements
    # x has a conjugate other than itself in the lattice; marking (x, e) offending
    # makes x alone irregular there
    x = next(x for x in elems if len(set(g.conjugation[x, elems].tolist())) > 1)
    report = regularity(rep.cocycle, rep.tol)
    offending = report.offending.copy()
    offending[x, g.identity] = True
    tampered = dataclasses.replace(report, offending=offending)
    monkeypatch.setattr(latdim.cocycles, "regularity", lambda c, tol: tampered)
    with pytest.raises(ConsistencyError, match=f"regularity not constant on the class of {x} "):
        lattice_regular(rep.cocycle, elems[None], rep.tol)
