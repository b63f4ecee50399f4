"""The spectrum kernel of Phi against the dense solve of the whole operator.

``phi_spectra`` reads Phi off phi(e) where phi lives on {e}, and elsewhere
builds and solves Phi only on the subgroup H that the support of phi
generates, repeating each eigenvalue [L:H] times.  These tests compare it
with ``eigvalsh`` of the dense |L| x |L| operator, on single lattices and
on blocks of equal order as a scan stacks them.  Where H is the whole
lattice, the kernel's operator is the dense one and its spectrum is the
dense solve's bit for bit.
"""

import hashlib

import numpy as np
import pytest

import latdim.dimension as dim_mod
from latdim import (
    NotHermitian,
    PhiFunction,
    Subgroup,
    cdim_operator,
    dihedral,
    existence_decision,
    full_subgroup,
    make_module_spec,
    phi,
    phi_oracle,
    quaternion,
    subgroup_blocks,
    subgroup_generated,
    windowed_rep,
)
from latdim.cli import main
from latdim.cocycles import Cocycle, restricted_tables, trivial
from latdim.dimension import cdim_operators, phi_spectra, phi_values
from latdim.groups import generated_subgroups, subgroup_tables
from latdim.reps import irreducible_subrep

from fixtures_common import (GROUP_NAMES, WH_BASES, cocycle_fixtures, gauge_twisted_rep, group,
                             pauli_product_irrep, rep_fixtures, tf, traced_peak, trivial_irrep)

# lifted Pauli twists with lattices of order 32 and more, where H is proper
_LIFTED = ("Z4xZ4", "S4")


def _closure_orders(values, cayley, identity):
    """|H| on each row of a block: the order of the subgroup that supp phi and e generate."""
    support = values != 0
    support.ravel()[identity] = True
    return np.count_nonzero(generated_subgroups(cayley, support), axis=1)


def _worst_gap(rep, solves=("lattice", "block")):
    """Largest gap between the kernel and the dense solve over the lattices of ``rep``.

    Both routes' values are checked, each lattice on its own (``"lattice"``:
    ``PhiFunction.spectrum`` on the lattice's own tables) and each order as
    one block (``"block"``: ``phi_spectra`` on the gathered tables).  In a
    block, rows whose H is the whole lattice must match the dense solve bit
    for bit.
    """
    source = windowed_rep(rep)
    worst = 0.0
    for elems in subgroup_blocks(rep.group):
        cayley, _, identity = subgroup_tables(rep.group, elems)
        table = restricted_tables(rep.cocycle, elems)
        specs = [source.spec(Subgroup(rep.group, row)) for row in elems]
        for route in (phi, phi_oracle):
            fns = [route(spec) for spec in specs]
            if "lattice" in solves:
                for fn in fns:
                    dense = np.linalg.eigvalsh(cdim_operator(fn))
                    worst = max(worst, float(np.abs(fn.spectrum - dense).max()))
            if "block" in solves:
                values = np.array([fn.values for fn in fns])
                got = phi_spectra(values, elems, rep.cocycle)
                dense = np.linalg.eigvalsh(cdim_operators(values, cayley, table))
                worst = max(worst, float(np.abs(got - dense).max()))
                whole = _closure_orders(values, cayley, identity) == elems.shape[1]
                assert np.array_equal(got[whole], dense[whole])
    return worst


@pytest.mark.parametrize("solve", ["lattice", "block"])
@pytest.mark.parametrize("gauged", [False, True], ids=["rep", "gauged"])
@pytest.mark.parametrize("label, rep", rep_fixtures())
def test_the_kernel_agrees_with_the_dense_solve(label, rep, gauged, solve):
    if gauged:
        rep = gauge_twisted_rep(rep)
    assert _worst_gap(rep, (solve,)) <= 1e-12, label


@pytest.mark.parametrize("gauged", [False, True], ids=["rep", "gauged"])
@pytest.mark.parametrize("name", _LIFTED)
def test_the_kernel_agrees_on_every_lattice_of_the_lifted_twists(name, gauged):
    rep = pauli_product_irrep(name)
    if gauged:
        rep = gauge_twisted_rep(rep)
    assert _worst_gap(rep) <= 1e-12, name


@pytest.mark.parametrize("name", _LIFTED)
def test_the_kernel_solves_on_the_subgroup_the_support_generates(name):
    """H is the closure of supp phi and e, checked against ``subgroup_generated``.

    Each order's lattices are closed as one block, as ``phi_spectra`` closes
    them.  The Z4xZ4 lift gives a proper nontrivial H on abelian lattices.
    phi's support is a subgroup on every lattice of both lifts, so on S4 the
    rows of phi cut to e and the involutions are closed too: each is still
    Hermitian, as x = x^-1, and on a nonabelian lattice its support need not
    be a subgroup.  Their spectra must match the dense solve.
    """
    rep = pauli_product_irrep(name)
    source = windowed_rep(rep)
    seen = set()
    for elems in subgroup_blocks(rep.group):
        order = elems.shape[1]
        if order < 32:
            continue
        specs = [source.spec(Subgroup(rep.group, row)) for row in elems]
        cayley, _, identity = subgroup_tables(rep.group, elems)
        values = np.array([phi(spec).values for spec in specs])
        rows = [values]
        if name == "S4":
            involution = cayley[:, range(order), range(order)] == identity[:, None]
            cut = np.where(involution, values, 0)
            table = restricted_tables(rep.cocycle, elems)
            dense = np.linalg.eigvalsh(cdim_operators(cut, cayley, table))
            assert np.abs(phi_spectra(cut, elems, rep.cocycle) - dense).max() <= 1e-12
            rows.append(cut)
        for vals in rows:
            support = vals != 0
            support.ravel()[identity] = True
            closed = generated_subgroups(cayley, support)
            for spec, row, got in zip(specs, support, closed):
                lattice = spec.lattice_group
                h = subgroup_generated(lattice, np.flatnonzero(row).tolist())
                assert tuple(np.flatnonzero(got).tolist()) == tuple(h.elements.tolist()), \
                    (name, spec.lattice.elements)
                if 1 < h.order < lattice.order:
                    seen.add("proper")
                    if np.count_nonzero(row) < h.order and not lattice.is_abelian():
                        seen.add("nonabelian, closed")
    want = {"proper", "nonabelian, closed"} if name == "S4" else {"proper"}
    assert want <= seen
    if name == "S4":
        assert rep.dim == 6


def test_one_closure_closes_rows_of_different_sizes():
    """A block of Z8, Q8 and D4 whose rows close to {e}, to a proper H and to the whole group."""
    groups = [group("Z8"), quaternion(), dihedral(4)]
    seeds = [[0], [0, 2], [0, 1, 4]]  # e; e and i; e, r and s
    cayley = np.stack([g.cayley + b * 8 for b, g in enumerate(groups)])
    mask = np.zeros((3, 8), dtype=bool)
    for row, seed in zip(mask, seeds):
        row[seed] = True
    got = [tuple(np.flatnonzero(row).tolist()) for row in generated_subgroups(cayley, mask)]
    want = [tuple(subgroup_generated(g, seed).elements.tolist()) for g, seed in zip(groups, seeds)]
    assert got == want
    assert [len(h) for h in want] == [1, 4, 8]


def _tampered_fixture(where):
    """phi on a full lattice whose H is proper (Z4xZ4 x Pauli) or the lattice (D4xZ2xZ2)."""
    if where == "proper-h":
        rep = pauli_product_irrep("Z4xZ4")
    else:
        g = group("D4xZ2xZ2")
        rep = irreducible_subrep(g, trivial(g), seed=3)
    spec = make_module_spec(rep, full_subgroup(rep.group))
    fn = phi(spec)
    lat = fn.cocycle.group
    support = fn.values != 0
    support[lat.identity] = True
    k = np.count_nonzero(generated_subgroups(lat.cayley[None], support[None]))
    assert k == (16 if where == "proper-h" else lat.order)  # proper: H = Z4xZ4 x {e}, of index 4
    return fn


@pytest.mark.parametrize("where", ["proper-h", "whole-lattice"])
def test_a_phi_tampered_on_h_is_not_hermitian(where):
    fn = _tampered_fixture(where)
    g = fn.cocycle.group
    values = fn.values.copy()
    h = int(np.argmax(np.where(np.arange(g.order) == g.identity, 0, np.abs(values))))
    values[h] *= np.exp(0.5j)
    tampered = PhiFunction(values, fn.cocycle)
    with pytest.raises(NotHermitian):
        tampered.spectrum
    with pytest.raises(NotHermitian):
        phi_spectra(np.stack([fn.values, values]), np.stack([np.arange(g.order)] * 2), fn.cocycle)


def test_a_kleppner_lattice_solves_no_operator(monkeypatch):
    """On the Z16xZ16 full lattice H = {e}, so deciding builds and solves no operator.

    phi is computed first: its group conjugation table and regular mask are
    not the decision's work.
    """
    t = tf("Z16")
    spec = make_module_spec(t.rep, full_subgroup(t.rep.group))
    spec.dimension_function
    shapes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape[-2:]) or solve(a))
    decision, peak = traced_peak(existence_decision, spec, 1, 1)
    assert (decision.frame, decision.riesz) == (True, False)
    assert shapes == []
    assert peak < 512 * 1024
    assert np.array_equal(spec.dimension_function.spectrum, np.full(256, 1 / 16))


def _every_cocycle_rep():
    """An irrep over each cocycle fixture, then the lifted twists of order 32 and more."""
    pairs = [(f"{n}-trivial", trivial_irrep(n)) for n in GROUP_NAMES]
    pairs += [(f"wh-{b}", tf(b).rep) for b in WH_BASES]
    pairs.append(("s3-pauli", pauli_product_irrep()))
    assert [label for label, _ in pairs] == [label for label, _ in cocycle_fixtures()]
    return pairs + [(f"lifted-{name}", pauli_product_irrep(name)) for name in _LIFTED]


def _gauged_off_e(coc, at_e=np.exp(0.7j), seed=5):
    """coc times the coboundary f(x) f(y) / f(xy) of seeded phases f with f(e) = at_e.

    sigma(e, e) is multiplied by at_e.  Twisted convolution by phi conj(f)
    over the result is unitarily equivalent to convolution by phi over coc.
    """
    g = coc.group
    f = np.exp(2j * np.pi * np.random.default_rng(seed).random(g.order))
    f[g.identity] = at_e
    return Cocycle(g, coc.table * np.outer(f, f) / f[g.cayley], label="gauged"), f


@pytest.mark.parametrize("twist", ["cocycle", "gauged off e"])
@pytest.mark.parametrize("label, rep", _every_cocycle_rep())
def test_the_kernel_agrees_with_the_dense_solve_on_mixed_blocks(label, rep, twist):
    """Each order's rows of phi, stacked with the same rows cut to e and their negatives.

    The cut rows take the scalar path and the rest the closure, in one call.
    The lifted twists close rows to a proper H on lattices both below order
    32 and of order 32 or more.
    """
    g, source = rep.group, windowed_rep(rep)
    coc, f = rep.cocycle, np.ones(g.order)
    if twist == "gauged off e":
        coc, f = _gauged_off_e(coc)
        assert abs(coc.table[g.identity, g.identity] - rep.cocycle.table[g.identity, g.identity]
                   * np.exp(0.7j)) <= 1e-15
    proper = set()
    for elems in subgroup_blocks(g):
        values = phi_values(source, elems)
        cut = np.where(elems == g.identity, values, 0)
        values = np.concatenate([values, cut, -cut])
        elems = np.concatenate([elems] * 3)
        values = values * np.conj(f[elems])
        cayley, _, identity = subgroup_tables(g, elems)
        dense = np.linalg.eigvalsh(cdim_operators(values, cayley, restricted_tables(coc, elems)))
        assert np.abs(phi_spectra(values, elems, coc) - dense).max() <= 1e-12, label
        sizes = _closure_orders(values, cayley, identity)
        if np.any((1 < sizes) & (sizes < elems.shape[1])):
            proper.add(elems.shape[1] >= 32)
    if label.startswith("lifted"):
        assert proper == {False, True}


def _non_kleppner_reps():
    """Every irrep fixture with a lattice on which phi lives beyond e."""
    pairs = [(label, rep) for label, rep in _every_cocycle_rep()
             if not label.startswith(("wh-", "Z1-"))]
    return pairs + [("S4-trivial", trivial_irrep("S4"))]


@pytest.mark.parametrize("label, rep", _non_kleppner_reps())
def test_a_lattice_spectrum_solves_on_its_own_tables(monkeypatch, label, rep):
    """A lattice is a group of its own, so ``PhiFunction.spectrum`` gathers no table.

    On every lattice its spectrum is the block kernel's on a block of one, bit
    for bit, and within 1e-12 of the dense solve.
    """
    source = windowed_rep(rep)
    fns, blocks = [], []
    for elems in subgroup_blocks(rep.group):
        for row in elems:
            fn = phi(source.spec(Subgroup(rep.group, row)))
            blocks.append(phi_spectra(fn.values[None], row[None], rep.cocycle)[0])
            fns.append(fn)

    def refuse(*args):
        raise AssertionError("a lattice's own tables were gathered")

    monkeypatch.setattr(dim_mod, "subgroup_tables", refuse)
    monkeypatch.setattr(dim_mod, "restricted_tables", refuse)
    solved, solve = [], dim_mod._solve_spectra
    monkeypatch.setattr(dim_mod, "_solve_spectra", lambda *a: solved.append(1) or solve(*a))
    for fn, block in zip(fns, blocks):
        assert np.array_equal(fn.spectrum, block), (label, fn.values.size)
        assert np.abs(fn.spectrum - np.linalg.eigvalsh(cdim_operator(fn))).max() <= 1e-12, label
    assert solved, label


def test_the_s3_pauli_full_lattice_is_one_6x6_solve(monkeypatch):
    """phi of the S3 x Pauli irrep lives on H = S3 x {e}, of index 4 in the full lattice.

    Each route to the spectrum solves one 6 x 6 operator, not the 24 x 24 one.
    """
    rep = pauli_product_irrep()
    g = rep.group
    fn = phi(make_module_spec(rep, full_subgroup(g)))
    dense = np.linalg.eigvalsh(cdim_operator(fn))
    shapes, solve = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
    block = phi_spectra(fn.values[None], np.arange(g.order)[None], rep.cocycle)[0]
    assert shapes == [(1, 6, 6)]
    assert np.abs(fn.spectrum - dense).max() <= 1e-12
    assert shapes == [(1, 6, 6)] * 2
    assert np.array_equal(fn.spectrum, block)


def test_where_h_is_the_lattice_the_kernel_is_the_dense_solve_bit_for_bit():
    """On D4xZ2xZ2 (trivial cocycle, seed 3) rounding residue puts phi's support
    beyond every proper subgroup, so each row is solved on its own operator."""
    g = group("D4xZ2xZ2")
    rep = irreducible_subrep(g, trivial(g), seed=3)
    source = windowed_rep(rep)
    for elems in subgroup_blocks(g):
        values = phi_values(source, elems)
        cayley, _, _ = subgroup_tables(g, elems)
        dense = np.linalg.eigvalsh(cdim_operators(values, cayley,
                                                  restricted_tables(rep.cocycle, elems)))
        assert np.array_equal(phi_spectra(values, elems, rep.cocycle), dense), elems.shape


SCAN_DIGESTS = {
    "Z2xZ4": "e0a9bc31887de3fb59958dde6bbacb9dad03110a2d925d84ab87ac4d09a1ead1",
    "Z3xZ3": "4f627d97daa91228c98e1dad28214a89c9ef9af5c2d9274414c53ca57638b0ae",
}


@pytest.mark.parametrize("base, solved", [
    ("Z2xZ4", {2: 3, 4: 27, 8: 67, 16: 59, 32: 15, 64: 1}),
    ("Z3xZ3", {3: 4, 9: 49, 27: 40, 81: 1}),
])
def test_a_scan_at_a_loose_tol_id_solves_rows_of_every_order(monkeypatch, tmp_path, base,
                                                             solved):
    """At tol_id 3 every element is regular, so the class sums keep rounding
    residue off e and rows of every order reach the solve; the CSV is still
    the one recorded at the defaults."""
    counts, solve = {}, dim_mod._solve_spectra

    def counted(values, *args):
        counts[values.shape[1]] = counts.get(values.shape[1], 0) + len(values)
        return solve(values, *args)

    monkeypatch.setattr(dim_mod, "_solve_spectra", counted)
    out = tmp_path / "scan.csv"
    assert main(["gabor-scan", "--base", base, "--tol-id", "3", "--out", str(out)]) == 0
    assert counts == solved
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCAN_DIGESTS[base]


@pytest.mark.parametrize("base, digest", SCAN_DIGESTS.items())
def test_a_time_frequency_scan_gathers_no_table(monkeypatch, tmp_path, base, digest):
    """phi lives on {e} on every time-frequency lattice; the CSV is the recorded one."""
    def refuse(*args):
        raise AssertionError("the scan gathered a lattice table")

    monkeypatch.setattr(dim_mod, "subgroup_tables", refuse)
    monkeypatch.setattr(dim_mod, "restricted_tables", refuse)
    out = tmp_path / "scan.csv"
    assert main(["gabor-scan", "--base", base, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("path", ["scalar", "solved"])
def test_a_phi_on_e_off_the_real_axis_is_not_hermitian(path):
    """A row rotated at e raises on the scalar path; a NaN off e raises on the solved one."""
    t = tf("Z4")
    fn = make_module_spec(t.rep, full_subgroup(t.rep.group)).dimension_function
    e = fn.cocycle.group.identity
    assert np.count_nonzero(fn.values) == 1
    values = fn.values.copy()
    if path == "scalar":
        values[e] *= np.exp(1e-6j)
    else:
        values[e + 1] = np.nan
    elems = np.stack([np.arange(fn.values.size)] * 2)
    with pytest.raises(NotHermitian):
        PhiFunction(values, fn.cocycle).spectrum
    with pytest.raises(NotHermitian):
        phi_spectra(np.stack([fn.values, values]), elems, fn.cocycle)
    assert np.array_equal(fn.spectrum, np.full(16, 1 / 4))
