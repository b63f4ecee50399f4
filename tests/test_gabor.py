import numpy as np
import pytest

from latdim import (
    BoundExceeded,
    ConsistencyError,
    Infeasible,
    InputError,
    Tolerances,
    all_subgroups,
    audit_rows,
    build_cyclic,
    build_tf,
    construct_parseval_generators,
    direct_product,
    gabor_scan,
    make_module_spec,
    read_scan_csv,
    subgroup_generated,
    validate_rep,
    write_scan_csv,
)

from latdim.config import SCAN_CELLS, SCAN_ROWS
from latdim.gabor import SCAN_COLUMNS

from fixtures_common import tf


def test_build_tf_basics():
    t = tf("Z2")
    assert t.base.order == 2
    assert t.group.order == 4
    assert t.rep.dim == 2
    assert t.dpi_counting == pytest.approx(0.5)
    assert validate_rep(t.rep).ok


def test_build_tf_and_scan_validate_the_rep_once(monkeypatch):
    import latdim.reps

    calls = []
    real = latdim.reps.validate_rep
    monkeypatch.setattr(latdim.reps, "validate_rep",
                        lambda rep, *args: calls.append(1) or real(rep, *args))
    t = build_tf(direct_product(build_cyclic(2), build_cyclic(4)))
    assert len(gabor_scan(t, 2, 2)) == 4 * 249
    assert len(calls) == 1


def test_build_tf_scatter_matches_per_element_loop():
    t = build_tf(direct_product(build_cyclic(2), build_cyclic(4)))
    a, na = t.base, t.base.order
    want = np.zeros((na * na, na, na), dtype=np.complex128)
    for x in range(na):
        for w in range(na):
            for s in range(na):
                want[x * na + w, s, a.cayley[a.inverse[x], s]] = t.dual.pairing[w, s]
    assert np.array_equal(t.rep.matrices, want)


def test_build_tf_frozen_matrices():
    t = tf("Z3")
    na = 3
    # pure translation by 1 permutes the basis forward
    trans = t.rep.matrix(1 * na + 0)
    expected = np.zeros((3, 3))
    for s in range(3):
        expected[(s + 1) % 3, s] = 1.0
    assert np.abs(trans - expected).max() < 1e-12
    # pure modulation is diagonal in the character
    mod = t.rep.matrix(0 * na + 1)
    assert np.abs(mod - np.diag(t.dual.pairing[1])).max() < 1e-12


def test_build_tf_bound():
    with pytest.raises(BoundExceeded):
        build_tf(build_cyclic(17))


def test_scan_row_count_and_frozen_cells():
    t = tf("Z2")
    rows = gabor_scan(t, n_max=2, d_max=2)
    n_subs = len(all_subgroups(t.group))
    assert n_subs == 5
    assert len(rows) == n_subs * 2 * 2

    def cell(lattice_order, n, d):
        hits = [
            r
            for r in rows
            if r["lattice_order"] == lattice_order
            and r["n"] == n
            and r["d"] == d
        ]
        return hits

    # full lattice, n/d = 1/2 = |base|/|lattice|: exact basis cell
    (full,) = cell(4, 1, 2)
    assert (full["frame"], full["riesz"], full["basis"]) == ("yes", "yes", "yes")
    assert full["dpi_vol"] == pytest.approx(0.5)
    # order-2 lattices are critical at n = d
    for r in cell(2, 1, 1):
        assert (r["frame"], r["riesz"], r["basis"]) == ("yes", "yes", "yes")
    # trivial lattice needs n/d >= 2
    (tr,) = cell(1, 1, 2)
    assert (tr["frame"], tr["riesz"]) == ("no", "yes")
    (tr2,) = cell(1, 2, 1)
    assert (tr2["frame"], tr2["riesz"], tr2["basis"]) == ("yes", "yes", "yes")


@pytest.mark.parametrize("base", ["Z2", "Z3"])
def test_scan_with_construction(base):
    rows = gabor_scan(tf(base), n_max=2, d_max=2, construct=True)
    assert all(r["base"] == base for r in rows)
    assert audit_rows(rows) == []


def test_scan_rows_are_distinct_objects():
    rows = gabor_scan(tf("Z2"), n_max=2, d_max=2)
    assert len({id(row) for row in rows}) == len(rows)


def test_superframe_small_lattice_infeasible():
    # |lattice| = 2 < d |base| = 4: no 1-window 2-copy frame exists
    t = tf("Z2")
    na = t.base.order
    sub = subgroup_generated(t.group, [1 * na + 0])
    spec = make_module_spec(t.rep, sub)
    with pytest.raises(Infeasible):
        construct_parseval_generators(spec, 1, 2)


def test_scan_csv_round_trip(tmp_path):
    rows = gabor_scan(tf("Z2"), n_max=2, d_max=1)
    path = str(tmp_path / "scan.csv")
    write_scan_csv(rows, path)
    back = read_scan_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert a["base"] == b["base"]
        assert a["lattice_order"] == b["lattice_order"]
        assert (a["n"], a["d"]) == (b["n"], b["d"])
        assert a["dpi_vol"] == pytest.approx(b["dpi_vol"])
        assert (a["frame"], a["riesz"], a["basis"]) == (
            b["frame"],
            b["riesz"],
            b["basis"],
        )


def test_read_scan_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n1,2\n")
    with pytest.raises(InputError) as exc:
        read_scan_csv(str(path))
    assert "expected columns" in str(exc.value)


@pytest.mark.parametrize("tail", ["", ",1,1,0.5,yes,no,no,extra"])
def test_read_scan_csv_rejects_a_row_of_the_wrong_length(tmp_path, tail):
    path = tmp_path / "ragged.csv"
    path.write_text(",".join(SCAN_COLUMNS) + f"\nZ2,Z2xZ2,wh,4{tail}\n")
    with pytest.raises(InputError, match="line 2: expected 10 fields"):
        read_scan_csv(str(path))


def test_read_scan_csv_reports_bad_line(tmp_path):
    rows = gabor_scan(tf("Z2"), n_max=1, d_max=1)
    path = str(tmp_path / "scan.csv")
    write_scan_csv(rows, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[3] = lines[3].replace(",1,1,", ",one,1,", 1)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(InputError) as exc:
        read_scan_csv(path)
    assert "line 4" in str(exc.value)


def test_read_scan_csv_names_the_physical_line(tmp_path):
    """A quoted newline in row 2 moves the next row, and its error, down to line 4."""
    path = tmp_path / "scan.csv"
    path.write_text(",".join(SCAN_COLUMNS) + '\nZ2,"Z2\nxZ2",wh,4,1,1,0.5,yes,yes,yes\n'
                    "Z2,Z2xZ2,wh,4,0,1,0.5,yes,yes,yes\n")
    with pytest.raises(InputError, match="line 4: n and d must be at least 1"):
        read_scan_csv(str(path))


def test_audit_rows_catches_doctored_row():
    rows = gabor_scan(tf("Z2"), n_max=2, d_max=2)
    assert audit_rows(rows) == []
    bad = [dict(r) for r in rows]
    victim = next(
        r for r in bad if r["frame"] == "no" and r["dpi_vol"] > r["n"] / r["d"]
    )
    victim["frame"] = "yes"
    problems = audit_rows(bad)
    assert problems
    assert "frame despite" in problems[0]

    bad2 = [dict(r) for r in rows]
    victim2 = next(r for r in bad2 if r["basis"] == "no" and r["frame"] == "yes")
    victim2["basis"] = "yes"
    assert any("inconsistent" in p for p in audit_rows(bad2))

    bad3 = [dict(r, dpi_vol=float("nan")) for r in rows if r["basis"] == "yes"]
    assert bad3 and len(audit_rows(bad3)) == 2 * len(bad3)


def test_scan_internal_cross_check_trips_on_tampered_phi(monkeypatch):
    # flip two frame verdicts of the grid: the scan names the first in row-major order
    import latdim.gabor as gabor_mod

    t = tf("Z2")
    real = gabor_mod.decision_grids

    def lying(spectra, n_max, d_max, tol):
        frame, riesz = real(spectra, n_max, d_max)
        frame[0, [0, 1], [1, 0]] ^= True
        return frame, riesz

    monkeypatch.setattr(gabor_mod, "decision_grids", lying)
    with pytest.raises(ConsistencyError, match=r"\|lattice\|=1, n=1, d=2: got"):
        gabor_scan(t, n_max=2, d_max=2)


def test_scan_decides_at_the_rep_tolerances():
    """At a PSD slack of 10 every cell is a frame and a Riesz sequence: not the closed form."""
    t = build_tf(build_cyclic(2), tol=Tolerances(tol_psd=10))
    assert t.rep.tol == Tolerances(tol_psd=10)
    with pytest.raises(ConsistencyError, match=r"=1, n=1, d=1: got \(True, True, True\)"):
        gabor_scan(t, 2, 2)


def test_scan_refuses_oversized_counts_before_enumerating(monkeypatch):
    import latdim.gabor as gabor_mod

    t = tf("Z2")
    assert len(gabor_scan(t, SCAN_CELLS, 1)) == 5 * SCAN_CELLS
    monkeypatch.setattr(gabor_mod, "subgroup_blocks", lambda g: pytest.fail("enumerated"))
    with pytest.raises(BoundExceeded, match=f"1 x {SCAN_CELLS + 1} cells per lattice exceed"):
        gabor_scan(t, 1, SCAN_CELLS + 1)


def test_a_scan_builds_a_subgroup_only_to_construct(monkeypatch):
    """A scan decides on rows of the order blocks; only a lattice with a
    feasible cell of bounded size, |base| d <= n |lattice| <= 2 |base| d,
    becomes a ``Subgroup``, to build its generators."""
    import latdim.gabor as gabor_mod
    import latdim.groups as groups_mod

    t = tf("Z2xZ4")
    want = gabor_scan(t, 3, 3)
    built = []
    real = groups_mod.Subgroup
    counting = lambda *args: built.append(args) or real(*args)
    monkeypatch.setattr(groups_mod, "Subgroup", counting)
    monkeypatch.setattr(gabor_mod, "Subgroup", counting)
    assert gabor_scan(t, 3, 3) == want
    assert built == []
    assert gabor_scan(t, 3, 3, construct=True) == want
    a = t.base.order
    feasible = [any(a * d <= n * row["lattice_order"] <= 2 * a * d
                    for n in range(1, 4) for d in range(1, 4)) for row in want[::9]]
    assert len(built) == sum(feasible) > 0


def test_a_second_scan_reads_the_kept_subgroups(monkeypatch):
    """Two scans of one group give the same rows, and only the first may enumerate;
    a copy of the group with nothing kept scans to the same rows."""
    import dataclasses

    import latdim.groups as groups_mod

    t = tf("Z3xZ3")
    first = gabor_scan(t, 3, 3)
    for helper in ("_derived_series", "_series_subgroups", "_extension_subgroups"):
        monkeypatch.setattr(groups_mod, helper,
                            lambda *args, helper=helper: pytest.fail(f"{helper} ran again"))
    assert gabor_scan(t, 3, 3) == first
    monkeypatch.undo()
    fresh = dataclasses.replace(t, group=dataclasses.replace(t.group))
    assert "_subgroup_blocks" not in vars(fresh.group)
    assert gabor_scan(fresh, 3, 3) == first
    assert len(first) == 212 * 9


def test_scan_refuses_too_many_rows_before_deciding(monkeypatch):
    import latdim.gabor as gabor_mod

    t = tf("Z2")
    monkeypatch.setattr(gabor_mod, "SCAN_ROWS", 5 * 4)
    assert len(gabor_scan(t, 2, 2)) == 5 * 4
    monkeypatch.setattr(gabor_mod, "_scan_chunk", lambda *args: pytest.fail("decided"))
    with pytest.raises(BoundExceeded, match="5 lattices x 6 cells exceed the scan bound of 20 rows"):
        gabor_scan(t, 2, 3)


def test_scan_bound_admits_every_cell_of_the_z2xz2xz4_lattices():
    lattices = all_subgroups(tf("Z2xZ2xZ4").group)
    assert len(lattices) == 12015
    assert len(lattices) * SCAN_CELLS <= SCAN_ROWS


def test_build_tf_blames_a_failed_validation_on_given_tolerances(monkeypatch):
    import latdim.reps

    strict = Tolerances(tol_unit=1e-20)
    with pytest.raises(InputError, match=r"at the given Tolerances\(tol_unit=1e-20,"):
        build_tf(build_cyclic(3), tol=strict)
    failed = latdim.reps.RepReport(False, 1.0, 1.0, (0, 0), "matrix is not unitary")
    monkeypatch.setattr(latdim.reps, "validate_rep", lambda rep: failed)
    with pytest.raises(ConsistencyError, match="time-frequency rep invalid"):
        build_tf(build_cyclic(3))


@pytest.mark.parametrize("where, shift, order", [
    ("identity", np.nan, 1), ("off identity", np.nan, 2), ("off identity", 1e-6, 2),
])
def test_scan_rejects_phi_off_dpi_vol_delta(monkeypatch, where, shift, order):
    """The scan checks phi = dpi_vol delta_e on every lattice, NaN included."""
    import latdim.gabor as gabor_mod

    real = gabor_mod.phi_values

    def tampered(source, elems):
        values = real(source, elems)
        at_identity = elems == source.rep.group.identity
        if where == "identity":
            values[at_identity] += shift
        elif values.shape[1] > 1:
            values[at_identity[:, ::-1]] += shift
        return values

    monkeypatch.setattr(gabor_mod, "phi_values", tampered)
    with pytest.raises(ConsistencyError, match=rf"delta_e\| on the lattice of order {order} is"):
        gabor_scan(tf("Z2"), 1, 1)


@pytest.mark.parametrize("base", ["Z2xZ4", "Z3xZ3"])
def test_scan_verdicts_are_the_per_spec_decisions(base):
    """Every lattice's frame/riesz/basis is what ``existence_decision`` reports on
    its own spec, a route that runs none of the scan's chunk code."""
    from latdim import Subgroup, existence_decision, subgroup_blocks
    from latdim.dimension import windowed_rep

    t = tf(base)
    rows = iter(gabor_scan(t, 3, 3))
    source = windowed_rep(t.rep)
    for block in subgroup_blocks(t.group):
        for elems in block:
            spec = source.spec(Subgroup(t.group, elems))
            for n in range(1, 4):
                for d in range(1, 4):
                    row, want = next(rows), existence_decision(spec, n, d)
                    assert (row["lattice_order"], row["n"], row["d"]) == (len(elems), n, d)
                    got = tuple(row[key] == "yes" for key in ("frame", "riesz", "basis"))
                    assert got == (want.frame, want.riesz, want.basis), (base, elems, n, d)
    assert next(rows, None) is None


def _tamper_one_lattice(monkeypatch, target, shift):
    """Add ``shift`` to phi off e on the lattice whose elements are ``target``."""
    import latdim.gabor as gabor_mod

    real = gabor_mod.phi_values

    def tampered(source, elems):
        values = real(source, elems)
        if elems.shape[1] == len(target):
            off_e = np.flatnonzero(target != source.rep.group.identity)[0]
            values[(elems == target).all(axis=1), off_e] += shift
        return values

    monkeypatch.setattr(gabor_mod, "phi_values", tampered)


def test_a_lattice_with_phi_beyond_e_alone_is_solved(monkeypatch):
    """1e-12 off e passes the PHI_IDENTITY check but not the support-{e} screen:
    that lattice, and only it, reaches the solve, and no verdict moves."""
    import latdim.dimension as dim_mod
    import latdim.gabor as gabor_mod
    from latdim import subgroup_blocks

    t = tf("Z2xZ4")
    want = gabor_scan(t, 3, 3)
    blocks = subgroup_blocks(t.group)
    target = blocks[3][5]  # of order 8
    at = sum(len(block) for block in blocks[:3]) + 5  # its place in the scan's one chunk
    _tamper_one_lattice(monkeypatch, target, 1e-12)
    sent, spectra, solved, ends = [], [], [], []
    real_spectra, real_solve, real_grids = (gabor_mod.phi_spectra, dim_mod._solve_spectra,
                                            gabor_mod.decision_grids)

    def spy(values, elems, cocycle):
        sent.append(elems.copy())
        spectra.append(real_spectra(values, elems, cocycle))
        return spectra[-1]

    monkeypatch.setattr(gabor_mod, "phi_spectra", spy)
    monkeypatch.setattr(dim_mod, "_solve_spectra", lambda values, *args: solved.append(
        len(values)) or real_solve(values, *args))
    monkeypatch.setattr(gabor_mod, "decision_grids", lambda e, *args: ends.append(e.copy())
                        or real_grids(e, *args))
    assert gabor_scan(t, 3, 3) == want
    assert len(sent) == 1 and np.array_equal(sent[0], target[None])
    assert solved == [1]
    # the verdicts read the solved spectrum's two ends, which the tamper split
    ((spectrum,),), (ends,) = spectra, ends
    assert spectrum[0] < spectrum[-1]
    assert np.array_equal(ends[at], spectrum[[0, -1]])


@pytest.mark.parametrize("block", [None, 100])
def test_a_scan_names_the_order_of_a_failing_lattice_inside_a_chunk(monkeypatch, block):
    """phi tampered on one lattice of order 8, past lattices of four smaller orders
    in its chunk (and, at a block of 100 entries, in a later chunk), is named by
    its order."""
    import latdim.gabor as gabor_mod
    from latdim import subgroup_blocks

    t = tf("Z2xZ4")
    if block is not None:
        monkeypatch.setattr(gabor_mod, "_BLOCK", block)
    _tamper_one_lattice(monkeypatch, subgroup_blocks(t.group)[3][5], 1e-6)
    want = r"delta_e\| on the lattice of order 8 is 1\.000e-06"
    with pytest.raises(ConsistencyError, match=want):
        gabor_scan(t, 3, 3)


def test_a_scan_names_the_cell_of_a_flipped_verdict_inside_a_chunk(monkeypatch):
    """A frame verdict flipped on a lattice of order 8, the sixth of its order and
    far from first in a chunk of every order, is named by order and cell."""
    import latdim.gabor as gabor_mod
    from latdim import subgroup_blocks

    t = tf("Z2xZ4")
    blocks = subgroup_blocks(t.group)
    assert len(list(gabor_mod._chunks(blocks, gabor_mod._BLOCK))) == 1
    at = sum(len(block) for block in blocks[:3]) + 5
    real = gabor_mod.decision_grids

    def lying(ends, n_max, d_max, tol):
        frame, riesz = real(ends, n_max, d_max, tol)
        frame[at, 1, 2] ^= True
        return frame, riesz

    monkeypatch.setattr(gabor_mod, "decision_grids", lying)
    want = r"at \|lattice\|=8, n=2, d=3: got \(True, True, True\), want \(False, True, False\)$"
    with pytest.raises(ConsistencyError, match=want):
        gabor_scan(t, 3, 3)
