import numpy as np
import pytest

from latdim import (
    BoundExceeded,
    ConsistencyError,
    Infeasible,
    InputError,
    all_subgroups,
    audit_rows,
    build_cyclic,
    build_tf,
    construct_parseval_generators,
    gabor_scan,
    make_module_spec,
    read_scan_csv,
    subgroup_generated,
    validate_rep,
    write_scan_csv,
)

from fixtures_common import tf


def test_build_tf_basics():
    t = tf("Z2")
    assert t.base.order == 2
    assert t.group.order == 4
    assert t.rep.dim == 2
    assert t.dpi_counting == pytest.approx(0.5)
    assert validate_rep(t.rep).ok


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
    # force the decision path to disagree with the closed form
    import latdim.gabor as gabor_mod

    t = tf("Z2")
    real = gabor_mod.existence_decision

    def lying(spec, n, d, tol=None, fn=None):
        decision = real(spec, n, d, fn=fn)
        object.__setattr__(decision, "frame", not decision.frame)
        return decision

    monkeypatch.setattr(gabor_mod, "existence_decision", lying)
    with pytest.raises(ConsistencyError):
        gabor_scan(t, n_max=1, d_max=1)
