import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from latdim import (
    ModuleSpec,
    Subgroup,
    all_subgroups,
    cocycle_from_json,
    existence_decision,
    frame_report,
    full_subgroup,
    irreducible_subrep,
    make_module_spec,
    multiwindow_system,
    phi,
    phi_oracle,
    random_window,
    regularity,
    restrict,
    trivial,
    windowed_rep,
)
import latdim.cli
from latdim.dimension import phi_oracle_values
from latdim.cli import main
from latdim.config import SCAN_CELLS, SYSTEM_ENTRIES, TF_BASE
from latdim.gabor import SCAN_COLUMNS
from latdim.serialize import (
    cocycle_to_json,
    dump_json,
    generators_from_json,
    load_json,
    rep_to_json,
    write_cayley_text,
)
from latdim.groups import symmetric_group

from fixtures_common import group, near_rep, pauli_product, tf, traced_peak


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_kleppner_weyl_heisenberg(capsys):
    rc, out, err = run(
        capsys, "kleppner", "--group", "Z4xZ4", "--cocycle", "weyl-heisenberg"
    )
    assert rc == 0
    assert out == "kleppner yes\nregular-elements 1 of 16\n"


def test_kleppner_trivial(capsys):
    rc, out, _ = run(capsys, "kleppner", "--group", "Z4", "--cocycle", "trivial")
    assert rc == 0
    assert out == "kleppner no\nregular-elements 4 of 4\n"


def test_kleppner_from_cayley_file(capsys, tmp_path):
    path = str(tmp_path / "s3.txt")
    write_cayley_text(symmetric_group(3), path)
    rc, out, _ = run(capsys, "kleppner", "--group", path)
    assert rc == 0
    assert out == "kleppner no\nregular-elements 6 of 6\n"


def test_oversized_cayley_file_is_rejected(capsys, tmp_path):
    path = tmp_path / "z257.txt"
    idx = np.arange(257)
    rows = (idx[:, None] + idx[None, :]) % 257
    path.write_text("order 257\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    rc, _, err = run(capsys, "kleppner", "--group", str(path), "--cocycle", "trivial")
    assert rc == 1
    assert "exceeds 256" in err


def test_nonassociative_cayley_file_is_rejected_at_its_first_bad_triple(capsys, tmp_path):
    path = tmp_path / "q5.txt"  # the order-5 latin square with identity 0 of test_groups
    path.write_text("order 5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n")
    rc, _, err = run(capsys, "kleppner", "--group", str(path))
    assert rc == 1
    assert "at triple (1, 1, 2)" in err


def test_validate_cocycle_ok(capsys, tmp_path):
    path = str(tmp_path / "coc.json")
    dump_json(cocycle_to_json(tf("Z2").cocycle), path)
    rc, out, _ = run(capsys, "validate-cocycle", "--cocycle", path)
    assert rc == 0
    assert out.startswith("cocycle ok\n")
    assert "unit-residual 0" in out


def test_validate_cocycle_catches_corruption(capsys, tmp_path):
    data = cocycle_to_json(tf("Z2").cocycle)
    data["table"][1][2] = [0.5, 0.0]
    path = str(tmp_path / "bad.json")
    dump_json(data, path)
    rc, out, _ = run(capsys, "validate-cocycle", "--cocycle", path)
    assert rc == 1
    assert out.startswith("cocycle invalid\n")
    assert "worst-triple" in out


def test_validate_cocycle_reports_a_nan_entry_at_its_first_triple(capsys, tmp_path):
    data = cocycle_to_json(trivial(symmetric_group(3)))
    data["table"][2][3] = [float("nan"), 0.0]
    path = str(tmp_path / "nan.json")
    dump_json(data, path)
    rc, out, _ = run(capsys, "validate-cocycle", "--cocycle", path)
    assert rc == 1
    assert "identity-residual nan\n" in out
    assert "worst-triple 0 2 3\n" in out


def test_validate_cocycle_group_cross_check(capsys, tmp_path):
    path = str(tmp_path / "coc.json")
    dump_json(cocycle_to_json(tf("Z2").cocycle), path)
    rc, _, err = run(
        capsys, "validate-cocycle", "--group", "Z3", "--cocycle", path
    )
    assert rc == 1
    assert "disagrees" in err


def test_cvt_trivial_is_identity(capsys):
    rc, out, _ = run(capsys, "cvt", "--group", "Z3", "--cocycle", "trivial")
    assert rc == 0
    data = json.loads(out)
    assert data["order"] == 3
    assert len(data["rows"]) == 3
    for row in data["rows"]:
        coeffs = np.array(row["coeffs"])
        expected = np.zeros((3, 2))
        expected[row["gamma"], 0] = 1.0
        assert np.abs(coeffs - expected).max() < 1e-12


def test_phi_output_shape(capsys):
    rc, out, _ = run(
        capsys,
        "phi",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--lattice", "full",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["lattice_order"] == 4
    assert data["dpi_vol"] == pytest.approx(0.5)
    by_gamma = {r["gamma"]: r for r in data["rows"]}
    assert by_gamma[0]["value"] == pytest.approx([0.5, 0.0])
    assert by_gamma[0]["regular"] is True
    for gamma in (1, 2, 3):
        assert by_gamma[gamma]["value"] == pytest.approx([0.0, 0.0])
        assert by_gamma[gamma]["regular"] is False


def test_phi_writes_out_file(capsys, tmp_path):
    path = str(tmp_path / "phi.json")
    rc, out, _ = run(
        capsys,
        "phi",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--out", path,
    )
    assert rc == 0
    assert out == f"wrote {path}\n"
    assert load_json(path)["lattice_order"] == 4


def _phi_per_element(cfg):
    """``phi --out`` with its rows built by indexing one element at a time."""
    rep, lat, spec = latdim.cli._module(cfg)
    fn = spec.dimension_function
    rows = []
    for i in range(lat.order):
        v = fn.values[i]
        rows.append({"gamma": int(lat.elements[i]), "value": [float(v.real), float(v.imag)],
                     "regular": bool(spec.regular[i])})
    dump_json({"group": rep.group.label, "lattice_order": lat.order,
               "dpi_vol": spec.dpi_vol, "rows": rows}, cfg.out)


@pytest.mark.parametrize("args", [
    ("--group", "Z16xZ16", "--cocycle", "weyl-heisenberg"),
    ("--group", "Z16xZ16", "--cocycle", "weyl-heisenberg", "--lattice", "(1,3),(0,4)"),
    ("--group", "D4", "--cocycle", "trivial", "--seed", "2"),
])
def test_phi_out_is_the_per_element_form(args, capsys, tmp_path):
    got, want = str(tmp_path / "got.json"), str(tmp_path / "want.json")
    rc, _, _ = run(capsys, "phi", *args, "--out", got)
    assert rc == 0
    cfg = latdim.cli._merge(latdim.cli._build_parser().parse_args(["phi", *args, "--out", want]))
    _phi_per_element(cfg)
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()


def test_phi_tuple_lattice(capsys):
    # pure translations of the Z3 time-frequency group
    rc, out, _ = run(
        capsys,
        "phi",
        "--group", "Z3xZ3",
        "--cocycle", "weyl-heisenberg",
        "--lattice", "(1,0)",
    )
    assert rc == 0
    data = json.loads(out)
    assert data["lattice_order"] == 3
    assert data["dpi_vol"] == pytest.approx(1.0)


def test_decide_frozen_cell(capsys):
    rc, out, _ = run(
        capsys,
        "decide",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--n", "1",
        "--d", "2",
    )
    assert rc == 0
    assert out == "frame yes\nriesz yes\nbasis yes\n"


def test_decide_witness_file(capsys, tmp_path):
    path = str(tmp_path / "decision.json")
    rc, out, _ = run(
        capsys,
        "decide",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--n", "1",
        "--d", "1",
        "--out", path,
    )
    assert rc == 0
    assert out == "frame yes\nriesz no\nbasis no\n" + f"wrote {path}\n"
    data = load_json(path)
    assert data["frame"] is True and data["riesz"] is False
    assert data["dpi_vol"] == pytest.approx(0.5)
    rep = tf("Z2").rep
    spec = make_module_spec(rep, full_subgroup(rep.group))
    assert data == dataclasses.asdict(existence_decision(spec, 1, 1))


def test_decide_validates_the_rep_once(capsys, monkeypatch):
    import latdim.reps

    calls = []
    real = latdim.reps.validate_rep
    monkeypatch.setattr(latdim.reps, "validate_rep",
                        lambda rep, *args: calls.append(1) or real(rep, *args))
    rc, out, _ = run(capsys, "decide", "--group", "Z16xZ16",
                     "--cocycle", "weyl-heisenberg", "--n", "1", "--d", "1")
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("cmd, lattice, computed", [
    ("phi", "full", 1),  # the full lattice's restriction is the cocycle itself
    ("decide", "full", 1),
    ("phi", "(1,3),(0,4)", 1),  # the lattice's mask is read off G's report
])
def test_a_request_computes_each_regular_mask_once(capsys, monkeypatch, cmd, lattice, computed):
    import latdim.cocycles

    calls = []
    real = latdim.cocycles._regularity
    monkeypatch.setattr(latdim.cocycles, "_regularity",
                        lambda *args: calls.append(1) or real(*args))
    rc, _, _ = run(capsys, cmd, "--group", "Z16xZ16", "--cocycle", "weyl-heisenberg",
                   "--lattice", lattice)
    assert rc == 0
    assert len(calls) == computed


def test_construct_parseval(capsys):
    rc, out, _ = run(
        capsys,
        "construct",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--n", "1",
        "--d", "2",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "parseval ok"
    _, lo, hi = lines[1].split()
    assert float(lo) == pytest.approx(1.0, abs=1e-8)
    assert float(hi) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("base, d", [
    pytest.param("Z12", 1, id="Z12"),
    pytest.param("Z16", 1, id="Z16"),
    pytest.param("Z3", 3, id="Z3-d3"),  # d = |base|: an orthonormal basis
    pytest.param("Z3", 2, id="Z3-d2"),  # d < |base|: an overcomplete Parseval frame
])
def test_construct_full_lattice_of_large_groups(capsys, tmp_path, base, d):
    path = str(tmp_path / "gens.json")
    rc, out, _ = run(
        capsys,
        "construct",
        "--group", f"{base}x{base}",
        "--cocycle", "weyl-heisenberg",
        "--lattice", "full",
        "--n", "1",
        "--d", str(d),
        "--out", path,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "parseval ok"
    _, lo, hi = lines[1].split()
    assert float(lo) == pytest.approx(1.0, abs=1e-8)
    assert float(hi) == pytest.approx(1.0, abs=1e-8)
    rep = tf(base).rep
    gens = generators_from_json(load_json(path))
    assert gens.shape == (1, d, rep.dim)
    rpt = frame_report(multiwindow_system(rep, full_subgroup(rep.group), gens))
    assert rpt.is_riesz_basis == (d == rep.dim)


def test_construct_deterministic(capsys, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    args = (
        "construct",
        "--group", "Z3xZ3",
        "--cocycle", "weyl-heisenberg",
        "--n", "1",
        "--d", "2",
        "--seed", "4",
    )
    rc1, out1, _ = run(capsys, *args, "--out", a)
    rc2, out2, _ = run(capsys, *args, "--out", b)
    assert rc1 == rc2 == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    assert out1.splitlines()[:2] == out2.splitlines()[:2]


def test_construct_infeasible_exit_code(capsys):
    rc, _, err = run(
        capsys,
        "construct",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--lattice", "(1,0)",
        "--n", "1",
        "--d", "2",
    )
    assert rc == 2
    assert err.startswith("infeasible:")


def test_tuple_lattice_requires_builtin_route(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    dump_json(rep_to_json(tf("Z2").rep), path)
    rc, _, err = run(
        capsys, "phi", "--rep", path, "--lattice", "(1,0)"
    )
    assert rc == 1
    assert "coordinate tuples" in err


@pytest.mark.parametrize("command", [("phi",), ("decide", "--n", "1", "--d", "2")],
                         ids=lambda command: command[0])
def test_a_cocycle_without_a_rep_cuts_the_seeded_irrep(capsys, tmp_path, command):
    """Without --rep, a cocycle that is not Weyl-Heisenberg gives the irrep routes cuts."""
    g = symmetric_group(3)
    for seed in (0, 1, 2):
        path = str(tmp_path / f"rep{seed}.json")
        dump_json(rep_to_json(irreducible_subrep(g, trivial(g), seed=seed)), path)
        cut = run(capsys, *command, "--group", "S3", "--cocycle", "trivial", "--seed", str(seed))
        assert cut[0] == 0
        assert cut == run(capsys, *command, "--rep", path)


def test_decide_where_the_density_converse_fails(capsys):
    """Z2, full lattice: phi = [1/2, -1/2], so Phi has spectrum {0, 1} and dpi_vol = 1/2.

    At n/d = 1/2 the density predicate says basis, but neither a frame nor
    a Riesz sequence exists.
    """
    for seed in ("0", "1"):
        rc, out, _ = run(capsys, "decide", "--group", "Z2", "--cocycle", "trivial",
                         "--lattice", "full", "--n", "1", "--d", "2", "--seed", seed)
        assert (rc, out) == (0, "frame no\nriesz no\nbasis no\n")


def test_phi_blames_a_time_frequency_rep_failure_on_the_tolerance_flags(capsys):
    rc, out, err = run(capsys, "phi", "--group", "Z3xZ3", "--cocycle", "weyl-heisenberg",
                       "--tol-unit", "1e-20")
    assert (rc, out) == (1, "")
    assert err.startswith("error: time-frequency rep fails validation at the given "
                          "Tolerances(tol_unit=1e-20,")


def test_bad_group_token(capsys):
    rc, _, err = run(capsys, "kleppner", "--group", "Z4xW2")
    assert rc == 1
    assert err.startswith("error:")
    assert "neither builtin tokens nor an existing file" in err


@pytest.mark.parametrize("spec, err", [
    ("Z1000", "group order 1000 exceeds 256"),
    ("Z16xZ32", "group order 512 exceeds 256"),
    ("D300", "group order 600 exceeds 256"),
    ("Z2000xZ0", "group token 'Z0' needs n >= 1"),
])
def test_builtin_tokens_above_the_bound_are_refused_before_a_table_is_built(capsys, spec, err):
    rc, peak = traced_peak(main, ["kleppner", "--group", spec])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert peak < 256 * 1024


@pytest.mark.parametrize("spec", ["Z256", "Z16xZ16", "Z4xZ4xZ4xZ4", "S4xZ2xZ2"])
def test_builtin_tokens_up_to_the_bound_run(capsys, spec):
    rc, out, err = run(capsys, "kleppner", "--group", spec)
    assert (rc, err) == (0, "")
    assert out.startswith("kleppner no\n")


def test_lattice_index_out_of_range(capsys):
    rc, _, err = run(
        capsys,
        "phi",
        "--group", "Z2xZ2",
        "--cocycle", "weyl-heisenberg",
        "--lattice", "9",
    )
    assert rc == 1
    assert "out of range" in err


def test_config_file_with_cli_override(capsys, tmp_path):
    cfg = str(tmp_path / "run.json")
    dump_json(
        {"group": "Z2xZ2", "cocycle": "weyl-heisenberg", "n": 1, "d": 2}, cfg
    )
    rc, out, _ = run(capsys, "decide", "--config", cfg)
    assert rc == 0
    assert out == "frame yes\nriesz yes\nbasis yes\n"
    # explicit flag beats the file
    rc, out, _ = run(capsys, "decide", "--config", cfg, "--d", "1")
    assert rc == 0
    assert out == "frame yes\nriesz no\nbasis no\n"


def test_config_nulls_set_nothing(capsys, tmp_path):
    """A null, a plain key or a tolerance, leaves the default in place."""
    cfg = str(tmp_path / "run.json")
    dump_json({"group": "Z2xZ2", "cocycle": "weyl-heisenberg", "n": None,
               "tolerances": {"tol_id": None, "tol_psd": None}}, cfg)
    assert run(capsys, "decide", "--config", cfg) == run(capsys, "decide", *_WH)


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = str(tmp_path / "run.json")
    dump_json({"grp": "Z4"}, cfg)
    rc, _, err = run(capsys, "decide", "--config", cfg)
    assert rc == 1
    assert "unknown config keys" in err


def test_scan_then_audit_round_trip(capsys, tmp_path):
    csv_path = str(tmp_path / "scan.csv")
    rc, out, _ = run(
        capsys,
        "gabor-scan",
        "--base", "Z3",
        "--nmax", "2",
        "--dmax", "2",
        "--out", csv_path,
    )
    assert rc == 0
    lines = out.splitlines()
    n_rows = int(lines[0].split()[1])
    n_lattices = int(lines[1].split()[1])
    assert n_rows == n_lattices * 4
    assert lines[2] == f"wrote {csv_path}"

    rc, out, _ = run(capsys, "density-audit", "--in", csv_path)
    assert rc == 0
    assert out.endswith(f"rows {n_rows}\nviolations 0\n")


def test_gabor_scan_csv_bytes_are_pinned(capsys, tmp_path):
    """Existing scan CSVs stay byte-identical from one change to the next."""
    csv_path = tmp_path / "scan.csv"
    rc, out, _ = run(capsys, "gabor-scan", "--base", "Z2xZ4", "--out", str(csv_path))
    assert rc == 0
    assert out.startswith("rows 2241\nlattices 249\n")
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == (
        "e0a9bc31887de3fb59958dde6bbacb9dad03110a2d925d84ab87ac4d09a1ead1"
    )


def test_gabor_scan_decides_at_the_tolerance_flags(capsys, tmp_path):
    """At tol_psd 10 every cell passes both tests, which the closed form refuses."""
    loose = tmp_path / "loose.csv"
    rc, out, err = run(capsys, "gabor-scan", "--base", "Z2xZ4", "--out", str(loose),
                       "--tol-psd", "10")
    assert (rc, out) == (1, "")
    assert err.startswith("error: decision disagrees with closed form")
    assert not loose.exists()
    at_defaults = tmp_path / "defaults.csv"
    rc, _, _ = run(capsys, "gabor-scan", "--base", "Z2xZ4", "--out", str(at_defaults),
                   "--tol-unit", "1e-9", "--tol-id", "1e-9", "--tol-psd", "1e-9",
                   "--tol-frame", "1e-8")
    assert rc == 0
    assert hashlib.sha256(at_defaults.read_bytes()).hexdigest() == (
        "e0a9bc31887de3fb59958dde6bbacb9dad03110a2d925d84ab87ac4d09a1ead1"
    )


def test_audit_flags_doctored_csv(capsys, tmp_path):
    csv_path = str(tmp_path / "scan.csv")
    run(
        capsys,
        "gabor-scan",
        "--base", "Z2",
        "--nmax", "1",
        "--dmax", "2",
        "--out", csv_path,
    )
    lines = open(csv_path).read().splitlines()
    doctored = [lines[0]]
    flipped = False
    for ln in lines[1:]:
        if not flipped and ln.endswith("no,yes,no"):
            ln = ln[: -len("no,yes,no")] + "yes,yes,yes"
            flipped = True
        doctored.append(ln)
    assert flipped
    with open(csv_path, "w") as fh:
        fh.write("\n".join(doctored) + "\n")
    rc, out, _ = run(capsys, "density-audit", "--in", csv_path)
    assert rc == 1
    assert "violation:" in out


@pytest.mark.parametrize("tail", [
    pytest.param("2,maybe,maybe,maybe", id="verdict-maybe"),
    pytest.param("inf,no,no,no", id="dpi-vol-inf"),
    pytest.param("nan,no,no,no", id="dpi-vol-nan"),
])
def test_audit_rejects_unreadable_values(capsys, tmp_path, tail):
    csv_path = tmp_path / "scan.csv"
    csv_path.write_text(",".join(SCAN_COLUMNS) + f"\nZ2,Z2xZ2,wh,4,1,1,{tail}\n")
    rc, out, err = run(capsys, "density-audit", "--in", str(csv_path))
    assert rc == 1
    assert err.startswith("error:") and "line 2" in err
    assert "violations" not in out


def test_gabor_scan_requires_base_and_out(capsys, tmp_path):
    rc, _, err = run(capsys, "gabor-scan", "--out", str(tmp_path / "x.csv"))
    assert rc == 1 and "--base" in err
    rc, _, err = run(capsys, "gabor-scan", "--base", "Z2")
    assert rc == 1 and "--out" in err


def test_rep_validate(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    dump_json(rep_to_json(tf("Z2").rep), path)
    rc, out, _ = run(capsys, "rep-validate", "--rep", path)
    assert rc == 0
    assert out.startswith("rep ok\n")

    data = load_json(path)
    data["matrices"][1][0][0] = [5.0, 0.0]
    dump_json(data, path)
    rc, out, _ = run(capsys, "rep-validate", "--rep", path)
    assert rc == 1
    assert out.startswith("rep invalid\n")


def test_rep_dpi(capsys):
    rc, out, _ = run(
        capsys, "rep-dpi", "--group", "Z3xZ3", "--cocycle", "weyl-heisenberg"
    )
    assert rc == 0
    assert out == "dim 3\ngroup-order 9\nformal-dimension 0.333333333333\n"


@pytest.mark.parametrize("seed", [-3, 2])
def test_rep_dpi_cuts_with_seed_0_whatever_the_config_says(capsys, tmp_path, monkeypatch, seed):
    """rep-dpi takes no --seed, so a config file's seed does not reach it."""
    cfg = str(tmp_path / "run.json")
    dump_json({"group": "S3", "cocycle": "trivial", "seed": seed}, cfg)
    seeds = []
    cut = latdim.cli.irreducible_subrep
    monkeypatch.setattr(latdim.cli, "irreducible_subrep",
                        lambda *args, seed, **kw: seeds.append(seed) or cut(*args, seed=seed, **kw))
    got = run(capsys, "rep-dpi", "--config", cfg)
    assert got == run(capsys, "rep-dpi", "--group", "S3", "--cocycle", "trivial")
    assert got[0] == 0
    assert seeds == [0, 0]


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "latdim.cli", "kleppner",
         "--group", "Z2xZ2", "--cocycle", "weyl-heisenberg"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "kleppner yes\nregular-elements 1 of 4\n"


_WH = ("--group", "Z2xZ2", "--cocycle", "weyl-heisenberg")


@pytest.mark.parametrize("argv, config", [
    pytest.param(("decide", *_WH, "--d", "0"), None, id="decide-d-0"),
    pytest.param(("decide", *_WH, "--n", "-1"), None, id="decide-n-negative"),
    pytest.param(("decide", *_WH), {"n": 0}, id="config-n-0"),
    pytest.param(("construct", *_WH, "--seed", "-1"), None, id="construct-seed-negative"),
    pytest.param(("construct", *_WH), {"seed": -3}, id="config-seed-negative"),
    pytest.param(("gabor-scan", "--base", "Z2", "--nmax", "0"), None, id="scan-nmax-0"),
    pytest.param(("gabor-scan", "--base", "Z2"), {"dmax": 0}, id="config-dmax-0"),
    pytest.param(("density-audit",), None, id="audit-row-d-0"),
    pytest.param(("decide", *_WH), {"n": 1.5}, id="config-n-float"),
    pytest.param(("decide", *_WH), {"d": True}, id="config-d-bool"),
    pytest.param(("gabor-scan", "--base", "Z2"), {"construct": "false"}, id="config-construct-string"),
    pytest.param(("decide", *_WH), ["group"], id="config-array"),
    pytest.param(("decide", *_WH), {"tolerances": {"tol_id": True}}, id="config-tol-bool"),
    pytest.param(("decide", *_WH), {"tolerances": {"tol_id": "1e-6"}}, id="config-tol-string"),
])
def test_bad_counts_are_rejected(capsys, tmp_path, argv, config):
    argv = list(argv)
    if argv[0] == "gabor-scan":
        argv += ["--out", str(tmp_path / "scan.csv")]
    if argv[0] == "density-audit":
        csv_path = tmp_path / "scan.csv"
        csv_path.write_text(
            ",".join(SCAN_COLUMNS) + "\nZ2,Z2xZ2,wh,4,1,0,0.5,yes,no,no\n"
        )
        argv += ["--in", str(csv_path)]
    if config is not None:
        cfg = str(tmp_path / "run.json")
        dump_json(config, cfg)
        argv += ["--config", cfg]
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, config", [
    pytest.param(("--tol-psd", "-1"), None, id="tol-psd-negative"),
    pytest.param(("--tol-psd", "inf", "--n", "1", "--d", "3"), None, id="tol-psd-inf"),
    pytest.param(("--tol-id", "nan"), None, id="tol-id-nan"),
    pytest.param((), {"tolerances": {"tol_id": -1}}, id="config-tol-id-negative"),
])
def test_tolerances_outside_their_domain_exit_1_with_one_error_line(capsys, tmp_path,
                                                                    argv, config):
    """Each tolerance is finite and non-negative; at Z2xZ2 these used to decide wrongly."""
    if config is not None:
        cfg = str(tmp_path / "run.json")
        dump_json(config, cfg)
        argv += ("--config", cfg)
    rc, out, err = run(capsys, "decide", *_WH, *argv)
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: tol_") and "must be finite and non-negative" in err


def test_cocycle_only_subcommands_build_no_rep(capsys, monkeypatch):
    """kleppner, cvt and validate-cocycle read the Weyl-Heisenberg cocycle alone."""
    import latdim.cli
    import latdim.reps

    argv = ("--group", "Z4xZ4", "--cocycle", "weyl-heisenberg")
    commands = ("kleppner", "cvt", "validate-cocycle")
    unpatched = [run(capsys, command, *argv) for command in commands]
    monkeypatch.setattr(latdim.cli, "build_tf", lambda *a, **k: pytest.fail("built a rep"))
    monkeypatch.setattr(latdim.reps, "validate_rep", lambda *a: pytest.fail("validated a rep"))
    got = [run(capsys, command, *argv) for command in commands]
    assert got == unpatched
    (rc, kleppner, _), (_, cvt, _), (_, cocycle, _) = got
    assert (rc, kleppner) == (0, "kleppner yes\nregular-elements 1 of 16\n")
    assert hashlib.sha256(cvt.encode()).hexdigest() == (
        "0896c05ded4e6e64a7dbab00ba86344e20bb1fda5f523ff6220348f1c898205d"
    )
    lines = cocycle.splitlines()
    assert lines[:2] + lines[3:] == ["cocycle ok", "unit-residual 0", "normalization-residual 0"]
    assert float(lines[2].removeprefix("identity-residual ")) < 1e-15


def test_counts_are_range_checked_only_where_read(capsys, tmp_path):
    # one config file shared by decide, which never reads nmax, and gabor-scan
    cfg = str(tmp_path / "run.json")
    dump_json({"nmax": 0, "group": "Z2xZ2", "cocycle": "weyl-heisenberg"}, cfg)
    rc, out, err = run(capsys, "decide", "--config", cfg)
    assert (rc, err) == (0, "")
    assert out.startswith("frame ")
    rc, _, err = run(capsys, "gabor-scan", "--base", "Z2", "--out", str(tmp_path / "s.csv"),
                     "--config", cfg)
    assert rc == 1
    assert err == "error: nmax must be at least 1, got 0\n"


@pytest.mark.parametrize("command", ["validate-cocycle", "rep-validate"])
def test_ragged_complex_pairs_are_rejected(capsys, tmp_path, command):
    path = str(tmp_path / "in.json")
    data = rep_to_json(tf("Z2").rep)
    if command == "validate-cocycle":
        data = data["cocycle"]
        data["table"][0][0] = [1.0]
        flag = "--cocycle"
    else:
        data["matrices"][0][0][0] = [1.0]
        flag = "--rep"
    dump_json(data, path)
    rc, _, err = run(capsys, command, flag, path)
    assert rc == 1
    assert "[re, im] pairs" in err


def test_nan_rep_is_rejected(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    data = rep_to_json(tf("Z2").rep)
    data["matrices"][1][0][0] = [float("nan"), 0.0]
    dump_json(data, path)
    rc, out, _ = run(capsys, "rep-validate", "--rep", path)
    assert rc == 1
    assert out.startswith("rep invalid\n")
    assert "not unitary" in out
    rc, _, err = run(capsys, "decide", "--rep", path)
    assert rc == 1
    assert err.startswith("error:")


def _refused_once(capsys, *argv):
    rc, _, err = run(capsys, *argv)
    assert rc == 1
    assert err.startswith("error:") and err.count("error:") == 1, err
    return err


def test_a_fractional_cayley_entry_is_refused(capsys, tmp_path):
    data = cocycle_to_json(tf("Z2").cocycle)
    data["group"]["cayley"][2][1] += 0.7  # a cast to int64 gives back the valid table
    path = str(tmp_path / "frac.json")
    dump_json(data, path)
    err = _refused_once(capsys, "validate-cocycle", "--cocycle", path)
    assert "every Cayley entry must be an integer" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("what", ["cocycle", "rep"])
def test_an_infinite_entry_is_refused_before_any_arithmetic(capsys, tmp_path, what):
    path = str(tmp_path / "inf.json")
    if what == "cocycle":
        data = cocycle_to_json(trivial(symmetric_group(3)))
        data["table"][2][3] = [float("inf"), 0.0]
        dump_json(data, path)
        err = _refused_once(capsys, "validate-cocycle", "--cocycle", path)
    else:
        data = rep_to_json(tf("Z2").rep)
        data["matrices"][1][0][0] = [0.0, -float("inf")]
        dump_json(data, path)
        err = _refused_once(capsys, "rep-validate", "--rep", path)
    assert err == "error: complex data holds an infinite number\n"


def test_a_rep_dim_header_that_disagrees_with_the_matrices_is_refused(capsys, tmp_path):
    data = rep_to_json(tf("Z2").rep)
    data["dim"] = 7
    path = str(tmp_path / "rep.json")
    dump_json(data, path)
    err = _refused_once(capsys, "rep-validate", "--rep", path)
    assert err == "error: rep matrices are 2 x 2, header says dim 7\n"


@pytest.mark.parametrize("argv, order", [
    (("gabor-scan", "--base", "Z32"), 32),
    (("kleppner", "--group", "Z17xZ17", "--cocycle", "weyl-heisenberg"), 17),
])
def test_a_time_frequency_base_above_tf_base_is_refused(capsys, tmp_path, argv, order):
    out = tmp_path / "F.csv"
    if argv[0] == "gabor-scan":
        argv += ("--out", str(out))
    rc, peak = traced_peak(main, list(argv))
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: base order {order} exceeds {TF_BASE}; the product group would be too large\n")
    assert peak < 256 * 1024
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(("decide", *_WH, "--config"), id="config"),
    pytest.param(("validate-cocycle", "--cocycle"), id="cocycle"),
    pytest.param(("rep-validate", "--rep"), id="rep"),
    pytest.param(("kleppner", "--group"), id="group-file"),
    pytest.param(("density-audit", "--in"), id="in"),
])
def test_non_utf8_files_are_rejected(capsys, tmp_path, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes("order 1\n0\n{\"caf\u00e9\": 1}\n".encode("latin-1"))
    rc, _, err = run(capsys, *argv, str(path))
    assert rc == 1
    assert err.startswith("error:")


def test_tolerances_reach_validate_cocycle(capsys, tmp_path):
    data = cocycle_to_json(tf("Z2").cocycle)
    data["table"][1][2] = [v * (1 + 1e-6) for v in data["table"][1][2]]
    path = str(tmp_path / "coc.json")
    dump_json(data, path)
    rc, out, _ = run(capsys, "validate-cocycle", "--cocycle", path)
    assert rc == 1
    assert out.startswith("cocycle invalid\n")
    cfg = str(tmp_path / "run.json")
    dump_json({"tolerances": {"tol_unit": 1e-5, "tol_id": 1e-5}}, cfg)
    for loose in (("--tol-unit", "1e-5", "--tol-id", "1e-5"), ("--config", cfg)):
        rc, out, _ = run(capsys, "validate-cocycle", "--cocycle", path, *loose)
        assert rc == 0
        assert out.startswith("cocycle ok\n")
        # every command that loads the file validates it at the same tolerances
        rc, out, _ = run(capsys, "kleppner", "--cocycle", path, *loose)
        assert rc == 0
    rc, _, err = run(capsys, "kleppner", "--cocycle", path)
    assert rc == 1
    assert "cocycle table invalid" in err


def _worst_gap(out):
    last = out.splitlines()[-1]
    assert last.startswith("worst formula/embedding gap ")
    return float(last.split()[-1])


@pytest.mark.parametrize("argv", [
    pytest.param(("--group", "S3"), id="S3"),
    pytest.param(("--group", "Z2xZ2", "--cocycle", "weyl-heisenberg"), id="wh-Z2"),
    pytest.param(("--seed", "3"), id="cocycle-file"),
])
def test_routes_agree(capsys, tmp_path, argv):
    if "--group" not in argv:
        path = str(tmp_path / "cocycle.json")
        dump_json(cocycle_to_json(pauli_product()[1]), path)
        argv = (*argv, "--cocycle", path)
    rc, out, _ = run(capsys, "routes", *argv)
    assert rc == 0
    assert out.startswith("group ")
    assert _worst_gap(out) < 1e-12


def _masked(out):
    return re.sub(r"gap [^ ]+", "gap -", out).splitlines()


def _reference_routes(rep, seed):
    """The lines of routes, one spec and one regularity report of the restriction per lattice."""
    g = rep.group
    source = windowed_rep(rep, random_window(rep.dim, seed))
    lines = [f"group {g.label}, order {g.order}, irrep dim {rep.dim}"]
    for sub in all_subgroups(g):
        spec = source.spec(sub)
        closed = phi(spec)
        assert np.abs(closed.values - phi_oracle(spec).values).max() < 1e-12
        regular = regularity(restrict(rep.cocycle, sub), rep.tol).regular_elements
        vals = " ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in closed.values.tolist())
        lines.append(f"|lattice| {sub.order:3d}  dpi_vol {spec.dpi_vol:8.4f}  "
                     f"regular {int(regular.sum()):3d}  gap -  phi [{vals}]")
    return lines + ["worst formula/embedding gap -"]


@pytest.mark.parametrize("name, seed", [("S3", 0), ("D4xZ2xZ2", 3), ("lifted-pauli", 0)])
def test_routes_prints_the_lines_of_a_per_lattice_loop(capsys, tmp_path, name, seed):
    if name == "lifted-pauli":
        path = str(tmp_path / "cocycle.json")
        dump_json(cocycle_to_json(pauli_product()[1]), path)
        argv, coc = ("--cocycle", path), cocycle_from_json(load_json(path))
    else:
        argv, coc = ("--group", name), trivial(group(name))
    rc, out, _ = run(capsys, "routes", *argv, "--seed", str(seed))
    assert rc == 0
    assert _masked(out) == _reference_routes(irreducible_subrep(coc.group, coc, seed=seed), seed)


def test_routes_builds_no_subgroup_and_no_spec(capsys, monkeypatch):
    built = []
    for cls in (Subgroup, ModuleSpec):
        def counted(self, *args, real=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    rc, out, _ = run(capsys, "routes", "--group", "D4xZ2xZ2", "--seed", "3")
    assert rc == 0
    assert sum(line.startswith("|lattice|") for line in out.splitlines()) == 158
    assert built == []


def test_routes_names_the_rep_group_on_every_path(capsys, tmp_path):
    path = str(tmp_path / "rep.json")
    dump_json(rep_to_json(tf("Z2").rep), path)
    built = run(capsys, "routes", *_WH)
    from_file = run(capsys, "routes", "--rep", path)
    assert built[0] == from_file[0] == 0
    assert built[1].splitlines()[0] == from_file[1].splitlines()[0]
    assert built[1].startswith("group Z2xZ2^, order 4, irrep dim 2\n")


@pytest.mark.parametrize("shift", [1e-16, -1e-16])
def test_routes_digits_hold_under_a_last_bit_move_at_a_tie(capsys, monkeypatch, shift):
    # on the full lattice of Z32, phi(e) = 1/32 = 0.03125 is a tie of the 4th decimal
    rc, want, _ = run(capsys, "routes", "--group", "Z32")
    assert rc == 0 and "phi [+0.0312+0.0000j " in want
    real = latdim.cli.phi_values

    def moved(*args):
        values = real(*args)
        values.real[np.abs(values.real) > 1e-3] += shift  # zeros keep their sign
        return values

    monkeypatch.setattr("latdim.cli.phi_values", moved)
    rc, out, _ = run(capsys, "routes", "--group", "Z32")
    assert rc == 0
    assert _masked(out) == _masked(want)


def test_routes_exit_1_when_the_routes_disagree(capsys, monkeypatch):
    def perturbed(*args):
        values = phi_oracle_values(*args)
        values[:, 0] += 1e-6
        return values

    monkeypatch.setattr("latdim.cli.phi_oracle_values", perturbed)
    rc, out, _ = run(capsys, "routes", "--group", "S3")
    assert rc == 1
    assert _worst_gap(out) == pytest.approx(1e-6, rel=1e-3)


def test_routes_exit_1_on_a_nan_gap(capsys, monkeypatch):
    def poisoned(*args):
        values = phi_oracle_values(*args)
        values[:, 0] = np.nan
        return values

    monkeypatch.setattr("latdim.cli.phi_oracle_values", poisoned)
    rc, out, _ = run(capsys, "routes", "--group", "S3")
    assert rc == 1
    assert np.isnan(_worst_gap(out))


def _rotated_rep_file(tmp_path):
    """The Z4 time-frequency rep with pi(1) rotated by the phase e^{1e-7 i}."""
    rep = tf("Z4").rep
    data = rep_to_json(rep)
    mats = rep.matrices.copy()
    mats[1] *= np.exp(1e-7j)
    data["matrices"] = np.stack([mats.real, mats.imag], axis=-1).tolist()
    path = str(tmp_path / "rotated.json")
    dump_json(data, path)
    return path


def test_tol_id_reaches_rep_validate_and_decide_alike(capsys, tmp_path, monkeypatch):
    import latdim.reps

    path = _rotated_rep_file(tmp_path)
    calls = []
    real = latdim.reps.validate_rep
    monkeypatch.setattr(latdim.reps, "validate_rep",
                        lambda rep, *args: calls.append(1) or real(rep, *args))
    decide = ("decide", "--rep", path, "--lattice", "full")
    for loose in ((), ("--tol-id", "1e-6")):
        want = 0 if loose else 1
        rc, out, _ = run(capsys, "rep-validate", "--rep", path, *loose)
        assert rc == want
        assert "composition-residual 2e-07\n" in out
        del calls[:]
        rc, _, err = run(capsys, *decide, *loose)
        assert rc == want
        assert len(calls) == 1
        assert ("composition law fails at (1, 1)" in err) == (not loose)


def test_parser_is_reused_without_leaking_state(capsys, tmp_path):
    from latdim.cli import _build_parser

    cfg = str(tmp_path / "run.json")
    dump_json({"group": "Z2xZ2", "cocycle": "weyl-heisenberg", "lattice": "trivial",
               "n": 2, "tolerances": {"tol_id": 1e-6}}, cfg)
    rotated = _rotated_rep_file(tmp_path)
    calls = [
        ("decide", "--rep", rotated, "--lattice", "full", "--tol-id", "1e-6"),
        ("decide", "--rep", rotated, "--lattice", "full"),
        ("decide", "--config", cfg),
        ("decide", "--group", "Z2xZ2", "--cocycle", "weyl-heisenberg", "--lattice", "trivial"),
        ("rep-validate", "--rep", rotated, "--config", cfg),
        ("rep-validate", "--rep", rotated),
        ("kleppner", "--group", "Z4xZ4", "--cocycle", "weyl-heisenberg"),
        ("kleppner", "--group", "Z4xZ4"),
        ("phi", "--group", "Z2xZ2", "--cocycle", "weyl-heisenberg", "--lattice", "trivial"),
        ("phi", "--group", "Z2xZ2", "--cocycle", "weyl-heisenberg"),
    ]
    assert _build_parser() is _build_parser()
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [0, 1, 0, 0, 0, 1, 0, 0, 0, 0]
    assert reused[2][1] != reused[3][1]  # n = 2 from the config, then n = 1
    assert reused[6][1].startswith("kleppner yes") and reused[7][1].startswith("kleppner no")


def _near_rep_file(tmp_path):
    path = str(tmp_path / "near.json")
    dump_json(rep_to_json(near_rep()), path)
    return path


def test_failed_internal_check_exits_1_without_a_traceback(tmp_path):
    """A ConsistencyError from the wavelet check is one error line, not a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "latdim.cli", "routes", "--rep", _near_rep_file(tmp_path),
         "--tol-id", "1e-6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: wavelet intertwining residual is ")


def test_decide_regular_mask_follows_tol_id(capsys, tmp_path):
    """At tol_id 1e-6 every element is regular, and phi is not Hermitian to 1e-9."""
    path = _near_rep_file(tmp_path)
    rc, out, err = run(capsys, "decide", "--rep", path, "--lattice", "full",
                       "--n", "1", "--d", "2", "--tol-id", "1e-6")
    assert (rc, out) == (1, "")
    assert err.startswith("error: convolution operator asymmetry is ")


# What each subcommand accepts besides --config (and -h), written out
# independently of the parser's own tables.
_ACCEPTED_FLAGS = {
    "validate-cocycle": "--group --cocycle --tol-unit --tol-id",
    "kleppner": "--group --cocycle --tol-unit --tol-id",
    "cvt": "--group --cocycle --out --tol-unit --tol-id",
    "phi": "--group --cocycle --rep --lattice --seed --out --tol-unit --tol-id",
    "decide": "--group --cocycle --rep --lattice --out --n --d --seed --tol-unit --tol-id "
              "--tol-psd",
    "construct": "--group --cocycle --rep --lattice --out --n --d --tol-unit --tol-id "
                 "--tol-psd --seed --tol-frame",
    "routes": "--group --cocycle --rep --seed --tol-unit --tol-id",
    "gabor-scan": "--base --nmax --dmax --construct --seed --out --tol-unit --tol-id "
                  "--tol-psd --tol-frame",
    "density-audit": "--in",
    "rep-validate": "--rep --tol-unit --tol-id",
    "rep-dpi": "--group --cocycle --rep --tol-unit --tol-id",
}


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    from latdim.cli import _build_parser

    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    want = {name: {"--config", *flags.split()} for name, flags in _ACCEPTED_FLAGS.items()}
    assert got == want
    assert sum(map(len, got.values())) == 80


@pytest.mark.parametrize("argv", [
    ("routes", "--group", "Z2xZ2", "--out", "OUT"),
    ("gabor-scan", "--base", "Z2", "--out", "OUT", "--lattice", "full"),
    ("density-audit", "--in", "CSV", "--seed", "1"),
    ("rep-validate", "--rep", "REP", "--lattice", "full"),
    ("rep-dpi", *_WH, "--lattice", "full"),
    ("decide", *_WH, "--tol-frame", "1e-3"),
    ("phi", *_WH, "--tol-frame", "1e-3"),
    ("cvt", *_WH, "--seed", "1"),
    ("kleppner", *_WH, "--out", "OUT"),
    ("validate-cocycle", *_WH, "--tol-psd", "1e-3"),
    ("decide", *_WH, "--nn", "1"),
    ("decide", *_WH, "--n", "abc"),
    ("decide", *_WH, "--lattice", ""),
    ("decide", *_WH, "--lattice", "(1,0),,"),
    (),
], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]) or "no-command")
def test_bad_command_lines_exit_1_with_one_error_line(capsys, tmp_path, argv):
    """A flag the subcommand never reads, a misspelt flag, a bad value, no subcommand."""
    files = {"OUT": str(tmp_path / "out"), "CSV": str(tmp_path / "scan.csv"),
             "REP": str(tmp_path / "rep.json")}
    dump_json(rep_to_json(tf("Z2").rep), files["REP"])
    assert run(capsys, "gabor-scan", "--base", "Z2", "--out", files["CSV"])[0] == 0
    rc, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert not os.path.exists(files["OUT"])


@pytest.mark.parametrize("argv, refusal", [
    pytest.param(("gabor-scan", "--base", "Z2", "--nmax", "1000000", "--dmax", "1000000"),
                 f"exceed the scan bound of {SCAN_CELLS}", id="scan"),
    pytest.param(("construct", *_WH, "--n", "100000", "--d", "100000"),
                 f"exceeds {SYSTEM_ENTRIES} entries", id="construct"),
])
def test_oversized_counts_exit_1_with_one_error_line(capsys, tmp_path, argv, refusal):
    """Counts whose arrays could not be allocated are refused before the allocation."""
    out_path = tmp_path / "out"
    rc, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (rc, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and refusal in err
    assert not out_path.exists()


_TOLS = [pytest.param((), id="defaults"), pytest.param(("--tol-id", "3"), id="tol-id-3")]


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("command", [
    ("phi",), ("decide", "--n", "1", "--d", "2"), ("construct", "--n", "1", "--d", "1"),
    ("rep-dpi",), ("routes",),
], ids=lambda command: command[0])
def test_built_in_and_file_reps_agree(capsys, tmp_path, command, tol):
    """The built-in Weyl-Heisenberg rep and the same rep from a file read one set of tolerances.

    At tol_id 3 every element is regular.  Both runs pass --group, which the
    file run checks against the rep's table.
    """
    path = str(tmp_path / "rep.json")
    dump_json(rep_to_json(tf("Z2").rep), path)
    built = run(capsys, *command, *_WH, *tol)
    assert built[0] == 0
    assert built == run(capsys, *command, "--group", "Z2xZ2", "--rep", path, *tol)


def test_tol_id_governs_the_rep_and_kleppner_reports_at_it(capsys):
    """build_tf checks its own twist's Kleppner condition at the defaults, not at --tol-id.

    At tol_id 2.5 every element of Z2xZ2 Weyl-Heisenberg passes as regular, so
    ``kleppner`` says no, while every verdict on the full lattice still matches
    the exact density predicate: frame iff n |lattice| >= d |base|, riesz iff <=.
    """
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            rc, out, _ = run(capsys, "decide", *_WH, "--lattice", "full", "--n", str(n),
                             "--d", str(d), "--tol-id", "2.5")
            frame, riesz = 4 * n >= 2 * d, 4 * n <= 2 * d  # |lattice| = 4, |base| = 2
            yes = {True: "yes", False: "no"}
            want = f"frame {yes[frame]}\nriesz {yes[riesz]}\nbasis {yes[frame and riesz]}\n"
            assert (rc, out) == (0, want), (n, d)
    rc, out, _ = run(capsys, "kleppner", *_WH, "--tol-id", "2.5")
    assert (rc, out) == (0, "kleppner no\nregular-elements 4 of 4\n")


@pytest.mark.parametrize("tol", _TOLS)
def test_routes_on_a_cocycle_file_agrees_with_its_cut_rep_from_a_file(capsys, tmp_path, tol):
    t = tf("Z2")
    coc, rep = str(tmp_path / "cocycle.json"), str(tmp_path / "rep.json")
    dump_json(cocycle_to_json(t.cocycle), coc)
    dump_json(rep_to_json(irreducible_subrep(t.group, t.cocycle, seed=2)), rep)
    cut = run(capsys, "routes", "--cocycle", coc, "--seed", "2", *tol)
    assert cut[0] == 0
    assert cut == run(capsys, "routes", "--rep", rep, "--seed", "2", *tol)


def test_help_exits_0(capsys):
    for argv in (["--help"], ["decide", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--tol-psd" in capsys.readouterr().out


@pytest.mark.parametrize("tol_id", ["1e-6", "1e-2"])
def test_cvt_regular_mask_follows_tol_id(capsys, tmp_path, tol_id):
    """cvt keeps the rows of exactly the elements kleppner counts regular."""
    path = str(tmp_path / "near-cocycle.json")
    dump_json(cocycle_to_json(near_rep().cocycle), path)
    rc, out, _ = run(capsys, "kleppner", "--cocycle", path, "--tol-id", tol_id)
    assert rc == 0
    regular = int(out.split("regular-elements ")[1].split()[0])
    assert regular == 16
    rc, out, _ = run(capsys, "cvt", "--cocycle", path, "--tol-id", tol_id)
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert sum(bool(np.any(r["coeffs"])) for r in rows) == regular
