import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from latdim import frame_report, full_subgroup, multiwindow_system, phi_oracle
from latdim.cli import main
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

from fixtures_common import pauli_product, tf


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


def test_phi_needs_a_representation(capsys):
    rc, _, err = run(capsys, "phi", "--group", "Z4", "--cocycle", "trivial")
    assert rc == 1
    assert "needs a representation" in err


def test_bad_group_token(capsys):
    rc, _, err = run(capsys, "kleppner", "--group", "Z4xW2")
    assert rc == 1
    assert err.startswith("error:")
    assert "neither builtin tokens nor an existing file" in err


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


def test_routes_exit_1_when_the_routes_disagree(capsys, monkeypatch):
    def perturbed(spec):
        fn = phi_oracle(spec)
        values = fn.values.copy()
        values[0] += 1e-6
        return dataclasses.replace(fn, values=values)

    monkeypatch.setattr("latdim.cli.phi_oracle", perturbed)
    rc, out, _ = run(capsys, "routes", "--group", "S3")
    assert rc == 1
    assert _worst_gap(out) == pytest.approx(1e-6, rel=1e-3)


def test_routes_exit_1_on_a_nan_gap(capsys, monkeypatch):
    def poisoned(spec):
        fn = phi_oracle(spec)
        values = fn.values.copy()
        values[0] = np.nan
        return dataclasses.replace(fn, values=values)

    monkeypatch.setattr("latdim.cli.phi_oracle", poisoned)
    rc, out, _ = run(capsys, "routes", "--group", "S3")
    assert rc == 1
    assert np.isnan(_worst_gap(out))
