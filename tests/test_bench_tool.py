"""tools/bench.py: its records match its schema, and its check refuses what does not."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _record(**changes):
    record = {"row": "decide-z16", "label": "change", "checkout": "x", "path_len": 2,
              "commit": "abc1234",
              "run": 0, "argv": ["-m", "latdim.cli"], "exit": 0, "expected_exit": 0, "ok": True,
              "wall_s": 0.2, "maxrss_mb": 33.7, "src_lines": 3500, "nproc": 2,
              "python": "3.11.7", "numpy": "2.4.6", "unix_time": 1.0}
    record.update(changes)
    return json.dumps({k: v for k, v in record.items() if v is not None})


def test_a_well_formed_record_passes():
    assert bench.check_line(_record())["row"] == "decide-z16"
    assert bench.check_line(_record(wall_s=1))["wall_s"] == 1  # a JSON integer is a number


@pytest.mark.parametrize("changes, why", [
    ({"nproc": None}, "keys"),
    ({"extra": 1}, "keys"),
    ({"run": True}, "run is True"),
    ({"wall_s": "0.2"}, "wall_s is '0.2'"),
    ({"ok": 1}, "ok is 1"),
    ({"row": "nope"}, "unknown row"),
    ({"exit": 1}, "ok disagrees"),
])
def test_a_malformed_record_is_refused(changes, why):
    with pytest.raises(ValueError, match=why):
        bench.check_line(_record(**changes))


def test_a_run_writes_checked_lines_and_the_check_names_a_bad_one(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert bench.main(["--rows", "decide-z16", "--out", str(out)]) == 0
    (line,) = out.read_text().splitlines()
    record = bench.check_line(line)
    assert record["ok"] and record["maxrss_mb"] > 0 and record["src_lines"] > 0
    assert bench.main(["--check", str(out)]) == 0
    out.write_text(line + "\n" + _record(nproc="2") + "\n")
    assert bench.main(["--check", str(out)]) == 1
    assert "line 2: nproc is '2'" in capsys.readouterr().err


def test_the_report_compares_with_the_first_checkout_and_an_earlier_file(tmp_path):
    runs = [json.loads(_record(row=row, label=label, wall_s=wall))
            for row, label, wall in (("decide-z16", "parent", 0.4), ("decide-z16", "change", 0.2),
                                     ("scan-z2z8", "parent", 0.8), ("scan-z2z8", "change", 0.8),
                                     ("decide-z16", "parent", 0.6), ("decide-z16", "change", 0.3))]
    before = [json.loads(_record(label="change", wall_s=1.0))]
    lines = bench.report(runs, ["parent", "change"], before)
    assert [line.split()[:4] for line in lines] == [
        ["decide-z16", "parent", "median", "0.500"], ["decide-z16", "change", "median", "0.250"],
        ["scan-z2z8", "parent", "median", "0.800"], ["scan-z2z8", "change", "median", "0.800"]]
    assert lines[1].endswith("x0.500 of parent  x0.250 of earlier")
    assert lines[3].endswith("x1.000 of parent")
    (tmp_path / "BENCH_7.json").write_text("")
    (tmp_path / "BENCH_9.json").write_text("")
    assert bench._earlier(tmp_path / "BENCH_9.json").name == "BENCH_7.json"
    assert bench._earlier(tmp_path / "BENCH_7.json") is None
    assert bench._earlier(tmp_path / "other.json").name == "BENCH_9.json"
