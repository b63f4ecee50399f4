"""Smoke tests of the benchmark itself, at a tiny size.

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import metric_names, rebound

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _names_units(entries):
    return {e["name"]: e["unit"] for e in entries}


def _tiny(workload, trace=False, inject=None):
    return run.run(workload, seed=3, seconds=0, trace=trace, size="tiny", inject=inject)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_complete(workload):
    result, info = _tiny(workload)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == info["requests"] > run.TAIL_BEYOND
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["environment"]["blas_threads"] == run.BLAS_THREADS
    assert 0 < info["tail_percentile"] < 100
    speed = info["speed"]
    assert all(x > 0 for x in [speed["pass_scale"]] + speed["setup_scales"])
    assert set(speed["unscaled"]) == set(got) - {"peak_rss_mb"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, _ = _tiny(workload, trace=True)
    assert result["correct"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _names_units(SPEC["per_layer"]) == dict(metric_names())


def _perturbed(module, func, change):
    """Inject a wrong result: every binding of latdim.<module>.<func> returns change(result)."""

    def inject(L):
        orig = getattr(sys.modules[f"latdim.{module}"], func)

        def wrong(*args, **kwargs):
            return change(orig(*args, **kwargs))

        return rebound({id(orig): (orig, wrong)})

    return inject


def _flip_first_frame(rows):
    row = dict(rows[0], frame="no" if rows[0]["frame"] == "yes" else "yes")
    return [row] + rows[1:]


def _wrong_decision(L):
    orig = sys.modules["latdim.serialize"].dump_json

    def wrong(data, path):
        if "frame" in data:
            data = dict(data, frame=not data["frame"])
        return orig(data, path)

    return rebound({id(orig): (orig, wrong)})


FAULTS = {
    "scan": _perturbed("gabor", "gabor_scan", _flip_first_frame),
    "construct": _perturbed(
        "frames", "construct_parseval_generators", lambda gens: gens * (1 + 1e-4)
    ),
    "routes": _perturbed(
        "dimension", "phi_oracle",
        lambda fn: dataclasses.replace(fn, values=fn.values + 1e-6),
    ),
    "cli": _wrong_decision,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_result_is_counted(workload):
    result, info = _tiny(workload, inject=FAULTS[workload])
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    assert info["failed_frac"] == result["failed"] / result["attempted"]


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_spec_matches_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128
    assert set(WORKLOADS) == set(run.WORKLOADS)
    assert Path(run.__file__).parent == run.ROOT / "perfbench"
