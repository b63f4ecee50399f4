"""Benchmark of the latdim pipeline, end to end and per module.

Run from the root of a latdim checkout; this prints every end-to-end
metric of every workload:

    for w in scan construct routes cli; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

The package is imported from ``src/`` of that checkout, in one process
and one thread, with BLAS pinned to ``BLAS_THREADS`` threads.  Each
workload is a closed loop: the next request is sent when the previous
one has returned and its output has been checked.

A run sets up a fixed number of times (import ``latdim`` afresh and
build the inputs) and reports the median as ``setup_s``.  It then runs
a few warm-up requests untimed, so that first-call costs inside numpy
and LAPACK do not land on whichever request the seed puts first, and
makes whole passes over seeded request lists.  ``--seconds`` fixes the number
of passes, so that a run of the seed code takes about that long on a
2-core x86-64 machine (longer where a workload needs more passes for a
steady tail); the count does not depend on measured speed, so two
versions of the program do identical work.  The seed changes which
cells a pass holds but hardly what they cost.

Timings are scaled by the host's speed as a reference kernel measures
it during each phase (see ``speed.py``), because on a shared host that
speed drifts by more than the bounds; the information line holds the
unscaled timings and the scales.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` each of at least two passes runs twice, untraced and
traced, in alternating order, and the last line holds the per-layer
metrics of the traced passes and the tracing overhead.  The line before it records the environment, the
request count and the tail percentile.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from math import ceil
from pathlib import Path
from time import perf_counter

# BLAS reads its thread count when numpy loads it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from speed import NEAREST, REF_S, SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Kernel samples taken before each set-up and after the last one.
SETUP_SAMPLES = 4
TAIL_BEYOND = 10


class SetupError(Exception):
    """The checkout does not hold a usable latdim package."""


def _fresh_latdim():
    """Import latdim from the checkout, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "latdim" or m.startswith("latdim.")]:
        del sys.modules[name]
    latdim = importlib.import_module("latdim")
    importlib.import_module("latdim.cli")
    if SRC not in Path(latdim.__file__).resolve().parents:
        raise SetupError(f"latdim was imported from {latdim.__file__}, not from {SRC}")
    return latdim


def _judge(L, req, out, err) -> str | None:
    if err is not None:
        if req.expect is not None and isinstance(err, getattr(L, req.expect)):
            return None
        return f"{req.kind}: raised {type(err).__name__}: {err}"
    if req.expect is not None:
        return f"{req.kind}: returned, expected {req.expect}"
    try:
        return req.check(out)
    except Exception as exc:  # a malformed output is a failed request
        return f"{req.kind}: check raised {type(exc).__name__}: {exc}"


def _sample(probe: SpeedProbe | None, k: int) -> None:
    for _ in range(k if probe else 0):
        probe.sample()


def _run_pass(L, wl, p: int, failures: list, probe: SpeedProbe | None = None):
    """Run pass ``p``; returns its time and each request's (start, end).

    With a probe, kernel samples are taken between the requests; their
    time is left out of the pass time.
    """
    reqs = wl.pass_requests(p)
    gc.collect()
    probing = 0.0
    spans = []
    start = perf_counter()
    for req in reqs:
        if probe:
            probing += probe.maybe_sample()
        t0 = perf_counter()
        try:
            out, err = req.call(), None
        except Exception as exc:  # counted below; the loop must go on
            out, err = None, exc
        spans.append((t0, perf_counter()))
        problem = _judge(L, req, out, err)
        if problem is not None:
            failures.append(problem)
    elapsed = perf_counter() - start - probing
    return elapsed, spans


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _end_to_end(setup_times: list, pass_times: list, latencies: list) -> dict:
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
        "req_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "req_tail_ms": {"value": 1e3 * _tail(latencies)[0], "unit": "ms"},
    }


def _measure(L, wl, passes: int, trace: bool, setup: tuple, probe: SpeedProbe | None,
             failures: list, info: dict) -> tuple[dict, int]:
    if trace:
        tracer = Tracer()
        took = {False: 0.0, True: 0.0}
        attempted = 0
        for p in range(max(2, passes // 2)):
            # Which of the two goes first alternates, so that neither
            # gains from running second.
            for traced in (p % 2 == 1, p % 2 == 0):
                with tracer.active() if traced else contextlib.nullcontext():
                    dt, spans = _run_pass(L, wl, p, failures)
                took[traced] += dt
                attempted += len(spans)
        return tracer.metrics(took[True] / took[False] - 1.0), attempted
    setup_times, setup_scales = setup
    first = len(probe.samples)
    raw_passes, spans = [], []
    for p in range(passes):
        dt, pass_spans = _run_pass(L, wl, p, failures, probe)
        raw_passes.append(dt)
        spans.extend(pass_spans)
    _sample(probe, NEAREST // 2)
    # A pass spans many samples: scale it by all of them.  A request is
    # short: scale it by those nearest to it.
    pass_scale = probe.scale(first)
    pass_times = [dt * pass_scale for dt in raw_passes]
    raw_lat = [t1 - t0 for t0, t1 in spans]
    latencies = [(t1 - t0) * probe.scale_at(t0, t1) for t0, t1 in spans]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = _end_to_end([t * x for t, x in zip(setup_times, setup_scales)],
                          pass_times, latencies)
    metrics["peak_rss_mb"] = {"value": peak_kib * 1024 / 1e6, "unit": "MB"}
    info["tail_percentile"] = _tail(latencies)[1]
    info["tail_samples_beyond"] = TAIL_BEYOND
    info["speed"] = {
        "kernel_ref_s": REF_S,
        "kernel_samples": len(probe.samples),
        "setup_scales": setup_scales,
        "pass_scale": pass_scale,
        "unscaled": {k: v["value"] for k, v in
                     _end_to_end(setup_times, raw_passes, raw_lat).items()},
    }
    return metrics, len(latencies)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        inject=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, information line).

    ``inject``, when given, is called with the latdim module after
    set-up and returns a context manager entered around the passes;
    the smoke tests use it to feed wrong results to the checks.
    """
    cls = WORKLOADS[workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    probe = None if trace else SpeedProbe()
    info = {"workload": workload, "seed": seed, "size": size, "trace": int(trace)}
    failures: list[str] = []
    try:
        spans = []
        for _ in range(1 if trace else cls.setups):
            wl = None  # free the previous set-up before building the next
            _sample(probe, SETUP_SAMPLES)
            t0 = perf_counter()
            L = _fresh_latdim()
            wl = cls(L, seed, size, workdir)
            spans.append((t0, perf_counter()))
        _sample(probe, SETUP_SAMPLES)
        setup_times = [t1 - t0 for t0, t1 in spans]
        setup_scales = [probe.scale_at(*span) if probe else 1.0 for span in spans]
        for req in wl.warmup_requests():
            with contextlib.suppress(Exception):
                req.call()

        # The inputs live for the whole run; keep them out of the
        # collections that the program's own allocations trigger.
        gc.collect()
        gc.freeze()
        passes = max(cls.min_passes, ceil((TAIL_BEYOND + 1) / wl.pass_len),
                     round(seconds / cls.nominal_pass_s))
        with inject(L) if inject else contextlib.nullcontext():
            metrics, attempted = _measure(L, wl, passes, trace, (setup_times, setup_scales),
                                          probe, failures, info)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "passes": passes,
        "requests": attempted,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "environment": _environment(),
    })
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "latdim" / "__init__.py").is_file():
        print(f"error: {SRC} holds no latdim package; run from the root of a "
              "latdim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
