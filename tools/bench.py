"""Time fresh latdim processes and record every run as a JSON line.

Each row is one command line, run as a new Python process with the
``src/`` of a checkout on its path.  A run records its wall time, the
child's peak RSS (``ru_maxrss``), its exit code against the one the row
expects, the checkout's name, path length, commit and ``src/`` line
count, and ``nproc``.

    python3 tools/bench.py --out BENCH_<n>.json
    python3 tools/bench.py --checkout parent=../a --checkout change=../b --repeat 3 \
        --out BENCH_<n>.json
    python3 tools/bench.py --rows decide-z16,scan-z2z8 --out bench.json
    python3 tools/bench.py --check bench.json

With several ``--checkout`` the runs alternate between them, row by
row and repeat by repeat; give the checkouts paths of equal length, so
that no path length differs between them.  The output file is appended
to.  At the end one line per row and checkout prints every wall time,
the median, its ratio to the first checkout's median and its ratio to
the median of the ``change`` runs in the newest earlier
``BENCH_<n>.json`` beside the output.  ``--check FILE`` only validates
every line of FILE against ``SCHEMA`` and exits 1 on the first bad one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI = [sys.executable, "-m", "latdim.cli"]
WH = ["--cocycle", "weyl-heisenberg"]
# name -> (argv, expected exit code); cheapest first.  A command that runs
# from the checkout (the test suite) has cwd there, every other one a
# temporary directory that takes its output files.
ROWS = {
    "decide-z16": (CLI + ["decide", "--group", "Z16xZ16", *WH, "--lattice", "full",
                          "--n", "1", "--d", "16"], 0),
    "scan-z2z8": (CLI + ["gabor-scan", "--base", "Z2xZ8", "--out", "scan.csv"], 0),
    "routes-z4wh": (CLI + ["routes", "--group", "Z4xZ4xZ4xZ4", *WH], 0),
    "scan-z4z4": (CLI + ["gabor-scan", "--base", "Z4xZ4", "--out", "scan.csv"], 0),
    "routes-d8d8": (CLI + ["routes", "--group", "D8xD8", "--cocycle", "trivial",
                           "--seed", "3"], 0),
    "cvt-z16": (CLI + ["cvt", "--group", "Z16xZ16", *WH, "--out", "cvt.json"], 0),
    "construct-z16": (CLI + ["construct", "--group", "Z16xZ16", *WH, "--lattice", "full",
                             "--n", "1", "--d", "16"], 0),
    "routes-d4d4z2z2": (CLI + ["routes", "--group", "D4xD4xZ2xZ2", "--cocycle", "trivial",
                               "--seed", "3"], 0),
    "scan-z2z2z4": (CLI + ["gabor-scan", "--base", "Z2xZ2xZ4", "--out", "scan.csv"], 0),
    "routes-s5z2": (CLI + ["routes", "--group", "S5xZ2", "--seed", "3"], 0),
    "routes-q8z2x5": (CLI + ["routes", "--group", "Q8xZ2xZ2xZ2xZ2xZ2", "--seed", "3"], 0),
    "scan-z2x4-refused": (CLI + ["gabor-scan", "--base", "Z2xZ2xZ2xZ2", "--out", "scan.csv"], 1),
    "scan-z4z4-construct": (CLI + ["gabor-scan", "--base", "Z4xZ4", "--construct",
                                   "--out", "scan.csv"], 0),
    "tier1": ([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"], 0),
    "scan-z2z2z4-construct": (CLI + ["gabor-scan", "--base", "Z2xZ2xZ4", "--construct",
                                     "--out", "scan.csv"], 0),
}
IN_CHECKOUT = {"tier1"}

# every key of a line and its type
SCHEMA = {
    "row": str, "label": str, "checkout": str, "path_len": int, "commit": str, "run": int,
    "argv": list,
    "exit": int, "expected_exit": int, "ok": bool, "wall_s": float, "maxrss_mb": float,
    "src_lines": int, "nproc": int, "python": str, "numpy": str, "unix_time": float,
}


def check_line(line: str) -> dict:
    """One parsed record, or ValueError naming what is wrong with it."""
    record = json.loads(line)
    if not isinstance(record, dict) or set(record) != set(SCHEMA):
        raise ValueError(f"keys {sorted(record) if isinstance(record, dict) else record!r}, "
                         f"want {sorted(SCHEMA)}")
    for key, kind in SCHEMA.items():
        value = record[key]
        # a JSON integer is a valid float; a bool is not an int here
        good = (isinstance(value, (int, float)) and not isinstance(value, bool)
                if kind is float else type(value) is kind)
        if not good:
            raise ValueError(f"{key} is {value!r}, want {kind.__name__}")
    if record["row"] not in ROWS:
        raise ValueError(f"unknown row {record['row']!r}")
    if record["ok"] != (record["exit"] == record["expected_exit"]):
        raise ValueError("ok disagrees with exit and expected_exit")
    return record


def _checkout_facts(path: Path) -> dict:
    commit = subprocess.run(["git", "-C", str(path), "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or "unknown"
    dirty = subprocess.run(["git", "-C", str(path), "status", "--porcelain", "--", "src"],
                           capture_output=True, text=True).stdout.strip()
    lines = sum(len(p.read_text().splitlines()) for p in sorted((path / "src").rglob("*.py")))
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    # the directory's name and the length of its absolute path, which should
    # match between checkouts that are compared
    return {"checkout": path.name, "path_len": len(str(path)),
            "commit": commit + ("+dirty" if dirty else ""),
            "src_lines": lines, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy}


def run_once(row: str, path: Path, workdir: Path) -> dict:
    """Run one row from checkout ``path`` as a fresh process; its wall time and peak RSS."""
    argv, expected = ROWS[row]
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(argv, cwd=path if row in IN_CHECKOUT else workdir, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # wait4 reaped it, not Popen
    return {"row": row, "argv": argv[1:], "exit": code, "expected_exit": expected,
            "ok": code == expected, "wall_s": round(wall, 4),
            "maxrss_mb": round(usage.ru_maxrss / 1024, 1), "unix_time": round(time.time(), 1)}


def _earlier(out: Path) -> Path | None:
    """The newest BENCH_<n>.json beside ``out`` with n below out's own number, if any."""
    mine = re.fullmatch(r"BENCH_(\d+)\.json", out.name)
    found = []
    for p in out.parent.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if m and p != out and (mine is None or int(m[1]) < int(mine[1])):
            found.append((int(m[1]), p))
    return max(found)[1] if found else None


def _runs(records: list[dict], key) -> dict:
    """The records grouped by ``key(record)``, in first-seen order."""
    by = {}
    for r in records:
        by.setdefault(key(r), []).append(r)
    return by


def report(records: list[dict], labels: list[str], before: list[dict]) -> list[str]:
    """One line per (row, label): every wall time, the median, and its ratios.

    The ratios are to the first label's median and to the median of the
    runs labelled ``change`` (else of all runs) in ``before``.
    """
    def median(runs):
        return statistics.median(r["wall_s"] for r in runs)

    # records come row by row, each row's checkouts in ``labels`` order
    now = _runs(records, lambda r: (r["row"], r["label"]))
    then = _runs([r for r in before if r["label"] == "change"] or before, lambda r: r["row"])
    lines = []
    for (row, label), runs in now.items():
        wall = median(runs)
        walls = ", ".join(f"{r['wall_s']:.3f}" for r in runs)
        rss = max(r["maxrss_mb"] for r in runs)
        parts = [f"{row:22} {label:8} median {wall:.3f} s (runs {walls}; max RSS {rss:.1f} MB)"]
        if label != labels[0] and (row, labels[0]) in now:
            parts.append(f"x{wall / median(now[row, labels[0]]):.3f} of {labels[0]}")
        if row in then:
            parts.append(f"x{wall / median(then[row]):.3f} of earlier")
        lines.append("  ".join(parts))
    return lines


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checkout", action="append", metavar="[LABEL=]DIR",
                   help="a checkout to time (default: change=the repository this file is in)")
    p.add_argument("--rows", help=f"comma-separated rows, default all: {','.join(ROWS)}")
    p.add_argument("--repeat", type=int, default=1, help="runs of each row per checkout")
    p.add_argument("--out", metavar="FILE", help="JSON lines, appended (required to run)")
    p.add_argument("--check", metavar="FILE", help="only validate FILE's lines and exit")
    args = p.parse_args(argv)

    if args.check:
        lines = Path(args.check).read_text().splitlines()
        for i, line in enumerate(lines, 1):
            try:
                check_line(line)
            except ValueError as exc:  # json.JSONDecodeError is one
                print(f"{args.check} line {i}: {exc}", file=sys.stderr)
                return 1
        print(f"{args.check}: {len(lines)} lines ok")
        return 0

    rows = args.rows.split(",") if args.rows else list(ROWS)
    unknown = [r for r in rows if r not in ROWS]
    if unknown or args.repeat < 1 or not args.out:
        p.error(f"unknown rows {unknown}" if unknown else
                "--repeat must be at least 1" if args.repeat < 1 else "--out is required")
    checkouts = {}
    for spec in args.checkout or [f"change={ROOT}"]:
        label, _, path = spec.rpartition("=")
        checkouts[label or f"c{len(checkouts)}"] = Path(path).resolve()
    facts = {label: _checkout_facts(path) for label, path in checkouts.items()}

    out = Path(args.out).resolve()
    earlier = _earlier(out)
    before = [check_line(line) for line in earlier.read_text().splitlines()] if earlier else []
    records = []
    with tempfile.TemporaryDirectory() as workdir, out.open("a") as fh:
        for run in range(args.repeat):
            for row in rows:
                for label, path in checkouts.items():
                    record = {"label": label, "run": run, **facts[label],
                              **run_once(row, path, Path(workdir))}
                    fh.write(json.dumps({key: record[key] for key in SCHEMA}) + "\n")
                    fh.flush()
                    records.append(record)
                    print(f"{row:22} {label:8} run {run}: {record['wall_s']:.3f} s "
                          f"{record['maxrss_mb']:.1f} MB exit {record['exit']}", flush=True)
    if earlier:
        print(f"earlier: {earlier.name}")
    print("\n".join(report(records, list(checkouts), before)))
    bad = [r for r in records if not r["ok"]]
    for r in bad:
        print(f"{r['row']} ({r['label']}, run {r['run']}) exited {r['exit']}, "
              f"want {r['expected_exit']}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
