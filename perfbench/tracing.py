"""Per-layer spans for the traced run, recorded from the benchmark's side.

The layers are the modules of the ``latdim`` package.  ``LAYERS`` lists,
for each module, the public functions the traced run wraps, the extra
statistics each reports, and the end-to-end metric (and workload) that
a change to the function is expected to move.  Later changes cite these
names when they claim a gain.

Wrapping replaces every binding of a listed function across the loaded
``latdim`` modules, matched by identity, so calls through names taken
with ``from .x import f`` are caught as well.  The program's files are
never edited: bindings are restored when the context manager exits.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# module -> function -> (extra stats, what it should move)
LAYERS: dict[str, dict[str, tuple[tuple[str, ...], str]]] = {
    "groups": {
        "all_subgroups": ((), "scan wall_s; setup_s on construct and routes; absent from cli"),
        "conjugacy": (("repeat_frac",), "routes req_p50_ms; scan wall_s"),
        "centralizer_transversal": ((), "routes req_p50_ms; scan wall_s"),
        "right_transversal": ((), "routes req_p50_ms; scan wall_s"),
    },
    "cocycles": {
        "regularity": (("repeat_frac",), "routes req_p50_ms; scan wall_s"),
        "tilde_table": (("repeat_frac",), "routes req_p50_ms; scan wall_s"),
    },
    "algebra": {
        "left_regular": (("bytes",), "construct and routes peak_rss_mb"),
        "right_regular": (("bytes",), "construct and routes peak_rss_mb"),
        "center_valued_trace": ((), "routes req_tail_ms and peak_rss_mb"),
        "center_valued_trace_oracle": ((), "routes req_tail_ms and peak_rss_mb"),
        "center_dimension": (("max_eig_n",), "routes req_tail_ms and peak_rss_mb"),
        "is_sigma_positive_definite": ((), "scan wall_s"),
    },
    "reps": {
        "is_irreducible": (("repeat_frac",), "scan wall_s; cli and construct req_p50_ms"),
        "validate_rep": ((), "cli wall_s"),
        "wavelet": ((), "routes wall_s"),
    },
    "dimension": {
        "make_module_spec": ((), "scan and cli wall_s"),
        "phi": ((), "scan and cli wall_s"),
        "phi_oracle": ((), "routes wall_s only"),
    },
    "frames": {
        "existence_decision": ((), "scan wall_s"),
        "riesz_basis_criterion": ((), "scan wall_s"),
        "intertwiner_basis": (("max_eig_n",), "construct wall_s, req_tail_ms, peak_rss_mb; not scan or routes"),
        "construct_parseval_generators": ((), "construct wall_s, req_tail_ms, peak_rss_mb; not scan or routes"),
        "frame_report": ((), "construct wall_s, req_tail_ms, peak_rss_mb; not scan or routes"),
    },
    "gabor": {
        "build_tf": ((), "cli and scan wall_s"),
        "gabor_scan": ((), "cli and scan wall_s"),
    },
    "serialize": {
        "dump_json": (("bytes",), "cli only"),
        "load_json": ((), "cli only"),
    },
    "cli": {
        "main": ((), "cli only"),
    },
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "repeat_frac": "frac",
    "bytes": "B",
    "max_eig_n": "count",
}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for module, funcs in LAYERS.items():
        for func, (extras, _) in funcs.items():
            for stat in ("calls", "self_s") + extras:
                out.append((f"{module}.{func}.{stat}", UNITS[stat]))
        out.append((f"{module}.self_s", "s"))
    out.append(("trace_overhead_frac", "frac"))
    return out


def _digest_into(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _digest_into(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"s{len(obj)}".encode())
        for item in obj:
            _digest_into(h, item)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            _digest_into(h, k)
            _digest_into(h, obj[k])
    else:
        h.update(repr(obj).encode())


def content_digest(args, kwargs) -> bytes:
    """Digest of the arguments' contents, not their identities."""
    h = hashlib.blake2b(digest_size=16)
    _digest_into(h, args)
    _digest_into(h, kwargs)
    return h.digest()


def _result_bytes(func: str, args, result) -> int:
    if func == "dump_json":
        return os.path.getsize(args[1])
    return int(result.matrices.nbytes)


def _eig_n(func: str, args) -> int:
    if func == "center_dimension":
        return args[0].order ** 2
    spec = args[0]
    return spec.lattice.order * spec.rep.dim


@dataclasses.dataclass
class _Stat:
    calls: int = 0
    self_s: float = 0.0
    repeats: int = 0
    bytes: int = 0
    max_eig_n: int = 0


class Tracer:
    """Aggregates call counts and self time per wrapped function.

    Self time is a span's duration minus the time of the spans it
    caused.  The tracer's own work (argument digests, result sizes) is
    kept out of both the span and its parent's self time.
    """

    def __init__(self) -> None:
        self.stats = {
            (m, f): _Stat() for m, funcs in LAYERS.items() for f in funcs
        }
        self._seen: dict[tuple[str, str], set[bytes]] = {}
        self._stack: list[list[float]] = []

    def _wrap(self, module: str, func: str, fn):
        extras = LAYERS[module][func][0]
        stat = self.stats[(module, func)]
        seen = self._seen.setdefault((module, func), set())

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            if "repeat_frac" in extras:
                key = content_digest(args, kwargs)
                if key in seen:
                    stat.repeats += 1
                seen.add(key)
            if "max_eig_n" in extras:
                stat.max_eig_n = max(stat.max_eig_n, _eig_n(func, args))
            children = [0.0]
            self._stack.append(children)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                self._stack.pop()
                stat.calls += 1
                stat.self_s += (t1 - t0) - children[0]
                if ok and "bytes" in extras:
                    stat.bytes += _result_bytes(func, args, result)
                if self._stack:
                    self._stack[-1][0] += perf_counter() - t_enter
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Wrap every listed function for the duration of the block."""
        replacements = {}
        for module, funcs in LAYERS.items():
            mod = sys.modules[f"latdim.{module}"]
            for func in funcs:
                fn = getattr(mod, func)
                replacements[id(fn)] = (fn, self._wrap(module, func, fn))
        with rebound(replacements):
            yield self

    def metrics(self, overhead_frac: float) -> dict[str, dict]:
        out: dict[str, dict] = {}
        for module, funcs in LAYERS.items():
            total = 0.0
            for func, (extras, _) in funcs.items():
                st = self.stats[(module, func)]
                values = {"calls": st.calls, "self_s": st.self_s}
                if "repeat_frac" in extras:
                    values["repeat_frac"] = st.repeats / st.calls if st.calls else 0.0
                if "bytes" in extras:
                    values["bytes"] = st.bytes
                if "max_eig_n" in extras:
                    values["max_eig_n"] = st.max_eig_n
                for stat_name, v in values.items():
                    out[f"{module}.{func}.{stat_name}"] = {
                        "value": v, "unit": UNITS[stat_name],
                    }
                total += st.self_s
            out[f"{module}.self_s"] = {"value": total, "unit": "s"}
        out["trace_overhead_frac"] = {"value": overhead_frac, "unit": "frac"}
        return out


@contextmanager
def rebound(replacements: dict[int, tuple[object, object]]):
    """Swap bindings across the loaded ``latdim`` modules, matched by identity.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``.
    Every module attribute bound to an original is rebound for the
    duration of the block and restored afterwards.
    """
    saved = []
    try:
        for name, mod in list(sys.modules.items()):
            if name != "latdim" and not name.startswith("latdim."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        yield
    finally:
        for mod, attr, val in saved:
            setattr(mod, attr, val)
