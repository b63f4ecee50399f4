"""The benchmark's workloads: seeded request lists and their checks.

Each workload is built once per set-up from the ``latdim`` module and a
seed, then hands out one request list per pass.  A pass's list depends
only on the seed and the pass index, so a traced pass can repeat an
untraced one exactly.  Every request carries its own check, written
against the mathematics rather than against the program's internal
checks: exact density predicates, subgroup counts, an independently
built time-frequency representation, and an independent count of
cocycle-regular conjugacy classes.

Nothing here calls ``latdim`` through a name bound at import time;
calls go through the module objects, so the traced run's wrappers
see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

TOL_PARSEVAL = 1e-8
TOL_PHI_ROUTES = 1e-8
TOL_TRACE_ROUTES = 1e-9
TOL_PHI_VALUE = 1e-9


@dataclass
class Request:
    """One call into the program and the check of its output.

    ``call`` is what the request latency times.  ``check`` returns a
    description of what is wrong with the output, or None.  When
    ``expect`` names a ``latdim`` exception, raising it is the correct
    outcome and returning normally is a failure.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    expect: str | None = None


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _spread(rng: np.random.Generator, size: int, k: int) -> list[int]:
    """k indices spread evenly over range(size), from a random offset.

    Each draw covers the pool in proportion, so the cost of a pass
    hardly depends on the seed, while the cells themselves do.
    """
    u = rng.random()
    return [int((j + u) * size / k) for j in range(k)]


def _unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _factors(spec: str) -> tuple[int, ...]:
    return tuple(int(tok[1:]) for tok in spec.split("x"))


def _base_group(L, spec: str):
    factors = _factors(spec)
    g = L.build_cyclic(factors[0])
    for m in factors[1:]:
        g = L.direct_product(g, L.build_cyclic(m))
    return g, factors


def _time_frequency(L, spec: str):
    """build_tf over a product of cyclic groups, in the CLI's coordinates."""
    base, factors = _base_group(L, spec)
    gens, orders = L.cyclic_factor_generators(list(factors))
    return L.build_tf(base, L.dual_group(base, gens, orders))


def _density(base_order: int, lattice_order: int, n: int, d: int):
    """Exact frame / Riesz / basis existence: |base|/|lattice| against n/d."""
    ratio, bound = Fraction(base_order, lattice_order), Fraction(n, d)
    return ratio <= bound, ratio >= bound, ratio == bound


class Workload:
    """Set-up happens in ``__init__``; each pass gets its own request list.

    ``pass_len`` is the length of every pass's list.  ``nominal_pass_s``
    is the time one pass of the seed code takes on a 2-core x86-64
    machine; with ``min_passes`` it turns ``--seconds`` into a pass count.
    A run sets up ``setups`` times.
    """

    name = ""
    nominal_pass_s = 1.0
    min_passes = 1
    setups = 5
    pass_len = 0

    def pass_requests(self, p: int) -> list[Request]:
        raise NotImplementedError

    def warmup_requests(self) -> list[Request]:
        """Requests run once, untimed, before the first pass."""
        return []


# --------------------------------------------------------------------- scan

# An odd number of bases puts the median request in the middle of one
# base's samples rather than between two bases.
SCAN_BASES = ("Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z2xZ2", "Z8", "Z2xZ4", "Z3xZ3", "Z9")
SCAN_BASES_TINY = ("Z2", "Z3", "Z4")
SCAN_WARMUP = ("Z2", "Z8")
# Number of subgroups of base x base^ (Z2^4 has 67, Z3^4 has 212, ...).
SUBGROUP_COUNTS = {
    "Z2": 5, "Z3": 6, "Z4": 15, "Z5": 8, "Z6": 30, "Z7": 10, "Z2xZ2": 67,
    "Z8": 37, "Z2xZ4": 249, "Z3xZ3": 212, "Z9": 23,
}
SCAN_NMAX = SCAN_DMAX = 3


class Scan(Workload):
    """gabor_scan with no construction, one request per base."""

    name = "scan"
    nominal_pass_s = 7.0
    # With four passes the median request is a middle Z6 scan and the
    # tail sample the third of four Z8 scans: each inside a group of
    # like requests, so it does not jump between groups.
    min_passes = 4

    def __init__(self, L, seed: int, size: str, workdir: str) -> None:
        self.L, self.seed = L, seed
        bases = SCAN_BASES if size == "full" else SCAN_BASES_TINY
        self.tfs = {b: _time_frequency(L, b) for b in bases}
        self.pass_len = len(bases)

    def warmup_requests(self) -> list[Request]:
        return [self._request(b) for b in SCAN_WARMUP if b in self.tfs]

    def pass_requests(self, p: int) -> list[Request]:
        order = _rng(self.seed, 1, p).permutation(sorted(self.tfs))
        return [self._request(str(b)) for b in order]

    def _request(self, base: str) -> Request:
        L, tf = self.L, self.tfs[base]
        base_order = tf.base.order

        def check(rows) -> str | None:
            want = SUBGROUP_COUNTS[base] * SCAN_NMAX * SCAN_DMAX
            if len(rows) != want:
                return f"{base}: {len(rows)} rows, expected {want}"
            problems = L.audit_rows(rows)
            if problems:
                return f"{base}: {problems[0]}"
            for r in rows:
                lat = r["lattice_order"]
                got = tuple(r[k] == "yes" for k in ("frame", "riesz", "basis"))
                if got != _density(base_order, lat, r["n"], r["d"]):
                    return f"{base}: |lattice|={lat} n={r['n']} d={r['d']} decided {got}"
                if abs(r["dpi_vol"] - base_order / lat) > 1e-12:
                    return f"{base}: dpi_vol {r['dpi_vol']} at |lattice|={lat}"
            return None

        return Request(
            f"scan {base}",
            lambda: L.gabor_scan(tf, SCAN_NMAX, SCAN_DMAX),
            check,
        )


# ---------------------------------------------------------------- construct

CONSTRUCT_BASES = ("Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z3xZ3", "Z9")
# Full-lattice instances, one per bucket per pass: |G| = 64, 81, 100.
CONSTRUCT_FULL = (("Z8", "Z2xZ4"), ("Z9", "Z3xZ3"), ("Z10",))
CONSTRUCT_TINY = (("Z2", "Z3"), (("Z2",), ("Z3",)))
CONSTRUCT_MIX = {"full": (60, 8), "tiny": (6, 2)}  # feasible, infeasible per pass


class Construct(Workload):
    """construct_parseval_generators on scan cells, infeasible cells and full lattices."""

    name = "construct"
    nominal_pass_s = 5.5
    # With four passes the tail sample is among the twelve full-lattice
    # requests, which dominate the pass time.
    min_passes = 4
    setups = 3

    def __init__(self, L, seed: int, size: str, workdir: str) -> None:
        self.L, self.seed = L, seed
        pool, self.full = (
            (CONSTRUCT_BASES, CONSTRUCT_FULL) if size == "full" else CONSTRUCT_TINY
        )
        self.n_feasible, self.n_infeasible = CONSTRUCT_MIX[size]
        names = set(pool) | {b for bucket in self.full for b in bucket}
        self.tfs = {b: _time_frequency(L, b) for b in sorted(names)}
        self.full_lattice = {
            b: L.full_subgroup(self.tfs[b].group) for bucket in self.full for b in bucket
        }
        # The cells `gabor_scan --construct` builds, and the infeasible ones.
        self.feasible, self.infeasible = [], []
        for b in pool:
            nb = self.tfs[b].base.order
            for sub in L.all_subgroups(self.tfs[b].group):
                for n in range(1, 4):
                    for d in range(1, 4):
                        if n * sub.order < d * nb:
                            self.infeasible.append((b, sub, n, d))
                        elif n * sub.order <= 2 * d * nb:
                            self.feasible.append((b, sub, n, d))
        self.pass_len = self.n_feasible + self.n_infeasible + len(self.full)

    def warmup_requests(self) -> list[Request]:
        b = self.full[0][0]
        return [self._request(*self.feasible[0], seed=0),
                self._request(b, self.full_lattice[b], 1, 1, seed=0)]

    def pass_requests(self, p: int) -> list[Request]:
        rng = _rng(self.seed, 2, p)
        cells = [self.feasible[i] for i in _spread(rng, len(self.feasible), self.n_feasible)]
        cells += [self.infeasible[i] for i in _spread(rng, len(self.infeasible), self.n_infeasible)]
        # Full lattices take turns by pass, so a run's set of them does
        # not depend on the seed.
        for bucket in self.full:
            b = bucket[p % len(bucket)]
            cells.append((b, self.full_lattice[b], 1, int(rng.integers(1, 3))))
        seeds = rng.integers(1 << 31, size=len(cells))
        order = rng.permutation(len(cells))
        return [self._request(*cells[i], seed=int(seeds[i])) for i in order]

    def _request(self, base: str, sub, n: int, d: int, seed: int) -> Request:
        L, tf = self.L, self.tfs[base]
        dim = tf.rep.dim
        frame, _, _ = _density(tf.base.order, sub.order, n, d)
        kind = f"construct {base} |L|={sub.order} n={n} d={d}"

        def call():
            spec = L.make_module_spec(tf.rep, sub)
            return spec, L.construct_parseval_generators(spec, n, d, seed=seed)

        def check(out) -> str | None:
            spec, gens = out
            if gens.shape != (n, d, dim):
                return f"{kind}: generators of shape {gens.shape}"
            rpt = L.frame_report(L.multiwindow_system(spec.rep, sub, gens))
            if max(abs(rpt.lower - 1.0), abs(rpt.upper - 1.0)) > TOL_PARSEVAL:
                return f"{kind}: frame bounds ({rpt.lower!r}, {rpt.upper!r})"
            if n * sub.order == d * dim and max(
                abs(rpt.riesz_lower - 1.0), abs(rpt.riesz_upper - 1.0)
            ) > TOL_PARSEVAL:
                return f"{kind}: Gram bounds ({rpt.riesz_lower!r}, {rpt.riesz_upper!r})"
            return None

        return Request(kind, call, check, expect=None if frame else "Infeasible")


# ------------------------------------------------------------------- routes

ROUTE_FIXTURES = (
    "s3-pauli", "wh-Z2", "wh-Z3", "wh-Z4", "wh-Z5", "wh-Z6",
    "S3", "D4", "Q8", "S4", "D4xZ2xZ2",
)
ROUTE_FIXTURES_TINY = ("wh-Z2", "S3", "Q8")
ROUTE_PAIRS = {"full": 9, "tiny": 2}  # phi pairs and trace pairs per fixture and pass
CENTER_MAX_ORDER = 36


def _fixture(L, name: str):
    """An irreducible projective rep: twisted, time-frequency or trivial-twist."""
    if name == "s3-pauli":
        pauli = L.build_tf(L.build_cyclic(2))
        g = L.direct_product(L.symmetric_group(3), pauli.group)
        table = np.kron(np.ones((6, 6)), pauli.cocycle.table)
        return L.irreducible_subrep(g, L.Cocycle(g, table, label="lifted-pauli"), seed=1)
    if name.startswith("wh-"):
        return L.build_tf(L.build_cyclic(int(name[4:]))).rep
    atoms = {"S3": lambda: L.symmetric_group(3), "S4": lambda: L.symmetric_group(4),
             "D4": lambda: L.dihedral(4), "Q8": L.quaternion,
             "Z2": lambda: L.build_cyclic(2)}
    parts = [atoms[t]() for t in name.split("x")]
    g = parts[0]
    for h in parts[1:]:
        g = L.direct_product(g, h)
    return L.irreducible_subrep(g, L.trivial(g), seed=0)


def regular_class_count(cayley: np.ndarray, inverse: np.ndarray, table: np.ndarray) -> int:
    """Conjugacy classes on which sigma(x, y) = sigma(y, x) for all commuting y."""
    n = cayley.shape[0]
    commute = cayley == cayley.T
    regular = ~np.any(commute & (np.abs(table - table.T) > 1e-9), axis=1)
    ys = np.arange(n)
    classes = {
        frozenset(cayley[cayley[inverse[ys], x], ys].tolist())
        for x in np.flatnonzero(regular)
    }
    return len(classes)


class Routes(Workload):
    """Paired routes: phi against phi_oracle, trace formula against averaging."""

    name = "routes"
    nominal_pass_s = 6.5
    # With three passes the tail sample is a middle s3-pauli
    # center-dimension request, between the wh-Z5 and S4 ones.
    min_passes = 3

    def __init__(self, L, seed: int, size: str, workdir: str) -> None:
        self.L, self.seed = L, seed
        names = ROUTE_FIXTURES if size == "full" else ROUTE_FIXTURES_TINY
        self.reps = {f: _fixture(L, f) for f in names}
        self.subgroups = {
            f: sorted(L.all_subgroups(rep.group), key=lambda h: h.order)
            for f, rep in self.reps.items()
        }
        self.center = {
            f: regular_class_count(rep.group.cayley, rep.group.inverse, rep.cocycle.table)
            for f, rep in self.reps.items()
            if rep.group.order <= CENTER_MAX_ORDER
        }
        self.pairs = ROUTE_PAIRS[size]
        self.pass_len = 2 * self.pairs * len(self.reps) + len(self.center)

    def warmup_requests(self) -> list[Request]:
        rep, rng = self.reps["S3"], _rng(self.seed, 3)
        return [self._center("S3"), self._trace("S3", rng.normal(size=rep.group.order) + 0j),
                self._phi("S3", self.subgroups["S3"][-1], _unit_vector(rng, rep.dim))]

    def pass_requests(self, p: int) -> list[Request]:
        rng = _rng(self.seed, 3, p)
        reqs = []
        # Every fixture gets the same number of each kind, and its
        # subgroups are drawn spread over their orders.
        for f in sorted(self.reps):
            subs, n = self.subgroups[f], self.reps[f].group.order
            for i in _spread(rng, len(subs), self.pairs):
                reqs.append(self._phi(f, subs[i], _unit_vector(rng, self.reps[f].dim)))
            for _ in range(self.pairs):
                reqs.append(self._trace(f, rng.normal(size=n) + 1j * rng.normal(size=n)))
        # The center requests hold the largest arrays, so their order
        # decides the heap's peak; they go first, in a fixed order.
        return [self._center(f) for f in sorted(self.center)] + [
            reqs[i] for i in rng.permutation(len(reqs))
        ]

    def _phi(self, f: str, sub, window: np.ndarray) -> Request:
        L, rep = self.L, self.reps[f]
        kind = f"phi {f} |L|={sub.order}"

        def call():
            spec = L.make_module_spec(rep, sub, window=window)
            return spec, L.phi(spec), L.phi_oracle(spec)

        def check(out) -> str | None:
            spec, closed, oracle = out
            gap = float(np.abs(closed.values - oracle.values).max())
            if not gap < TOL_PHI_ROUTES:
                return f"{kind}: formula and oracle differ by {gap:.3e}"
            at_e = closed.values[spec.lattice_group.identity]
            if abs(at_e - rep.dim / sub.order) > TOL_PHI_VALUE:
                return f"{kind}: phi(e) = {at_e!r}, expected dim/|L|"
            return None

        return Request(kind, call, check)

    def _trace(self, f: str, coeffs: np.ndarray) -> Request:
        L, cocycle = self.L, self.reps[f].cocycle
        kind = f"trace {f}"

        def call():
            a = L.element(cocycle, coeffs)
            return L.center_valued_trace(a), L.center_valued_trace_oracle(a)

        def check(out) -> str | None:
            gap = float(np.abs(out[0].coeffs - out[1].coeffs).max())
            if not gap < TOL_TRACE_ROUTES:
                return f"{kind}: formula and averaging differ by {gap:.3e}"
            return None

        return Request(kind, call, check)

    def _center(self, f: str) -> Request:
        L, rep, want = self.L, self.reps[f], self.center[f]

        def check(got) -> str | None:
            return None if got == want else f"center {f}: dimension {got}, {want} regular classes"

        return Request(f"center {f}", lambda: L.center_dimension(rep.group, rep.cocycle), check)


# ---------------------------------------------------------------------- cli

# (group, base factors, step q of the coordinate lattice)
CLI_GROUPS = (
    ("Z8xZ8", (8,), 4),
    ("Z12xZ12", (12,), 3),
    ("Z16xZ16", (16,), 4),
    ("Z4xZ4xZ4xZ4", (4, 4), 2),
)
CLI_CONSTRUCT = ("Z8xZ8", "Z9xZ9")
CLI_INFEASIBLE = "Z9xZ9"
CLI_TINY = ((("Z3xZ3", (3,), 3),), ("Z3xZ3",), "Z3xZ3")


def _coordinate_lattice(rng: np.random.Generator, factors: tuple[int, ...], q: int):
    """Coordinate tuples of a lattice whose order does not depend on the draw."""
    m = factors[0]
    if len(factors) == 1:
        k = int(rng.integers(m))
        return f"(1,{k}),(0,{q})", m * (m // q)
    k = rng.integers(m, size=4)
    spec = f"(1,0,{k[0]},{k[1]}),(0,1,{k[2]},{k[3]}),(0,0,{q},0)"
    return spec, m * m * (m // q)


def tf_matrices(m: int) -> np.ndarray:
    """Translation-modulation rep of Z_m x Z_m^, written out independently.

    Element x*m + w acts by e_s -> exp(2 pi i w (s + x) / m) e_{s + x}.
    """
    t = np.arange(m)
    mats = np.zeros((m * m, m, m), dtype=np.complex128)
    for x in range(m):
        for w in range(m):
            mats[x * m + w, t, (t - x) % m] = np.exp(2j * np.pi * w * t / m)
    return mats


class Cli(Workload):
    """In-process latdim.cli.main calls, with JSON output read back."""

    name = "cli"
    nominal_pass_s = 10.5
    min_passes = 2

    def __init__(self, L, seed: int, size: str, workdir: str) -> None:
        import latdim.cli

        self.L, self.cli, self.seed, self.workdir = L, latdim.cli, seed, workdir
        self.groups, self.construct, self.infeasible = (
            (CLI_GROUPS, CLI_CONSTRUCT, CLI_INFEASIBLE) if size == "full" else CLI_TINY
        )
        self.tf_mats = {g: tf_matrices(_factors(g)[0]) for g in self.construct}
        self.files = 0
        self.pass_len = 4 * len(self.groups) + len(self.construct) + 1

    def warmup_requests(self) -> list[Request]:
        group, factors, _ = self.groups[0]
        base_order = int(np.prod(factors))
        m = _factors(self.construct[0])[0]
        return [self._decide(group, base_order, "full", base_order**2, 1, 1),
                self._phi(group, base_order, "full", base_order**2),
                self._construct(self.construct[0], m, 1, 0)]

    def pass_requests(self, p: int) -> list[Request]:
        rng = _rng(self.seed, 4, p)
        reqs = []
        for group, factors, q in self.groups:
            base_order = int(np.prod(factors))
            lattices = [("full", base_order**2), _coordinate_lattice(rng, factors, q)]
            for lattice, order in lattices:
                n, d = (int(v) for v in rng.integers(1, 4, size=2))
                reqs.append(self._decide(group, base_order, lattice, order, n, d))
                reqs.append(self._phi(group, base_order, lattice, order))
        for group in self.construct:
            m = _factors(group)[0]
            # d takes turns by pass, so a run's work does not depend on the seed.
            reqs.append(self._construct(group, m, 1 + p % 2, int(rng.integers(1 << 31))))
        m = _factors(self.infeasible)[0]
        reqs.append(self._infeasible(self.infeasible, m, int(rng.integers(m))))
        return [reqs[i] for i in rng.permutation(len(reqs))]

    def _out(self) -> str:
        """A fresh file name in the work directory."""
        self.files += 1
        return os.path.join(self.workdir, f"f{self.files}.json")

    def _main(self, argv: list[str]):
        cli = self.cli

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        return call

    def _decide(self, group, base_order, lattice, order, n, d) -> Request:
        out = self._out()
        argv = ["decide", "--group", group, "--cocycle", "weyl-heisenberg",
                "--lattice", lattice, "--n", str(n), "--d", str(d), "--out", out]
        kind = f"decide {group} {lattice} n={n} d={d}"

        def check(rc) -> str | None:
            if rc != 0:
                return f"{kind}: exit code {rc}"
            with open(out) as fh:
                data = json.load(fh)
            want = dict(zip(("frame", "riesz", "basis"), _density(base_order, order, n, d)))
            got = {k: data[k] for k in want}
            if got != want or (data["n"], data["d"]) != (n, d):
                return f"{kind}: decided {got}, expected {want}"
            if abs(data["dpi_vol"] - base_order / order) > 1e-12:
                return f"{kind}: dpi_vol {data['dpi_vol']}, |L|={order}"
            return None

        return Request(kind, self._main(argv), check)

    def _phi(self, group, base_order, lattice, order) -> Request:
        out = self._out()
        argv = ["phi", "--group", group, "--cocycle", "weyl-heisenberg",
                "--lattice", lattice, "--out", out]
        kind = f"phi {group} {lattice}"

        def check(rc) -> str | None:
            if rc != 0:
                return f"{kind}: exit code {rc}"
            with open(out) as fh:
                data = json.load(fh)
            rows = data["rows"]
            if data["lattice_order"] != order or len(rows) != order:
                return f"{kind}: {len(rows)} rows, lattice order {data['lattice_order']}, expected {order}"
            dpi_vol = base_order / order
            for r in rows:
                # The twist is Kleppner, so phi is dim/|L| at the identity, 0 elsewhere.
                want = dpi_vol if r["gamma"] == 0 else 0.0
                if abs(complex(*r["value"]) - want) > TOL_PHI_VALUE:
                    return f"{kind}: phi({r['gamma']}) = {r['value']}, expected {want}"
            return None

        return Request(kind, self._main(argv), check)

    def _construct(self, group, m, d, seed) -> Request:
        config = self._out()
        with open(config, "w") as fh:
            json.dump({"group": group, "cocycle": "weyl-heisenberg", "lattice": "full",
                       "n": 1, "d": d, "seed": seed}, fh)
        out = self._out()
        kind = f"construct {group} full n=1 d={d}"

        def check(rc) -> str | None:
            if rc != 0:
                return f"{kind}: exit code {rc}"
            with open(out) as fh:
                data = json.load(fh)
            gens = np.asarray(data["generators"], dtype=float)
            gens = gens[..., 0] + 1j * gens[..., 1]
            if gens.shape != (1, d, m) or len(data["lattice"]) != m * m:
                return f"{kind}: generators {gens.shape}, |L|={len(data['lattice'])}"
            if max(abs(data["lower"] - 1.0), abs(data["upper"] - 1.0)) > TOL_PARSEVAL:
                return f"{kind}: reported bounds ({data['lower']}, {data['upper']})"
            mats = self.tf_mats[group][data["lattice"]]
            vecs = np.einsum("gst,ijt->igjs", mats, gens).reshape(-1, d * m)
            eigs = np.linalg.eigvalsh(vecs.T @ vecs.conj())
            if np.abs(eigs - 1.0).max() > TOL_PARSEVAL:
                return f"{kind}: frame operator eigenvalues in [{eigs[0]}, {eigs[-1]}]"
            return None

        return Request(kind, self._main(["construct", "--config", config, "--out", out]), check)

    def _infeasible(self, group, m, k) -> Request:
        out = self._out()
        argv = ["construct", "--group", group, "--cocycle", "weyl-heisenberg",
                "--lattice", f"(1,{k})", "--n", "1", "--d", "2", "--out", out]
        kind = f"construct {group} (1,{k}) n=1 d=2"

        def check(rc) -> str | None:
            if rc != 2 or os.path.exists(out):
                return f"{kind}: exit code {rc} on an infeasible cell"
            return None

        return Request(kind, self._main(argv), check)


WORKLOADS = {w.name: w for w in (Scan, Construct, Routes, Cli)}
