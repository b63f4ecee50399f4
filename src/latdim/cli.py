"""Command line front end.

Every subcommand reads plain files (JSON, Cayley text, CSV), prints
deterministic output for a fixed seed, and signals problems through
exit codes: 0 success, 1 a bad command line, bad input, failed
validation or a failed internal check, 2 a request that is provably
infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from functools import cache, reduce
from typing import Sequence

import numpy as np

from .algebra import center_valued_trace_table
from .cocycles import Cocycle, regularity, trivial, validate
from .config import DEFAULT_TOL, Tolerances
from .dimension import make_module_spec, phi, phi_oracle, random_window, windowed_rep
from .errors import Infeasible, InputError, LatdimError, NotIrreducible
from .frames import (
    construct_parseval_generators,
    existence_decision,
    frame_report,
    multiwindow_system,
)
from .gabor import (
    TimeFrequencyGroup,
    audit_rows,
    build_tf,
    gabor_scan,
    read_scan_csv,
    write_scan_csv,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    build_cyclic,
    cyclic_factor_generators,
    dihedral,
    direct_product,
    dual_group,
    full_subgroup,
    quaternion,
    subgroup_generated,
    symmetric_group,
    trivial_subgroup,
)
from .reps import ProjectiveRep, formal_dimension, irreducible_subrep
from .serialize import (
    cocycle_from_json,
    complex_to_pairs,
    dump_json,
    generators_to_json,
    load_json,
    read_cayley_text,
    rep_from_json,
)


@dataclass(frozen=True)
class RunConfig:
    """Merged settings for one invocation.

    Precedence is defaults, then the --config file, then explicit
    command line flags.
    """

    group: str | None = None
    cocycle: str = "trivial"
    rep: str | None = None
    lattice: str | None = None
    n: int = 1
    d: int = 1
    seed: int = 0
    base: str | None = None
    nmax: int = 3
    dmax: int = 3
    construct: bool = False
    in_path: str | None = None
    out: str | None = None
    tolerances: Tolerances = DEFAULT_TOL


# JSON type each config key must hold; null means "not set"
_CONFIG_TYPES = {
    "group": str, "cocycle": str, "rep": str, "lattice": str, "base": str,
    "in": str, "out": str, "n": int, "d": int, "seed": int, "nmax": int,
    "dmax": int, "construct": bool, "tolerances": dict,
}

_ATOM = re.compile(r"^([ZDSQ])(\d+)$")
_TUPLE = re.compile(r"\(([^()]*)\)")


def _build_tolerances(data) -> Tolerances:
    if not data:
        return DEFAULT_TOL
    if not isinstance(data, dict):
        raise InputError("config key 'tolerances' must be an object")
    allowed = {f.name for f in fields(Tolerances)}
    bad = sorted(set(data) - allowed)
    if bad:
        raise InputError(f"unknown tolerance keys: {bad}")
    try:
        return replace(DEFAULT_TOL, **{k: float(v) for k, v in data.items()})
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad tolerance value: {exc}") from None


def _build_atom(token: str) -> FiniteGroup:
    m = _ATOM.match(token)
    if m is None:
        raise InputError(
            f"unknown group token {token!r}; expected Z<n>, D<n>, S<n>, or Q8"
        )
    kind, num = m.group(1), int(m.group(2))
    if kind == "Z":
        return build_cyclic(num)
    if kind == "S":
        return symmetric_group(num)
    if kind == "D":
        return dihedral(num)
    if num != 8:
        raise InputError(f"unknown group token {token!r}; only Q8 is built in")
    return quaternion()


def _token_group(spec: str) -> tuple[FiniteGroup, tuple[int, ...]]:
    tokens = spec.split("x")
    if not all(tokens):
        raise InputError(f"malformed group spec {spec!r}")
    atoms = [_build_atom(t) for t in tokens]
    factors = tuple(a.order for a in atoms)
    return reduce(direct_product, atoms), factors


def _tf_group(base_spec: str,
              tol: Tolerances = DEFAULT_TOL) -> tuple[TimeFrequencyGroup, tuple[int, ...]]:
    """Time-frequency data over builtin base tokens, in row-major coordinates, rep at ``tol``."""
    base, factors = _token_group(base_spec)
    gens, orders = cyclic_factor_generators(list(factors))
    return build_tf(base, dual_group(base, gens, orders), tol), factors


def _build_group(spec: str) -> FiniteGroup:
    """Either a product of builtin tokens or a path to a Cayley table."""
    tokens = spec.split("x")
    if all(_ATOM.match(t) for t in tokens):
        return _token_group(spec)[0]
    if os.path.exists(spec):
        return read_cayley_text(spec)
    raise InputError(
        f"group spec {spec!r} is neither builtin tokens nor an existing file"
    )


def _check_same_table(a: FiniteGroup, b: FiniteGroup, what: str) -> None:
    if a.order != b.order or not np.array_equal(a.cayley, b.cayley):
        raise InputError(f"--group disagrees with the group inside {what}")


@dataclass(frozen=True)
class _Resolved:
    group: FiniteGroup
    cocycle: Cocycle
    tf: TimeFrequencyGroup | None = None
    factors: tuple[int, ...] | None = None


def _resolve_pair(cfg: RunConfig, check: bool = True,
                  rep_tol: Tolerances = DEFAULT_TOL) -> _Resolved:
    """Group and cocycle; a built-in Weyl-Heisenberg rep carries ``rep_tol``, set on rep paths."""
    spec = cfg.cocycle
    if spec == "weyl-heisenberg":
        if cfg.group is None:
            raise InputError("--cocycle weyl-heisenberg needs --group AxA")
        tokens = cfg.group.split("x")
        half = len(tokens) // 2
        if len(tokens) % 2 or tokens[:half] != tokens[half:]:
            raise InputError(
                "weyl-heisenberg needs a group of the form AxA, two "
                "identical token halves"
            )
        tf, factors = _tf_group("x".join(tokens[:half]), rep_tol)
        return _Resolved(tf.group, tf.cocycle, tf, factors)
    if spec == "trivial":
        if cfg.group is None:
            raise InputError("--cocycle trivial needs --group")
        g = _build_group(cfg.group)
        return _Resolved(g, trivial(g))
    c = cocycle_from_json(load_json(spec), check=check, tol=cfg.tolerances)
    if cfg.group is not None:
        _check_same_table(_build_group(cfg.group), c.group, "the cocycle file")
    return _Resolved(c.group, c)


def _resolve_rep(cfg: RunConfig) -> tuple[ProjectiveRep, _Resolved]:
    """The rep of --rep, the built-in Weyl-Heisenberg rep, or an irrep cut from the cocycle.

    The cut is ``irreducible_subrep`` seeded by --seed, at the configured tolerances.
    """
    if cfg.rep is not None:
        rep = rep_from_json(load_json(cfg.rep), tol=cfg.tolerances)
        if cfg.group is not None:
            _check_same_table(_build_group(cfg.group), rep.group, "the rep file")
        return rep, _Resolved(rep.group, rep.cocycle)
    res = _resolve_pair(cfg, rep_tol=cfg.tolerances)
    if res.tf is not None:
        return res.tf.rep, res
    return irreducible_subrep(res.group, res.cocycle, seed=cfg.seed, tol=cfg.tolerances), res


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise InputError(f"bad {what} {text!r}; expected an integer") from None


def _parse_lattice(cfg: RunConfig, res: _Resolved) -> Subgroup:
    g = res.group
    s = (cfg.lattice or "full").strip()
    if s == "full":
        return full_subgroup(g)
    if s == "trivial":
        return trivial_subgroup(g)
    if "(" in s:
        if res.factors is None:
            raise InputError(
                "coordinate tuples only make sense with the built-in "
                "weyl-heisenberg construction; pass element indices instead"
            )
        radices = res.factors + res.factors
        leftover = _TUPLE.sub("", s).replace(",", "").strip()
        if leftover:
            raise InputError(f"malformed lattice spec {s!r}")
        gens = []
        for body in _TUPLE.findall(s):
            parts = body.split(",")
            if len(parts) != len(radices):
                raise InputError(
                    f"lattice tuple ({body}) has {len(parts)} coordinates, "
                    f"expected {len(radices)}"
                )
            coords = [
                _parse_int(p, "lattice coordinate") % m
                for p, m in zip(parts, radices)
            ]
            gens.append(int(np.ravel_multi_index(coords, radices)))
        return subgroup_generated(g, gens)
    gens = [_parse_int(p, "lattice element index") for p in s.split(",")]
    for i in gens:
        if i < 0 or i >= g.order:
            raise InputError(
                f"lattice element index {i} out of range for order {g.order}"
            )
    return subgroup_generated(g, gens)


def _emit(data: dict, out: str | None) -> None:
    if out is not None:
        dump_json(data, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_validate_cocycle(cfg: RunConfig) -> int:
    res = _resolve_pair(cfg, check=False)
    rpt = validate(res.cocycle, cfg.tolerances)
    print(f"cocycle {'ok' if rpt.ok else 'invalid'}")
    print(f"unit-residual {rpt.unit_residual:.6g}")
    print(f"identity-residual {rpt.identity_residual:.6g}")
    print(f"normalization-residual {rpt.normalization_residual:.6g}")
    if not rpt.ok:
        x, y, z = rpt.worst_triple
        print(f"worst-triple {x} {y} {z}")
        print(rpt.message)
        return 1
    return 0


def _cmd_kleppner(cfg: RunConfig) -> int:
    res = _resolve_pair(cfg)
    r = regularity(res.cocycle, cfg.tolerances)
    n_el = int(np.count_nonzero(r.regular_elements))
    print(f"kleppner {'yes' if r.kleppner else 'no'}")
    print(f"regular-elements {n_el} of {res.group.order}")
    return 0


def _cmd_cvt(cfg: RunConfig) -> int:
    res = _resolve_pair(cfg)
    g = res.group
    table = complex_to_pairs(center_valued_trace_table(res.cocycle, cfg.tolerances))
    rows = [{"gamma": gamma, "coeffs": coeffs} for gamma, coeffs in enumerate(table)]
    _emit({"group": g.label, "order": g.order, "rows": rows}, cfg.out)
    return 0


def _cmd_phi(cfg: RunConfig) -> int:
    rep, res = _resolve_rep(cfg)
    lat = _parse_lattice(cfg, res)
    spec = make_module_spec(rep, lat)
    fn = spec.dimension_function
    rows = []
    for i in range(lat.order):
        v = fn.values[i]
        rows.append(
            {
                "gamma": int(lat.elements[i]),
                "value": [float(v.real), float(v.imag)],
                "regular": bool(spec.regular[i]),
            }
        )
    _emit(
        {
            "group": rep.group.label,
            "lattice_order": lat.order,
            "dpi_vol": spec.dpi_vol,
            "rows": rows,
        },
        cfg.out,
    )
    return 0


def _cmd_decide(cfg: RunConfig) -> int:
    rep, res = _resolve_rep(cfg)
    lat = _parse_lattice(cfg, res)
    spec = make_module_spec(rep, lat)
    dec = existence_decision(spec, cfg.n, cfg.d)
    print(f"frame {'yes' if dec.frame else 'no'}")
    print(f"riesz {'yes' if dec.riesz else 'no'}")
    print(f"basis {'yes' if dec.basis else 'no'}")
    if cfg.out is not None:
        dump_json(asdict(dec), cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def _cmd_construct(cfg: RunConfig) -> int:
    rep, res = _resolve_rep(cfg)
    lat = _parse_lattice(cfg, res)
    spec = make_module_spec(rep, lat)
    gens = construct_parseval_generators(spec, cfg.n, cfg.d, seed=cfg.seed)
    rpt = frame_report(multiwindow_system(rep, lat, gens))
    print("parseval ok")
    print(f"bounds {rpt.lower:.12g} {rpt.upper:.12g}")
    if cfg.out is not None:
        payload = generators_to_json(gens)
        payload["group"] = rep.group.label
        payload["lattice"] = [int(x) for x in lat.elements]
        payload["lower"] = rpt.lower
        payload["upper"] = rpt.upper
        dump_json(payload, cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def _cmd_routes(cfg: RunConfig) -> int:
    """phi against phi_oracle on every lattice; exit 1 above tol_id."""
    rep, _ = _resolve_rep(cfg)
    g = rep.group
    print(f"group {g.label}, order {g.order}, irrep dim {rep.dim}")
    source = windowed_rep(rep, random_window(rep.dim, cfg.seed))
    gaps = []
    for sub in all_subgroups(g):
        spec = source.spec(sub)
        closed = phi(spec)
        gap = float(np.abs(closed.values - phi_oracle(spec).values).max())
        gaps.append(gap)
        vals = " ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in closed.values)
        print(
            f"|lattice| {sub.order:3d}  dpi_vol {spec.dpi_vol:8.4f}  "
            f"regular {int(spec.regular.sum()):3d}  gap {gap:.2e}  phi [{vals}]"
        )
    worst = float(np.max(gaps))  # keeps a NaN gap, which then fails
    print(f"worst formula/embedding gap {worst:.3e}")
    return 0 if worst <= rep.tol.tol_id else 1


def _cmd_gabor_scan(cfg: RunConfig) -> int:
    if cfg.base is None:
        raise InputError("gabor-scan needs --base, e.g. --base Z4")
    if cfg.out is None:
        raise InputError("gabor-scan needs --out FILE.csv")
    tf, _ = _tf_group(cfg.base, cfg.tolerances)
    rows = gabor_scan(
        tf, cfg.nmax, cfg.dmax, construct=cfg.construct, seed=cfg.seed
    )
    write_scan_csv(rows, cfg.out)
    print(f"rows {len(rows)}")
    print(f"lattices {len(rows) // (cfg.nmax * cfg.dmax)}")
    print(f"wrote {cfg.out}")
    return 0


def _cmd_density_audit(cfg: RunConfig) -> int:
    if cfg.in_path is None:
        raise InputError("density-audit needs --in FILE.csv")
    rows = read_scan_csv(cfg.in_path)
    problems = audit_rows(rows)
    for p in problems:
        print(f"violation: {p}")
    print(f"rows {len(rows)}")
    print(f"violations {len(problems)}")
    return 1 if problems else 0


def _cmd_rep_validate(cfg: RunConfig) -> int:
    if cfg.rep is None:
        raise InputError("rep-validate needs --rep FILE")
    rpt = rep_from_json(load_json(cfg.rep), check=False, tol=cfg.tolerances).report
    print(f"rep {'ok' if rpt.ok else 'invalid'}")
    print(f"unitary-residual {rpt.unitary_residual:.6g}")
    print(f"composition-residual {rpt.composition_residual:.6g}")
    if not rpt.ok:
        print(rpt.message)
        return 1
    return 0


def _cmd_rep_dpi(cfg: RunConfig) -> int:
    rep, _ = _resolve_rep(cfg)
    d = formal_dimension(rep)
    print(f"dim {rep.dim}")
    print(f"group-order {rep.group.order}")
    print(f"formal-dimension {d:.12g}")
    return 0


_FLAGS = {
    "config": dict(metavar="FILE", help="JSON file with defaults; flags override it"),
    "group": dict(metavar="SPEC", help="builtin tokens joined by x (Z4, Z2xZ4, S3, D4, "
                                       "Q8) or a Cayley table file"),
    "cocycle": dict(metavar="SPEC", help="trivial, weyl-heisenberg, or a JSON file"),
    "rep": dict(metavar="FILE", help="representation JSON (overrides --group/--cocycle)"),
    "lattice": dict(metavar="SPEC", help="full, trivial, element indices 0,3,5, or "
                                         "coordinate tuples (1,0,2,0),(0,1,0,0)"),
    "n": dict(type=int, help="number of generator windows"),
    "d": dict(type=int, help="number of stacked copies of the module"),
    "base": dict(metavar="SPEC", help="abelian base, builtin tokens only, e.g. Z2xZ4"),
    "nmax": dict(type=int),
    "dmax": dict(type=int),
    "construct": dict(action="store_true", help="also build generators on feasible cells"),
    "in": dict(dest="in_path", metavar="FILE"),
    "out": dict(metavar="FILE"),
    "seed": dict(type=int, help="seeds the irrep cut from a cocycle and every random draw"),
    "tol-unit": dict(type=float),
    "tol-id": dict(type=float),
    "tol-psd": dict(type=float),
    "tol-frame": dict(type=float),
}

# subcommand -> (handler, help, the flags that some input path of it reads)
_COMMANDS = {
    "validate-cocycle": (_cmd_validate_cocycle, "check the two-variable composition law",
                         "group cocycle tol-unit tol-id"),
    "kleppner": (_cmd_kleppner, "is the identity class the only regular one",
                 "group cocycle tol-unit tol-id"),
    "cvt": (_cmd_cvt, "center-valued trace of every group translate",
            "group cocycle out tol-unit tol-id"),
    "phi": (_cmd_phi, "dimension function of the module on a lattice",
            "group cocycle rep lattice seed out tol-unit tol-id"),
    "decide": (_cmd_decide, "frame / Riesz / basis existence for (n, d)",
               "group cocycle rep lattice n d seed out tol-unit tol-id tol-psd"),
    "construct": (_cmd_construct, "build Parseval generators when they exist",
                  "group cocycle rep lattice n d seed out tol-unit tol-id tol-psd tol-frame"),
    "routes": (_cmd_routes, "class formula against module embedding on every lattice",
               "group cocycle rep seed tol-unit tol-id"),
    "gabor-scan": (_cmd_gabor_scan, "scan every lattice of a time-frequency group",
                   "base nmax dmax construct seed out tol-unit tol-id tol-psd tol-frame"),
    "density-audit": (_cmd_density_audit, "re-check a scan CSV against the density bound",
                      "in"),
    "rep-validate": (_cmd_rep_validate, "unitarity and twisted composition of a stored rep",
                     "rep tol-unit tol-id"),
    "rep-dpi": (_cmd_rep_dpi, "formal dimension of an irreducible rep",
                "group cocycle rep tol-unit tol-id"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as InputError, which exits 1 like any bad input."""

    def error(self, message):
        raise InputError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first call and reused; parsing leaves it unchanged."""
    p = _Parser(
        prog="latdim",
        description="Twisted group algebras: dimension functions, frame "
                    "and Riesz existence, explicit tight systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, text, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        for flag in ("config", *flags.split()):
            cmd.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return p


def _merge(args: argparse.Namespace) -> RunConfig:
    file_data: dict = {}
    if args.config:
        raw = load_json(args.config)
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object")
        unknown = sorted(set(raw) - set(_CONFIG_TYPES))
        if unknown:
            raise InputError(f"unknown config keys: {unknown}")
        for key, v in raw.items():
            # type() rather than isinstance: JSON true is not a count
            if v is not None and type(v) is not _CONFIG_TYPES[key]:
                raise InputError(
                    f"config key {key!r} must be a JSON "
                    f"{_CONFIG_TYPES[key].__name__}, got {v!r}"
                )
        file_data = raw

    def pick(name: str):
        v = getattr(args, name, None)
        if v is None:
            v = file_data.get("in" if name == "in_path" else name)
        return v

    tols = _build_tolerances(file_data.get("tolerances"))
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(Tolerances)
        if getattr(args, f.name, None) is not None
    }
    if overrides:
        tols = replace(tols, **overrides)
    cfg = RunConfig(tolerances=tols, **{
        f.name: f.default if (v := pick(f.name)) is None else v
        for f in fields(RunConfig) if f.name != "tolerances"
    })
    # range checks only for the counts this subcommand reads; a shared config
    # file may hold other subcommands' keys
    reads = _COMMANDS[args.command][2].split()
    for name in ("n", "d", "nmax", "dmax"):
        if name in reads and getattr(cfg, name) < 1:
            raise InputError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if "seed" in reads and cfg.seed < 0:
        raise InputError(f"seed must be non-negative, got {cfg.seed}")
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_merge(args))
    except (Infeasible, NotIrreducible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (LatdimError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
