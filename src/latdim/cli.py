"""Command line front end.

Every subcommand reads plain files (JSON, Cayley text, CSV), prints
deterministic output for a fixed seed, and signals problems through
exit codes: 0 success, 1 bad input or failed validation, 2 a request
that is provably infeasible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .algebra import center_valued_trace, element
from .cocycles import Cocycle, regularity, trivial, validate
from .config import DEFAULT_TOL, Tolerances
from .dimension import make_module_spec, phi, phi_oracle, random_window
from .errors import Infeasible, InputError, NotIrreducible, PreconditionFailed
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
from .reps import ProjectiveRep, formal_dimension, irreducible_subrep, validate_rep
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


def _tf_group(base_spec: str) -> tuple[TimeFrequencyGroup, tuple[int, ...]]:
    """Time-frequency data over builtin base tokens, in row-major coordinates."""
    base, factors = _token_group(base_spec)
    gens, orders = cyclic_factor_generators(list(factors))
    return build_tf(base, dual_group(base, gens, orders)), factors


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


def _resolve_pair(cfg: RunConfig, check: bool = True) -> _Resolved:
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
        tf, factors = _tf_group("x".join(tokens[:half]))
        return _Resolved(tf.group, tf.cocycle, tf, factors)
    if spec == "trivial":
        if cfg.group is None:
            raise InputError("--cocycle trivial needs --group")
        g = _build_group(cfg.group)
        return _Resolved(g, trivial(g))
    c = cocycle_from_json(load_json(spec), check=check)
    if cfg.group is not None:
        _check_same_table(_build_group(cfg.group), c.group, "the cocycle file")
    return _Resolved(c.group, c)


def _resolve_rep(cfg: RunConfig) -> tuple[ProjectiveRep, _Resolved]:
    if cfg.rep is not None:
        rep = rep_from_json(load_json(cfg.rep))
        if cfg.group is not None:
            _check_same_table(_build_group(cfg.group), rep.group, "the rep file")
        return rep, _Resolved(rep.group, rep.cocycle)
    res = _resolve_pair(cfg)
    if res.tf is None:
        raise InputError(
            "this command needs a representation: pass --rep FILE or "
            "--cocycle weyl-heisenberg"
        )
    return res.tf.rep, res


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
    rows = []
    for gamma in range(g.order):
        coeffs = np.zeros(g.order, dtype=np.complex128)
        coeffs[gamma] = 1.0
        t = center_valued_trace(element(res.cocycle, coeffs))
        rows.append({"gamma": gamma, "coeffs": complex_to_pairs(t.coeffs)})
    _emit({"group": g.label, "order": g.order, "rows": rows}, cfg.out)
    return 0


def _cmd_phi(cfg: RunConfig) -> int:
    rep, res = _resolve_rep(cfg)
    lat = _parse_lattice(cfg, res)
    spec = make_module_spec(rep, lat)
    fn = phi(spec)
    rows = []
    for i in range(lat.order):
        v = fn.values[i]
        rows.append(
            {
                "gamma": int(lat.elements[i]),
                "value": [float(v.real), float(v.imag)],
                "regular": bool(fn.regular[i]),
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
    dec = existence_decision(spec, cfg.n, cfg.d, cfg.tolerances)
    print(f"frame {'yes' if dec.frame else 'no'}")
    print(f"riesz {'yes' if dec.riesz else 'no'}")
    print(f"basis {'yes' if dec.basis else 'no'}")
    if cfg.out is not None:
        dump_json(
            {
                "frame": dec.frame,
                "riesz": dec.riesz,
                "basis": dec.basis,
                "frame_witness": dec.frame_witness,
                "riesz_witness": dec.riesz_witness,
                "basis_residual": dec.basis_residual,
                "dpi_vol": dec.dpi_vol,
                "n": dec.n,
                "d": dec.d,
            },
            cfg.out,
        )
        print(f"wrote {cfg.out}")
    return 0


def _cmd_construct(cfg: RunConfig) -> int:
    rep, res = _resolve_rep(cfg)
    lat = _parse_lattice(cfg, res)
    spec = make_module_spec(rep, lat)
    gens = construct_parseval_generators(
        spec, cfg.n, cfg.d, seed=cfg.seed, tol=cfg.tolerances
    )
    rpt = frame_report(multiwindow_system(rep, lat, gens), cfg.tolerances)
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
    if cfg.rep is not None or cfg.cocycle == "weyl-heisenberg":
        rep, _ = _resolve_rep(cfg)
    else:
        res = _resolve_pair(cfg)
        rep = irreducible_subrep(res.group, res.cocycle, seed=cfg.seed)
    g = rep.group
    print(f"group {cfg.group or g.label}, order {g.order}, irrep dim {rep.dim}")
    window = random_window(rep.dim, cfg.seed)
    gaps = []
    for sub in all_subgroups(g):
        spec = make_module_spec(rep, sub, window=window)
        closed = phi(spec)
        gap = float(np.abs(closed.values - phi_oracle(spec).values).max())
        gaps.append(gap)
        vals = " ".join(f"{v.real:+.4f}{v.imag:+.4f}j" for v in closed.values)
        print(
            f"|lattice| {sub.order:3d}  dpi_vol {spec.dpi_vol:8.4f}  "
            f"regular {int(closed.regular.sum()):3d}  gap {gap:.2e}  phi [{vals}]"
        )
    worst = float(np.max(gaps))  # keeps a NaN gap, which then fails
    print(f"worst formula/embedding gap {worst:.3e}")
    return 0 if worst <= cfg.tolerances.tol_id else 1


def _cmd_gabor_scan(cfg: RunConfig) -> int:
    if cfg.base is None:
        raise InputError("gabor-scan needs --base, e.g. --base Z4")
    if cfg.out is None:
        raise InputError("gabor-scan needs --out FILE.csv")
    tf, _ = _tf_group(cfg.base)
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
    rep = rep_from_json(load_json(cfg.rep), check=False)
    rpt = validate_rep(rep, cfg.tolerances)
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


_HANDLERS = {
    "validate-cocycle": _cmd_validate_cocycle,
    "kleppner": _cmd_kleppner,
    "cvt": _cmd_cvt,
    "phi": _cmd_phi,
    "decide": _cmd_decide,
    "construct": _cmd_construct,
    "routes": _cmd_routes,
    "gabor-scan": _cmd_gabor_scan,
    "density-audit": _cmd_density_audit,
    "rep-validate": _cmd_rep_validate,
    "rep-dpi": _cmd_rep_dpi,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", default=None, metavar="FILE",
                        help="JSON file with defaults; flags override it")
    shared.add_argument("--out", default=None, metavar="FILE")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument("--tol-unit", dest="tol_unit", type=float, default=None)
    shared.add_argument("--tol-id", dest="tol_id", type=float, default=None)
    shared.add_argument("--tol-psd", dest="tol_psd", type=float, default=None)
    shared.add_argument("--tol-frame", dest="tol_frame", type=float,
                        default=None)

    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--group", default=None, metavar="SPEC",
                      help="builtin tokens joined by x (Z4, Z2xZ4, S3, D4, "
                           "Q8) or a Cayley table file")
    pair.add_argument("--cocycle", default=None, metavar="SPEC",
                      help="trivial, weyl-heisenberg, or a JSON file")

    repfile = argparse.ArgumentParser(add_help=False)
    repfile.add_argument("--rep", default=None, metavar="FILE",
                         help="representation JSON (overrides --group/--cocycle)")
    module = argparse.ArgumentParser(add_help=False, parents=[repfile])
    module.add_argument("--lattice", default=None, metavar="SPEC",
                        help="full, trivial, element indices 0,3,5, or "
                             "coordinate tuples (1,0,2,0),(0,1,0,0)")

    counts = argparse.ArgumentParser(add_help=False)
    counts.add_argument("--n", type=int, default=None,
                        help="number of generator windows")
    counts.add_argument("--d", type=int, default=None,
                        help="number of stacked copies of the module")

    p = argparse.ArgumentParser(
        prog="latdim",
        description="Twisted group algebras: dimension functions, frame "
                    "and Riesz existence, explicit tight systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate-cocycle", parents=[shared, pair],
                   help="check the two-variable composition law")
    sub.add_parser("kleppner", parents=[shared, pair],
                   help="is the identity class the only regular one")
    sub.add_parser("cvt", parents=[shared, pair],
                   help="center-valued trace of every group translate")
    sub.add_parser("phi", parents=[shared, pair, module],
                   help="dimension function of the module on a lattice")
    sub.add_parser("decide", parents=[shared, pair, module, counts],
                   help="frame / Riesz / basis existence for (n, d)")
    sub.add_parser("construct", parents=[shared, pair, module, counts],
                   help="build Parseval generators when they exist")
    sub.add_parser("routes", parents=[shared, pair, repfile],
                   help="class formula against module embedding on every "
                        "lattice")
    scan = sub.add_parser("gabor-scan", parents=[shared],
                          help="scan every lattice of a time-frequency group")
    scan.add_argument("--base", default=None, metavar="SPEC",
                      help="abelian base, builtin tokens only, e.g. Z2xZ4")
    scan.add_argument("--nmax", type=int, default=None)
    scan.add_argument("--dmax", type=int, default=None)
    scan.add_argument("--construct", action="store_true", default=None,
                      help="also build generators on feasible cells")
    audit = sub.add_parser("density-audit", parents=[shared],
                           help="re-check a scan CSV against the density bound")
    audit.add_argument("--in", dest="in_path", default=None, metavar="FILE")
    sub.add_parser("rep-validate", parents=[shared, module],
                   help="unitarity and twisted composition of a stored rep")
    sub.add_parser("rep-dpi", parents=[shared, pair, module],
                   help="formal dimension of an irreducible rep")
    return p


def _merge(args: argparse.Namespace) -> RunConfig:
    file_data: dict = {}
    if getattr(args, "config", None):
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

    def pick(name: str, default, file_key: str | None = None):
        v = getattr(args, name, None)
        if v is not None:
            return v
        fv = file_data.get(file_key or name)
        return default if fv is None else fv

    tols = _build_tolerances(file_data.get("tolerances"))
    overrides = {
        k: getattr(args, k)
        for k in ("tol_unit", "tol_id", "tol_psd", "tol_frame")
        if getattr(args, k, None) is not None
    }
    if overrides:
        tols = replace(tols, **overrides)
    cfg = RunConfig(
        group=pick("group", None),
        cocycle=pick("cocycle", "trivial"),
        rep=pick("rep", None),
        lattice=pick("lattice", None),
        n=pick("n", 1),
        d=pick("d", 1),
        seed=pick("seed", 0),
        base=pick("base", None),
        nmax=pick("nmax", 3),
        dmax=pick("dmax", 3),
        construct=pick("construct", False),
        in_path=pick("in_path", None, "in"),
        out=pick("out", None),
        tolerances=tols,
    )
    for name in ("n", "d", "nmax", "dmax"):
        if getattr(cfg, name) < 1:
            raise InputError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    if cfg.seed < 0:
        raise InputError(f"seed must be non-negative, got {cfg.seed}")
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        return _HANDLERS[args.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (Infeasible, PreconditionFailed, NotIrreducible) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
