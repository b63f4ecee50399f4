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
import math
import os
import re
import sys
from dataclasses import asdict, fields
from functools import cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import center_valued_trace_table
from .cocycles import Cocycle, lattice_regular, regularity, trivial, validate, weyl_heisenberg
from .config import TF_BASE, Tolerances
from .dimension import (ModuleSpec, make_module_spec, phi_oracle_values, phi_values,
                        random_window, windowed_rep)
from .errors import BoundExceeded, Infeasible, InputError, LatdimError, NotIrreducible
from .frames import (construct_parseval_generators, existence_decision, frame_report,
                     multiwindow_system)
from .gabor import audit_rows, build_tf, gabor_scan, read_scan_csv, write_scan_csv
from .groups import (SUBGROUP_ENUM_BOUND, DualGroup, FiniteGroup, Subgroup, block_slices,
                     build_cyclic, cyclic_factor_generators, dihedral, direct_product,
                     dual_group, full_subgroup, quaternion, subgroup_blocks, subgroup_generated,
                     symmetric_group, trivial_subgroup)
from .reps import ProjectiveRep, formal_dimension, irreducible_subrep
from .serialize import (_typed, cocycle_from_json, complex_to_pairs, dump_json,
                        generators_to_json, load_json, read_cayley_text, rep_from_json)


_ATOM = re.compile(r"^([ZDSQ])(\d+)$")
_TUPLE = re.compile(r"\(([^()]*)\)")


def _atom_order(token: str) -> int:
    """The order of a builtin token, read off the token itself."""
    m = _ATOM.match(token)
    if m is None:
        raise InputError(
            f"unknown group token {token!r}; expected Z<n>, D<n>, S<n>, or Q8"
        )
    kind, num = m.group(1), int(m.group(2))
    if kind == "Q" and num != 8:
        raise InputError(f"unknown group token {token!r}; only Q8 is built in")
    if num < 1:  # an empty factor would let any other factor past the bound
        raise InputError(f"group token {token!r} needs n >= 1")
    if kind == "S":
        if num > 5:
            raise InputError("symmetric_group supports 1 <= n <= 5")
        return math.factorial(num)
    return {"Z": num, "D": 2 * num, "Q": 8}[kind]


_BUILDERS = {"Z": build_cyclic, "D": dihedral, "S": symmetric_group, "Q": lambda _: quaternion()}


def _token_group(spec: str) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The product of builtin tokens and the factor orders; the order is bounded first."""
    tokens = spec.split("x")
    if not all(tokens):
        raise InputError(f"malformed group spec {spec!r}")
    factors = tuple(_atom_order(t) for t in tokens)
    order = math.prod(factors)
    if order > SUBGROUP_ENUM_BOUND:
        raise BoundExceeded(f"group order {order} exceeds {SUBGROUP_ENUM_BOUND}")
    atoms = [_BUILDERS[t[0]](int(t[1:])) for t in tokens]
    return reduce(direct_product, atoms), factors


def _tf_parts(base_spec: str) -> tuple[FiniteGroup, DualGroup, tuple[int, ...]]:
    """Base of builtin tokens, its dual in row-major coordinates, and the factor orders."""
    base, factors = _token_group(base_spec)
    if base.order > TF_BASE:
        raise BoundExceeded(
            f"base order {base.order} exceeds {TF_BASE}; the product group would be too large"
        )
    return base, dual_group(base, *cyclic_factor_generators(list(factors))), factors


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


def _wh_parts(cfg: argparse.Namespace) -> tuple[FiniteGroup, DualGroup, tuple[int, ...]]:
    """``_tf_parts`` of the base A of --group AxA."""
    if cfg.group is None:
        raise InputError("--cocycle weyl-heisenberg needs --group AxA")
    tokens = cfg.group.split("x")
    half = len(tokens) // 2
    if len(tokens) % 2 or tokens[:half] != tokens[half:]:
        raise InputError(
            "weyl-heisenberg needs a group of the form AxA, two identical token halves"
        )
    return _tf_parts("x".join(tokens[:half]))


def _cocycle(cfg: argparse.Namespace, check: bool = True) -> Cocycle:
    """The cocycle of --cocycle over --group; no rep is built."""
    if cfg.cocycle == "weyl-heisenberg":
        return weyl_heisenberg(*_wh_parts(cfg)[:2])
    if cfg.cocycle == "trivial":
        if cfg.group is None:
            raise InputError("--cocycle trivial needs --group")
        return trivial(_build_group(cfg.group))
    c = cocycle_from_json(load_json(cfg.cocycle), check=check, tol=cfg.tolerances)
    if cfg.group is not None:
        _check_same_table(_build_group(cfg.group), c.group, "the cocycle file")
    return c


def _resolve_rep(cfg: argparse.Namespace) -> tuple[ProjectiveRep, tuple[int, ...] | None]:
    """The rep of --rep, the built-in Weyl-Heisenberg rep, or an irrep cut from the cocycle.

    Every rep carries the configured tolerances; the cut is ``irreducible_subrep``
    seeded by --seed.  The factor orders come back on the built-in route only.
    """
    if cfg.rep is not None:
        rep = rep_from_json(load_json(cfg.rep), tol=cfg.tolerances)
        if cfg.group is not None:
            _check_same_table(_build_group(cfg.group), rep.group, "the rep file")
        return rep, None
    if cfg.cocycle == "weyl-heisenberg":
        base, dual, factors = _wh_parts(cfg)
        return build_tf(base, dual, cfg.tolerances).rep, factors
    c = _cocycle(cfg)
    return irreducible_subrep(c.group, c, seed=cfg.seed, tol=cfg.tolerances), None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise InputError(f"bad {what} {text!r}; expected an integer") from None


def _parse_lattice(spec: str | None, g: FiniteGroup,
                   factors: tuple[int, ...] | None) -> Subgroup:
    s = "full" if spec is None else spec.strip()
    if s == "full":
        return full_subgroup(g)
    if s == "trivial":
        return trivial_subgroup(g)
    if "(" in s:
        if factors is None:
            raise InputError(
                "coordinate tuples only make sense with the built-in "
                "weyl-heisenberg construction; pass element indices instead"
            )
        radices = factors + factors
        bodies = _TUPLE.findall(s)
        # tuples joined by single commas, with nothing else between them
        if "".join(_TUPLE.sub("()", s).split()) != ",".join(["()"] * len(bodies)):
            raise InputError(f"malformed lattice spec {s!r}")
        gens = []
        for body in bodies:
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


def _module(cfg: argparse.Namespace) -> tuple[ProjectiveRep, Subgroup, ModuleSpec]:
    """The rep, the lattice of --lattice, and the module over it."""
    rep, factors = _resolve_rep(cfg)
    lat = _parse_lattice(cfg.lattice, rep.group, factors)
    return rep, lat, make_module_spec(rep, lat)


def _emit(data: dict, out: str | None) -> None:
    if out is not None:
        dump_json(data, out)
        print(f"wrote {out}")
    else:
        print(json.dumps(data, indent=2, sort_keys=True))


def _cmd_validate_cocycle(cfg: argparse.Namespace) -> int:
    rpt = validate(_cocycle(cfg, check=False), cfg.tolerances)
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


def _cmd_kleppner(cfg: argparse.Namespace) -> int:
    c = _cocycle(cfg)
    r = regularity(c, cfg.tolerances)
    n_el = int(np.count_nonzero(r.regular_elements))
    print(f"kleppner {'yes' if r.kleppner else 'no'}")
    print(f"regular-elements {n_el} of {c.group.order}")
    return 0


def _cmd_cvt(cfg: argparse.Namespace) -> int:
    c = _cocycle(cfg)
    g = c.group
    table = complex_to_pairs(center_valued_trace_table(c, cfg.tolerances))
    rows = [{"gamma": gamma, "coeffs": coeffs} for gamma, coeffs in enumerate(table)]
    _emit({"group": g.label, "order": g.order, "rows": rows}, cfg.out)
    return 0


def _cmd_phi(cfg: argparse.Namespace) -> int:
    rep, lat, spec = _module(cfg)
    fn = spec.dimension_function
    rows = [
        {"gamma": gamma, "value": [re, im], "regular": regular}
        for gamma, re, im, regular in zip(lat.elements.tolist(), fn.values.real.tolist(),
                                          fn.values.imag.tolist(), spec.regular.tolist())
    ]
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


def _cmd_decide(cfg: argparse.Namespace) -> int:
    _, _, spec = _module(cfg)
    dec = existence_decision(spec, cfg.n, cfg.d)
    print(f"frame {'yes' if dec.frame else 'no'}")
    print(f"riesz {'yes' if dec.riesz else 'no'}")
    print(f"basis {'yes' if dec.basis else 'no'}")
    if cfg.out is not None:
        dump_json(asdict(dec), cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def _cmd_construct(cfg: argparse.Namespace) -> int:
    rep, lat, spec = _module(cfg)
    gens = construct_parseval_generators(spec, cfg.n, cfg.d, seed=cfg.seed)
    rpt = frame_report(multiwindow_system(rep, lat, gens))
    print("parseval ok")
    print(f"bounds {rpt.lower:.12g} {rpt.upper:.12g}")
    if cfg.out is not None:
        payload = generators_to_json(gens)
        payload["group"] = rep.group.label
        payload["lattice"] = lat.elements.tolist()
        payload["lower"] = rpt.lower
        payload["upper"] = rpt.upper
        dump_json(payload, cfg.out)
        print(f"wrote {cfg.out}")
    return 0


def _cmd_routes(cfg: argparse.Namespace) -> int:
    """phi against phi_oracle on every lattice, slice by slice; exit 1 above tol_id."""
    rep, _ = _resolve_rep(cfg)
    g = rep.group
    print(f"group {g.label}, order {g.order}, irrep dim {rep.dim}")
    source = windowed_rep(rep, random_window(rep.dim, cfg.seed))
    gaps = []
    for elems in block_slices(subgroup_blocks(g)):
        order = elems.shape[1]
        closed = phi_values(source, elems)
        oracle = phi_oracle_values(source, elems)
        gaps.append(np.abs(closed - oracle).max(axis=1))
        regular = np.count_nonzero(lattice_regular(rep.cocycle, elems, rep.tol), axis=1)
        # one %-format per lattice over its interleaved real and imaginary parts
        head = f"|lattice| {order:3d}  dpi_vol {rep.dim / order:8.4f}  regular %3d  gap %.2e  phi ["
        fmt = head + " ".join(["%+.4f%+.4fj"] * order) + "]"
        # snapped to a 1e-12 grid first, so that a last-bit move at a tie of the
        # 4th decimal (+-0.03125, +-0.09375, ...) cannot flip a printed digit
        parts = np.round(np.stack((closed.real, closed.imag), axis=2), 12).reshape(len(elems), -1)
        print("\n".join(fmt % (n_regular, gap, *values) for values, n_regular, gap
                        in zip(parts.tolist(), regular.tolist(), gaps[-1].tolist())))
    worst = float(np.max(np.concatenate(gaps)))  # keeps a NaN gap, which then fails
    print(f"worst formula/embedding gap {worst:.3e}")
    return 0 if worst <= rep.tol.tol_id else 1


def _cmd_gabor_scan(cfg: argparse.Namespace) -> int:
    if cfg.base is None:
        raise InputError("gabor-scan needs --base, e.g. --base Z4")
    if cfg.out is None:
        raise InputError("gabor-scan needs --out FILE.csv")
    tf = build_tf(*_tf_parts(cfg.base)[:2], cfg.tolerances)
    rows = gabor_scan(tf, cfg.nmax, cfg.dmax, construct=cfg.construct, seed=cfg.seed)
    write_scan_csv(rows, cfg.out)
    print(f"rows {len(rows)}")
    print(f"lattices {len(rows) // (cfg.nmax * cfg.dmax)}")
    print(f"wrote {cfg.out}")
    return 0


def _cmd_density_audit(cfg: argparse.Namespace) -> int:
    path = getattr(cfg, "in")  # "in" is a keyword
    if path is None:
        raise InputError("density-audit needs --in FILE.csv")
    rows = read_scan_csv(path)
    problems = audit_rows(rows)
    for p in problems:
        print(f"violation: {p}")
    print(f"rows {len(rows)}")
    print(f"violations {len(problems)}")
    return 1 if problems else 0


def _cmd_rep_validate(cfg: argparse.Namespace) -> int:
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


def _cmd_rep_dpi(cfg: argparse.Namespace) -> int:
    rep, _ = _resolve_rep(cfg)
    d = formal_dimension(rep)
    print(f"dim {rep.dim}")
    print(f"group-order {rep.group.order}")
    print(f"formal-dimension {d:.12g}")
    return 0


class _Setting(NamedTuple):
    """One setting, declared once for argparse, the --config file and the range check."""

    kind: type  # JSON type in a --config file; a JSON integer passes as a float
    default: object = None
    low: int | None = None  # least value, checked only where a subcommand reads it
    metavar: str | None = None
    help: str | None = None


# The four tolerances sit under "tolerances" in a --config file; their
# defaults and their domain are those of Tolerances.
_SETTINGS = {
    "group": _Setting(str, metavar="SPEC", help="builtin tokens joined by x (Z4, Z2xZ4, S3, "
                                                "D4, Q8) or a Cayley table file"),
    "cocycle": _Setting(str, "trivial", metavar="SPEC",
                        help="trivial, weyl-heisenberg, or a JSON file"),
    "rep": _Setting(str, metavar="FILE",
                    help="representation JSON (overrides --group/--cocycle)"),
    "lattice": _Setting(str, metavar="SPEC", help="full, trivial, element indices 0,3,5, or "
                                                  "coordinate tuples (1,0,2,0),(0,1,0,0)"),
    "n": _Setting(int, 1, 1, help="number of generator windows"),
    "d": _Setting(int, 1, 1, help="number of stacked copies of the module"),
    "seed": _Setting(int, 0, 0, help="seeds the irrep cut from a cocycle and every random draw"),
    "base": _Setting(str, metavar="SPEC", help="abelian base, builtin tokens only, e.g. Z2xZ4"),
    "nmax": _Setting(int, 3, 1),
    "dmax": _Setting(int, 3, 1),
    "construct": _Setting(bool, False, help="also build generators on feasible cells"),
    "in": _Setting(str, metavar="FILE"),
    "out": _Setting(str, metavar="FILE"),
    **{f.name: _Setting(float, f.default) for f in fields(Tolerances)},
}
_TOLERANCES = [f.name for f in fields(Tolerances)]

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
        cmd.add_argument("--config", metavar="FILE",
                         help="JSON file with defaults; flags override it")
        for flag in flags.split():
            s = _SETTINGS[flag.replace("-", "_")]
            how = (dict(action="store_true") if s.kind is bool
                   else dict(type=s.kind, metavar=s.metavar))
            cmd.add_argument(f"--{flag}", default=None, help=s.help, **how)
    return p


def _read_config(path: str) -> dict:
    """The non-null settings of a --config file, type-checked, tolerances flattened."""
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise InputError("config file must hold a JSON object")
    tols = _typed("config key 'tolerances'", raw.pop("tolerances", None), dict) or {}
    for keys, where, known in ((raw, "config", _SETTINGS.keys() - _TOLERANCES),
                               (tols, "tolerance", _TOLERANCES)):
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise InputError(f"unknown {where} keys: {unknown}")
    return {k: _typed(f"config key {k!r}" if k in raw else f"tolerance {k!r}",
                      v, _SETTINGS[k].kind)
            for k, v in {**raw, **tols}.items() if v is not None}


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Every setting the subcommand reads from its flag, else the --config file,
    else its default; every other setting keeps its default."""
    listed = _COMMANDS[args.command][2].replace("-", "_").split()
    given = _read_config(args.config) if args.config else {}
    cfg = argparse.Namespace()
    for name, setting in _SETTINGS.items():
        value = getattr(args, name, None)
        if value is None:
            value = given.get(name, setting.default) if name in listed else setting.default
        setattr(cfg, name, float(value) if setting.kind is float else value)
    # a shared config file may hold other subcommands' keys, so only the
    # settings this subcommand reads are range checked
    for name in listed:
        low, value = _SETTINGS[name].low, getattr(cfg, name)
        if low is not None and value < low:
            least = "non-negative" if low == 0 else f"at least {low}"
            raise InputError(f"{name} must be {least}, got {value}")
    cfg.tolerances = Tolerances(**{name: vars(cfg).pop(name) for name in _TOLERANCES})
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
