"""Command-line front end: build surfaces from config, sweep invariants to
CSV, run family verifications, and export sampled geometry.

Exit codes: 0 success / verification passed, 1 verification failed,
2 invalid input/domain/admissibility, 3 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import jets
from .curves import (MAX_ARC, Geometry, ProfileColumn, SphericalCurve,
                     circle_curve, grid_points, profile_from_f)
from .errors import MeridianError
from .families import (DOMAIN_PARAMS, FAMILY_TABLE, FamilyKind, FamilySpec,
                       explicit_f, family_profile, finite_number,
                       verify_family)
from .surfaces import MeridianSurface, PointTag, sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

#: Most points nu * nv in one grid, so that its rows of output fit in memory.
MAX_GRID_POINTS = 10 ** 6

CSV_HEADER = ("u,v,E,F,G,k,varkappa,K,H2,normH,epsilon,gamma1,gamma2,"
              "nu1,nu2,lambda,mu,beta1,beta2,pointclass")


class ConfigError(MeridianError):
    """Configuration is missing fields or holds unusable values."""


def _fmt(x: float) -> str:
    return "%.9g" % x


def _require(cfg: dict, key: str, where: str = ""):
    if key not in cfg:
        path = f"{where}.{key}" if where else key
        raise ConfigError(f"missing field: {path}")
    return cfg[key]


def _json_float(x: float):
    """x rounded to 9 significant digits, or None (JSON null) if not finite."""
    return float(_fmt(x)) if math.isfinite(x) else None


def _number(value, path: str) -> float:
    x = finite_number(value)
    if x is None:
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return x


def _interval(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be [lo, hi]")
    return _number(value[0], path), _number(value[1], path)


# ---------------------------------------------------------------------------
# Config -> surface
# ---------------------------------------------------------------------------

def _geometry(cfg: dict) -> Geometry:
    name = _require(cfg, "geometry")
    try:
        return Geometry(name)
    except ValueError:
        raise ConfigError(f"unknown geometry {name!r}") from None


def _curve_from_config(cfg: dict, geometry: Geometry) -> SphericalCurve:
    spec = _require(cfg, "curve")
    kind = _require(spec, "kind", "curve")
    if kind == "constant":
        return circle_curve(_number(_require(spec, "b", "curve"), "curve.b"),
                            geometry)
    if kind == "function":
        rows = _require(spec, "samples", "curve")
        if (not isinstance(rows, list) or len(rows) < 2
                or any(not isinstance(r, list) or len(r) != 3 for r in rows)):
            raise ConfigError(
                "curve.samples must be >= 2 rows of [v, kappa, dkappa/dv]")
        xs, ys, ds = ([_number(r[i], "curve.samples") for r in rows]
                      for i in range(3))
        try:
            kappa = jets.hermite_fn(xs, ys, ds, name="kappa")
        except ValueError as exc:
            raise ConfigError(f"curve.samples: {exc}") from None
        return SphericalCurve(kappa, geometry)
    raise ConfigError(f"unknown curve kind {kind!r}")


def _u_domain(cfg: dict) -> tuple[float, float]:
    dom = _require(cfg, "domain")
    return _interval(_require(dom, "u", "domain"), "domain.u")


def _v_domain(cfg: dict) -> tuple[float, float]:
    lo, hi = _interval(cfg.get("domain", {}).get("v", [0.0, 2.0 * math.pi]),
                       "domain.v")
    if hi <= lo:
        raise ConfigError(f"empty domain.v [{lo!r}, {hi!r}]: need lo < hi")
    if lo < -MAX_ARC or hi > MAX_ARC:
        raise ConfigError(f"domain.v [{lo!r}, {hi!r}] leaves the curves' "
                          f"supported |v| <= {MAX_ARC:g}")
    return lo, hi


def _profile_from_config(cfg: dict, geometry: Geometry):
    spec = _require(cfg, "profile")
    kind = _require(spec, "kind", "profile")
    if kind not in ("explicit_f", "slope_ode", "family"):
        raise ConfigError(f"unknown profile kind {kind!r}")
    family = _require(spec, "family", "profile")
    params = {k: _number(v, f"profile.{k}") for k, v in spec.items()
              if k not in ("kind", "family")}
    if kind == "explicit_f":
        f, g0 = explicit_f(family, params)
        return profile_from_f(f, geometry, g0, _u_domain(cfg))
    slope_ode = kind == "slope_ode"
    fkind = next((k for k, row in FAMILY_TABLE.items()
                  if k.value == family and row.slope_ode == slope_ode), None)
    if fkind is None:
        raise ConfigError(f"unknown {kind} family {family!r}")
    eps_branch = params.pop("epsilon_branch", None)
    if not slope_ode:
        domain = dict(zip(DOMAIN_PARAMS, _u_domain(cfg)))
        clash = sorted(domain.keys() & params.keys())
        if clash:
            raise ConfigError(f"profile.{clash[0]}: the domain is domain.u")
        params.update(domain)
    elif "u" in cfg.get("domain", {}):
        _u_domain(cfg)      # checked, not read: u_span sets the domain
    return family_profile(FamilySpec(fkind, geometry, params=params,
                                     epsilon_branch=eps_branch))


def surface_from_config(cfg: dict) -> MeridianSurface:
    geometry = _geometry(cfg)
    curve = _curve_from_config(cfg, geometry)
    profile = _profile_from_config(cfg, geometry)
    return MeridianSurface(profile, curve)


def _grid(cfg: dict, override: Optional[str]) -> tuple[int, int]:
    if override:
        try:
            nu, nv = (int(p) for p in override.split(","))
        except ValueError:
            raise ConfigError(f"--grid expects NU,NV, got {override!r}") from None
    else:
        nu, nv = (cfg.get("grid", {}).get(key, 33) for key in ("nu", "nv"))
        for key, n in (("nu", nu), ("nv", nv)):
            if not (type(n) is int or type(n) is float and n.is_integer()):
                raise ConfigError(
                    f"grid sizes must be integers, got grid.{key} = {n!r}")
        nu, nv = int(nu), int(nv)
    if nu < 1 or nv < 1:
        raise ConfigError("grid sizes must be >= 1")
    if nu * nv > MAX_GRID_POINTS:
        where = "--grid" if override else "grid.nu * grid.nv"
        raise ConfigError(f"{where} = {nu} * {nv} points exceeds "
                          f"{MAX_GRID_POINTS}, the largest grid")
    return nu, nv


_SECTIONS = ("grid", "domain", "tolerances", "curve", "profile")
#: The fields of each section but the profile (its family's table checks
#: those); "" is the top level, and a descriptor adds "validated" there.
_FIELDS = {"": ("geometry", "validated") + _SECTIONS, "grid": ("nu", "nv"),
           "domain": ("u", "v"), "tolerances": ("flat",)}
_CURVE_FIELDS = {"constant": ("kind", "b"), "function": ("kind", "samples")}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in _SECTIONS:
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(
                f"{key} must be a JSON object, got {cfg[key]!r}")
    fields = dict(_FIELDS)
    kind = cfg.get("curve", {}).get("kind")
    if kind in _CURVE_FIELDS:   # an unknown kind is named when it is read
        fields["curve"] = _CURVE_FIELDS[kind]
    for where, known in fields.items():
        for key in (cfg.get(where, {}) if where else cfg):
            if key not in known:
                path = f"{where}.{key}" if where else key
                raise ConfigError(f"unknown config field: {path}")
    return cfg


def _read(path: str, grid: Optional[str]):
    """(cfg, surface, us, vs, flat_tol) of the config at ``path``, each field
    checked; ``grid`` ("NU,NV" or None) overrides the config's grid."""
    cfg = _load_config(path)
    surface = surface_from_config(cfg)
    nu, nv = _grid(cfg, grid)
    flat_tol = finite_number(cfg.get("tolerances", {}).get("flat", 1e-9))
    if flat_tol is None or flat_tol < 0.0:     # then the field was given
        raise ConfigError("tolerances.flat must be finite and >= 0, got "
                          f"{cfg['tolerances']['flat']!r}")
    us = grid_points(*surface.profile.domain, nu)
    vs = grid_points(*_v_domain(cfg), nv)
    return cfg, surface, us, vs, flat_tol


def _write(path: str, chunks) -> None:
    """The strings ``chunks`` written to the file ``path``: UTF-8, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    cfg, surface, us, vs, _ = _read(args.config, None)
    resolved = dict(cfg)
    dom = dict(cfg.get("domain", {}))
    dom["u"] = list(surface.profile.domain)
    dom["v"] = list(_v_domain(cfg))
    resolved["domain"] = dom
    for u in us:
        ProfileColumn(surface.profile, u)   # the u that invariants evaluates
    resolved["grid"] = {"nu": len(us), "nv": len(vs)}
    resolved["validated"] = True
    # floats exactly, so the descriptor describes the surface of the config
    text = json.dumps(resolved, indent=2, sort_keys=True, allow_nan=False)
    _write(args.out, [text, "\n"])
    print(f"built surface descriptor: {args.out} "
          f"(u domain [{_fmt(surface.profile.domain[0])}, "
          f"{_fmt(surface.profile.domain[1])}])")
    return EXIT_OK


#: Least lines in one chunk of the output: whole blocks are gathered until
#: they hold this many.  One chunk per 129-line u-row (about 26 kB each)
#: left the heap fragmented once freed, and a reader of the CSV in the same
#: process then peaked about 2.5 MB higher.
_CHUNK_LINES = 1024


def _write_rows(path: str, head: str, blocks) -> None:
    """``head``, then the lines of each block (a list of lines), written to
    the file ``path``; OverflowError, before the file is opened, if a row
    holds a cell that is not finite.  Whole blocks are joined into chunks
    of at least _CHUNK_LINES lines, so few lines are alive at a time."""
    chunks, lines = [head], []
    for block in blocks:
        lines += block
        if len(lines) >= _CHUNK_LINES:
            chunks.append("".join(lines))
            lines = []
    chunks.append("".join(lines))
    # finite input can overflow (1e308**2); in a data row only "inf" has i
    if any("i" in text or "nan" in text for text in chunks[1:]):
        raise OverflowError("a computed cell is not finite; nothing written")
    _write(path, chunks)


def _invariant_rows(surface: MeridianSurface, us, vs, flat_tol: float):
    """The invariants CSV's data lines, in blocks closed by the record whose
    run brings them to _CHUNK_LINES lines; a longer run goes out in blocks
    of _CHUNK_LINES lines."""
    lines = []
    v_cells = [_fmt(v) for v in vs]
    col = None
    # u-only cells are formatted once per column, v cells once per row and
    # a record's tail, the cells after v, once per record by the one "%"
    # template of its kind, which is then written at each j of its run.
    # This loop is hot: a record is unpacked once, and a run is written by
    # a plain loop (a comprehension per run is slower)
    for (column, _, k, _, H2, meanH, tag, _, inv), js in sweep(
            surface, us, vs, flat_tol):
        if column is not col:
            col = column
            u_cell, G_cell = _fmt(col.u), _fmt(col.ff)
            K_cell = _fmt(col.gaussK)
            gamma_cell = None
        if inv is None:
            tail = "1,0,%s,%.9g,0,%s,%.9g,%.9g,,,,,,,,,,%s" % (
                G_cell, k, K_cell, H2, meanH,
                "trapped" if tag is PointTag.GENERAL else tag.value)
        else:
            gamma, _, nu, _, lam, mu, beta1, beta2, eps = inv[:9]
            if gamma_cell is None:
                gamma_cell = _fmt(gamma)
            nu_cell = _fmt(nu)
            tail = ("1,0,%s,%.9g,0,%s,%.9g,%.9g,%d,%s,%s,%s,%s,%.9g,%.9g,"
                    "%.9g,%.9g,general" % (
                        G_cell, k, K_cell, H2, meanH, eps, gamma_cell,
                        gamma_cell, nu_cell, nu_cell, lam, mu, beta1, beta2))
        if len(js) > _CHUNK_LINES:
            # a run longer than a block (over a curve built constant, a
            # whole u-column) goes out in blocks of _CHUNK_LINES lines, all
            # but its last part here; checked per run, not per line
            if lines:
                yield lines
                lines = []
            while len(js) > _CHUNK_LINES:
                yield [f"{u_cell},{v_cells[j]},{tail}\n"
                       for j in js[:_CHUNK_LINES]]
                js = js[_CHUNK_LINES:]
        for j in js:
            lines.append(f"{u_cell},{v_cells[j]},{tail}\n")
        if len(lines) >= _CHUNK_LINES:
            yield lines
            lines = []
    yield lines


def cmd_invariants(args) -> int:
    _, surface, us, vs, flat_tol = _read(args.config, args.grid)
    _write_rows(args.out, CSV_HEADER + "\n",
                _invariant_rows(surface, us, vs, flat_tol))
    print(f"wrote {len(us) * len(vs)} invariant rows to {args.out}")
    return EXIT_OK


def _csv4_rows(us, vs, rows):
    """The csv4 data lines u,v,x1,x2,x3,x4, one list per u."""
    v_cells = [_fmt(v) for v in vs]
    for u, row in zip(us, rows):
        u_cell = _fmt(u)
        yield ["%s,%s,%.9g,%.9g,%.9g,%.9g\n" % (u_cell, v_cell, x1, x2, x3, x4)
               for v_cell, (x1, x2, x3, x4) in zip(v_cells, row)]


def _obj3_rows(nu: int, nv: int, rows, drop: int):
    """The obj3 lines: the vertices without slot ``drop``, one list per u,
    then the quads between each u and the next, one list per u."""
    a, b, c = (i for i in range(4) if i != drop)
    for row in rows:
        yield ["v %.9g %.9g %.9g\n" % (z[a], z[b], z[c]) for z in row]
    for i in range(nu - 1):
        yield ["f %d %d %d %d\n" % (k, k + nv, k + nv + 1, k + 1)
               for k in range(i * nv + 1, (i + 1) * nv)]


def cmd_export(args) -> int:
    _, surface, us, vs, _ = _read(args.config, args.grid)
    nu, nv = len(us), len(vs)
    rows = surface.grid_positions(us, vs)
    if args.format == "csv4":
        _write_rows(args.out, "u,v,x1,x2,x3,x4\n", _csv4_rows(us, vs, rows))
    else:
        _write_rows(args.out, "", _obj3_rows(nu, nv, rows,
                                             surface.geometry.axis_slot))
    print(f"wrote {args.format} geometry ({nu}x{nv} grid) to {args.out}")
    return EXIT_OK


#: verify flags: each parameter of each family, typed by its default
_FAMILY_FLAGS = {key: int if isinstance(default, int) else float
                 for row in FAMILY_TABLE.values()
                 for key, default in row.params.items()}


def cmd_verify(args) -> int:
    params = {key: getattr(args, key) for key in _FAMILY_FLAGS
              if getattr(args, key) is not None}
    eps_branch = args.epsilon_branch
    if eps_branch not in (None, "printed-vs-eq18"):
        eps_branch = int(eps_branch)
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol!r}")
    kind, geometry = FamilyKind(args.family), Geometry(args.geometry)
    spec = FamilySpec(kind, geometry, params=params, epsilon_branch=eps_branch,
                      slope_scale=args.slope_scale)
    nu, nv = _grid({}, args.grid)
    report = verify_family(spec, grid=(nu, nv), tol=args.tol)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} family={kind.value} geometry={geometry.value} "
          f"property=\"{report.property}\" "
          f"max_residual={_fmt(report.max_abs_residual)} tol={_fmt(report.tol)} "
          f"n={report.n_samples} skipped={report.skipped} "
          f"argmax=({_fmt(report.argmax[0])},{_fmt(report.argmax[1])})")
    record = {
        "family": kind.value,
        "geometry": geometry.value,
        "property": report.property,
        "max_abs_residual": _json_float(report.max_abs_residual),
        "argmax_u": _json_float(report.argmax[0]),
        "argmax_v": _json_float(report.argmax[1]),
        "n_samples": report.n_samples,
        "skipped": report.skipped,
        "tol": _json_float(report.tol),
        "pass": report.passed,
    }
    line = json.dumps(record, sort_keys=True, allow_nan=False)
    if args.out:
        _write(args.out, [line, "\n"])
    else:
        print(line)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meridian",
        description="Meridian surfaces in Minkowski 4-space: build, sweep "
                    "invariants, verify classification families, export "
                    "geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="validate a config and write a "
                             "surface descriptor")
    p_build.add_argument("--config", required=True)
    p_build.add_argument("--out", required=True)
    p_build.set_defaults(func=cmd_build)

    p_inv = sub.add_parser("invariants", help="sweep the invariant set to CSV")
    p_inv.add_argument("--config", required=True)
    p_inv.add_argument("--out", required=True)
    p_inv.add_argument("--grid", default=None, metavar="NU,NV")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="verify a classification family")
    p_ver.add_argument("--family", required=True,
                       choices=[k.value for k in FamilyKind])
    p_ver.add_argument("--geometry", required=True,
                       choices=[g.value for g in Geometry])
    for key, flag_type in _FAMILY_FLAGS.items():
        p_ver.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=flag_type, default=None)
    p_ver.add_argument("--epsilon-branch", dest="epsilon_branch", default=None,
                       choices=["1", "-1", "printed-vs-eq18"])
    p_ver.add_argument("--slope-scale", dest="slope_scale", type=float,
                       default=1.0)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--grid", default=None, metavar="NU,NV")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export", help="export sampled geometry")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--format", required=True, choices=["csv4", "obj3"])
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--grid", default=None, metavar="NU,NV")
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        return args.func(args)
    except MeridianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, ZeroDivisionError, OverflowError, KeyError,
            MemoryError) as exc:
        print(f"numerical failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
