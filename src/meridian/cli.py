"""Command-line front end: build surfaces from config, sweep invariants to
CSV, run family verifications, and export sampled geometry.

Exit codes: 0 success / verification passed, 1 verification failed,
2 invalid input/domain/admissibility, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from typing import Optional

from . import jets
from .curves import (Geometry, ProfileColumn, SphericalCurve, circle_curve,
                     profile_from_f)
from .errors import MeridianError, NotSpacelikeError
from .families import (DOMAIN_PARAMS, FAMILY_TABLE, FamilyKind, FamilySpec,
                       explicit_f, family_profile, verify_family)
from .surfaces import MeridianSurface, PointTag, sweep

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3

CSV_HEADER = ("u,v,E,F,G,k,varkappa,K,H2,normH,epsilon,gamma1,gamma2,"
              "nu1,nu2,lambda,mu,beta1,beta2,pointclass")


class ConfigError(MeridianError):
    """Configuration is missing fields or holds unusable values."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _require(cfg: dict, key: str, where: str = ""):
    if key not in cfg:
        path = f"{where}.{key}" if where else key
        raise ConfigError(f"missing field: {path}")
    return cfg[key]


def _json_float(x: float):
    """x rounded to 9 significant digits, or None (JSON null) if not finite."""
    return float(_fmt(x)) if math.isfinite(x) else None


def _number(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path} must be a number, got {value!r}") from None


def _interval(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path} must be [lo, hi]")
    lo, hi = _number(value[0], path), _number(value[1], path)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{path} endpoints must be finite, got {value!r}")
    return lo, hi


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
    return _interval(cfg.get("domain", {}).get("v", [0.0, 2.0 * math.pi]),
                     "domain.v")


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
        g = cfg.get("grid", {})
        try:
            nu, nv = int(g.get("nu", 33)), int(g.get("nv", 33))
        except (TypeError, ValueError):
            raise ConfigError(f"grid sizes must be integers, got {g!r}") \
                from None
    if nu < 1 or nv < 1:
        raise ConfigError("grid sizes must be >= 1")
    return nu, nv


def _grid_points(lo: float, hi: float, n: int) -> list[float]:
    """n evenly spaced points from lo to hi; the last one is hi itself,
    since lo + (hi - lo) can round past it."""
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n - 1)] + [hi]


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


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _flat_tolerance(cfg: dict) -> float:
    tol = _number(cfg.get("tolerances", {}).get("flat", 1e-9),
                  "tolerances.flat")
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tolerances.flat must be finite and >= 0, got {tol!r}")
    return tol


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    surface = surface_from_config(cfg)
    _flat_tolerance(cfg)                # checked as invariants checks it
    resolved = dict(cfg)
    dom = dict(cfg.get("domain", {}))
    dom["u"] = list(surface.profile.domain)
    dom["v"] = list(_v_domain(cfg))
    resolved["domain"] = dom
    nu, nv = _grid(cfg, None)
    for u in _grid_points(*surface.profile.domain, nu):
        ProfileColumn(surface.profile, u)   # the u that invariants evaluates
    resolved["grid"] = {"nu": nu, "nv": nv}
    resolved["validated"] = True
    # floats exactly, so the descriptor describes the surface of the config
    text = json.dumps(resolved, indent=2, sort_keys=True)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(f"built surface descriptor: {args.out} "
          f"(u domain [{_fmt(surface.profile.domain[0])}, "
          f"{_fmt(surface.profile.domain[1])}])")
    return EXIT_OK


def cmd_invariants(args) -> int:
    cfg = _load_config(args.config)
    surface = surface_from_config(cfg)
    nu, nv = _grid(cfg, args.grid)
    flat_tol = _flat_tolerance(cfg)
    us = _grid_points(*surface.profile.domain, nu)
    vs = _grid_points(*_v_domain(cfg), nv)
    lines = [CSV_HEADER]
    col = None
    # u-only cells are formatted once per column and v cells once per row;
    # per-cell numbers use _fmt's format spec inline (this loop is hot)
    for rec, v_cell in zip(sweep(surface, us, vs, flat_tol),
                           itertools.cycle([_fmt(v) for v in vs])):
        if rec.column is not col:
            col = rec.column
            u_cell, G_cell = _fmt(col.u), _fmt(col.ff)
            K_cell = _fmt(col.gaussK)
            gamma_cell = None
        head = (f"{u_cell},{v_cell},1,0,{G_cell},{rec.k:.9g},0,{K_cell},"
                f"{rec.H2:.9g},{rec.meanH:.9g},")
        inv = rec.frame
        if inv is None:
            lines.append(head + ",,,,,,,,," + (
                "trapped" if rec.tag is PointTag.GENERAL else rec.tag.value))
            continue
        if gamma_cell is None:
            gamma_cell = _fmt(inv.gamma1)
        nu_cell = _fmt(inv.nu1)
        lines.append(f"{head}{inv.epsilon},{gamma_cell},{gamma_cell},"
                     f"{nu_cell},{nu_cell},{inv.lam:.9g},{inv.mu:.9g},"
                     f"{inv.beta1:.9g},{inv.beta2:.9g},general")
    text = "\n".join(lines) + "\n"
    # finite input can overflow (1e308**2); below the header only "inf" has i
    if text.find("i", len(CSV_HEADER)) >= 0 or "nan" in text:
        raise OverflowError("a computed cell is not finite; nothing written")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {nu * nv} invariant rows to {args.out}")
    return EXIT_OK


def cmd_export(args) -> int:
    cfg = _load_config(args.config)
    surface = surface_from_config(cfg)
    nu, nv = _grid(cfg, args.grid)
    us = _grid_points(*surface.profile.domain, nu)
    vs = _grid_points(*_v_domain(cfg), nv)
    rows = surface.grid_positions(us, vs)
    if args.format == "csv4":
        v_cells = [_fmt(v) for v in vs]
        lines = ["u,v,x1,x2,x3,x4"]
        for u, row in zip(us, rows):
            u_cell = _fmt(u)
            lines += [",".join([u_cell, v_cell]
                               + [_fmt(c) for c in z.coords()])
                      for v_cell, z in zip(v_cells, row)]
    elif args.format == "obj3":
        drop = surface.geometry.axis_slot
        keep = [i for i in range(4) if i != drop]
        lines = ["v " + " ".join(_fmt(z.coords()[i]) for i in keep)
                 for row in rows for z in row]
        for i in range(nu - 1):
            for j in range(nv - 1):
                a = i * nv + j + 1
                lines.append(f"f {a} {a + nv} {a + nv + 1} {a + 1}")
    else:
        raise ConfigError(f"unknown export format {args.format!r}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
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
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")
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
    except NotSpacelikeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MeridianError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, ZeroDivisionError, OverflowError, KeyError) as exc:
        print(f"numerical failure: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
