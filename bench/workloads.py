"""Seeded inputs, executors and output checks for the four workloads.

Every workload is a sequence of rounds.  A round is a fixed list of slots
(profile kind, geometry, curve kind, format ...) so that each round has the
same mix of work; only the parameters inside each slot are drawn from the
round's random stream.  Parameters are drawn again for every round, so no
two calls of one run see the same input.

The parameter ranges below are the record of what each workload feeds the
program.  Neighbourhoods around the acceptance-test parameter sets are kept
only where the family's stated constraints admit the whole range, and no
draw is ever repeated after a failure: a failing input counts as a failed
operation.

Nothing here imports ``meridian`` at module level: the caller imports it
(possibly several times, to time the import) and passes the modules in as
``m`` with attributes ``cli``, ``curves``, ``families``, ``jets`` and
``surfaces``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

TWO_PI = 2.0 * math.pi

#: Documented invariants CSV header (README, "Command line").
CSV_HEADER = ("u,v,E,F,G,k,varkappa,K,H2,normH,epsilon,gamma1,gamma2,"
              "nu1,nu2,lambda,mu,beta1,beta2,pointclass")
CLASS_TAGS = ("general", "flat_case_I", "flat_case_II", "trapped")

#: Tolerances of acceptance criterion 01 (fd oracle against closed forms).
ORACLE_K_REL_TOL = 1e-5
ORACLE_VARKAPPA_TOL = 1e-6

#: Grid and size settings per run size.  "full" is the timed run, "trace"
#: the traced run (the sweep grid is reduced so that every span fits in
#: memory), "tiny" the self-check.
SIZES = {
    "full": {"sweep_grid": 129, "mesh_grid": (9, 513), "mesh_v_scale": 1.0,
             "verify_grid": 33, "oracle_points": 12},
    "trace": {"sweep_grid": 33, "mesh_grid": (9, 513), "mesh_v_scale": 1.0,
              "verify_grid": 33, "oracle_points": 12},
    "tiny": {"sweep_grid": 5, "mesh_grid": (3, 9), "mesh_v_scale": 0.1,
             "verify_grid": 5, "oracle_points": 1},
}


@dataclass
class Op:
    """One timed call: a CLI invocation or one oracle point."""

    label: str
    argv: Optional[list] = None          # CLI ops
    out: Optional[str] = None            # CLI output file
    expect_rc: int = 0
    expect_pass: Optional[bool] = None   # families: the record's "pass"
    grid: tuple = (0, 0)                 # (nu, nv) of CLI grids
    fmt: str = ""                        # mesh: obj3 / csv4
    build: Optional[Callable] = None     # set-up constructor: build(m) -> obj
    point: Optional[tuple] = None        # oracle: (u, v)
    surface_key: Optional[int] = None    # oracle: index into the built list


@dataclass
class Outcome:
    """Result of one op after its check."""

    start: float
    seconds: float
    points: int
    error: Optional[str]
    digest: Optional[str] = None
    stats: dict = field(default_factory=dict)


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"meridian-bench/{workload}/{seed}/{rnd}")


def near(rng: random.Random, x: float, rel: float = 0.02) -> float:
    """x perturbed by up to rel (relative), or by up to rel absolute at 0."""
    if x == 0.0:
        return rng.uniform(-rel, rel)
    return x * (1.0 + rng.uniform(-rel, rel))


def tabulated_kappa(rng: random.Random, v_hi: float, base: float,
                    amp: float) -> dict:
    """Config curve with Hermite-tabulated kappa(v) = base + amp sin(w v + p).

    Samples run from 0 to one step past the first multiple of the sample
    step at or above v_hi, so domain.v stays inside the sample range.
    """
    w = rng.uniform(0.8, 1.2)
    ph = rng.uniform(0.0, TWO_PI)
    step = 0.25
    n = int(math.ceil(v_hi / step)) + 2
    rows = []
    for i in range(n):
        v = i * step
        rows.append([v, base + amp * math.sin(w * v + ph),
                     amp * w * math.cos(w * v + ph)])
    return {"kind": "function", "samples": rows}


#: Config u-domain endpoints are rounded to multiples of 2**-30 (a shift of
#: at most 1e-9).  The CLI's grid puts its last point at lo + (hi - lo),
#: which for about 2% of arbitrary float endpoints lands one ulp above hi
#: and exits 2 (see GRID_ENDPOINT_PROBE); for dyadic endpoints the sum is
#: exact, so no workload call trips that program defect.
DYADIC = 2.0 ** 30


def dyadic(x: float) -> float:
    return round(x * DYADIC) / DYADIC


def u_domain(lo: float, hi: float) -> list:
    return [dyadic(lo), dyadic(hi)]


#: A config on which the CLI fails through that defect (u_hi = ...835,
#: last grid point ...838); run.py reports its outcome with every run, so
#: the defect stays visible until the program is fixed.
GRID_ENDPOINT_PROBE = {
    "geometry": "hyperbolic",
    "curve": {"kind": "constant", "b": 0.8815786063008588},
    "profile": {"kind": "explicit_f", "family": "harmonic",
                "alpha": 0.7891443328289829, "beta": -0.001029224044398043,
                "omega": 0.9941587745384901},
    "domain": {"u": [0.19849464516881177, 1.2073339356890835],
               "v": [0.0, 6.345236668988857]}}


def _write_config(workdir: str, name: str, cfg: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


def _cli_build(cfg: dict) -> Callable:
    return lambda m: m.cli.surface_from_config(cfg)


# ---------------------------------------------------------------------------
# sweep: `meridian invariants` on a 129x129 grid
# ---------------------------------------------------------------------------

#: Slots of one sweep round: (name, geometry, profile, curve).  Profiles are
#: drawn within +-2% (relative, or +-0.02 absolute at zero) of the README /
#: acceptance parameter sets; every range keeps the profile admissible.
SWEEP_RANGES = {
    "v": "[0, v_hi], v_hi in [6.0,6.5], shared by the round's nine calls",
    "u": "config u endpoints rounded to multiples of 2^-30",
    "cos-hyp-const": "f=cos u, u in [0.3,1.2]+-2%, kappa=b, b in [0.9,1.1]",
    "sinh-ell-tab": "f=sinh u, u in [0.5,2.0]+-2%, kappa=1.3+0.3 sin(w v+p)",
    "harmonic-hyp-const": "alpha 0.8+-2%, beta +-0.02, omega 1+-2%, "
                          "u in [0.2,1.2], b in [0.7,0.9]",
    "sqrtq-hyp-tab": "c +-0.02, d 1+-2%, u in [0.1,0.9], "
                     "kappa=0.6+0.1 sin(w v+p)",
    "constant_k-ell-const": "a,b,f0,u_span 1+-2%, C +-0.02, kappa=b",
    "chen-hyp-const": "a -1+-2%, b 0.5+-2%, f0 0.7+-2%, u_span 1.2+-2%, "
                      "kappa=b",
    "constant_mean-ell-tab": "a 1+-2%, b 4+-2%, C +-0.02, f0 0.5+-2%, "
                             "u_span 0.5+-2%, kappa=4+0.3 sin(w v+p)",
    "constant_gauss-ell-tab": "K0 -1+-2%, alpha +-0.02, beta 1+-2%, "
                              "u in [0.5,2.0], kappa=1+0.3 sin(w v+p)",
    "parallel_a-hyp-tab": "c +-0.02, d 1+-2%, u in [0.1,0.9], "
                          "kappa=0.6+0.1 sin(w v+p)",
}


def _sweep_configs(rng: random.Random) -> list:
    v_hi = rng.uniform(6.0, 6.5)
    dom_v = [0.0, v_hi]
    r = lambda x, rel=0.02: near(rng, x, rel)  # noqa: E731
    out = []
    u_lo, u_hi = u_domain(r(0.3), r(1.2))
    out.append(("cos-hyp-const", {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": rng.uniform(0.9, 1.1)},
        "profile": {"kind": "explicit_f", "family": "cos",
                    "g0": math.sin(u_lo)},
        "domain": {"u": [u_lo, u_hi], "v": dom_v}}))
    out.append(("sinh-ell-tab", {
        "geometry": "elliptic",
        "curve": tabulated_kappa(rng, v_hi, 1.3, 0.3),
        "profile": {"kind": "explicit_f", "family": "sinh"},
        "domain": {"u": u_domain(r(0.5), r(2.0)), "v": dom_v}}))
    out.append(("harmonic-hyp-const", {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": rng.uniform(0.7, 0.9)},
        "profile": {"kind": "explicit_f", "family": "harmonic",
                    "alpha": r(0.8), "beta": r(0.0), "omega": r(1.0)},
        "domain": {"u": u_domain(r(0.2), r(1.2)), "v": dom_v}}))
    out.append(("sqrtq-hyp-tab", {
        "geometry": "hyperbolic",
        "curve": tabulated_kappa(rng, v_hi, 0.6, 0.1),
        "profile": {"kind": "explicit_f", "family": "sqrt_quadratic",
                    "c": r(0.0), "d": r(1.0)},
        "domain": {"u": u_domain(r(0.1), r(0.9)), "v": dom_v}}))
    b = r(1.0)
    out.append(("constant_k-ell-const", {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": b},
        "profile": {"kind": "slope_ode", "family": "constant_k", "a": r(1.0),
                    "b": b, "C": r(0.0), "f0": r(1.0), "u_span": r(1.0)},
        "domain": {"v": dom_v}}))
    b = r(0.5)
    out.append(("chen-hyp-const", {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": b},
        "profile": {"kind": "slope_ode", "family": "chen", "a": r(-1.0),
                    "b": b, "f0": r(0.7), "u_span": r(1.2)},
        "domain": {"v": dom_v}}))
    out.append(("constant_mean-ell-tab", {
        "geometry": "elliptic",
        "curve": tabulated_kappa(rng, v_hi, 4.0, 0.3),
        "profile": {"kind": "slope_ode", "family": "constant_mean",
                    "a": r(1.0), "b": r(4.0), "C": r(0.0), "f0": r(0.5),
                    "u_span": r(0.5)},
        "domain": {"v": dom_v}}))
    out.append(("constant_gauss-ell-tab", {
        "geometry": "elliptic",
        "curve": tabulated_kappa(rng, v_hi, 1.0, 0.3),
        "profile": {"kind": "family", "family": "constant_gauss",
                    "K0": r(-1.0), "alpha": r(0.0), "beta": r(1.0)},
        "domain": {"u": u_domain(r(0.5), r(2.0)), "v": dom_v}}))
    out.append(("parallel_a-hyp-tab", {
        "geometry": "hyperbolic",
        "curve": tabulated_kappa(rng, v_hi, 0.6, 0.1),
        "profile": {"kind": "family", "family": "parallel_a",
                    "c": r(0.0), "d": r(1.0)},
        "domain": {"u": u_domain(r(0.1), r(0.9)), "v": dom_v}}))
    return out


def sweep_ops(seed: int, rnd: int, size: dict, workdir: str) -> list:
    rng = round_rng("sweep", seed, rnd)
    n = size["sweep_grid"]
    ops = []
    for i, (name, cfg) in enumerate(_sweep_configs(rng)):
        path = _write_config(workdir, f"sweep-{rnd}-{i}", cfg)
        out = os.path.join(workdir, f"sweep-{i}.csv")
        ops.append(Op(label=f"sweep/{name}",
                      argv=["invariants", "--config", path, "--out", out,
                            "--grid", f"{n},{n}"],
                      out=out, grid=(n, n), build=_cli_build(cfg)))
    return ops


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def check_sweep(op: Op, data: bytes) -> tuple:
    """(points, error, stats) for an invariants CSV."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        return 0, "CSV does not end with a newline", {}
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        return 0, "CSV header differs from the documented one", {}
    nu, nv = op.grid
    rows = lines[1:]
    if len(rows) != nu * nv:
        return 0, f"CSV has {len(rows)} rows, expected {nu * nv}", {}
    classes = dict.fromkeys(CLASS_TAGS, 0)
    for row in rows:
        cells = row.split(",")
        if len(cells) != 20:
            return 0, f"CSV row with {len(cells)} cells: {row[:60]}", {}
        tag = cells[19]
        if tag not in classes:
            return 0, f"unknown point class {tag!r}", {}
        classes[tag] += 1
        numeric = cells[:10]
        if tag == "general":
            if cells[10] not in ("1", "-1"):
                return 0, f"epsilon cell {cells[10]!r}", {}
            numeric = numeric + cells[11:19]
        elif any(cells[10:19]):
            return 0, f"{tag} row fills frame-invariant cells", {}
        if not all(_finite(c) for c in numeric):
            return 0, f"non-finite cell in row {row[:60]}", {}
    return len(rows), None, {"classes": classes}


# ---------------------------------------------------------------------------
# mesh: `meridian export`, alternating obj3 and csv4, nv >> nu
# ---------------------------------------------------------------------------

#: Slots of one mesh round: (curve kind, profile, nominal v span in units
#: of pi, format).  Spans are drawn within +-5% of the nominal value.
MESH_SLOTS = (
    ("ell-circle", "sinh", 4, "obj3"),
    ("hyp-const", "cos", 4, "csv4"),
    ("ell-tab", "sinh", 4, "obj3"),
    ("ell-circle", "gauss", 6, "csv4"),
    ("hyp-const", "harmonic", 6, "obj3"),
    ("hyp-tab", "sqrtq", 6, "csv4"),
    ("ell-circle", "sinh", 8, "obj3"),
    ("hyp-const", "cos", 8, "csv4"),
    ("hyp-tab", "parallel_a", 8, "obj3"),
)
MESH_RANGES = {
    "v span": "nominal (4, 6 or 8 pi) +-5%",
    "u": "config u endpoints rounded to multiples of 2^-30",
    "hyp-const": "hyperbolic circle kappa=b, b in [0.5,0.9] (RK4 table)",
    "hyp-tab": "hyperbolic Hermite kappa=0.6+0.1 sin(w v+p) (RK4 table)",
    "ell-tab": "elliptic Hermite kappa=1.2+0.3 sin(w v+p) (RK4 table)",
    "ell-circle": "elliptic circle kappa=b, b in [1.0,1.6] (closed form)",
    "profiles": "cos, harmonic, sqrt_quadratic, sinh, constant_gauss, "
                "parallel_a at the sweep's +-2% neighbourhoods",
}


def _mesh_profile(rng: random.Random, kind: str) -> tuple:
    """(geometry, profile config, u domain) of a mesh profile kind."""
    r = lambda x, rel=0.02: near(rng, x, rel)  # noqa: E731
    if kind == "cos":
        u_lo, u_hi = u_domain(r(0.3), r(1.2))
        return "hyperbolic", {"kind": "explicit_f", "family": "cos",
                              "g0": math.sin(u_lo)}, [u_lo, u_hi]
    if kind == "harmonic":
        return "hyperbolic", {"kind": "explicit_f", "family": "harmonic",
                              "alpha": r(0.8), "beta": r(0.0),
                              "omega": r(1.0)}, u_domain(r(0.2), r(1.2))
    if kind == "sqrtq":
        return "hyperbolic", {"kind": "explicit_f", "family": "sqrt_quadratic",
                              "c": r(0.0), "d": r(1.0)}, \
            u_domain(r(0.1), r(0.9))
    if kind == "parallel_a":
        return "hyperbolic", {"kind": "family", "family": "parallel_a",
                              "c": r(0.0), "d": r(1.0)}, \
            u_domain(r(0.1), r(0.9))
    if kind == "gauss":
        return "elliptic", {"kind": "family", "family": "constant_gauss",
                            "K0": r(-1.0), "alpha": r(0.0),
                            "beta": r(1.0)}, u_domain(r(0.5), r(2.0))
    return "elliptic", {"kind": "explicit_f", "family": "sinh"}, \
        u_domain(r(0.5), r(2.0))


def mesh_ops(seed: int, rnd: int, size: dict, workdir: str) -> list:
    rng = round_rng("mesh", seed, rnd)
    nu, nv = size["mesh_grid"]
    ops = []
    for i, (curve_kind, prof, span, fmt) in enumerate(MESH_SLOTS):
        v_hi = span * math.pi * size["mesh_v_scale"] * rng.uniform(0.95, 1.05)
        geometry, profile, dom_u = _mesh_profile(rng, prof)
        if curve_kind == "hyp-const":
            curve = {"kind": "constant", "b": rng.uniform(0.5, 0.9)}
        elif curve_kind == "hyp-tab":
            curve = tabulated_kappa(rng, v_hi, 0.6, 0.1)
        elif curve_kind == "ell-tab":
            curve = tabulated_kappa(rng, v_hi, 1.2, 0.3)
        else:
            curve = {"kind": "constant", "b": rng.uniform(1.0, 1.6)}
        cfg = {"geometry": geometry, "curve": curve, "profile": profile,
               "domain": {"u": dom_u, "v": [0.0, v_hi]}}
        path = _write_config(workdir, f"mesh-{rnd}-{i}", cfg)
        out = os.path.join(workdir, f"mesh-{i}.{fmt}")
        name = f"{curve_kind.replace('-', '')}-{prof}-{span}pi"
        ops.append(Op(label=f"mesh/{name}/{fmt}",
                      argv=["export", "--config", path, "--format", fmt,
                            "--out", out, "--grid", f"{nu},{nv}"],
                      out=out, grid=(nu, nv), fmt=fmt,
                      build=_cli_build(cfg)))
    return ops


def check_mesh(op: Op, data: bytes) -> tuple:
    """(vertices, error, stats) for an obj3 or csv4 export."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] != "":
        return 0, "export does not end with a newline", {}
    lines.pop()
    nu, nv = op.grid
    n_vert = nu * nv
    if op.fmt == "csv4":
        if not lines or lines[0] != "u,v,x1,x2,x3,x4":
            return 0, "csv4 header differs", {}
        rows = lines[1:]
        if len(rows) != n_vert:
            return 0, f"csv4 has {len(rows)} rows, expected {n_vert}", {}
        for row in rows:
            cells = row.split(",")
            if len(cells) != 6 or not all(_finite(c) for c in cells):
                return 0, f"bad csv4 row {row[:60]}", {}
        return n_vert, None, {}
    verts = [ln for ln in lines if ln.startswith("v ")]
    faces = [ln for ln in lines if ln.startswith("f ")]
    if len(verts) + len(faces) != len(lines):
        return 0, "obj3 has lines other than v and f", {}
    if len(verts) != n_vert:
        return 0, f"obj3 has {len(verts)} vertices, expected {n_vert}", {}
    n_face = (nu - 1) * (nv - 1)
    if len(faces) != n_face:
        return 0, f"obj3 has {len(faces)} faces, expected {n_face}", {}
    for ln in verts:
        cells = ln.split()[1:]
        if len(cells) != 3 or not all(_finite(c) for c in cells):
            return 0, f"bad obj3 vertex {ln[:60]}", {}
    for ln in faces:
        idx = [int(c) for c in ln.split()[1:]]
        if len(idx) != 4 or not all(1 <= k <= n_vert for k in idx):
            return 0, f"bad obj3 face {ln[:60]}", {}
    return n_vert, None, {}


# ---------------------------------------------------------------------------
# families: `meridian verify` at the default 33x33 grid
# ---------------------------------------------------------------------------

#: The acceptance-test parameter sets (tests/test_acceptance.py, criteria
#: 4-8); each parameter is drawn within +-2% of its value (+-0.02 at zero).
#: Every listed family constraint (a, b != 0; c^2 > d elliptic and d > c^2
#: hyperbolic for parallel case (a); admissible slope at f0) holds on the
#: whole neighbourhood.  The hyperbolic arcsin slope (branch -1 and the
#: printed-vs-eq18 check) keeps C = 0 fixed: its constraint 0 < y(f0) < 1
#: needs |P(f0)/f0| < 1, which reaches 0.981 over the +-2% box at C = 0 but
#: 1.022 at C = +0.02.  The last entry is the documented mismatched-branch
#: check, which must exit 1 with "pass": false.
FIXED_PARAMS = {("constant_mean", "hyperbolic", "-1"): ("C",),
                ("constant_mean", "hyperbolic", "printed-vs-eq18"): ("C",)}
FAMILY_SETS = (
    ("constant_gauss", "elliptic", None,
     dict(K0=-1.0, alpha=0.0, beta=1.0, b=1.0, u_min=0.5, u_max=2.0), True),
    ("constant_gauss", "hyperbolic", None,
     dict(K0=1.0, alpha=1.0, beta=0.0, b=1.0, u_min=0.3, u_max=1.2), True),
    ("constant_mean", "elliptic", None,
     dict(a=1.0, b=4.0, C=0.0, f0=0.5, u_span=0.5), True),
    ("constant_mean", "hyperbolic", "1",
     dict(a=0.5, b=1.0, C=-0.6, f0=0.8, u_span=2.0), True),
    ("constant_mean", "hyperbolic", "-1",
     dict(a=0.5, b=1.0, C=0.0, f0=0.5, u_span=2.0), True),
    ("constant_k", "elliptic", None,
     dict(a=1.0, b=1.0, C=0.0, f0=1.0, u_span=1.0), True),
    ("constant_k", "hyperbolic", None,
     dict(a=1.0, b=2.0, C=0.0, f0=0.5, u_span=0.7), True),
    ("chen", "elliptic", None, dict(a=-1.0, b=1.0, f0=1.2, u_span=0.8), True),
    ("chen", "hyperbolic", None,
     dict(a=-1.0, b=0.5, f0=0.7, u_span=1.2), True),
    ("parallel_a", "elliptic", None,
     dict(c=0.0, d=-1.0, u_min=1.1, u_max=3.0), True),
    ("parallel_a", "hyperbolic", None,
     dict(c=0.0, d=1.0, u_min=0.1, u_max=0.9), True),
    ("parallel_b", "elliptic", None,
     dict(a=1.0, c=1.0, b=2.0, f0=2.0, u_span=1.0), True),
    ("parallel_b", "hyperbolic", None,
     dict(a=0.5, c=0.1, b=1.0, f0=0.1, u_span=0.25), True),
    ("constant_mean", "hyperbolic", "printed-vs-eq18",
     dict(a=0.5, b=1.0, C=0.0, f0=0.5, u_span=2.0), False),
)


def _family_build(kind: str, geometry: str, branch: Optional[str],
                  params: dict) -> Callable:
    def build(m):
        eps = branch if branch in (None, "printed-vs-eq18") else int(branch)
        spec = m.families.FamilySpec(m.families.FamilyKind(kind),
                                     m.curves.Geometry(geometry),
                                     params=dict(params), epsilon_branch=eps)
        return m.families.build_family_surface(spec)
    return build


def families_ops(seed: int, rnd: int, size: dict, workdir: str) -> list:
    rng = round_rng("families", seed, rnd)
    n = size["verify_grid"]
    ops = []
    for i, (kind, geometry, branch, base, passes) in enumerate(FAMILY_SETS):
        fixed = FIXED_PARAMS.get((kind, geometry, branch), ())
        params = {k: v if k in fixed else near(rng, v)
                  for k, v in base.items()}
        out = os.path.join(workdir, f"verify-{i}.json")
        argv = ["verify", "--family", kind, "--geometry", geometry]
        # "--name=value": argparse reads a separate "-1.2e-05" as an option
        argv += [f"--{key.replace('_', '-')}={val!r}"
                 for key, val in params.items()]
        if branch is not None:
            argv += ["--epsilon-branch", branch]
        argv += ["--grid", f"{n},{n}", "--out", out]
        ops.append(Op(label=f"families/{kind}-{geometry}"
                            + (f"-{branch}" if branch else ""),
                      argv=argv, out=out, expect_rc=0 if passes else 1,
                      expect_pass=passes, grid=(n, n),
                      build=_family_build(kind, geometry, branch, params)))
    return ops


def check_families(op: Op, data: bytes) -> tuple:
    """(samples, error, stats) for a verify JSON record."""
    try:
        rec = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        return 0, f"verify record is not JSON: {exc}", {}
    for key in ("pass", "n_samples", "skipped", "max_abs_residual"):
        if key not in rec:
            return 0, f"verify record lacks {key!r}", {}
    if rec["pass"] is not op.expect_pass:
        return 0, (f"pass={rec['pass']} (expected {op.expect_pass}), "
                   f"max_abs_residual={rec['max_abs_residual']}"), {}
    n = rec["n_samples"] + rec["skipped"]
    return n, None, {"evaluated": rec["n_samples"], "skipped": rec["skipped"]}


# ---------------------------------------------------------------------------
# oracle: fd fundamental forms against the closed forms, point by point
# ---------------------------------------------------------------------------

ORACLE_RANGES = {
    "elliptic profiles": "hyperbolic_harmonic alpha [0.9,1.1], beta "
                         "[0.95,1.1], omega [1.1,1.3], u in [0.6,2.0]/omega; "
                         "sqrt_quadratic c [-0.1,0.1], r [0.9,1.1], "
                         "u in [-c+1.05r, -c+1.05r+1]",
    "hyperbolic profiles": "harmonic alpha [0.6,0.75], omega [1.0,1.2], "
                           "u in [0.1,1.3]/omega; sqrt_quadratic c "
                           "[-0.1,0.1], r [0.9,1.1], u in [-c+0.2,-c+1.2]",
    "elliptic curves": "circle +-[1.0,1.4] (closed form) or wavy "
                       "+-[1.1,1.4] + [0.15,0.3] sin(v+p) (RK4)",
    "hyperbolic curves": "circle +-[0.5,0.8] or wavy +-[0.55,0.7] + "
                         "[0.05,0.1] sin(v+p) (both RK4)",
    "points": "u in the middle 80% of the domain, v in [0.3,5.8] "
              "([5.2,5.8] for a surface's first point)",
}

#: One oracle round: each (geometry, profile kind, curve kind) twice.  The
#: ranges are narrow because the cost of g's quadrature depends strongly on
#: the profile (sqrt_quadratic steepens as r shrinks), and a run draws only
#: a few dozen surfaces.
ORACLE_SLOTS = tuple((g, p, c) for g in ("elliptic", "hyperbolic")
                     for p in ("harmonic", "sqrtq")
                     for c in ("circle", "wavy") for _ in range(2))


def _oracle_surface_build(geometry: str, prof: str, curve: str,
                          rng: random.Random) -> tuple:
    """Draw one surface's parameters; return (build, u-domain)."""
    sign = rng.choice((-1.0, 1.0))
    if geometry == "elliptic":
        if prof == "harmonic":
            om = rng.uniform(1.1, 1.3)
            al, be = rng.uniform(0.9, 1.1), rng.uniform(0.95, 1.1)
            fspec = ("hyperbolic_harmonic", (al, be, om))
            dom = (0.6 / om, 2.0 / om)
        else:
            c, r = rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1)
            fspec = ("sqrt_quadratic", (c, c * c - r * r))
            lo = -c + 1.05 * r
            dom = (lo, lo + 1.0)
        if curve == "circle":
            cspec = ("circle", sign * rng.uniform(1.0, 1.4))
        else:
            cspec = ("wavy", (sign * rng.uniform(1.1, 1.4),
                              rng.uniform(0.15, 0.3), rng.uniform(0.0, 6.0)))
    else:
        if prof == "harmonic":
            om = rng.uniform(1.0, 1.2)
            fspec = ("harmonic", (rng.uniform(0.6, 0.75), 0.0, om))
            dom = (0.1 / om, 1.3 / om)
        else:
            c, r = rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1)
            fspec = ("sqrt_quadratic", (c, c * c + r * r))
            dom = (-c + 0.2, -c + 1.2)
        if curve == "circle":
            cspec = ("circle", sign * rng.uniform(0.5, 0.8))
        else:
            cspec = ("wavy", (sign * rng.uniform(0.55, 0.7),
                              rng.uniform(0.05, 0.1), rng.uniform(0.0, 6.0)))

    def build(m):
        geo = m.curves.Geometry(geometry)
        f = getattr(m.families, fspec[0] + "_fn")(*fspec[1])
        profile = m.curves.profile_from_f(f, geo, 0.0, dom)
        if cspec[0] == "circle":
            crv = m.curves.circle_curve(cspec[1], geo)
        else:
            b0, b1, ph = cspec[1]
            jets = m.jets
            kappa = jets.ScalarFn(lambda t: b0 + b1 * jets.sin(t + ph),
                                  name="kappa")
            crv = m.curves.SphericalCurve(kappa, geo)
        return m.surfaces.MeridianSurface(profile, crv)

    return build, dom


def oracle_ops(seed: int, rnd: int, size: dict, workdir: str) -> list:
    rng = round_rng("oracle", seed, rnd)
    ops = []
    for key, (geometry, prof, curve) in enumerate(ORACLE_SLOTS):
        build, (lo, hi) = _oracle_surface_build(geometry, prof, curve, rng)
        for j in range(size["oracle_points"]):
            u = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
            # The first point integrates the cold Frenet table almost to
            # the end of the v range, so cold calls form one homogeneous
            # group at the top of the latency distribution.
            v = rng.uniform(5.2, 5.8) if j == 0 else rng.uniform(0.3, 5.8)
            ops.append(Op(label=f"oracle/{geometry}-{prof}-{curve}",
                          point=(u, v), surface_key=key,
                          build=build if j == 0 else None))
    return ops


def run_oracle_point(m, surface, u: float, v: float) -> tuple:
    """The README's cross-check at one point: (k closed, k fd, varkappa fd)."""
    s = m.surfaces
    k = s.basic_invariants(surface, u, v).k
    k_num, vk_num = s.invariants_from_forms(
        s.fundamental_forms_numeric(surface, u, v))
    return k, k_num, vk_num


def check_oracle(k: float, k_num: float, vk_num: float) -> tuple:
    rel = abs(k_num - k) / abs(k)
    if not rel <= ORACLE_K_REL_TOL:
        return 1, f"k rel err {rel:.3e} > {ORACLE_K_REL_TOL}", {"rel": rel}
    if not abs(vk_num) <= ORACLE_VARKAPPA_TOL:
        return 1, f"|varkappa| {abs(vk_num):.3e} > {ORACLE_VARKAPPA_TOL}", \
            {"rel": rel}
    return 1, None, {"rel": rel}


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

GENERATORS = {"sweep": sweep_ops, "mesh": mesh_ops,
              "families": families_ops, "oracle": oracle_ops}
CHECKS = {"sweep": check_sweep, "mesh": check_mesh,
          "families": check_families}
RANGES = {"sweep": SWEEP_RANGES, "mesh": MESH_RANGES,
          "families": {"sets": "tests/test_acceptance.py criteria 4-8, "
                                "each parameter +-2% (+-0.02 at zero), "
                                "C fixed at 0 for the hyperbolic arcsin slope"},
          "oracle": ORACLE_RANGES}


def build_all(m, ops: list) -> list:
    """Build each op's input once through the public constructors.

    An input that fails to build is left as None; its call then fails too
    and is counted there.
    """
    built = []
    for op in ops:
        try:
            built.append(op.build(m) if op.build is not None else None)
        except Exception:  # counted when the op's call fails
            built.append(None)
    return built


def inputs_for_calls(m, workload: str, ops: list) -> list:
    """Inputs the calls themselves need: the CLI builds its own surface from
    the config, the oracle calls need theirs built beforehand."""
    if workload == "oracle":
        return build_all(m, ops)
    return [None] * len(ops)


def oracle_surfaces(ops: list, built: list) -> dict:
    return {op.surface_key: obj for op, obj in zip(ops, built)
            if obj is not None}


def execute(m, workload: str, op: Op, surfaces: dict, clock) -> Outcome:
    """Run one op, timing only the call into the program, then check it."""
    if workload == "oracle":
        u, v = op.point
        t0 = clock()
        try:
            k, k_num, vk_num = run_oracle_point(m, surfaces[op.surface_key],
                                                u, v)
        except Exception as exc:  # a failed operation, not a crash
            return Outcome(t0, clock() - t0, 0,
                           f"{type(exc).__name__}: {exc}")
        dt = clock() - t0
        points, err, stats = check_oracle(k, k_num, vk_num)
        return Outcome(t0, dt, points, err, None, stats)

    sink_out, sink_err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(sink_out), \
                contextlib.redirect_stderr(sink_err):
            rc = m.cli.main(op.argv)
    except Exception as exc:  # a failed operation, not a crash
        return Outcome(t0, clock() - t0, 0, f"{type(exc).__name__}: {exc}")
    dt = clock() - t0
    if rc != op.expect_rc:
        msg = sink_err.getvalue().strip().splitlines()
        return Outcome(t0, dt, 0, f"exit {rc}, expected {op.expect_rc}: "
                                  f"{msg[-1] if msg else ''}")
    try:
        with open(op.out, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return Outcome(t0, dt, 0, f"output unreadable: {exc}")
    points, err, stats = CHECKS[workload](op, data)
    return Outcome(t0, dt, points, err, hashlib.sha256(data).hexdigest(),
                   stats)
