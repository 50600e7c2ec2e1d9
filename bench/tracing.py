"""Spans and counts recorded around the package's public callables.

The tracer replaces, for the duration of a traced pass, every binding of a
wrapped function in every ``meridian`` module namespace (names imported with
``from .surfaces import ...`` live in ``cli`` and ``families`` too), and
wraps methods on their class.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and the id of the timed
call it belongs to.  Spans are kept in memory in flat arrays and written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover (calls nest on one thread, so that is the sum of the
children's durations).
"""

from __future__ import annotations

import functools
import json
import os
import time
import weakref
from array import array

#: Functions wrapped with a span: (module, attribute, span name).
FUNCTION_SPANS = (
    ("cli", "surface_from_config", "cli.surface_from_config"),
    ("cli", "cmd_invariants", "cli.cmd"),
    ("cli", "cmd_export", "cli.cmd"),
    ("cli", "cmd_verify", "cli.cmd"),
    ("families", "family_profile", "families.family_profile"),
    ("families", "verify_family", "families.verify_family"),
    ("surfaces", "basic_invariants", "surfaces.kernel"),
    ("surfaces", "classify_point", "surfaces.kernel"),
    ("surfaces", "eight_invariants", "surfaces.kernel"),
    ("surfaces", "fundamental_forms_numeric", "surfaces.fd_forms"),
    ("curves", "profile_from_slope_ode", "curves.profile_from_slope_ode"),
    ("curves", "profile_from_f", "curves.profile_from_f"),
    ("quadrature", "adaptive_simpson", "quadrature.simpson"),
)

#: Methods wrapped with a span: (module, class, method, span name).
METHOD_SPANS = (
    ("surfaces", "MeridianSurface", "position", "surfaces.position"),
    ("curves", "SphericalCurve", "frame", "curves.frame"),
    ("curves", "MeridianProfile", "f_jet", "curves.f_jet"),
    ("curves", "MeridianProfile", "g", "curves.g"),
    ("jets", "ScalarFn", "jet2", "jets.jet2"),
)

SPAN_NAMES = sorted({s[-1] for s in FUNCTION_SPANS + METHOD_SPANS})


class Tracer:
    """In-memory span and count recorder for one traced pass."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_call = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self._depth = [0] * len(self.names)
        self.call_id = -1
        self.vec4 = 0
        self.inner = 0
        self.integrand_evals = 0
        self.g_new_u = 0
        self._g_seen = weakref.WeakKeyDictionary()
        self._patches: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn, before=None):
        nid = self._nid[name]
        names, parents, calls = self.span_name, self.span_parent, \
            self.span_call
        starts, ends = self.span_start, self.span_end
        stack, depth = self._stack, self._depth
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(tracer.call_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                stack.pop()
                depth[nid] -= 1

        return functools.wraps(fn)(wrapper)

    def _seen_g(self, profile, u):
        seen = self._g_seen.get(profile)
        if seen is None:
            seen = self._g_seen[profile] = set()
        if u not in seen:
            seen.add(u)
            self.g_new_u += 1

    def install(self, m) -> None:
        """Wrap the public callables of the modules in ``m``."""
        modules = [m.package] + [getattr(m, n) for n in m.MODULES]
        for mod, attr, name in FUNCTION_SPANS:
            orig = getattr(getattr(m, mod), attr)
            wrapped = self._span(name, orig)
            for ns in modules:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self._patch(ns, key, wrapped)
        for mod, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(getattr(m, mod), cls_name)
            before = self._seen_g if name == "curves.g" else None
            self._patch(cls, meth, self._span(name, vars(cls)[meth], before))

        tracer = self
        depth = self._depth
        simpson = self._nid["quadrature.simpson"]
        vec4 = m.mink4.Vec4
        post_init = vars(vec4)["__post_init__"]

        def counted_post_init(obj):
            tracer.vec4 += 1
            post_init(obj)

        self._patch(vec4, "__post_init__", counted_post_init)

        inner = m.mink4.inner

        def counted_inner(a, b):
            tracer.inner += 1
            return inner(a, b)

        for ns in modules:
            for key, val in list(vars(ns).items()):
                if val is inner:
                    self._patch(ns, key, counted_inner)

        profile_cls = m.curves.MeridianProfile
        gdot = vars(profile_cls)["gdot"]

        def counted_gdot(obj, u):
            if depth[simpson]:
                tracer.integrand_evals += 1
            return gdot(obj, u)

        self._patch(profile_cls, "gdot", counted_gdot)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, self seconds, and outermost inclusive
        seconds (a span nested in one of its own name is not added again)."""
        n = len(self.span_name)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[names[i]]]
            dur = ends[i] - starts[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                rec["incl_s"] += dur
        return out

    def write(self, path_stem: str) -> None:
        """Write the spans: a JSON header and the raw arrays after it."""
        header = {"names": self.names, "count": len(self.span_name),
                  "arrays": [["name", "H"], ["parent", "l"], ["call", "l"],
                             ["start", "d"], ["end", "d"]],
                  "clock": "time.perf_counter seconds"}
        with open(path_stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_call,
                        self.span_start, self.span_end):
                arr.tofile(fh)


#: Per-layer metrics printed by the traced run: name -> unit.
PER_LAYER_UNITS = {
    "cli.build_s": "s",
    "cli.self_s": "s",
    "families.profile_s": "s",
    "families.verify_self_s": "s",
    "families.skipped_ratio": "ratio",
    "surfaces.kernel_calls_per_point": "count/point",
    "surfaces.kernel_self_s": "s",
    "surfaces.position_calls": "count",
    "surfaces.position_self_s": "s",
    "surfaces.fd_forms_calls": "count",
    "surfaces.fd_forms_self_s": "s",
    "surfaces.class.general": "count",
    "surfaces.class.flat_case_I": "count",
    "surfaces.class.flat_case_II": "count",
    "surfaces.class.trapped": "count",
    "surfaces.oracle_max_rel_err": "ratio",
    "curves.frame_calls": "count",
    "curves.frame_self_s": "s",
    "curves.f_jet_calls_per_point": "count/point",
    "curves.f_jet_self_s": "s",
    "curves.g_calls": "count",
    "curves.g_new_u_ratio": "ratio",
    "curves.g_self_s": "s",
    "curves.slope_ode_s": "s",
    "curves.profile_from_f_s": "s",
    "quadrature.simpson_calls": "count",
    "quadrature.simpson_self_s": "s",
    "quadrature.integrand_evals": "count",
    "jets.jet2_calls_per_point": "count/point",
    "jets.jet2_self_s": "s",
    "mink4.vec4_per_point": "count/point",
    "mink4.inner_calls": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer(tracer: Tracer, points: int, stats: dict,
              overhead_ratio: float) -> dict:
    """The per-layer metric values of one traced pass."""
    t = tracer.totals()
    pts = max(points, 1)
    classes = stats.get("classes", {})
    evaluated, skipped = stats.get("evaluated", 0), stats.get("skipped", 0)
    g_calls = t["curves.g"]["calls"]
    values = {
        "cli.build_s": t["cli.surface_from_config"]["incl_s"],
        "cli.self_s": t["cli.cmd"]["self_s"],
        "families.profile_s": t["families.family_profile"]["incl_s"],
        "families.verify_self_s": t["families.verify_family"]["self_s"],
        "families.skipped_ratio":
            skipped / (evaluated + skipped) if evaluated + skipped else 0.0,
        "surfaces.kernel_calls_per_point": t["surfaces.kernel"]["calls"] / pts,
        "surfaces.kernel_self_s": t["surfaces.kernel"]["self_s"],
        "surfaces.position_calls": t["surfaces.position"]["calls"],
        "surfaces.position_self_s": t["surfaces.position"]["self_s"],
        "surfaces.fd_forms_calls": t["surfaces.fd_forms"]["calls"],
        "surfaces.fd_forms_self_s": t["surfaces.fd_forms"]["self_s"],
        "surfaces.oracle_max_rel_err": stats.get("oracle_max_rel_err", 0.0),
        "curves.frame_calls": t["curves.frame"]["calls"],
        "curves.frame_self_s": t["curves.frame"]["self_s"],
        "curves.f_jet_calls_per_point": t["curves.f_jet"]["calls"] / pts,
        "curves.f_jet_self_s": t["curves.f_jet"]["self_s"],
        "curves.g_calls": g_calls,
        "curves.g_new_u_ratio": tracer.g_new_u / g_calls if g_calls else 0.0,
        "curves.g_self_s": t["curves.g"]["self_s"],
        "curves.slope_ode_s": t["curves.profile_from_slope_ode"]["incl_s"],
        "curves.profile_from_f_s": t["curves.profile_from_f"]["incl_s"],
        "quadrature.simpson_calls": t["quadrature.simpson"]["calls"],
        "quadrature.simpson_self_s": t["quadrature.simpson"]["self_s"],
        "quadrature.integrand_evals": tracer.integrand_evals,
        "jets.jet2_calls_per_point": t["jets.jet2"]["calls"] / pts,
        "jets.jet2_self_s": t["jets.jet2"]["self_s"],
        "mink4.vec4_per_point": tracer.vec4 / pts,
        "mink4.inner_calls": tracer.inner,
        "trace.overhead_ratio": overhead_ratio,
    }
    for tag in ("general", "flat_case_I", "flat_case_II", "trapped"):
        values[f"surfaces.class.{tag}"] = classes.get(tag, 0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def trace_path(workdir: str, workload: str) -> str:
    return os.path.join(workdir, f"trace-{workload}")
