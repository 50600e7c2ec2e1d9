"""Benchmark of the meridian package: one workload per invocation.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

  sweep     `meridian invariants` on 129x129 grids, nine profile kinds
  mesh      `meridian export` (obj3 / csv4) on nv >> nu grids, long v spans
  families  `meridian verify` for all six families in both geometries
  oracle    fd fundamental forms against the closed-form k, point by point

Load is one process and one thread: calls run back to back (a closed loop
with one client).  Inputs are generated from --seed; the program sees only
the generated configs, argv and surfaces.  Every output is checked; the
last stdout line is the JSON result, the line before it holds the
environment stamp, the run's details and the workload's parameter ranges.

With --trace 0 the run repeats whole rounds of its workload (at least one)
until the next round would end after --seconds, and prints the end-to-end
metrics.  A sweep round (nine 129x129 calls) takes about 17 s at reference
speed, so a sweep run at --seconds 25 does one round:

  points_per_s   points of the completed calls / their time
  call_p50_ms    median call time
  call_tail_ms   call time at the highest whole percentile with at least
                 ten calls above it, but at least the 95th (with fewer than
                 200 calls, the slowest slot of a round would otherwise
                 share the tail with the next one); the detail line gives
                 the percentile and the number of calls
  setup_s        median of five set-ups: a fresh import of meridian plus
                 building each input of the first round once through the
                 public constructors
  peak_rss_mb    peak resident set of the process
  success_ratio  1 - error_rate (failed / attempted operations); kept
                 non-zero so that it can carry a relative bound

Times are put on one scale by hostspeed.HostSpeed (see there): the shared
CPU's speed swings by tens of percent within seconds.  The detail line also
gives the metrics from plain wall-clock times.

With --trace 1 it runs the first round once untraced and once traced (the
sweep on a 33x33 grid, so that every span fits in memory) and prints the
per-layer metrics of tracing.PER_LAYER_UNITS; the spans are written to
.bench_work/trace-<workload>.{json,bin}.

    python3 bench/selfcheck.py                       # tiny run of everything
    python3 bench/run.py --workload mesh --record-digests
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPS = 5
MODULES = ("cli", "curves", "errors", "families", "jets", "mink4",
           "quadrature", "surfaces")
DIGESTS = HERE / "digests.json"
WORKDIR = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class SetupError(Exception):
    """The package cannot be imported from the checkout's src/."""


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _git_sha(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "meridian").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def env_stamp(seed: int) -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": _git_sha(ROOT),
        "src_sha256_16": _src_digest(ROOT),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "load": "one process, one thread, closed loop with one client",
    }


# ---------------------------------------------------------------------------
# Set-up: import the package fresh and build every input once
# ---------------------------------------------------------------------------


def import_meridian() -> SimpleNamespace:
    """Import meridian from the checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules
                 if n == "meridian" or n.startswith("meridian.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("meridian")
        mods = {n: importlib.import_module(f"meridian.{n}") for n in MODULES}
    except ImportError as exc:
        raise SetupError(f"cannot import meridian from {src}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"meridian imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(package=pkg, MODULES=MODULES, **mods)


def setup(workload: str, seed: int, size: dict, workdir: str,
          reps: int) -> tuple:
    """Run `reps` fresh set-ups; keep the last one's modules and inputs.

    Returns (m, ops, built, spans) with the (start, end) of each set-up.
    """
    spans = []
    for _ in range(reps):
        t0 = time.perf_counter()
        m = import_meridian()
        ops = W.GENERATORS[workload](seed, 0, size, workdir)
        built = W.build_all(m, ops)
        spans.append((t0, time.perf_counter()))
    return m, ops, built, spans


# ---------------------------------------------------------------------------
# Timed calls
# ---------------------------------------------------------------------------


class Tally:
    """Samples, points, failures and check statistics of a set of calls."""

    def __init__(self):
        self.labels: list = []
        self.starts: list = []
        self.seconds: list = []
        self.ok_points: list = []
        self.ok_seconds = 0.0
        self.points = 0
        self.attempted = 0
        self.failures: list = []
        self.classes = dict.fromkeys(W.CLASS_TAGS, 0)
        self.evaluated = 0
        self.skipped = 0
        self.max_rel = 0.0
        self.digests: list = []

    def add(self, op, out, expected_digest=None) -> None:
        self.attempted += 1
        self.labels.append(op.label)
        self.starts.append(out.start)
        self.seconds.append(out.seconds)
        self.digests.append(out.digest)
        err = out.error
        if err is None and expected_digest is not None \
                and out.digest != expected_digest:
            err = "output digest differs from the stored one"
        if err is not None:
            self.failures.append(f"{op.label}: {err}")
            self.ok_points.append(None)
            return
        self.ok_points.append(out.points)
        self.points += out.points
        self.ok_seconds += out.seconds
        for tag, n in out.stats.get("classes", {}).items():
            self.classes[tag] += n
        self.evaluated += out.stats.get("evaluated", 0)
        self.skipped += out.stats.get("skipped", 0)
        self.max_rel = max(self.max_rel, out.stats.get("rel", 0.0))

    def rate(self) -> float:
        """Points per second of the calls that completed them."""
        return self.points / self.ok_seconds if self.ok_seconds else 0.0

    def stats(self) -> dict:
        return {"classes": self.classes, "evaluated": self.evaluated,
                "skipped": self.skipped, "oracle_max_rel_err": self.max_rel}


def run_round(m, workload: str, ops: list, built: list, tally: Tally,
              expected=None, before_call=None) -> None:
    surfaces = W.oracle_surfaces(ops, built)
    for i, op in enumerate(ops):
        if before_call is not None:
            before_call(i)
        out = W.execute(m, workload, op, surfaces, time.perf_counter)
        want = None
        if expected is not None:
            want = expected[i] if i < len(expected) else "missing"
        tally.add(op, out, want)


def tail(samples: list) -> tuple:
    """(value, percentile) at the nearest rank: the highest whole percentile
    with at least ten samples above it, but never below the 95th, which is
    what a run with fewer than 200 calls reports."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 95, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[math.ceil(0.95 * n) - 1], 95


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_digests(workload: str, seed: int, size_name: str):
    if seed != DEFAULT_SEED or size_name != "full" or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


def latency_metrics(seconds: list, ok_points: list) -> dict:
    """points_per_s, call_p50_ms and call_tail_ms of one set of call times;
    throughput counts the calls that completed their points."""
    done = [(t, p) for t, p in zip(seconds, ok_points) if p is not None]
    busy = sum(t for t, _ in done)
    tail_s, tail_p = tail(seconds)
    return {"points_per_s": sum(p for _, p in done) / busy if busy else 0.0,
            "call_p50_ms": statistics.median(seconds) * 1e3,
            "call_tail_ms": tail_s * 1e3}, tail_p


def timed_run(workload: str, seed: int, seconds: float,
              size_name: str = "full") -> tuple:
    size = W.SIZES[size_name]
    workdir = str(WORKDIR / workload)
    expected = load_digests(workload, seed, size_name)
    tally = Tally()
    rounds = 0
    with hostspeed.HostSpeed() as host:
        m, ops, built, setup_spans = setup(workload, seed, size, workdir,
                                           SETUP_REPS)
        start = time.perf_counter()
        while True:
            run_round(m, workload, ops, built, tally,
                      expected if rounds == 0 else None)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / rounds > seconds:
                break
            ops = W.GENERATORS[workload](seed, rounds, size, workdir)
            built = W.inputs_for_calls(m, workload, ops)
        wall = time.perf_counter() - start
    ref = [host.reference_seconds(t0, t0 + dt)
           for t0, dt in zip(tally.starts, tally.seconds)]
    setup_ref = [host.reference_seconds(a, b) for a, b in setup_spans]
    metrics, tail_p = latency_metrics(ref, tally.ok_points)
    metrics.update({
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": 1.0 - len(tally.failures) / tally.attempted,
    })
    measured, _ = latency_metrics(tally.seconds, tally.ok_points)
    by_label: dict = {}
    for label, t in zip(tally.labels, ref):
        by_label.setdefault(label, []).append(t * 1e3)
    measured["setup_s"] = statistics.median(b - a for a, b in setup_spans)
    detail = {
        "rounds": rounds, "calls": tally.attempted, "points": tally.points,
        "wall_s": wall, "call_tail_percentile": tail_p,
        "call_samples": len(ref),
        "setup_reps_s": setup_ref,
        "call_ms_by_slot": {k: statistics.median(v)
                            for k, v in by_label.items()},
        "measured_wall_clock": measured,
        "host_speed": host.summary(),
        "error_rate": len(tally.failures) / tally.attempted,
        "digests_checked": expected is not None,
    }
    return tally, metrics, END_TO_END_UNITS, detail


def traced_run(workload: str, seed: int, size_name: str = "trace") -> tuple:
    """Round 0 once untraced and once traced, on fresh inputs each time."""
    size = W.SIZES[size_name]
    workdir = str(WORKDIR / workload)
    m, ops, built, _ = setup(workload, seed, size, workdir, 1)
    plain = Tally()
    run_round(m, workload, ops, built, plain)

    ops = W.GENERATORS[workload](seed, 0, size, workdir)
    built = W.inputs_for_calls(m, workload, ops)
    tracer = tracing.Tracer()
    traced = Tally()

    def mark(i):
        tracer.call_id = i

    tracer.install(m)
    try:
        run_round(m, workload, ops, built, traced, before_call=mark)
    finally:
        tracer.uninstall()
    tracer.write(tracing.trace_path(str(WORKDIR), workload))

    plain_rate, traced_rate = plain.rate(), traced.rate()
    metrics = tracing.per_layer(tracer, traced.points, traced.stats(),
                                plain_rate / traced_rate if traced_rate
                                else 0.0)
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failures = plain.failures + traced.failures
    detail = {"calls": traced.attempted, "points": traced.points,
              "spans": len(tracer.span_name),
              "error_rate": len(tally.failures) / tally.attempted,
              "untraced_points_per_s": plain_rate,
              "traced_points_per_s": traced_rate}
    return tally, metrics, tracing.PER_LAYER_UNITS, detail


def grid_endpoint_probe(workdir: Path) -> str:
    """Outcome of `meridian invariants` on W.GRID_ENDPOINT_PROBE, a config
    whose last u grid point the CLI puts one ulp above the domain: "absent"
    once the program handles it, else the failure.  Untimed, and not one of
    the workload's operations (their inputs avoid the defect)."""
    m = import_meridian()
    cfg = workdir / "probe.json"
    out = workdir / "probe.csv"
    cfg.write_text(json.dumps(W.GRID_ENDPOINT_PROBE))
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            rc = m.cli.main(["invariants", "--config", str(cfg), "--out",
                             str(out), "--grid", "3,3"])
    except Exception as exc:  # reported, not raised
        return f"present: {type(exc).__name__}: {exc}"
    if rc == 0:
        return "absent"
    msg = sink.getvalue().strip().splitlines()
    return f"present: exit {rc}: {msg[-1] if msg else ''}"


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name=None) -> tuple:
    """Run one benchmark invocation; returns (result, detail)."""
    (WORKDIR / workload).mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            tally, values, units, detail = traced_run(
                workload, seed, size_name or "trace")
        else:
            tally, values, units, detail = timed_run(
                workload, seed, seconds, size_name or "full")
        detail["known_defects"] = {
            "grid_endpoint": grid_endpoint_probe(WORKDIR / workload)}
    finally:
        for path in (WORKDIR / workload).iterdir():
            path.unlink()
    if not trace:
        values = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    detail["failures"] = tally.failures[:20]
    result = {"correct": not tally.failures, "attempted": tally.attempted,
              "failed": len(tally.failures), "metrics": values}
    return result, detail


def record_digests(workload: str) -> None:
    """Store the sha256 of each round-0 CLI output at the default seed
    (null for a call that wrote none)."""
    (WORKDIR / workload).mkdir(parents=True, exist_ok=True)
    m, ops, built, _ = setup(workload, DEFAULT_SEED, W.SIZES["full"],
                             str(WORKDIR / workload), 1)
    tally = Tally()
    run_round(m, workload, ops, built, tally)
    for failure in tally.failures:
        print(f"bench: no digest for failed call {failure}", file=sys.stderr)
    data = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    data[workload] = tally.digests
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORKDIR / workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's output digests for "
                             "the workload instead of measuring")
    args = parser.parse_args(argv)
    try:
        if args.record_digests:
            record_digests(args.workload)
            return 0
        result, detail = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": env_stamp(args.seed), "detail": detail,
                      "ranges": W.RANGES[args.workload]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
