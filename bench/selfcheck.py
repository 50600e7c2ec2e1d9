"""Quick self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs a tiny version of every workload (small grids, one round), once timed
and once traced, and checks that every metric BENCHMARK.json names is
printed with its unit and a finite value, that the per-layer metrics the
workloads were chosen for bypass as designed, and that no operation failed.
It also runs the grid-endpoint probe (run.grid_endpoint_probe) and fails
while the program still exits 2 on it.  It never checks a timing.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 7

#: Counts that must be exactly zero because the workload never reaches the
#: layer (the bypasses the workloads were chosen for).
BYPASSES = {
    "sweep": ("curves.frame_calls", "curves.g_calls",
              "surfaces.position_calls", "surfaces.fd_forms_calls"),
    "mesh": ("surfaces.kernel_calls_per_point", "surfaces.fd_forms_calls"),
    "families": ("curves.frame_calls", "curves.g_calls"),
    "oracle": ("cli.build_s", "families.profile_s"),
}


def check(workload: str, trace: bool, spec: dict) -> list:
    result, detail = run.run(workload, SEED, 1, trace, "tiny")
    problems = []
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r} != {unit!r}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    if trace:
        for name in BYPASSES[workload]:
            if got.get(name, {}).get("value") != 0:
                problems.append(f"{name} = {got.get(name)} but the workload "
                                "should bypass that layer")
    elif "call_tail_percentile" not in detail or "call_samples" not in detail:
        problems.append("detail lacks the tail percentile or sample count")
    if detail.get("error_rate") != 0 or result["failed"] or \
            not result["correct"]:
        problems.append(f"error_rate {detail.get('error_rate')}: "
                        f"{detail.get('failures')}")
    if result["attempted"] < 1:
        problems.append("no operation attempted")
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failed = False
    for workload in sorted(run.W.GENERATORS):
        for trace in (False, True):
            problems = check(workload, trace, spec)
            mode = "traced" if trace else "timed"
            status = "FAIL" if problems else "ok"
            print(f"{status} {workload} {mode}")
            for p in problems:
                print(f"    {p}")
            failed = failed or bool(problems)
    (run.WORKDIR / "probe").mkdir(parents=True, exist_ok=True)
    try:
        probe = run.grid_endpoint_probe(run.WORKDIR / "probe")
    finally:
        shutil.rmtree(run.WORKDIR / "probe")
    status = "ok" if probe == "absent" else "FAIL"
    print(f"{status} grid-endpoint defect (cli._grid_points): {probe}")
    failed = failed or probe != "absent"
    print("self-check " + ("FAILED" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
