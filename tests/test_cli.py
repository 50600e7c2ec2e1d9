import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import meridian
from conftest import NEAR_BRANCH
from meridian import cli
from meridian.cli import (CSV_HEADER, MAX_GRID_POINTS, _fmt, _grid, main,
                          surface_from_config)
from meridian.curves import MAX_ARC, MeridianProfile, grid_points
from meridian.surfaces import InvariantSet, PointRecord, PointTag


def write_config(path, cfg):
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def worked_config(tmp_path, **overrides):
    cfg = {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": 1.0},
        "profile": {"kind": "explicit_f", "family": "cos",
                    "g0": math.sin(0.3)},
        "domain": {"u": [0.3, 1.2], "v": [0.0, 2.0]},
        "grid": {"nu": 3, "nv": 3},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "cfg.json", cfg)


def sinh_config(tmp_path, u=(0.5, 1.5), nu=3, nv=3):
    cfg = {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": 0.0},
        "profile": {"kind": "explicit_f", "family": "sinh",
                    "g0": math.cosh(u[0])},
        "domain": {"u": list(u), "v": [0.0, 2 * math.pi]},
        "grid": {"nu": nu, "nv": nv},
    }
    return write_config(tmp_path / "sinh.json", cfg)


def rows_of(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# -- build --------------------------------------------------------------------


def test_build_writes_descriptor(tmp_path):
    cfg = write_config(tmp_path / "g.json", {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": 1.0},
        "profile": {"kind": "family", "family": "constant_gauss",
                    "K0": -1.0, "alpha": 0.0, "beta": 1.0},
        "domain": {"u": [0.5, 2.0], "v": [0.0, 2 * math.pi]},
    })
    out = tmp_path / "surf.json"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    desc = json.loads(out.read_text())
    assert desc["validated"] is True
    assert desc["domain"]["u"] == [0.5, 2.0]


def test_build_empty_config_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path / "e.json", {})
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "missing field: geometry" in capsys.readouterr().err


def test_build_inadmissible_profile_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": 1.0},
        "profile": {"kind": "explicit_f", "family": "cos"},
        "domain": {"u": [0.3, 1.2]},
    })
    assert main(["build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "fdot^2 > 1" in capsys.readouterr().err


# -- invariants ---------------------------------------------------------------


def test_invariants_header_and_worked_row(tmp_path):
    cfg = worked_config(tmp_path,
                        domain={"u": [math.pi / 4, 1.2], "v": [0.5, 1.5]})
    out = tmp_path / "inv.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "2,2"]) == 0
    header, rows = rows_of(out)
    assert header == CSV_HEADER
    assert len(rows) == 4
    cols = CSV_HEADER.split(",")
    row = dict(zip(cols, rows[0]))  # u = pi/4, v = 0.5
    assert abs(float(row["u"]) - math.pi / 4) <= 1e-8
    assert abs(float(row["k"]) - (-2.0)) <= 1e-6
    assert abs(float(row["K"]) - 1.0) <= 1e-6
    assert float(row["varkappa"]) == 0.0
    assert abs(float(row["lambda"]) - (-0.707107)) <= 1e-5
    assert abs(float(row["mu"]) - (-1.0)) <= 1e-6
    assert abs(float(row["beta1"]) - (-1.0)) <= 1e-6
    assert abs(float(row["beta2"]) - 1.0) <= 1e-6
    assert row["epsilon"] == "1"
    assert row["pointclass"] == "general"


def test_invariants_flat_rows_tagged_and_empty(tmp_path):
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 0.0})
    out = tmp_path / "flat.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    _, rows = rows_of(out)
    cols = CSV_HEADER.split(",")
    for r in rows:
        row = dict(zip(cols, r))
        assert row["pointclass"] == "flat_case_I"
        assert row["gamma1"] == "" and row["beta2"] == "" and row["epsilon"] == ""
        assert float(row["varkappa"]) == 0.0


def test_invariants_varkappa_column_zero(tmp_path):
    cfg = worked_config(tmp_path)
    out = tmp_path / "vk.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    _, rows = rows_of(out)
    idx = CSV_HEADER.split(",").index("varkappa")
    assert all(float(r[idx]) == 0.0 for r in rows)


def test_invariants_deterministic(tmp_path):
    cfg = worked_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["invariants", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_invariants_tabulated_curve(tmp_path):
    n = 48
    samples = [[6.5 * i / (n - 1),
                1.0 + 0.3 * math.sin(6.5 * i / (n - 1)),
                0.3 * math.cos(6.5 * i / (n - 1))] for i in range(n)]
    cfg = worked_config(tmp_path,
                        curve={"kind": "function", "samples": samples})
    out = tmp_path / "tab.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    _, rows = rows_of(out)
    assert len(rows) == 9


def _samples_to_domain_end_config(tmp_path, mirrored, v_end=6.5):
    # RK4 stage abscissae i*h + h and j*h + rem round one ulp past +-6.5
    samples = [[0, 1, 0], [3.25, 1.2, 0], [6.5, 1, 0]]
    if mirrored:
        samples = [[-v, k, d] for v, k, d in reversed(samples)]
    cfg = {"geometry": "elliptic",
           "curve": {"kind": "function", "samples": samples},
           "profile": {"kind": "explicit_f", "family": "sinh"},
           "domain": {"u": [0.5, 2],
                      "v": [-v_end, 0] if mirrored else [0, v_end]},
           "grid": {"nu": 5, "nv": 9}}
    return write_config(tmp_path / "tab_end.json", cfg)


@pytest.mark.parametrize("mirrored", [False, True], ids=["upper", "lower"])
def test_export_tabulated_curve_to_domain_end(tmp_path, mirrored):
    cfg = _samples_to_domain_end_config(tmp_path, mirrored)
    out = tmp_path / "tab.csv"
    assert main(["export", "--config", cfg, "--format", "csv4",
                 "--out", str(out)]) == 0
    _, rows = rows_of(out)
    assert len(rows) == 45
    assert all(math.isfinite(float(c)) for row in rows for c in row)


@pytest.mark.parametrize("mirrored", [False, True], ids=["upper", "lower"])
def test_export_tabulated_curve_past_samples_exit2(tmp_path, capsys,
                                                   mirrored):
    # the last remainder step starts inside the samples and ends past them
    # (message recorded while kappa was read one abscissa at a time)
    cfg = _samples_to_domain_end_config(tmp_path, mirrored, v_end=6.5005)
    out = tmp_path / "tab.csv"
    assert main(["export", "--config", cfg, "--format", "csv4",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: kappa evaluated at -6.500000000000001 outside domain "
        "[-6.5, 0.0]\n" if mirrored else
        "error: kappa evaluated at 6.500000000000001 outside domain "
        "[0.0, 6.5]\n")
    assert not out.exists()


def test_invariants_last_grid_point_is_domain_end(tmp_path):
    # lo + (hi - lo) lands one ulp above hi for this domain
    cfg = write_config(tmp_path / "probe.json", {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": 0.8815786063008588},
        "profile": {"kind": "explicit_f", "family": "harmonic",
                    "alpha": 0.7891443328289829,
                    "beta": -0.001029224044398043,
                    "omega": 0.9941587745384901},
        "domain": {"u": [0.19849464516881177, 1.2073339356890835],
                   "v": [0.0, 6.345236668988857]}})
    out = tmp_path / "probe.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "3,3"]) == 0
    _, rows = rows_of(out)
    assert rows[-1][0] == _fmt(1.2073339356890835)


@pytest.mark.parametrize("domain", [
    {"u": [0.3, 1.2], "v": [0.0, math.inf]},
    {"u": [0.3, 1.2], "v": [-math.inf, 1.0]},
    {"u": [0.3, math.nan], "v": [0.0, 1.0]},
])
def test_non_finite_domain_exit2(tmp_path, capsys, domain):
    cfg = worked_config(tmp_path, domain=domain)
    for argv in (["invariants"], ["export", "--format", "csv4"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("v", [[1.0, 1.0], [2.0, 1.0]],
                         ids=["empty", "reversed"])
def test_empty_or_reversed_v_domain_exit2(tmp_path, capsys, v):
    # an empty v domain made an OBJ whose faces all have zero area
    cfg = worked_config(tmp_path, domain={"u": [0.3, 1.2], "v": v})
    for argv in (["build"], ["invariants"], ["export", "--format", "obj3"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert "empty domain.v" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("v", [[-1e308, 1e308], [0.0, 2e4]],
                         ids=["overflowing", "past-max-arc"])
def test_v_domain_past_max_arc_exit2(tmp_path, capsys, v):
    # build wrote such a domain, invariants met the NaN grid points of
    # 1e308 - (-1e308) = inf and export a v past the curves' |v| <= 1e4
    cfg = worked_config(tmp_path, domain={"u": [0.3, 1.2], "v": v},
                        grid={"nu": 3, "nv": 2})
    for argv in (["build"], ["invariants"], ["export", "--format", "obj3"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert "domain.v" in capsys.readouterr().err
        assert not out.exists()


def test_v_domain_at_max_arc_builds(tmp_path):
    cfg = worked_config(tmp_path, domain={"u": [0.3, 1.2],
                                          "v": [-MAX_ARC, MAX_ARC]})
    out = tmp_path / "out.json"
    assert main(["build", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["domain"]["v"] == [-1e4, 1e4]


@pytest.mark.parametrize("cell", [0, 1, 2], ids=["v", "kappa", "dkappa"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
def test_non_finite_curve_sample_exit2(tmp_path, capsys, cell, value):
    # build wrote the NaN into its descriptor, invariants overflowed and
    # export met a non-finite Vec4; each exits 2 and names the field now
    samples = [[0.0, 1.0, 0.0], [1.0, 1.2, 0.1], [2.0, 1.0, 0.0]]
    samples[1][cell] = value
    cfg = worked_config(tmp_path,
                        curve={"kind": "function", "samples": samples})
    for argv in (["build"], ["invariants"], ["export", "--format", "csv4"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert "curve.samples must be a finite number" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ({"profile": {"kind": "explicit_f", "family": "linear", "a1": "x"}},
     "profile.a1"),
    ({"profile": {"kind": "explicit_f", "family": "cos", "g0": [1]}},
     "profile.g0"),
    ({"profile": {"kind": "slope_ode", "family": "constant_k", "a": 1,
                  "b": 1, "f0": {}}}, "profile.f0"),
    ({"curve": {"kind": "constant", "b": "one"}}, "curve.b"),
    ({"curve": {"kind": "function", "samples": [[0, 1, 0], [1, None, 0]]}},
     "curve.samples"),
    ({"curve": {"kind": "function", "samples": [[1, 1, 0], [0, 1, 0]]}},
     "strictly increasing"),
    ({"grid": {"nu": None}}, "grid sizes"),
    # int() would truncate these to 3, 1 and 5 rows of u
    ({"grid": {"nu": 3.7}}, "grid.nu = 3.7"),
    ({"grid": {"nu": True}}, "grid.nu = True"),
    ({"grid": {"nv": "5"}}, "grid.nv = '5'"),
    # a slope profile does not read domain.u, but it is checked when given
    ({"profile": {"kind": "slope_ode", "family": "constant_k", "a": 1,
                  "b": 1, "f0": 1}, "domain": {"u": "junk"}}, "domain.u"),
])
def test_bad_field_type_exit2(tmp_path, capsys, override, field):
    cfg = worked_config(tmp_path, **override)
    assert main(["invariants", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("section,value", [
    ("grid", [3, 3]), ("domain", 5), ("domain", None), ("tolerances", 1),
    ("curve", 5), ("profile", "cos"),
])
def test_config_section_not_object_exit2(tmp_path, capsys, section, value):
    cfg = worked_config(tmp_path, **{section: value})
    for argv in (["invariants"], ["export", "--format", "csv4"], ["build"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert f"{section} must be a JSON object" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("override,field", [
    ({"tolerance": {"flat": 0.5}}, "tolerance"),
    ({"curve": {"kind": "constant", "b": 1.0, "kappa": 5}}, "curve.kappa"),
    ({"curve": {"kind": "function", "b": 1.0,
                "samples": [[0, 1, 0], [2, 1, 0]]}}, "curve.b"),
    ({"domain": {"u": [0.3, 1.2], "v": [0.0, 2.0], "w": [0, 1]}},
     "domain.w"),
    ({"grid": {"nu": 3, "nv": 3, "n": 9}}, "grid.n"),
    ({"tolerances": {"flat": 1e-9, "trapped": 0.1}}, "tolerances.trapped"),
], ids=["top-level", "constant-curve", "function-curve", "domain", "grid",
        "tolerances"])
def test_unknown_config_field_exit2(tmp_path, capsys, override, field):
    cfg = worked_config(tmp_path, **override)
    for argv in (["invariants"], ["export", "--format", "csv4"], ["build"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"unknown config field: {field}" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_slope_ode_config_keeps_g0(tmp_path):
    # elliptic: the axis is x4, and g enters it additively
    axes, gs = {}, {}
    for g0 in (0, 5):
        spec = {
            "geometry": "elliptic",
            "curve": {"kind": "constant", "b": 1.0},
            "profile": {"kind": "slope_ode", "family": "constant_k",
                        "a": 1, "b": 1, "C": 0, "f0": 1, "u_span": 1,
                        "g0": g0},
            "grid": {"nu": 5, "nv": 3}}
        cfg = write_config(tmp_path / f"k{g0}.json", spec)
        out = tmp_path / f"k{g0}.csv"
        assert main(["export", "--config", cfg, "--format", "csv4",
                     "--out", str(out)]) == 0
        axes[g0] = [float(r[5]) for r in rows_of(out)[1]]
        gs[g0] = surface_from_config(spec).profile.g
    assert len(axes[5]) == 15
    # 9 significant digits: the last printed digit of a value in [1, 10)
    # is 1e-8, so the printed cells agree to 1e-8 and g itself to 1e-9
    assert all(abs(b - a - 5.0) <= 1e-8 for a, b in zip(axes[0], axes[5]))
    for u in (0.0, 0.25, 0.5, 1.0):
        assert abs(gs[5](u) - gs[0](u) - 5.0) <= 1e-9


def test_flat_tolerance_shared_by_tag_and_frame(tmp_path):
    # kappa = 1e-10 is above tolerances.flat = 1e-12: every row is general
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 1e-10},
                        tolerances={"flat": 1e-12})
    out = tmp_path / "flat.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    _, rows = rows_of(out)
    assert len(rows) == 9
    for r in rows:
        assert r[-1] == "general"
        assert all(math.isfinite(float(c)) for c in r[:-1])


def test_invariants_negative_orientation_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path / "neg.json", {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": 1.0},
        "profile": {"kind": "family", "family": "parallel_a",
                    "c": 0.0, "d": -1.0, "g_sign": -1},
        "domain": {"u": [1.1, 3.0]}})
    assert main(["invariants", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    assert "takes no parameter 'g_sign'" in capsys.readouterr().err


def _harmonic_far_config(tmp_path):
    # f = cos(4u) passes the 512-point admissibility scan of this domain,
    # but is negative or breaks the normalization between the samples
    return write_config(tmp_path / "far.json", {
        "geometry": "elliptic",
        "curve": {"kind": "constant", "b": 1},
        "profile": {"kind": "explicit_f", "family": "harmonic",
                    "alpha": 1, "beta": 0, "omega": 4},
        "domain": {"u": [-0.2, 802.4]}})


def _hyperbolic_dip_config(tmp_path):
    # f = 0.9 cos u keeps |fdot| < 1, so gdot exists everywhere, and the
    # scan samples fall 2 pi apart, where f = 0.9; f = -0.9 mid-domain
    return write_config(tmp_path / "dip.json", {
        "geometry": "hyperbolic",
        "curve": {"kind": "constant", "b": 0.5},
        "profile": {"kind": "explicit_f", "family": "harmonic",
                    "alpha": 0.9, "beta": 0, "omega": 1},
        "domain": {"u": [0.0, 2 * math.pi * 511]}})


@pytest.mark.parametrize("config,command,grid,u", [
    (_harmonic_far_config, ["invariants"], "4,3", "534.866667"),
    (_harmonic_far_config, ["invariants"], "5,3", "200.45"),
    (_harmonic_far_config, ["export", "--format", "csv4"], "5,3", "200.45"),
    (_hyperbolic_dip_config, ["invariants"], "3,2", "1605.35385"),
    (_hyperbolic_dip_config, ["export", "--format", "csv4"], "3,2",
     "1605.35385"),
], ids=["far-invariants-4x3", "far-invariants-5x3", "far-export-5x3",
        "dip-invariants", "dip-export"])
def test_inadmissible_grid_point_exit2(tmp_path, capsys, config, command,
                                       grid, u):
    out = tmp_path / "o.csv"
    assert main(command + ["--config", config(tmp_path),
                           "--out", str(out), "--grid", grid]) == 2
    assert f"f(u) > 0, violated at u = {u}" in capsys.readouterr().err
    assert not out.exists()


def test_build_checks_every_grid_u(tmp_path, capsys):
    # the default 33-point grid of the far config reaches f <= 0, which
    # build's 512-point construction scan misses
    out = tmp_path / "desc.json"
    assert main(["build", "--config", _harmonic_far_config(tmp_path),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "f(u) > 0, violated at u = 100.125" in captured.err
    assert "validated" not in captured.out
    assert not out.exists()


def _run_cli(cwd, flags, argv):
    """Exit code, stdout, stderr and the bytes of ./out of one CLI process."""
    src = str(pathlib.Path(meridian.__file__).resolve().parents[1])
    out = cwd / "out"
    if out.exists():
        out.unlink()
    proc = subprocess.run([sys.executable, *flags, "-m", "meridian.cli",
                           *argv], cwd=cwd, capture_output=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    return (proc.returncode, proc.stdout, proc.stderr,
            out.read_bytes() if out.exists() else None)


def test_fresh_cli_import_loads_no_dataclasses():
    # the value types are NamedTuples and plain classes; dataclasses would
    # pull inspect (and ast, dis, tokenize) into every fresh command
    src = str(pathlib.Path(meridian.__file__).resolve().parents[1])
    code = ("import sys, meridian.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, b"[]\n"), proc.stderr


@pytest.mark.parametrize("argv,rc", [
    (["verify", "--family", "chen", "--geometry", "elliptic", "--a=-1",
      "--b=1", "--f0=1.2", "--u-span=0.8", "--grid", "9,9"], 0),
    (["verify", "--family", "chen", "--geometry", "hyperbolic", "--a=-1",
      "--b=0.5", "--f0=0.7", "--u-span=1.2", "--grid", "9,9",
      "--tol=1e-16", "--out", "out"], 1),
    (["build", "--config", "far.json", "--out", "out"], 2),
], ids=["verify-pass", "verify-fail", "build-far"])
def test_optimized_interpreter_same_bytes(tmp_path, argv, rc):
    # python -O strips assert statements; no check may rely on them
    _harmonic_far_config(tmp_path)     # writes far.json
    plain = _run_cli(tmp_path, [], argv)
    assert plain[0] == rc
    assert _run_cli(tmp_path, ["-O"], argv) == plain


def test_family_profile_config_defaults(tmp_path, capsys):
    cfg = {"geometry": "elliptic", "curve": {"kind": "constant", "b": 1.0},
           "profile": {"kind": "family", "family": "constant_gauss",
                       "K0": -1.0, "beta": 1.0},
           "domain": {"u": [0.5, 2.0]}}
    out = tmp_path / "o.csv"
    # alpha defaults to 0: the same rows as the worked config with alpha = 0
    assert main(["invariants", "--config", write_config(tmp_path / "a.json",
                                                        cfg),
                 "--out", str(out)]) == 0
    cfg["profile"]["alpha"] = 0.0
    ref = tmp_path / "ref.csv"
    assert main(["invariants", "--config", write_config(tmp_path / "b.json",
                                                        cfg),
                 "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()
    del cfg["profile"]["K0"]
    assert main(["invariants", "--config", write_config(tmp_path / "c.json",
                                                        cfg),
                 "--out", str(out)]) == 2
    assert "'K0'" in capsys.readouterr().err


# -- golden outputs ------------------------------------------------------------

# sha256 of outputs recorded before the separable point kernel replaced the
# per-point one; the kernel repeats the same floating-point operations, so
# every byte must stay the same.
GOLDEN_INVARIANTS = \
    "425a303cab9804a3b98237e8934bb95eccc5b98d3fcfe5efbb04253833a750a3"
GOLDEN_OBJ3 = \
    "e649debdd3d54ef1b81bddd50ccedce6877cd39d9b9e04d283780753c96f624e"
GOLDEN_VERIFY = \
    "e1d61d3f0f584f3460cff5e7fd790700089242a5409a3b7573440f7d80c92852"
# recorded before the Frenet step was fused: a hyperbolic RK4 circle over
# both the forward and the backward frame table
GOLDEN_CSV4_HYPERBOLIC = \
    "068f8a20e9abe3e8c806fe8f9fe5223b3e7b703a62aedd5cb5149f84d0d0d047"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_invariants_config():
    # tabulated kappa = 0.6 sin v, which vanishes at v = 0 (flat rows)
    return {
        "geometry": "hyperbolic",
        "curve": {"kind": "function", "samples": [
            [0.25 * i, 0.6 * math.sin(0.25 * i), 0.15 * math.cos(0.25 * i)]
            for i in range(28)]},
        "profile": {"kind": "explicit_f", "family": "cos", "g0": 0.25},
        "domain": {"u": [0.375, 1.1875], "v": [0.0, 6.5]}}


def test_golden_invariants_csv(tmp_path):
    cfg = write_config(tmp_path / "inv.json", golden_invariants_config())
    out = tmp_path / "inv.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "33,33"]) == 0
    assert sha256_of(out) == GOLDEN_INVARIANTS


def test_golden_invariants_under_optimized_interpreter(tmp_path):
    # python -O strips assert statements: the bytes and the rejection of a
    # bad config must not depend on them
    cfg = golden_invariants_config()
    write_config(tmp_path / "inv.json", cfg)
    argv = ["invariants", "--config", "inv.json", "--out", "out",
            "--grid", "33,33"]
    rc, _, _, data = _run_cli(tmp_path, ["-O"], argv)
    assert rc == 0
    assert hashlib.sha256(data).hexdigest() == GOLDEN_INVARIANTS
    cfg["curve"]["samples"][3][1] = math.nan
    write_config(tmp_path / "inv.json", cfg)
    rc, _, err, data = _run_cli(tmp_path, ["-O"], argv)
    assert (rc, data) == (2, None)
    assert b"curve.samples must be a finite number" in err


def test_golden_export_obj3(tmp_path):
    cfg = write_config(tmp_path / "obj.json", {
        "geometry": "elliptic",
        "curve": {"kind": "function", "samples": [
            [0.25 * i, 1.0 + 0.3 * math.sin(0.25 * i),
             0.075 * math.cos(0.25 * i)] for i in range(60)]},
        "profile": {"kind": "family", "family": "constant_gauss",
                    "K0": -1.0, "alpha": 0.0, "beta": 1.0},
        "domain": {"u": [0.5, 2.0], "v": [0.0, 14.5]}})
    out = tmp_path / "mesh.obj"
    assert main(["export", "--config", cfg, "--format", "obj3",
                 "--out", str(out), "--grid", "9,65"]) == 0
    assert sha256_of(out) == GOLDEN_OBJ3


def test_golden_export_csv4_hyperbolic(tmp_path):
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 0.5},
                        domain={"u": [0.3, 1.2],
                                "v": [-3 * math.pi, 3 * math.pi]})
    out = tmp_path / "hyp.csv"
    assert main(["export", "--config", cfg, "--format", "csv4",
                 "--out", str(out), "--grid", "3,257"]) == 0
    assert sha256_of(out) == GOLDEN_CSV4_HYPERBOLIC


# sha256 of 17x17 invariants CSVs over circles, at the nominal parameters of
# the four constant-kappa sweep kinds, recorded while sweep still evaluated
# one kernel cell per (u, v): one cell per u-column must keep every byte.
GOLDEN_CONSTANT_KAPPA = {
    "cos-hyp": ("hyperbolic", 1.0, {
        "kind": "explicit_f", "family": "cos", "g0": math.sin(0.3)},
        [0.3, 1.2],
        "060f51f179143ae794d65a85034c4294c9184c3e5655a7dc78c29497393caf20"),
    "harmonic-hyp": ("hyperbolic", 0.8, {
        "kind": "explicit_f", "family": "harmonic", "alpha": 0.8,
        "beta": 0.0, "omega": 1.0}, [0.2, 1.2],
        "82be9c0dd2e041604d48be5d3fd1079fa0e5225fd6afa6d691bb26f173d03d84"),
    "constant_k-ell": ("elliptic", 1.0, {
        "kind": "slope_ode", "family": "constant_k", "a": 1.0, "b": 1.0,
        "C": 0.0, "f0": 1.0, "u_span": 1.0}, None,
        "2955b01bda5c72dfb99306ddb46fd9509762164e9470290a2fc9269f35c27484"),
    "chen-hyp": ("hyperbolic", 0.5, {
        "kind": "slope_ode", "family": "chen", "a": -1.0, "b": 0.5,
        "f0": 0.7, "u_span": 1.2}, None,
        "deec56e16aa3b19c044592c0ed7de7dd3ab56a189246d135071bd8eab4042298"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CONSTANT_KAPPA))
def test_golden_invariants_constant_kappa(tmp_path, name):
    geometry, b, profile, u, digest = GOLDEN_CONSTANT_KAPPA[name]
    domain = {"v": [0.0, 6.25]} if u is None else {"u": u, "v": [0.0, 6.25]}
    cfg = write_config(tmp_path / f"{name}.json", {
        "geometry": geometry, "curve": {"kind": "constant", "b": b},
        "profile": profile, "domain": domain})
    out = tmp_path / f"{name}.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "17,17"]) == 0
    assert sha256_of(out) == digest


def test_golden_verify_record(tmp_path):
    out = tmp_path / "rep.jsonl"
    assert main(["verify", "--family", "parallel_a", "--geometry",
                 "hyperbolic", "--c", "0", "--d", "1", "--u-min", "0.1",
                 "--u-max", "0.9", "--tol", "1e-8", "--out", str(out)]) == 0
    assert sha256_of(out) == GOLDEN_VERIFY


# sha256 of verify records of the slope families at the nominal parameters
# of the acceptance suite, recorded before Jet2 became a tuple: the slope
# build repeats the same floating-point operations, so every byte must stay
GOLDEN_VERIFY_SLOPE = {
    "constant_mean-ell": (
        ["constant_mean", "elliptic", "--a=1", "--b=4", "--C=0", "--f0=0.5",
         "--u-span=0.5", "--tol=1e-6"], 0,
        "732ff4d481e76791445f4b2c913e3d857128a24858cb26475d3cbda7f388aec0"),
    "constant_mean-hyp-plus": (
        ["constant_mean", "hyperbolic", "--epsilon-branch=1", "--a=0.5",
         "--b=1", "--C=-0.6", "--f0=0.8", "--u-span=2", "--tol=1e-6"], 0,
        "eb6c4dda352351596a4325319684066f7d6da9775b3f9fbf48a3791a2e82d1c9"),
    "constant_mean-hyp-minus": (
        ["constant_mean", "hyperbolic", "--epsilon-branch=-1", "--a=0.5",
         "--b=1", "--C=0", "--f0=0.5", "--u-span=2", "--tol=1e-6"], 0,
        "e1f8abf48b67057254d1c4449670cb5b2a8676337b8a31fe3e94ad9e3f7f42f2"),
    "constant_mean-printed-vs-eq18": (
        ["constant_mean", "hyperbolic", "--epsilon-branch=printed-vs-eq18",
         "--a=0.5", "--b=1", "--C=0", "--f0=0.5", "--u-span=2",
         "--tol=1e-7"], 1,
        "c331b8c256ee5f94cb3a25239c60c8ae9fe3e290af2c4e941e5d67f50eb1b29b"),
    "constant_k-ell": (
        ["constant_k", "elliptic", "--a=1", "--b=1", "--C=0", "--f0=1",
         "--u-span=1", "--tol=1e-6"], 0,
        "1f7d1114a6d838e0734f9c96324a7b30b634c6559125584b0d68b4c3e94d9f66"),
    "constant_k-hyp": (
        ["constant_k", "hyperbolic", "--a=1", "--b=2", "--C=0", "--f0=0.5",
         "--u-span=0.7", "--tol=1e-6"], 0,
        "8a5c9f787d2e45fdc442e6f8d78c2c6b6d7d09d383ae613adb2f8dbc066c7155"),
    "chen-ell": (
        ["chen", "elliptic", "--a=-1", "--b=1", "--f0=1.2", "--u-span=0.8",
         "--tol=1e-6"], 0,
        "aaa86089756f663f93855ac13ed17c78dd5943c72000a1d07b6d7b22f87ace31"),
    "chen-hyp": (
        ["chen", "hyperbolic", "--a=-1", "--b=0.5", "--f0=0.7",
         "--u-span=1.2", "--tol=1e-6"], 0,
        "f5f728acd5a2f64d4322a8bbde8ee7291e3da80659ff84444c2f42bf876bddc1"),
    "parallel_b-ell": (
        ["parallel_b", "elliptic", "--a=1", "--c=1", "--b=2", "--f0=2",
         "--u-span=1", "--tol=1e-8"], 0,
        "bf4e76f6bfaee9e7847a48b877320d7bc9d7a62bb7914be27427b9c93a9ecce9"),
    "parallel_b-hyp": (
        ["parallel_b", "hyperbolic", "--a=0.5", "--c=0.1", "--b=1",
         "--f0=0.1", "--u-span=0.25", "--tol=1e-8"], 0,
        "aaff333df0b0c156e7c3de158589db5603cbc5a9c1aac1b9fdf1114add08de42"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY_SLOPE))
def test_golden_verify_record_slope_families(tmp_path, name):
    (family, geometry, *flags), rc, digest = GOLDEN_VERIFY_SLOPE[name]
    out = tmp_path / "rep.jsonl"
    assert main(["verify", "--family", family, "--geometry", geometry,
                 *flags, "--out", str(out)]) == rc
    assert sha256_of(out) == digest


#: sha256 of a 3x7 invariants CSV whose rows take every point class: flat
#: case I where the sampled kappa is 0, trapped where it is 1e-5 (f is
#: sqrt(u^2 - 1), so phi = 0 and <H,H> = kappa^2 / (4 f^2)), flat case II at
#: the large u, where |kappa_m| = 1 / f^2 is below tolerances.flat, and
#: general; recorded while the rows were f-strings with format specs
GOLDEN_POINT_CLASSES = \
    "cd9bf4f32022ec26e01c1824001babc9439d4c0d7b11bc4657b12381de893a38"


def test_golden_invariants_every_point_class(tmp_path):
    cfg = write_config(tmp_path / "classes.json", {
        "geometry": "elliptic",
        "curve": {"kind": "function", "samples": [
            [0.0, 0.0, 0.0], [1.0, 1e-5, 0.0], [2.0, 1.0, 0.0],
            [3.0, 0.5, 0.0]]},
        "profile": {"kind": "explicit_f", "family": "sqrt_quadratic",
                    "c": 0.0, "d": -1.0},
        "domain": {"u": [1.5, 4000.0], "v": [0.0, 3.0]},
        "tolerances": {"flat": 1e-6}})
    out = tmp_path / "classes.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "3,7"]) == 0
    _, rows = rows_of(out)
    assert {row[-1] for row in rows} == {
        "flat_case_I", "flat_case_II", "trapped", "general"}
    assert sha256_of(out) == GOLDEN_POINT_CLASSES


# -- row templates ------------------------------------------------------------

#: Signed zeros, the least subnormal, both sides of %g's switch to an
#: exponent at 1e-4 and 1e9, and large magnitudes of both signs
TEMPLATE_VALUES = (0.0, -0.0, 5e-324, 1e-5, 9.99999999e-5, 1e-4, 123456789.0,
                   1234567890.0, 1e16, -1e300)


def _rows_at(monkeypatch, x):
    """Each kind of data row cli writes, with every number x: the invariants
    rows of a general, a flat and a trapped record (from a stub sweep), a
    csv4 row and an obj3 vertex; and the rows _fmt's cells make."""
    col = types.SimpleNamespace(u=x, ff=x, gaussK=x)
    inv = InvariantSet(x, x, x, x, x, x, x, x, 1, x, 0.0, x, x, x)
    records = [(col, x, x, x, x, x, PointTag.GENERAL, False, inv),
               (col, x, x, x, x, x, PointTag.FLAT_CASE_II, False, None),
               (col, x, x, x, x, x, PointTag.GENERAL, True, None)]
    monkeypatch.setattr(cli, "sweep", lambda *args: (
        (PointRecord(*rec), range(1)) for rec in records))
    rows = [line for block in cli._invariant_rows(None, [x], [x], 0.0)
            for line in block]
    rows += next(cli._csv4_rows([x], [x], [[[x, x, x, x]]]))
    rows += next(cli._obj3_rows(1, 1, [[[x, x, x, x]]], 3))
    c = _fmt(x)
    head = [c, c, "1", "0", c, c, "0", c, c, c]
    want = [head + ["1"] + [c] * 8 + ["general"],
            head + [""] * 9 + ["flat_case_II"], head + [""] * 9 + ["trapped"],
            [c] * 6]
    return rows, [",".join(w) + "\n" for w in want] + [f"v {c} {c} {c}\n"]


def test_row_template_cells_are_fmt_cells(tmp_path, monkeypatch):
    for x in TEMPLATE_VALUES:
        assert _fmt(x) == f"{x:.9g}"     # the format the goldens were made in
        rows, want = _rows_at(monkeypatch, x)
        assert rows == want, x
    faces = list(cli._obj3_rows(2, 3, [[], []], 3))[2]
    assert faces == ["f 1 4 5 2\n", "f 2 5 6 3\n"]
    # a cell that is not finite still stops the writer before the file
    out = tmp_path / "rows.txt"
    for x in (math.inf, -math.inf, math.nan):
        rows, _ = _rows_at(monkeypatch, x)
        for row in rows:
            with pytest.raises(OverflowError, match="nothing written"):
                cli._write_rows(str(out), "head\n", [[row]])
            assert not out.exists()


def test_non_finite_position_exits_3_and_writes_nothing(tmp_path, capsys,
                                                        monkeypatch):
    def positions(self, us, vs):
        for _ in us:
            yield [[0.5, math.nan, 0.25, 1.0] for _ in vs]

    monkeypatch.setattr(cli.MeridianSurface, "grid_positions", positions)
    for fmt in ("csv4", "obj3"):
        out = tmp_path / f"o.{fmt}"
        assert main(["export", "--config", worked_config(tmp_path),
                     "--format", fmt, "--out", str(out)]) == 3
        assert "not finite; nothing written" in capsys.readouterr().err
        assert not out.exists()


# -- export -------------------------------------------------------------------


def test_export_csv4_grid_and_values(tmp_path):
    cfg = sinh_config(tmp_path)
    out = tmp_path / "mesh.csv"
    assert main(["export", "--config", cfg, "--format", "csv4",
                 "--out", str(out)]) == 0
    header, rows = rows_of(out)
    assert header == "u,v,x1,x2,x3,x4"
    assert len(rows) == 9
    # row at (u, v) = (1, 0): f = sinh 1, g = cosh 1
    row = next(r for r in rows if abs(float(r[0]) - 1.0) < 1e-9
               and abs(float(r[1])) < 1e-9)
    assert abs(float(row[2]) - 1.175201) <= 1e-6
    assert abs(float(row[3])) <= 1e-6
    assert abs(float(row[4])) <= 1e-6
    assert abs(float(row[5]) - 1.543081) <= 1e-6


def test_export_obj3_mesh_combinatorics(tmp_path):
    cfg = sinh_config(tmp_path)
    out = tmp_path / "mesh.obj"
    assert main(["export", "--config", cfg, "--format", "obj3",
                 "--out", str(out), "--grid", "4,5"]) == 0
    lines = out.read_text().splitlines()
    verts = [l for l in lines if l.startswith("v ")]
    faces = [l for l in lines if l.startswith("f ")]
    assert len(verts) == 20
    assert len(faces) == 12
    assert all(len(l.split()) == 4 for l in verts)   # 3D projection
    assert all(len(l.split()) == 5 for l in faces)   # quads


def test_export_near_branch_point_bounded_work(tmp_path, monkeypatch):
    calls, gdot = [], MeridianProfile.gdot

    def counted(profile, u):
        calls.append(u)
        if len(calls) > 2_000:   # the export takes 620
            raise RuntimeError("g quadrature exceeds 2,000 gdot evaluations")
        return gdot(profile, u)

    monkeypatch.setattr(MeridianProfile, "gdot", counted)
    out = tmp_path / "near.csv"
    assert main(["export", "--config", write_config(tmp_path / "near.json",
                                                    NEAR_BRANCH),
                 "--format", "csv4", "--grid", "3,3",
                 "--out", str(out)]) == 0
    _, rows = rows_of(out)
    assert len(rows) == 9
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    axis = surface_from_config(NEAR_BRANCH).position(2.0001, 0.0).coords()[3]
    assert abs(axis - (math.acosh(2.0001) - math.acosh(1.0001))) <= 1e-12


def test_export_unknown_format_exit2(tmp_path):
    cfg = sinh_config(tmp_path)
    rc = main(["export", "--config", cfg, "--format", "stl",
               "--out", str(tmp_path / "x")])
    assert rc == 2


# -- grid ---------------------------------------------------------------------


def test_grid_points_single_point_is_the_midpoint(tmp_path):
    assert grid_points(0.5, 1.5, 1) == [1.0]
    assert grid_points(0.5, 1.5, 3) == [0.5, 1.0, 1.5]
    out = tmp_path / "o.csv"
    assert main(["invariants", "--config", sinh_config(tmp_path),
                 "--out", str(out), "--grid", "1,1"]) == 0
    _, rows = rows_of(out)
    assert [row[:2] for row in rows] == [["1", _fmt(math.pi)]]


def _grid_commands(tmp_path):
    cfg = ["--config", sinh_config(tmp_path)]
    return [["invariants"] + cfg + ["--out", str(tmp_path / "o.csv")],
            ["export", "--format", "csv4"] + cfg
            + ["--out", str(tmp_path / "o.csv")],
            _CHEN_ELL + ["--out", str(tmp_path / "o.json")]]


@pytest.mark.parametrize("grid,needle", [
    ("3", "--grid expects NU,NV, got '3'"),
    ("3,3,3", "--grid expects NU,NV, got '3,3,3'"),
    ("a,3", "--grid expects NU,NV, got 'a,3'"),
    ("2.5,3", "--grid expects NU,NV, got '2.5,3'"),
    ("0,3", "grid sizes must be >= 1"),
    ("3,-1", "grid sizes must be >= 1"),
])
def test_bad_grid_flag_exit2(tmp_path, capsys, grid, needle):
    for argv in _grid_commands(tmp_path):
        assert main(argv + ["--grid", grid]) == 2
        assert needle in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "o.json").exists()


def test_grid_bound_accepts_its_largest_grid():
    assert _grid({}, f"1,{MAX_GRID_POINTS}") == (1, MAX_GRID_POINTS)
    assert _grid({"grid": {"nu": 1000, "nv": 1000}}, None) == (1000, 1000)
    assert MAX_GRID_POINTS == 10 ** 6


def test_grid_above_bound_exit2_before_any_allocation(tmp_path, capsys):
    # each grid would need gigabytes of points; the bound rejects it first
    cfg = json.loads(pathlib.Path(sinh_config(tmp_path)).read_text())
    cfg["grid"] = {"nu": 1e9, "nv": 3}
    out = tmp_path / "desc.json"
    assert main(["build", "--config", write_config(tmp_path / "big.json", cfg),
                 "--out", str(out)]) == 2
    assert ("error: grid.nu * grid.nv = 1000000000 * 3 points exceeds "
            "1000000, the largest grid") in capsys.readouterr().err
    assert not out.exists()
    for argv in _grid_commands(tmp_path):
        for grid in ("200000000,2", "1001,1000"):
            assert main(argv + ["--grid", grid]) == 2
            nu, nv = grid.split(",")
            assert (f"error: --grid = {nu} * {nv} points exceeds 1000000"
                    in capsys.readouterr().err)
    assert not (tmp_path / "o.csv").exists()


def test_memory_error_exit3_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()
    monkeypatch.setattr(cli, "cmd_invariants", exhausted)
    assert main(["invariants", "--config", sinh_config(tmp_path),
                 "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == "numerical failure: MemoryError()\n"


# -- one parser per process ---------------------------------------------------

_SMALL_VERIFY = ["verify", "--family", "constant_k", "--geometry", "elliptic",
                 "--a", "1", "--b", "1", "--C", "0", "--f0", "1",
                 "--u-span", "1", "--grid", "5,5"]


def test_parser_built_once_per_process(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(_SMALL_VERIFY) == 0     # builds the parser if none is built
    built.clear()
    assert main(_SMALL_VERIFY) == 0
    assert main(["verify", "--family", "no_such_family"]) == 2
    assert main(["build", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert built == []


def test_command_looked_up_when_it_runs(monkeypatch, capsys):
    assert main(_SMALL_VERIFY) == 0     # the parser is built by now
    monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
    assert main(_SMALL_VERIFY) == 7


def test_usage_error_then_verify_writes_fresh_bytes(tmp_path, capsys):
    # a parse that fails inside the verify subparser leaves nothing behind
    # for the next call on the same parser
    argv = _SMALL_VERIFY + ["--out", "out"]
    rc, stdout, _, fresh = _run_cli(tmp_path, [], argv)
    assert rc == 0 and fresh
    assert main(_SMALL_VERIFY[:5] + ["--a", "one"]) == 2
    assert "--a: invalid float value: 'one'" in capsys.readouterr().err
    out = tmp_path / "out"
    out.unlink()
    assert main(_SMALL_VERIFY + ["--out", str(out)]) == 0
    assert out.read_bytes() == fresh
    assert capsys.readouterr().out.encode() == stdout


# -- verify -------------------------------------------------------------------


def test_verify_pass_and_exit_zero(tmp_path, capsys):
    out = tmp_path / "rep.jsonl"
    rc = main(["verify", "--family", "constant_k", "--geometry", "elliptic",
               "--a", "1", "--b", "1", "--C", "0", "--f0", "1",
               "--u-span", "1", "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    record = json.loads(out.read_text().splitlines()[0])
    assert record["pass"] is True
    assert record["family"] == "constant_k"


def test_verify_fails_below_numerical_floor(tmp_path):
    rc = main(["verify", "--family", "constant_k", "--geometry", "elliptic",
               "--a", "1", "--b", "1", "--C", "0", "--f0", "1",
               "--u-span", "1", "--tol", "1e-16"])
    assert rc == 1


def test_verify_mismatched_branch_documented_failure(tmp_path, capsys):
    out = tmp_path / "rep.jsonl"
    rc = main(["verify", "--family", "constant_mean", "--geometry",
               "hyperbolic", "--epsilon-branch", "printed-vs-eq18",
               "--a", "0.5", "--b", "1", "--C", "0", "--f0", "0.5",
               "--u-span", "2", "--tol", "1e-7", "--out", str(out)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    record = json.loads(out.read_text().splitlines()[0])
    assert record["pass"] is False
    assert record["max_abs_residual"] > 1e-2


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def test_verify_all_skipped_record_is_json(tmp_path, capsys):
    # every sample of this spec is skipped, so there is no residual
    out = tmp_path / "rep.jsonl"
    rc = main(["verify", "--family", "parallel_b", "--geometry",
               "hyperbolic", "--a", "0.5", "--c", "0.3", "--b", "0.5",
               "--f0", "0.7", "--u-span", "1", "--out", str(out)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out
    record = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert record["n_samples"] == 0
    assert record["max_abs_residual"] is None
    assert record["pass"] is False


def test_verify_missing_parameter_exit2(capsys):
    rc = main(["verify", "--family", "constant_k", "--geometry", "elliptic",
               "--a", "1", "--b", "1"])
    assert rc == 2
    assert "f0" in capsys.readouterr().err


def test_unknown_family_exit2():
    assert main(["verify", "--family", "nope", "--geometry", "elliptic"]) == 2


def test_missing_command_exit2():
    assert main([]) == 2


_CHEN_ELL = ["verify", "--family", "chen", "--geometry", "elliptic",
             "--a=-1", "--b=1", "--f0=1.2", "--u-span=0.8", "--grid", "5,5"]
_PARALLEL_A_ELL = ["verify", "--family", "parallel_a", "--geometry",
                   "elliptic", "--c=0", "--d=-1", "--u-min=1.1",
                   "--u-max=3", "--grid", "5,5"]


@pytest.mark.parametrize("argv,needle", [
    (_PARALLEL_A_ELL + ["--g-sign", "2"], "unrecognized arguments: --g-sign"),
    (_CHEN_ELL + ["--step", "0"], "unrecognized arguments: --step 0"),
    (_CHEN_ELL + ["--step=nan"], "unrecognized arguments: --step=nan"),
    (_CHEN_ELL + ["--u-span=-1"], "u_span must be positive and finite"),
    (_CHEN_ELL + ["--u-span=inf"], "u_span must be positive and finite"),
    (_CHEN_ELL + ["--step=1e-300"], "unrecognized arguments: --step=1e-300"),
    (_CHEN_ELL + ["--step=0.01"], "unrecognized arguments: --step=0.01"),
    (_CHEN_ELL + ["--u-span=1001"],
     "u_span = 1001 exceeds 1000, the longest slope build"),
    (_CHEN_ELL + ["--epsilon-branch", "foo"],
     "argument --epsilon-branch: invalid choice: 'foo'"),
    (_CHEN_ELL + ["--tol", "nan"], "--tol must be finite and >= 0, got nan"),
    (_CHEN_ELL + ["--tol=-1"], "--tol must be finite and >= 0, got -1.0"),
    (_CHEN_ELL + ["--tol=inf"], "--tol must be finite and >= 0, got inf"),
    # past the float range: a number, but not a finite one
    (_CHEN_ELL + ["--branch", "1" * 400], "branch must be a finite number"),
    (["verify", "--family", "constant_k", "--geometry", "elliptic", "--a=1",
      "--b=1", "--f0=1", "--grid", "5,5", "--sign", "-" + "1" * 400],
     "sign must be a finite number"),
], ids=["g-sign-2", "step-0", "step-nan", "u-span-neg", "u-span-inf",
        "step-tiny", "step-valid", "u-span-huge", "epsilon-branch-foo",
        "tol-nan", "tol-neg", "tol-inf", "branch-400-digits",
        "sign-400-digits"])
def test_verify_bad_flag_exit2(tmp_path, capsys, argv, needle):
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("profile,needle", [
    ({"kind": "family", "family": "parallel_a", "c": 0, "d": -1,
      "g_sign": 2}, "parallel_a family takes no parameter 'g_sign'"),
    ({"kind": "family", "family": "parallel_a", "c": 0, "d": -1,
      "g_sign": 0.5}, "parallel_a family takes no parameter 'g_sign'"),
    ({"kind": "family", "family": "parallel_a", "c": 0, "d": -1,
      "g_sign": 1.7}, "parallel_a family takes no parameter 'g_sign'"),
    ({"kind": "slope_ode", "family": "constant_mean", "a": 1, "b": 4,
      "f0": 0.5, "u_span": 0.5, "sign": -1.5}, "sign must be +1 or -1"),
    ({"kind": "slope_ode", "family": "chen", "a": -1, "b": 1, "f0": 1.2,
      "branch": 1.5}, "branch must be +1 or -1"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "step": 0}, "constant_k family takes no parameter 'step'"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "u_span": 0}, "u_span must be positive and finite, got 0.0"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "step": 1e-300}, "constant_k family takes no parameter 'step'"),
    ({"kind": "slope_ode", "family": "chen", "a": -1, "b": 1, "f0": 1.2,
      "step": 0.01}, "chen family takes no parameter 'step'"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "u_span": 1e300}, "exceeds 1000, the longest slope build"),
], ids=["g-sign-2", "g-sign-half", "g-sign-1.7", "sign-1.5", "branch-1.5",
        "step-0", "u-span-0", "step-tiny", "step-valid", "u-span-huge"])
def test_bad_family_config_exit2(tmp_path, capsys, profile, needle):
    cfg = write_config(tmp_path / "fam.json", {
        "geometry": "elliptic", "curve": {"kind": "constant", "b": 1.0},
        "profile": profile, "domain": {"u": [1.1, 3.0]},
        "grid": {"nu": 3, "nv": 3}})
    for argv in (["invariants"], ["export", "--format", "csv4"], ["build"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()


# -- parameter tables ------------------------------------------------------------

_CG_ELL = ["verify", "--family", "constant_gauss", "--geometry", "elliptic",
           "--K0=-1", "--beta=1", "--b=1", "--u-min=0.5", "--u-max=2",
           "--grid", "5,5"]


@pytest.mark.parametrize("argv,needle", [
    (_CHEN_ELL + ["--sign", "7"], "chen family takes no parameter 'sign'"),
    (_CG_ELL + ["--slope-scale", "3"], "slope_scale"),
    (_CG_ELL + ["--epsilon-branch", "-1"], "takes no epsilon_branch"),
    (_CG_ELL + ["--f0", "9"], "takes no parameter 'f0'"),
    (_CG_ELL + ["--alpha", "nan"], "alpha must be a finite number, got nan"),
    (_CG_ELL + ["--K0=inf"], "K0 must be a finite number, got inf"),
    (_PARALLEL_A_ELL + ["--b=1"], "takes no parameter 'b'"),
], ids=["chen-signs", "gauss-slope-scale", "gauss-epsilon", "gauss-f0",
        "gauss-alpha-nan", "gauss-K0-inf", "parallel_a-b"])
def test_verify_unread_or_non_finite_flag_exit2(tmp_path, capsys, argv,
                                                needle):
    out = tmp_path / "rep.json"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_defaults_alpha_beta_to_zero(tmp_path):
    # as a config does: the same record as with --alpha 0 given
    outs = [tmp_path / "default.json", tmp_path / "given.json"]
    assert main(_CG_ELL + ["--out", str(outs[0])]) == 0
    assert main(_CG_ELL + ["--alpha=0", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


_CHEN_PROFILE = {"kind": "slope_ode", "family": "chen", "a": -1, "b": 1,
                 "f0": 1.2, "u_span": 0.8}


@pytest.mark.parametrize("profile,needle", [
    ({**_CHEN_PROFILE, "K0": 1}, "chen family takes no parameter 'K0'"),
    ({**_CHEN_PROFILE, "epsilon_branch": 1}, "takes no epsilon_branch"),
    ({"kind": "slope_ode", "family": "constant_mean", "a": 1, "b": 4,
      "f0": 0.5, "u_span": 0.5, "epsilon_branch": "printed-vs-eq18"},
     "profile.epsilon_branch must be a finite number"),
    ({"kind": "explicit_f", "family": "sinh", "alpha": 1},
     "sinh profile takes no parameter 'alpha'"),
    ({"kind": "explicit_f", "family": "harmonic", "alpha": math.nan,
      "beta": 0}, "alpha must be a finite number, got nan"),
    ({"kind": "explicit_f", "family": "harmonic", "beta": 0},
     "missing parameter 'alpha' for harmonic profile"),
    ({"kind": "family", "family": "parallel_a", "c": 0, "d": -1,
      "u_min": 1.1}, "profile.u_min: the domain is domain.u"),
    ({"kind": "family", "family": "chen", "a": -1, "b": 1},
     "unknown family family 'chen'"),
], ids=["chen-K0", "chen-epsilon", "cmc-printed", "sinh-alpha",
        "harmonic-alpha-nan", "harmonic-no-alpha", "parallel_a-u_min",
        "chen-as-closed-form"])
def test_unread_or_non_finite_profile_field_exit2(tmp_path, capsys, profile,
                                                  needle):
    cfg = write_config(tmp_path / "fam.json", {
        "geometry": "elliptic", "curve": {"kind": "constant", "b": 1.0},
        "profile": profile, "domain": {"u": [1.1, 3.0]},
        "grid": {"nu": 3, "nv": 3}})
    for argv in (["invariants"], ["export", "--format", "csv4"], ["build"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("flat", [-1.0, math.nan, "1e-9", True])
def test_export_bad_flat_tolerance_exit2(tmp_path, capsys, flat):
    # export reads its config as invariants does, tolerances.flat included
    cfg = worked_config(tmp_path, tolerances={"flat": flat})
    out = tmp_path / "out"
    assert main(["export", "--format", "obj3", "--config", cfg,
                 "--out", str(out)]) == 2
    assert "tolerances.flat must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flat", [math.nan, -1.0, math.inf])
def test_bad_flat_tolerance_exit2(tmp_path, capsys, flat):
    # kappa = 0: every row is flat_case_I unless the tolerance is unusable
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 0.0},
                        tolerances={"flat": flat})
    for argv in (["invariants"], ["build"]):
        out = tmp_path / "out"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
        assert "tolerances.flat must be finite and >= 0" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("profile,domain", [
    ({"kind": "explicit_f", "family": "harmonic", "alpha": 0.7891443328289829,
      "beta": -0.001029224044398043}, [0.2, 1.2]),
    ({**_CHEN_PROFILE, "b": 0.5, "f0": 0.7012345678901234, "u_span": 1.2},
     None),
    ({"kind": "family", "family": "parallel_a", "c": 0.01234567890123,
      "d": 1.0123456789012345}, [0.1, 0.9]),
], ids=["explicit_f", "slope_ode", "family"])
def test_build_descriptor_round_trip(tmp_path, profile, domain):
    # build writes domain.u, grid and validated: all three stay accepted,
    # and the descriptor describes the config's surface to the last bit
    cfg = {"geometry": "hyperbolic",
           "curve": {"kind": "constant", "b": 0.8815786063008588},
           "profile": profile, "grid": {"nu": 3, "nv": 3}}
    if domain is not None:
        cfg["domain"] = {"u": domain}
    cfg = write_config(tmp_path / "c.json", cfg)
    desc = tmp_path / "desc.json"
    assert main(["build", "--config", cfg, "--out", str(desc)]) == 0
    assert {"domain", "grid", "validated"} <= json.loads(
        desc.read_text()).keys()
    for argv in (["invariants"], ["export", "--format", "csv4"],
                 ["export", "--format", "obj3"]):
        outs = [tmp_path / "from_config", tmp_path / "from_descriptor"]
        for config, out in zip((cfg, str(desc)), outs):
            assert main(argv + ["--config", config, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes(), argv


def test_invariants_overflow_exit3(tmp_path, capsys):
    # kappa^2 overflows: k is -inf, and no row of infinities is written
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 1e308})
    out = tmp_path / "o.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 3
    assert "not finite; nothing written" in capsys.readouterr().err
    assert not out.exists()


def test_invariants_overflow_past_the_first_chunk_exit3(tmp_path, capsys):
    # k = -kappa_m^2 kappa^2 / f^2 at kappa = 5e153 overflows only where f
    # is smallest, at u = 1.2: the first two u-columns fill the first chunk
    # of rows with finite cells, and the first non-finite row is the last
    # column's first
    curve = {"kind": "constant", "b": 5e153}
    grid = {"nu": 3, "nv": cli._CHUNK_LINES // 2}
    out = tmp_path / "o.csv"
    cfg = worked_config(tmp_path, curve=curve, grid=grid,
                        domain={"u": [0.3, 0.9], "v": [0.0, 2.0]})
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    out.unlink()
    cfg = worked_config(tmp_path, curve=curve, grid={**grid, "nu": 4})
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 3
    assert "not finite; nothing written" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv4", "obj3"])
def test_export_overflow_exit3(tmp_path, capsys, fmt):
    # f = 1e300 + u/2 times a hyperbolic circle's l, whose coordinates grow
    # exponentially in v: every u-row's positions overflow to +-inf at the
    # two largest v, and no file is written
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 2.0},
                        profile={"kind": "explicit_f", "family": "linear",
                                 "a0": 1e300, "a1": 0.5},
                        domain={"u": [0.0, 1.0], "v": [0.0, 20.0]})
    out = tmp_path / f"o.{fmt}"
    assert main(["export", "--config", cfg, "--format", fmt,
                 "--out", str(out), "--grid", "3,5"]) == 3
    assert "not finite; nothing written" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv4", "obj3"])
def test_export_frame_overflow_exit3(tmp_path, capsys, fmt):
    # the hyperbolic circle's RK4 table at b = 1e3 (b h = 1) leaves the
    # finite floats: the frame itself is not finite, and no file is written
    cfg = worked_config(tmp_path, curve={"kind": "constant", "b": 1e3})
    out = tmp_path / f"o.{fmt}"
    assert main(["export", "--config", cfg, "--format", fmt,
                 "--out", str(out), "--grid", "3,5"]) == 3
    assert capsys.readouterr().err
    assert not out.exists()


#: sha256 of the 1x5000 invariants CSVs below over a circle and over a
#: sampled kappa, recorded while each u-column was one block
GOLDEN_LONG_RUN = \
    "adce243ce8e9cf96ae4aee208e8633a7d7a82b297af16508afb4aeb9fc8b2005"
GOLDEN_LONG_SAMPLED_COLUMN = \
    "5a23fd79ec530819a6fde2a6ac2e68c108de7973be1ddb450ddabc62ceadf9ad"


def _long_column_blocks(tmp_path, monkeypatch, cfg):
    """The line counts of the blocks invariants writes on the 1x5000 grid
    of cfg, and the sha256 of the file."""
    sizes, write = [], cli._write_rows

    def spy(path, head, blocks):
        def counted():
            for block in blocks:
                sizes.append(len(block))
                yield block
        write(path, head, counted())

    monkeypatch.setattr(cli, "_write_rows", spy)
    cfg = write_config(tmp_path / "long.json",
                       {**cfg, "grid": {"nu": 1, "nv": 5000}})
    out = tmp_path / "long.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out)]) == 0
    assert sum(sizes) == 5000
    # one size rule: every block but the last holds _CHUNK_LINES lines or
    # more, and fewer than twice that
    assert all(cli._CHUNK_LINES <= n < 2 * cli._CHUNK_LINES
               for n in sizes[:-1])
    assert sizes[-1] < 2 * cli._CHUNK_LINES
    return sizes, sha256_of(out)


def test_invariants_long_run_in_bounded_blocks(tmp_path, monkeypatch):
    # over a circle the u-column is one run of 5,000 equal cells; it goes
    # out in blocks of at most _CHUNK_LINES lines, so few are alive at once
    sizes, digest = _long_column_blocks(tmp_path, monkeypatch, {
        "geometry": "elliptic", "curve": {"kind": "constant", "b": 1.2},
        "profile": {"kind": "explicit_f", "family": "sinh"},
        "domain": {"u": [0.5, 2.0], "v": [0.0, 12.5]}})
    assert max(sizes) <= cli._CHUNK_LINES
    assert digest == GOLDEN_LONG_RUN


def test_invariants_long_sampled_column_in_bounded_blocks(tmp_path,
                                                          monkeypatch):
    # over a sampled kappa each of the 5,000 cells of the u-column is its
    # own record; the blocks close at _CHUNK_LINES lines, not at the column
    v = [0.25 * i for i in range(51)]
    samples = [[x, 1.0 + 0.3 * math.sin(x), 0.3 * math.cos(x)] for x in v]
    sizes, digest = _long_column_blocks(tmp_path, monkeypatch, {
        "geometry": "hyperbolic",
        "curve": {"kind": "function", "samples": samples},
        "profile": {"kind": "explicit_f", "family": "cos"},
        "domain": {"u": [0.3, 1.2], "v": [0.0, 12.5]}})
    assert sizes == [cli._CHUNK_LINES] * 4 + [5000 - 4 * cli._CHUNK_LINES]
    assert digest == GOLDEN_LONG_SAMPLED_COLUMN
