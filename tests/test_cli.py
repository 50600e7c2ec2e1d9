import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import meridian
from conftest import NEAR_BRANCH
from meridian.cli import CSV_HEADER, _fmt, main, surface_from_config
from meridian.curves import MeridianProfile


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
    cfg = _samples_to_domain_end_config(tmp_path, mirrored, v_end=6.5005)
    assert main(["export", "--config", cfg, "--format", "csv4",
                 "--out", str(tmp_path / "tab.csv")]) == 2
    assert "kappa evaluated at" in capsys.readouterr().err


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
        assert "must be finite" in capsys.readouterr().err
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


def test_golden_invariants_csv(tmp_path):
    # tabulated kappa = 0.6 sin v, which vanishes at v = 0 (flat rows)
    cfg = write_config(tmp_path / "inv.json", {
        "geometry": "hyperbolic",
        "curve": {"kind": "function", "samples": [
            [0.25 * i, 0.6 * math.sin(0.25 * i), 0.15 * math.cos(0.25 * i)]
            for i in range(28)]},
        "profile": {"kind": "explicit_f", "family": "cos", "g0": 0.25},
        "domain": {"u": [0.375, 1.1875], "v": [0.0, 6.5]}})
    out = tmp_path / "inv.csv"
    assert main(["invariants", "--config", cfg, "--out", str(out),
                 "--grid", "33,33"]) == 0
    assert sha256_of(out) == GOLDEN_INVARIANTS


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


def test_golden_verify_record(tmp_path):
    out = tmp_path / "rep.jsonl"
    assert main(["verify", "--family", "parallel_a", "--geometry",
                 "hyperbolic", "--c", "0", "--d", "1", "--u-min", "0.1",
                 "--u-max", "0.9", "--tol", "1e-8", "--out", str(out)]) == 0
    assert sha256_of(out) == GOLDEN_VERIFY


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
    (_CHEN_ELL + ["--step", "0"], "step must be positive and finite"),
    (_CHEN_ELL + ["--step=nan"], "step must be positive and finite"),
    (_CHEN_ELL + ["--u-span=-1"], "u_span must be positive and finite"),
    (_CHEN_ELL + ["--u-span=inf"], "u_span must be positive and finite"),
    (_CHEN_ELL + ["--step=1e-300"], "exceeds the 1000000 steps"),
    (_CHEN_ELL + ["--epsilon-branch", "foo"],
     "argument --epsilon-branch: invalid choice: 'foo'"),
    (_CHEN_ELL + ["--tol", "nan"], "--tol must be finite and >= 0, got nan"),
    (_CHEN_ELL + ["--tol=-1"], "--tol must be finite and >= 0, got -1.0"),
    (_CHEN_ELL + ["--tol=inf"], "--tol must be finite and >= 0, got inf"),
], ids=["g-sign-2", "step-0", "step-nan", "u-span-neg", "u-span-inf",
        "step-tiny", "epsilon-branch-foo", "tol-nan", "tol-neg", "tol-inf"])
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
      "step": 0}, "step must be positive and finite, got 0.0"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "u_span": 0}, "u_span must be positive and finite, got 0.0"),
    ({"kind": "slope_ode", "family": "constant_k", "a": 1, "b": 1, "f0": 1,
      "step": 1e-300}, "exceeds the 1000000 steps of a slope build"),
], ids=["g-sign-2", "g-sign-half", "g-sign-1.7", "sign-1.5", "branch-1.5",
        "step-0", "u-span-0", "step-tiny"])
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
     "profile.epsilon_branch must be a number"),
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
