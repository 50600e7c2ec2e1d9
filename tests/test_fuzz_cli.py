"""Hypothesis fuzz of the config -> CLI path.

Profile sections are drawn with known and unknown keys, NaN, infinities,
huge numbers and +-1 choices, and function curves with one sample cell
drawn from the same numbers.  Whatever the input, ``invariants`` and
``export --format csv4`` on a 3x3 grid and ``build`` must exit 0, 2 or 3
without a traceback, write no file unless they exit 0, and write only
finite numeric cells; a ``build`` descriptor is JSON without NaN or
Infinity.  A value that is not a finite JSON number in any numeric field
exits 2 in all three, and a config that ``build`` rejects, grid included,
``invariants`` and ``export`` reject too.  The grid rule those commands
sample by, ``grid_points``, keeps its points inside [lo, hi].
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import NEAR_BRANCH  # noqa: E402
from meridian.cli import main  # noqa: E402
from meridian.curves import grid_points  # noqa: E402
from meridian.families import EXPLICIT_PROFILES, FAMILY_TABLE  # noqa: E402

#: (geometry, curve b, profile section, domain.u) that invariants accepts
BASES = [
    ("hyperbolic", 1.0, {"kind": "explicit_f", "family": "cos", "g0": 0.3},
     [0.3, 1.2]),
    ("elliptic", 1.3, {"kind": "explicit_f", "family": "sinh"}, [0.5, 2.0]),
    ("elliptic", 1.0, {"kind": "explicit_f", "family": "linear", "a0": 0.0,
                       "a1": 2.0}, [0.5, 1.5]),
    ("hyperbolic", 0.8, {"kind": "explicit_f", "family": "harmonic",
                         "alpha": 0.8, "beta": 0.0, "omega": 1.0},
     [0.2, 1.2]),
    ("hyperbolic", 0.6, {"kind": "explicit_f", "family": "sqrt_quadratic",
                         "c": 0.0, "d": 1.0}, [0.1, 0.9]),
    ("elliptic", 1.0, {"kind": "slope_ode", "family": "constant_k", "a": 1.0,
                       "b": 1.0, "C": 0.0, "f0": 1.0, "u_span": 1.0},
     None),
    ("hyperbolic", 0.5, {"kind": "slope_ode", "family": "chen", "a": -1.0,
                         "b": 0.5, "f0": 0.7, "u_span": 1.2}, None),
    ("hyperbolic", 1.0, {"kind": "slope_ode", "family": "constant_mean",
                         "a": 0.5, "b": 1.0, "C": -0.6, "f0": 0.8,
                         "u_span": 2.0, "epsilon_branch": 1}, None),
    ("hyperbolic", 1.0, {"kind": "slope_ode", "family": "parallel_b",
                         "a": 0.5, "c": 0.1, "f0": 0.1, "u_span": 0.25},
     None),
    ("elliptic", 1.0, {"kind": "family", "family": "constant_gauss",
                       "K0": -1.0, "beta": 1.0}, [0.5, 2.0]),
    ("hyperbolic", 0.6, {"kind": "family", "family": "parallel_a", "c": 0.0,
                         "d": 1.0}, [0.1, 0.9]),
]
#: every key some family or explicit profile reads, and two that none does
KEYS = sorted({key for row in FAMILY_TABLE.values() for key in row.params}
              | {key for fields, _ in EXPLICIT_PROFILES.values()
                 for key in fields}
              | {"epsilon_branch", "omega2", "family2"})
SIGNS = ("sign", "branch", "epsilon_branch")
NUMBERS = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, 2.0, 0.5, math.nan, math.inf, -math.inf, 1e308,
                     -1e308, 1e-300]))
MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEYS), NUMBERS),
    st.tuples(st.just("set"), st.sampled_from(SIGNS),
              st.sampled_from([1, -1, 1.0, -1.0])),
    st.tuples(st.just("del"), st.sampled_from(KEYS), st.none()),
    st.tuples(st.just("b"), st.none(), NUMBERS))


@st.composite
def configs(draw):
    geometry, b, profile, dom_u = draw(st.sampled_from(BASES))
    profile = dict(profile)
    for op, key, value in draw(st.lists(MUTATIONS, max_size=3)):
        if op == "set":
            profile[key] = value
        elif op == "del":
            profile.pop(key, None)
        else:
            b = value
    cfg = {"geometry": geometry, "curve": {"kind": "constant", "b": b},
           "profile": profile, "domain": {"v": [0.0, 2.0]},
           "tolerances": {"flat": draw(st.sampled_from([1e-9, 0.0, -1.0]))}}
    if dom_u is not None:
        cfg["domain"]["u"] = dom_u
    return cfg


#: a valid function curve over domain.v = [0, 2]
SAMPLES = [[0.0, 1.0, 0.0], [1.0, 1.2, 0.1], [2.0, 0.9, -0.1]]


@st.composite
def function_curve_configs(draw):
    """A base config over SAMPLES with one cell replaced by a number."""
    geometry, _, profile, dom_u = draw(st.sampled_from(BASES))
    samples = [list(row) for row in SAMPLES]
    samples[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = draw(NUMBERS)
    cfg = {"geometry": geometry,
           "curve": {"kind": "function", "samples": samples},
           "profile": dict(profile), "domain": {"v": [0.0, 2.0]}}
    if dom_u is not None:
        cfg["domain"]["u"] = dom_u
    return cfg


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _check_descriptor(text):
    desc = json.loads(text, parse_constant=_reject_constant)
    assert desc["validated"] is True


def _run(cfg, argv):
    """Exit code and output text (None when no file was written) of argv
    on cfg, checked for the exit codes and the traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = pathlib.Path(tmp, "cfg.json"), pathlib.Path(tmp, "out")
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv + ["--config", str(path), "--out", str(out)])
        assert rc in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert out.exists() == (rc == 0)
        return rc, out.read_text() if rc == 0 else None


def _finite_rows(text, cells):
    """The 9 data rows of a 3x3 CSV, each checked for finite numbers in its
    first ``cells`` cells (empty invariant cells allowed)."""
    rows = text.splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        for cell in row.split(",")[:cells]:
            assert cell == "" or math.isfinite(float(cell)), row


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
def test_invariants_exit_codes_and_finite_cells(cfg):
    rc, text = _run(cfg, ["invariants", "--grid", "3,3"])
    if rc == 0:
        _finite_rows(text, -1)


#: A slope profile that blows up at u = 1.645; its export ran for minutes
#: while the table's last step overshot and g's tolerance was absolute.
BLOW_UP = {"geometry": "elliptic", "curve": {"kind": "constant", "b": 1},
           "profile": {"kind": "slope_ode", "family": "constant_k", "a": 1,
                       "b": 1, "C": 0, "f0": 1, "u_span": 2}}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(configs())
@example(BLOW_UP)
@example(NEAR_BRANCH)
def test_build_and_export_exit_codes_and_finite_cells(cfg):
    rc, text = _run(cfg, ["build"])
    if rc == 0:
        _check_descriptor(text)
    rc, text = _run(cfg, ["export", "--format", "csv4", "--grid", "3,3"])
    if rc == 0:
        _finite_rows(text, None)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(function_curve_configs())
def test_function_curve_exit_codes_and_finite_cells(cfg):
    rc, text = _run(cfg, ["build"])
    if rc == 0:
        _check_descriptor(text)
    rc, text = _run(cfg, ["invariants", "--grid", "3,3"])
    if rc == 0:
        _finite_rows(text, -1)
    rc, text = _run(cfg, ["export", "--format", "csv4", "--grid", "3,3"])
    if rc == 0:
        _finite_rows(text, None)


#: values that are not finite JSON numbers: a string, a bool, an int past
#: the float range, a list and null
NOT_NUMBERS = ("1.0", True, 10 ** 400, [1.0], None)


@st.composite
def non_number_configs(draw):
    """A base config over SAMPLES or its constant curve with one numeric
    field, and nothing else, replaced by a value of NOT_NUMBERS."""
    geometry, b, profile, dom_u = draw(st.sampled_from(BASES))
    cfg = {"geometry": geometry, "curve": {"kind": "constant", "b": b},
           "profile": dict(profile),
           "domain": {"u": dom_u or [0.5, 1.0], "v": [0.0, 2.0]}}
    if dom_u is None and draw(st.booleans()):
        del cfg["domain"]["u"]
    bad = draw(st.sampled_from(NOT_NUMBERS))
    where = draw(st.sampled_from(["curve.b", "curve.samples", "domain.u",
                                  "domain.v", "profile"]))
    if where == "curve.b":
        cfg["curve"]["b"] = bad
    elif where == "curve.samples":
        samples = [list(row) for row in SAMPLES]
        samples[draw(st.integers(0, 2))][draw(st.integers(0, 2))] = bad
        cfg["curve"] = {"kind": "function", "samples": samples}
    elif where.startswith("domain."):
        key = where[len("domain."):]
        ends = list(cfg["domain"].get(key, [0.5, 1.0]))
        ends[draw(st.integers(0, 1))] = bad
        cfg["domain"][key] = ends
    else:
        keys = sorted(set(profile) - {"kind", "family"} | {"g0"})
        cfg["profile"][draw(st.sampled_from(keys))] = bad
    return cfg


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(non_number_configs())
@example({**BLOW_UP, "profile": {**BLOW_UP["profile"], "a": "1.0"}})
@example({**BLOW_UP, "profile": {**BLOW_UP["profile"], "f0": True}})
@example({**BLOW_UP, "curve": {"kind": "constant", "b": 10 ** 400}})
def test_non_number_exit2(cfg):
    for argv in (["build"], ["invariants", "--grid", "3,3"],
                 ["export", "--format", "csv4", "--grid", "3,3"]):
        assert _run(cfg, argv)[0] == 2, argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(configs())
@example({**BLOW_UP, "tolerances": {"flat": -1.0}})
def test_what_build_rejects_invariants_and_export_reject(cfg):
    # one reader: with the grid in the config, a config build rejects is
    # rejected by invariants and export too
    cfg = {**cfg, "grid": {"nu": 3, "nv": 3}}
    if _run(cfg, ["build"])[0] == 2:
        assert _run(cfg, ["invariants"])[0] == 2
        assert _run(cfg, ["export", "--format", "csv4"])[0] == 2


ENDS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ENDS, ENDS, st.integers(1, 600))
@example(0.47287498875745093, 0.8063098888744918, 512)
@example(0.21398298479448208, 0.6380763462871376, 201)
def test_grid_points_rule(a, b, n):
    lo, hi = min(a, b), max(a, b)
    us = grid_points(lo, hi, n)
    assert len(us) == n
    if n == 1:
        assert us == [0.5 * (lo + hi)]
    else:
        assert (us[0], us[-1]) == (lo, hi)
    assert all(x <= y for x, y in zip(us, us[1:]))
    assert lo <= us[0] and us[-1] <= hi
