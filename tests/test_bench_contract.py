"""The benchmark's traced run patches package names; they must exist.

``bench/tracing.py`` wraps functions by module attribute and methods as
attributes of their own class (``vars(cls)``).  A name that the package
stops calling can still be deleted only together with a benchmark change,
so this test reads the tracer's span tables (without installing them) and
checks every target against the package.  ``bench/run.py`` imports every
module of its ``MODULES`` tuple at set-up; that tuple is read from the
source, without importing the runner.

The families' parameter tables and the config sections reject what no
code reads; every input the benchmark feeds the CLI must still pass them,
or its success ratio would drop.
"""

import ast
import importlib
import pathlib
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _bench_module(path):
    """A bench/ script as a module, loaded by path; no bytecode is written
    next to it.  It is registered, since dataclasses look it up."""
    module = types.ModuleType(f"bench_{path.stem}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(path.read_bytes(), str(path), "exec"), vars(module))
    return module


def _module(name):
    return importlib.import_module(f"meridian.{name}")


tracing = _bench_module(TRACING)

#: Patched by Tracer.install outside the span tables.
EXTRA_METHODS = (("curves", "MeridianProfile", "gdot"),
                 ("mink4", "Vec4", "__post_init__"))


@pytest.mark.parametrize("mod,attr", [(m, a) for m, a, _ in
                                      tracing.FUNCTION_SPANS])
def test_function_span_targets_exist(mod, attr):
    assert callable(getattr(_module(mod), attr, None))


@pytest.mark.parametrize("mod,cls,meth", [
    spec[:3] for spec in tracing.METHOD_SPANS] + list(EXTRA_METHODS))
def test_method_targets_are_own_class_attributes(mod, cls, meth):
    assert callable(vars(getattr(_module(mod), cls)).get(meth))


def test_counted_inner_exists():
    assert callable(_module("mink4").inner)


def _run_modules():
    """The literal MODULES tuple assigned at the top level of bench/run.py."""
    tree = ast.parse((BENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["MODULES"]):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no MODULES tuple")


@pytest.mark.parametrize("name", _run_modules())
def test_run_modules_import(name):
    assert _module(name).__name__ == f"meridian.{name}"


def _cli_ops(tmp_path):
    """The CLI ops of the sweep, mesh and families workloads: seed 1,
    rounds 0 and 1, tiny size."""
    workloads = _bench_module(BENCH / "workloads.py")
    return [op for name in ("sweep", "mesh", "families") for rnd in (0, 1)
            for op in workloads.GENERATORS[name](1, rnd,
                                                 workloads.SIZES["tiny"],
                                                 str(tmp_path))]


def test_bench_inputs_pass_parameter_tables(tmp_path, monkeypatch):
    cli = _module("cli")
    built = object()
    # the table checks run; the profile and the verify sweep are not built
    monkeypatch.setattr(cli, "profile_from_f", lambda *a, **k: built)
    monkeypatch.setattr(cli, "family_profile", lambda *a, **k: built)
    report = _module("families").ResidualReport(0.0, (0.0, 0.0), 1, "", True,
                                                0.0, 0)
    monkeypatch.setattr(cli, "verify_family", lambda *a, **k: report)
    ops = _cli_ops(tmp_path)
    assert {op.argv[0] for op in ops} == {"invariants", "export", "verify"}
    for op in ops:
        if op.argv[0] == "verify":
            assert cli.main(op.argv) == 0, op.label
            continue
        # the whole config: _load_config rejects fields no section reads
        cfg = cli._load_config(op.argv[op.argv.index("--config") + 1])
        geometry = _module("curves").Geometry(cfg["geometry"])
        assert cli._profile_from_config(cfg, geometry) is built, op.label
