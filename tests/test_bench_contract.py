"""The benchmark's traced run patches package names; they must exist.

``bench/tracing.py`` wraps functions by module attribute and methods as
attributes of their own class (``vars(cls)``).  A name that the package
stops calling can still be deleted only together with a benchmark change,
so this test reads the tracer's span tables (without installing them) and
checks every target against the package.  ``bench/run.py`` imports every
module of its ``MODULES`` tuple at set-up; that tuple is read from the
source, without importing the runner.
"""

import ast
import importlib
import pathlib
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _tracing():
    """bench/tracing.py as a module, loaded by path; no bytecode is written
    next to it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_bytes(), str(TRACING), "exec"), vars(module))
    return module


def _module(name):
    return importlib.import_module(f"meridian.{name}")


tracing = _tracing()

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
