"""Rules the package source keeps, read from its syntax trees."""

import ast
import pathlib
import re

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1]
                  / "src" / "meridian").glob("*.py"))


def test_no_assert_statement():
    # python -O strips assert, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert "families.py" in {path.name for path in SOURCES}
    assert found == []


def test_no_private_name_imported_across_modules():
    # a module's private names are its own: what another module needs is
    # public API of the module that owns it
    found = [f"{path.name}:{node.lineno} {node.module} {alias.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert "curves.py" in {path.name for path in SOURCES}
    assert found == []


#: The functions that may name a Geometry member: each states a rule that
#: is not a formula in the sign s = Geometry.normalization_sign.
GEOMETRY_BRANCHES = {
    "families.py": {"constant_mean_slope",          # its branch choice
                    "parallel_profile_case_a",      # c^2 > d or d > c^2
                    "verify_family"},               # printed-vs-eq18
}


def _geometry_member_uses(path):
    """(enclosing function, line) of each Geometry.ELLIPTIC/HYPERBOLIC."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Attribute)
                    and child.attr in ("ELLIPTIC", "HYPERBOLIC")
                    and isinstance(child.value, ast.Name)
                    and child.value.id == "Geometry"):
                found.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_geometry_decided_only_where_no_sign_states_the_rule():
    # every other geometry-dependent formula reads the one sign s, so a
    # new elliptic/hyperbolic branch is a second copy of some formula
    found = [f"{path.name}:{line} in {owner}"
             for path in SOURCES
             for owner, line in _geometry_member_uses(path)
             if owner not in GEOMETRY_BRANCHES.get(path.name, ())]
    uses = {path.name: len(_geometry_member_uses(path)) for path in SOURCES}
    assert uses["surfaces.py"] == 0 and uses["curves.py"] == 0
    assert uses["families.py"] > 0      # the scan sees the branches it allows
    assert found == []


def _raises_of(path, exc_name):
    """Enclosing function of each ``raise exc_name(...)`` in path."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Raise)
                    and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == exc_name):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_one_finite_check_between_rows_and_file():
    # every row invariants and export write passes one check, in the one
    # writer; a second path (a Vec4 per vertex, say) would be a second rule
    raised = [f"{path.name}:{owner}" for path in SOURCES
              for owner in _raises_of(path, "OverflowError")]
    worded = [f"{path.name}" for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Constant)
              and isinstance(node.value, str)
              and "nothing written" in node.value]
    assert raised == ["cli.py:_write_rows"]
    assert worded == ["cli.py"]
    cli = next(path for path in SOURCES if path.name == "cli.py")
    names = {node.id if isinstance(node, ast.Name) else
             node.attr if isinstance(node, ast.Attribute) else node.name
             for node in ast.walk(ast.parse(cli.read_text(encoding="utf-8")))
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}
    assert "MeridianSurface" in names and "Vec4" not in names


def _is_const(node, value):
    return isinstance(node, ast.Constant) and node.value == value


def _scaled(node, factor):
    """Whether node is ``factor * <any expression>``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and _is_const(node.left, factor))


def _hermite_basis_h00(node):
    """Whether node is 2 * a - 3 * b + 1, the cubic Hermite basis
    polynomial of the left value, whatever a and b are named."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and _is_const(node.right, 1)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Sub)
            and _scaled(node.left.left, 2) and _scaled(node.left.right, 3))


def test_one_cubic_hermite():
    # the scalar read and the batch walk of jets.hermite_fn share one
    # cubic, jets._hermite_cubic; a second copy of it could drift apart
    found = []
    for path in SOURCES:
        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    visit(child, child.name)
                    continue
                if _hermite_basis_h00(child):
                    found.append(f"{path.name}:{owner}")
                visit(child, owner)
        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    assert _hermite_basis_h00(ast.parse("2.0 * s3 - 3.0 * s2 + 1.0",
                                        mode="eval").body)
    assert found == ["jets.py:_hermite_cubic"]


def test_one_frenet_frame_construction():
    # SphericalCurve.frame embeds one 9-float state, whichever place it came
    # from; a second FrenetFrame(...) would be a second frame path
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "FrenetFrame"]
    assert len(found) == 1 and found[0].startswith("curves.py:"), found


def test_one_number_format_spelling_in_cli():
    # cli writes every number cell as "%.9g" % x, in _fmt and in its row
    # templates; an f-string spec {x:.9g} or format(x, ".9g") would be a
    # second spelling of the one format
    cli = next(path for path in SOURCES if path.name == "cli.py")
    tree = ast.parse(cli.read_text(encoding="utf-8"))
    spellings = [m.group() for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)
                 and isinstance(node.value, str)
                 for m in re.finditer(r".?\.9g", node.value)]
    assert len(spellings) > 1 and set(spellings) == {"%.9g"}, spellings
