"""The package imports only downward, and only at module level.

Layers, lowest first: tensors, then matricize / projection / oracle, then
admm, extraction, extensions, and io / cli on top.  A module may import from
its own layer or a lower one.  An import inside a function body hides a
cycle, so none is allowed.  The oracle checks the solvers, so it shares no
code with them: it imports `tensors` only.
"""

import ast
import pathlib

import pytest

PACKAGE = "tensorpca"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / PACKAGE

LAYERS = (
    ("tensors",),
    ("matricize", "projection", "instances", "oracle"),
    ("admm",),
    ("extraction",),
    ("extensions",),
    ("io", "cli"),
    ("__init__",),
)
LAYER = {module: rank for rank, names in enumerate(LAYERS) for module in names}
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def package_imports(node):
    """Package modules named by one import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
            parts = node.module.split(".")[1:]
        elif node.level == 1:
            parts = node.module.split(".") if node.module else []
        else:
            return []
        if parts:
            return [parts[0]]
        return [alias.name for alias in node.names]  # from . import admm
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith(PACKAGE + ".")]
    return []


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert set(MODULES) <= set(LAYER), set(MODULES) - set(LAYER)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_to_the_same_or_a_lower_layer(module):
    upward = [(target, node.lineno) for node in ast.walk(parse(module))
              for target in package_imports(node)
              if LAYER.get(target, len(LAYERS)) > LAYER[module]]
    assert not upward, f"{module} imports a higher layer: {upward}"


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    deferred = [(target, inner.lineno)
                for node in ast.walk(parse(module))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                for inner in ast.walk(node)
                for target in package_imports(inner)]
    assert not deferred, f"{module} imports inside a function: {deferred}"


def test_oracle_imports_only_tensors():
    imported = {target for node in ast.walk(parse("oracle"))
                for target in package_imports(node)}
    assert imported == {"tensors"}, imported
