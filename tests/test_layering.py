"""The package imports only downward, and only at module level.

Layers, lowest first: tensors, then matricize / projection / oracle, then
admm, extraction, extensions, and io / cli on top.  A module may import from
its own layer or a lower one.  An import inside a function body hides a
cycle, so none is allowed.  The oracle checks the solvers, so it shares no
code with them: it imports `tensors` only.  One certificate rule
(`admm.certifies`) serves every route, so the rank-one statistic is decided
in one place and read only by the experiments.
"""

import ast
import importlib
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


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # a stale name in __all__ fails only at a star import, not at import
    loaded = importlib.import_module(
        PACKAGE if module == "__init__" else f"{PACKAGE}.{module}")
    missing = [name for name in getattr(loaded, "__all__", ())
               if not hasattr(loaded, name)]
    assert not missing, f"{module}.__all__ names what it lacks: {missing}"


def test_oracle_imports_only_tensors():
    # by name too, so no contraction helper the solvers use reaches it
    tree = parse("oracle")
    imported = {target for node in ast.walk(tree)
                for target in package_imports(node)}
    assert imported == {"tensors"}, imported
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if package_imports(node)}
    assert names == {"SuperSymmetricTensor", "_canonical_sign", "_unit"}, names


NUMPY_2_ONLY = {"mT", "matrix_transpose"}


@pytest.mark.parametrize("module", MODULES)
def test_no_numpy_2_transpose(module):
    # pyproject allows numpy >= 1.22, which has neither `.mT` nor
    # `np.matrix_transpose`; stacks transpose with M.swapaxes(-1, -2)
    used = [(name, node.lineno) for node in ast.walk(parse(module))
            for name in (getattr(node, "attr", None), getattr(node, "id", None),
                         *(alias.name for alias in getattr(node, "names", ())
                           if isinstance(node, ast.ImportFrom)))
            if name in NUMPY_2_ONLY]
    assert not used, f"{module} uses a numpy 2 transpose: {used}"


def sorts_rows(node):
    # np.unique(..., axis=...), axis by keyword or as the fifth argument
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique"
            and (len(node.args) >= 5
                 or any(k.arg == "axis" for k in node.keywords)))


@pytest.mark.parametrize("module", MODULES)
def test_no_unique_rows(module):
    # np.unique along an axis lexsorts every row: on the n**m index tuples
    # of a class table that is the whole setup cost at high order, where
    # `tensors._class_of` ranks each sorted tuple by table lookups
    used = [node.lineno for node in ast.walk(parse(module)) if sorts_rows(node)]
    assert not used, f"{module} calls np.unique along an axis: lines {used}"


def top_level_defs(tree):
    """(function name, node) for each function and method of a module."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for inner in body:
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield inner.name, inner


def spelled(node):
    """Every name and attribute a node spells."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for n in ast.walk(node)}


def test_rank_one_ratio_meets_rank_tol_only_in_summarize():
    # the rank-one statistic is decided once, in admm._summarize; a second
    # comparison of a ratio with rank_tol would grow a second certificate
    sites = {(module, name) for module in MODULES
             for name, func in top_level_defs(parse(module))
             for node in ast.walk(func) if isinstance(node, ast.Compare)
             if "rank_tol" in spelled(node)
             and spelled(node) & {"rank_one_ratio", "ratio"}}
    assert sites == {("admm", "_summarize")}, sites


def test_only_the_experiments_read_the_rank_one_flag():
    # SolveReport.rank_one is the paper's statistic: the experiments count
    # it, and nothing certifies by it
    readers = {(module, node.lineno) for module in MODULES
               for node in ast.walk(parse(module))
               if isinstance(node, ast.Attribute) and node.attr == "rank_one"
               and isinstance(node.ctx, ast.Load)}
    assert {module for module, _ in readers} == {"cli"}, readers
