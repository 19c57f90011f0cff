"""Every package import that a module never reads is a tracer lookup site.

`benchmarks/tracer.py` times layers by replacing module attributes from
outside the package, so a few modules import a function only for the
tracer to find it there.  Each such import must be a (module, attribute)
row of the tracer's `PATCHES`; an import the tracer no longer patches is
dead and fails here.  `PATCHES` is read with `ast`, without importing the
benchmark.  So are the indices of `run_admm`'s result that the tracer's
`_admm_result` reads, which must stay the iteration count and the flag
that the loop stopped before its cap (converged, or stopped on the gap).
"""

import ast
import pathlib

from tensorpca import SolverConfig, admm, random_gaussian, solve_sdp
from tensorpca.admm import _symmetric_relaxation, run_admm
from tensorpca.projection import project_psd

PACKAGE = "tensorpca"
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / PACKAGE
TRACER = ROOT / "benchmarks" / "tracer.py"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")


def unread_imports(tree):
    """Names a module imports from the package and never loads.

    Only a loaded name counts as a read: a dataclass field, a keyword
    argument or an attribute that shares the name stores or spells it.
    """
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                if node.level == 1 or (node.module or "").split(".")[0] == PACKAGE
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def patched_sites():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (rows,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [target.id for target in node.targets] == ["PATCHES"]]
    return {(row.elts[0].value, row.elts[1].value) for row in rows.elts}


def test_scanner_counts_only_loaded_names():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "from .projection import project_C, project_psd\n"
        "@dataclass\n"
        "class Report:\n"
        "    project_C: float\n"
        "def f(report):\n"
        "    return project_psd(report.project_C, project_C=1)\n")
    assert unread_imports(tree) == {"project_C"}


def test_every_unread_import_is_a_tracer_site():
    unread = {(module, name) for module in MODULES
              for name in unread_imports(ast.parse(
                  (SRC / f"{module}.py").read_text(encoding="utf-8")))}
    dead = unread - patched_sites()
    assert not dead, f"imported for the tracer only, but not patched: {sorted(dead)}"


def admm_result_indices():
    # {key: index} of the run_admm result fields tracer._admm_result reads
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (function,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                   and node.name == "_admm_result"]
    (returned,) = [node.value for node in ast.walk(function)
                   if isinstance(node, ast.Return)]
    return {key.value: value.args[0].slice.value
            for key, value in zip(returned.keys, returned.values)}


def test_run_admm_result_keeps_the_tracer_indices(monkeypatch):
    assert admm_result_indices() == {"iterations": 2, "converged": 5}
    F = random_gaussian(3, 4, 0)
    problem = _symmetric_relaxation(F)

    def run(cfg):
        return run_admm(problem.project, project_psd, problem.C, problem.start,
                        cfg)

    capped = run(SolverConfig(max_iter=3))
    assert capped[2] == 3 and capped[5] is False
    converged = run(SolverConfig())
    assert converged[2] == solve_sdp(F).iterations and converged[5] is True
    # a gap stop, read where the tracer reads it: stopped before the cap
    results = []

    def traced(*args, **kwargs):
        results.append(run_admm(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(admm, "run_admm", traced)
    report = solve_sdp(F, stop_on_gap=True)
    (stopped,) = results
    assert report.termination == "gap"
    assert stopped[2] == report.iterations < converged[2]
    assert stopped[5] is True
