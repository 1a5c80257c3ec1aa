"""The package starts without scipy.

scipy serves three side computations: cubic sampling (``grid.sample``), the
expander solvers and the ``linear_plus_bump`` data.  Each imports its scipy
submodule inside the function that calls it, so ``import logflow.cli`` and
every run that reaches none of them load numpy only.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "logflow"


def _import_time_nodes(node: ast.AST):
    """Every node executed on import: function bodies are left out."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield child
        yield from _import_time_nodes(child)


def _imports_scipy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.level == 0 and (node.module or "").split(".")[0] == "scipy"
    return False


def test_no_module_level_scipy_import():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if _imports_scipy(node)]
    assert found == []


_PROBE = """
import sys
import logflow
from logflow.cli import main
code = main(["flow", "run", "--config", "presets/legendre-duality.json",
             "presets/heat-oracle.json", "--outdir", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_flow_runs_load_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "out")],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "legendre-duality" / "report.json").exists()
    assert (tmp_path / "out" / "heat-oracle" / "report.json").exists()
