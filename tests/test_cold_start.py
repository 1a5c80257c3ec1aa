"""The package starts without scipy.

scipy serves two side computations: cubic sampling (``grid.sample``) and the
expander solvers.  Each imports its scipy submodule inside the function that
calls it, so ``import logflow.cli``, loading any config, building any initial
data and every run that reaches neither load numpy only.
"""

import ast
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
             "presets/heat-oracle.json", "presets/plane-convergence.json",
             "--outdir", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_interpreter(env: dict, probe: str, *args: str) -> str:
    """The last line a probe prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", probe, *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_flow_runs_load_no_scipy(tmp_path, src_env):
    assert _fresh_interpreter(src_env, _PROBE, str(tmp_path / "out")) == "0 []"
    for name in ("legendre-duality", "heat-oracle", "plane-convergence"):
        assert (tmp_path / "out" / name / "report.json").exists()


# what a benchmark's set-up does: load every preset and build its initial data
_SETUP_PROBE = """
import sys
from pathlib import Path
import numpy as np
from logflow.config import load_config
from logflow.presets import make_initial_data
built = 0
for path in sorted(Path("presets").glob("*.json")):
    cfg = load_config(path)
    if cfg.initial:
        make_initial_data(cfg.domain(), cfg.initial, cfg.tau,
                          np.random.default_rng(cfg.seed))
        built += 1
print(built, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_preset_setup_loads_no_scipy(src_env):
    # eight presets evolve initial data; the two expander presets have none
    assert _fresh_interpreter(src_env, _SETUP_PROBE) == "8 []"
