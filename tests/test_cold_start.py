"""The package runs without scipy.

No module under ``src`` imports scipy: the line expander's shoot steps on its own,
``grid.sample`` interpolates on its own and the Newton solve eliminates its
block-tridiagonal Jacobian with numpy.  So ``import logflow.cli``, loading
any config, building any initial data and every preset's run load numpy
only.  The tests use scipy as a reference.
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


def _imported_modules(node: ast.AST) -> list[str]:
    """The modules an import names: ``from scipy import integrate`` names
    ``scipy`` and ``scipy.integrate``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def _imports_scipy(node: ast.AST) -> bool:
    return any(name.split(".")[0] == "scipy" for name in _imported_modules(node))


def test_no_module_level_scipy_import():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8")))
             if _imports_scipy(node)]
    assert found == []


def _imports_anywhere(banned: str) -> list[str]:
    """Every import of ``banned`` or a submodule of it under ``src``,
    function bodies included."""
    return [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in sorted((ROOT / "src").rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for name in _imported_modules(node)
            if name == banned or name.startswith(banned + ".")]


def test_no_module_imports_scipy():
    # function bodies included: no scipy import anywhere under src
    assert _imports_anywhere("scipy") == []


def test_no_module_imports_scipy_integrate():
    # the line shoot has its own stepper
    assert _imports_anywhere("scipy.integrate") == []


def test_no_module_imports_scipy_ndimage():
    # the sampler has its own cubic spline, with no fallback
    assert _imports_anywhere("scipy.ndimage") == []


_PROBE = """
import sys
from pathlib import Path
import logflow
from logflow.cli import main
code = main(["flow", "run", "--config", *sorted(map(str, Path("presets").glob("*.json"))),
             "--outdir", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _fresh_interpreter(env: dict, probe: str, *args: str) -> str:
    """The last line a probe prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", probe, *args],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_flow_runs_load_no_scipy(tmp_path, src_env):
    # all ten presets, the Newton solve of expander-cross-validation included
    assert _fresh_interpreter(src_env, _PROBE, str(tmp_path / "out")) == "0 []"
    names = sorted(path.stem for path in (ROOT / "presets").glob("*.json"))
    assert len(names) == 10
    for name in names:
        assert (tmp_path / "out" / name / "report.json").exists()


_CROSS_PROBE = """
import sys
from logflow.cli import main
code = main(["flow", "run", "--config", "presets/expander-cross-validation.json",
             "--outdir", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m.split(".")[:2] in (
    ["scipy", "integrate"], ["scipy", "special"], ["scipy", "optimize"])))
"""


def test_expander_cross_validation_loads_no_integrate_special_optimize(tmp_path, src_env):
    # the Newton solve on its own: its numpy elimination pulls in none of these
    out = tmp_path / "out"
    assert _fresh_interpreter(src_env, _CROSS_PROBE, str(out)) == "0 []"
    assert (out / "report.json").exists()   # one config runs in outdir itself


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
