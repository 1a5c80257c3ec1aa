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


def _imported_modules(node: ast.AST) -> list[str]:
    """The modules an import names: ``from scipy import integrate`` names
    ``scipy`` and ``scipy.integrate``."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module] + [f"{node.module}.{a.name}" for a in node.names]
    return []


def test_no_module_imports_scipy():
    # function bodies included: no import of scipy or of a submodule of it,
    # such as scipy.integrate or scipy.ndimage, anywhere under src
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             for name in _imported_modules(node)
             if name.split(".")[0] == "scipy"]
    assert found == []


_PROBE = """
import sys
from pathlib import Path
import logflow
from logflow.cli import main
code = main(["flow", "run", "--config", *sorted(map(str, Path("presets").glob("*.json"))),
             "--outdir", sys.argv[1]])
print(code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_flow_runs_load_no_scipy(tmp_path, src_env):
    # one interpreter loads all ten presets, builds their initial data and
    # runs them, the Newton solve of expander-cross-validation included;
    # sys.modules only grows, so no step on the way loads scipy either
    out = subprocess.run([sys.executable, "-c", _PROBE, str(tmp_path / "out")],
                         cwd=ROOT, env=src_env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"
    names = sorted(path.stem for path in (ROOT / "presets").glob("*.json"))
    assert len(names) == 10
    for name in names:
        assert (tmp_path / "out" / name / "report.json").exists()
