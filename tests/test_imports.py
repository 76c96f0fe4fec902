"""Every name a library module imports is used in that module, and the
package runs on numpy alone: scenes and all four subcommands work with
scipy unimportable.

``__init__.py`` is skipped: it imports names only to re-export them.
Names listed in a module's ``__all__`` count as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pnpunmix"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert {"cli.py", "denoise.py", "pnp.py", "qp.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported(tree).items() if name not in used]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


# a fresh interpreter in which any scipy import fails, whatever this test
# session imported; it makes a scene and runs every subcommand on it
NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from pnpunmix import SceneSpec, make_scene
from pnpunmix.cli import main
make_scene(SceneSpec(rows=8, cols=8, endmembers=3, bands=6))
s = sys.argv[1] + "/scene/"
runs = [
    ["synth", "--rows", "8", "--cols", "8", "--endmembers", "3", "--bands", "6",
     "--out", s],
    ["unmix", "--cube", s + "noisy.raw", "--endmembers", s + "endmembers.csv",
     "--truth", s + "truth.raw", "--mode", "pro-h", "--denoiser", "nlm",
     "--max-iter", "2", "--out", sys.argv[1] + "/est"],
    ["eval", "--estimate", sys.argv[1] + "/est/abundances.raw", "--endmembers",
     s + "endmembers.csv", "--observed", s + "noisy.raw", "--truth", s + "truth.raw",
     "--clean", s + "clean.raw"],
]
runs += [["denoise", "--input", s + "noisy.raw", "--kind", kind, "--sigma", "0.05",
          "--out", sys.argv[1] + "/" + kind + ".raw"] for kind in ("gaussian", "nlm", "tv")]
print([main(argv) for argv in runs])
"""


def test_scene_and_subcommands_run_without_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0]", proc.stderr
    assert proc.stderr == ""
