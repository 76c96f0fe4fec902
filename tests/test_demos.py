"""Every name a demo imports from ``pnpunmix`` still exists.

Both sides are read with ``ast``; no demo and no library module is run.
A name exists when the module's top level defines, assigns or imports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pnpunmix"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _module_path(module: str) -> Path:
    parts = module.split(".")[1:]
    return PACKAGE.joinpath(*parts).with_suffix(".py") if parts else PACKAGE / "__init__.py"


def _top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.module != "pnpunmix" and not node.module.startswith("pnpunmix."):
            continue
        source = _module_path(node.module)
        defined = _top_level_names(source) if source.is_file() else set()
        missing += [f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                    for alias in node.names if alias.name not in defined]
    assert not missing, "imported but not defined in pnpunmix:\n" + "\n".join(missing)
