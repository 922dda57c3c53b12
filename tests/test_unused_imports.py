"""No module under src/gplab imports a name it never uses.

The package has no linter configured, so this guard parses each module
with ``ast``.  A name counts as used when it appears anywhere in the module.
Package ``__init__`` modules re-export by design and are skipped, as is an
import line marked ``# noqa``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gplab"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Bound name -> line, for every import not marked ``# noqa``."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            # an alias on its own line of a parenthesised import carries its own mark
            if "# noqa" not in lines[alias.lineno - 1]:
                out[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    imported = _imported(tree, text.splitlines())
    used = _used(tree)
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name}: unused imports (line, name) {unused}"
