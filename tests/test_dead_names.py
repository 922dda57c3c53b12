"""Every module-level private name under src/gplab is used somewhere in src.

A private name (``_x``, not a dunder) is one no other package should need,
so one that nothing in ``src`` reads outside its own definition is dead
code.  The guard parses each module with ``ast``: a definition is a
module-level ``def``, ``class`` or assignment, and a use is a name or
attribute read anywhere in ``src/gplab`` outside that definition.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gplab"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _reads(node: ast.AST) -> Counter:
    """Names and attributes read in the subtree of ``node``."""
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _definitions(tree: ast.Module):
    """(name, defining statement) for each module-level private name."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _is_private(name):
                yield name, stmt


def test_every_private_module_name_is_used():
    trees = {p: ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    reads: Counter = Counter()
    for tree in trees.values():
        reads += _reads(tree)
    dead = []
    for path, tree in trees.items():
        for name, stmt in _definitions(tree):
            if reads[name] - _reads(stmt)[name] == 0:
                dead.append(f"{path.relative_to(SRC)}:{stmt.lineno} {name}")
    assert dead == [], f"private names nothing in src reads: {dead}"
