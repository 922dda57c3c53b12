"""The package's checks hold under ``python -O``, which strips ``assert``.

A guard parses each module under src/gplab with ``ast`` and finds no
``assert`` statement, so every paper and quick check raises its
``AssertionError`` explicitly; a subprocess run under ``-O`` shows a
broken check failing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gplab"
MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def test_a_broken_check_fails_under_optimize():
    # the very-sparse check against a set whose members are [1, 2, 3]
    code = """
import sys
from gplab import suites

class Broken:
    def members(self, lo, hi, max_bits=None):
        return [1, 2, 3]

    def member(self, n, max_bits=None):
        return True

suites.very_sparse_set = lambda params: Broken()
assert False, "unreachable under -O"
try:
    suites.check_very_sparse()
except AssertionError as exc:
    print(sys.flags.optimize, "failed:", exc)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1 failed: members [1, 2, 3]"
