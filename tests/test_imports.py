"""Every module-level import of a package module is read by that module.

An import a deletion leaves behind names a dependency the module no longer
has. Each ``src/scanpp`` module is parsed with ``ast``; ``__init__.py`` is
left out, as its imports are the package's exports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scanpp"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that the module never reads,
    as a name node anywhere in it."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
              "def f(x: Optional[int]) -> Sequence:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
