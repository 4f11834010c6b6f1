"""Source hygiene: every imported name is read somewhere in its module.

Package re-exports (``__init__.py``) and ``from __future__`` imports are
exempt.  The acceptance gate is kept byte for byte, so its one known
unused import is listed instead of removed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "symnorm").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)

KNOWN = {"test_acceptance.py": ["full_search (line 35)"]}


def unused_imports(tree: ast.AST) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == KNOWN.get(path.name, [])


def test_detects_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom a import b as c\nprint(sys)\n")
    assert unused_imports(tree) == ["os (line 1)", "c (line 3)"]
