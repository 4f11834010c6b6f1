"""Source hygiene: every imported name is read somewhere in its module,
every public name the package defines is used by the package, and every
name the benchmark's tracer wraps exists.

Package re-exports (``__init__.py``) and ``from __future__`` imports are
exempt.  The acceptance gate is kept byte for byte, so its one known
unused import is listed instead of removed.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "symnorm").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)

KNOWN: dict[str, list[str]] = {}

# public names that only tests use, kept on purpose
TEST_ONLY = {
    # the brute-force references the acceptance and unit tests compare against
    "brute_canon_rep": "oracle",
    "brute_maut": "oracle",
    "brute_normalizer_elements": "oracle",
    # acceptance criteria 4 and 5 check results in these terms
    "in_row_space": "row-space membership for a matrix not in standard form",
    "gamma_map": "the exponent-vector image of an overgroup element",
    "exponent_scaling_perm": "the point permutation of a pure exponent scaling",
}


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


def unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """Public functions, classes and methods defined in the given modules
    whose name is read nowhere in them apart from the definition."""
    defined, read = [], set()
    for name, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            items = [node, *node.body] if isinstance(node, ast.ClassDef) else [node]
            defined += [
                item.name
                for item in items
                if isinstance(item, (ast.FunctionDef, ast.ClassDef))
                and not item.name.startswith("_")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(set(defined) - read)


def test_every_public_name_is_used_by_the_package():
    src = [p for p in FILES if p.parent.name == "symnorm"]
    sources = {p.name: p.read_text() for p in src}
    assert unreferenced_public_names(sources) == sorted(TEST_ONLY)


def test_detects_an_unreferenced_name():
    sources = {
        "a.py": "def used(): pass\ndef unused(): pass\n"
        "class C:\n    def m(self): pass\n",
        "b.py": "from a import used\nused()\n",
    }
    assert unreferenced_public_names(sources) == ["C", "m", "unused"]


def traced_targets() -> list[tuple[str, str]]:
    """The (module, attribute) keys of the benchmark tracer's TARGETS,
    read from its source without importing it."""
    tree = ast.parse((ROOT / "benchmark" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return sorted(ast.literal_eval(node.value))
    raise AssertionError("benchmark/spans.py defines no TARGETS")


def test_traced_names_resolve():
    # the tracer looks every target up by name, so a renamed or deleted
    # function breaks the traced benchmark run
    targets = traced_targets()
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"symnorm.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
