"""Source hygiene: every name a module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "transitsim"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line; ``__future__`` is skipped."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def referenced_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere, annotations included, also those written
    as strings."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= referenced_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = referenced_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_sees_annotations_and_flags_dead_names():
    tree = ast.parse("from typing import Optional, Any\nimport os.path\n"
                     "from .x import Y\n"
                     "def f(a: Optional[int]) -> 'Y':\n    return os.sep\n")
    names = imported_names(tree)
    assert set(names) == {"Optional", "Any", "os", "Y"}
    assert sorted(set(names) - referenced_names(tree)) == ["Any"]
