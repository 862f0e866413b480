"""No module of the package imports another module's private helpers, and only ``geometry``
imports ``numbers``, for its scalar validation rules."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "twocenter").glob("*.py"))


def private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 9


def test_no_cross_module_private_imports():
    offenders = [line for path in SOURCES for line in private_imports(path)]
    assert offenders == []


def test_only_geometry_imports_numbers():
    """Scalar inputs have one validation rule per kind, ``geometry.check_number`` and
    ``check_count``: a module that imports ``numbers`` is growing a scalar check of its own."""
    importers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names) or (
                isinstance(node, ast.ImportFrom) and node.module == "numbers"
            ):
                importers.append(path.name)
    assert importers == ["geometry.py"]
