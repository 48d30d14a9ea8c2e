"""Every name a package module imports is used there, or its import says why not."""

import ast
from pathlib import Path

import pytest

import curveflow

#: the package's modules; ``__init__`` imports its names to re-export them
MODULES = sorted(path for path in Path(curveflow.__file__).resolve().parent.glob("*.py")
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    unused = [
        f"line {alias.lineno}: {alias.asname or alias.name}"
        for node in imports for alias in node.names
        if (alias.asname or alias.name).partition(".")[0] not in used
        and "noqa: F401" not in lines[alias.lineno - 1]
    ]
    assert unused == []
