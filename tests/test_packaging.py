"""Packaging: the package imports nothing it does not declare."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "altpd").glob("*.py"))


def _declared_dependencies():
    """Distribution names in pyproject.toml's [project] dependencies.

    Read with a regex rather than tomllib, which Python 3.10 lacks.
    """
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block, "pyproject.toml declares no dependencies list"
    return {
        re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower().replace("-", "_")
        for spec in re.findall(r'"([^"]+)"', block.group(1))
    }


def _absolute_imports(path):
    """(line, top-level name) of every absolute import, nested ones too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_altpd_or_declared():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"altpd"} | _declared_dependencies()
    undeclared = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _absolute_imports(path)
        if name not in allowed
    ]
    assert undeclared == []
