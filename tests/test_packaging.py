"""Packaging: the package imports nothing it does not declare, and its
public names each come from one module."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import altpd

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


def test_each_public_name_comes_from_one_module():
    # __init__ star-imports every module except cli, so a name exported by
    # two of them would be silently shadowed by the later import.
    modules = [
        importlib.import_module(f"altpd.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "cli")
    ]
    owners = Counter(name for module in modules for name in module.__all__)
    assert [name for name, count in owners.items() if count > 1] == []
    assert [name for name, count in Counter(altpd.__all__).items() if count > 1] == []
    assert set(altpd.__all__) == set(owners)
    for module in modules:
        for name in module.__all__:
            assert getattr(altpd, name) is getattr(module, name), name
