"""List the statement lines of a package that a test run never executes.

Runs pytest in this process under sys.settrace and threading.settrace,
records every line executed in a file under the package directory, and
writes, per module, the first line of each statement that never ran, as
JSON ({"altpd.torus": [lines], ...}):

    python tools/untested_lines.py --out untested.json
    python tools/untested_lines.py --out untested.json -- tests/test_torus.py

Arguments after `--` go to pytest (default: the Tier-1 suite, `-q
--continue-on-collection-errors`). Only the standard library is used.

Limits:
- Code that runs only in a child process, such as the CLI tests that
  start `python -m altpd.cli`, is not traced and counts as never run.
- A statement counts as run when any of its own lines ran: its header for
  a compound statement, all of its lines for a simple one.
- The traced Tier-1 run takes several minutes; it is not a Tier-1 step.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstrings(tree):
    """The Expr nodes that are docstrings of a module, class or function."""
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    return {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, owners)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def _span(node):
    """Lines of a statement, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return set(range(first, node.end_lineno + 1))


def statement_lines(source: str) -> list:
    """(first line, own lines) of each statement of source that compiles to
    code: docstrings, `global` and `nonlocal` are left out. A statement's
    own lines are its lines outside the statements nested in it, or all of
    its lines when a nested one shares each of them (`if x: return y`)."""
    tree = ast.parse(source)
    skip = _docstrings(tree)
    statements = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in skip:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        own = _span(node)
        for inner in ast.walk(node):
            if inner is not node and isinstance(inner, ast.stmt):
                own -= _span(inner)
        statements.append((node.lineno, own or _span(node)))
    return statements


def trace_lines(run, package_dir) -> dict:
    """Call run() with every thread it starts traced; return {absolute file
    path: executed line numbers} for the files under package_dir."""
    prefix = os.path.join(str(Path(package_dir).resolve()), "")
    executed = {}
    tracers = {}  # code object -> its file's line tracer, or None outside

    def line_tracer(lines):
        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in tracers:
            path = os.path.abspath(code.co_filename)
            inside = path.startswith(prefix)
            tracers[code] = line_tracer(executed.setdefault(path, set())) if inside else None
        return tracers[code]

    previous, previous_threads = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_threads)
    return executed


def never_run(run, package_dir) -> dict:
    """{module name: first lines of the statements that never ran} for
    every module under package_dir, after calling run() under the trace."""
    package_dir = Path(package_dir).resolve()
    executed = trace_lines(run, package_dir)
    report = {}
    for path in sorted(package_dir.rglob("*.py")):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        ran = executed.get(str(path), set())
        statements = statement_lines(path.read_text())
        report[module] = sorted({line for line, own in statements if not own & ran})
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("pytest_args", nargs="*", help="arguments for pytest (after --)")
    args = parser.parse_args(argv)
    import pytest

    # The package imports from src/ here and in the child processes of tests.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    pytest_args = args.pytest_args or ["-q", "--continue-on-collection-errors", str(ROOT / "tests")]
    exit_codes = []
    report = never_run(lambda: exit_codes.append(pytest.main(pytest_args)), ROOT / "src" / "altpd")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    total = sum(len(lines) for lines in report.values())
    print(f"{total} statements never ran; pytest exit code {exit_codes[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
