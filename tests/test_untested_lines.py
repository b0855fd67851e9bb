"""tools/untested_lines.py on a toy package: the statements it names as never
run are exactly those that did not run, in the main thread or another."""

import importlib.util
import threading
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"

TOY = '''\
"""Toy module."""
import threading

LIMIT = 3


def used(x):
    """Docstring."""
    if x > LIMIT:
        return x
    return -x


def unused():
    return 1


def in_thread(box):
    box.append(2)


def run():
    used(1)
    box = []
    worker = threading.Thread(target=in_thread, args=(box,))
    worker.start()
    worker.join()
    return box
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("untested_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_statements_that_never_ran(tool, tmp_path):
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(TOY)
    results = []

    def run():
        spec = importlib.util.spec_from_file_location("toypkg.mod", package / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        results.append(module.run())

    previous = threading.gettrace()
    report = tool.never_run(run, package)
    assert results == [[2]]  # the thread ran, and so did its statement
    assert report == {"toypkg": [], "toypkg.mod": [10, 15]}
    assert threading.gettrace() is previous


def test_statement_lines_skip_docstrings_and_keep_one_line_bodies(tool):
    source = 'def f(x):\n    """Doc."""\n    global y\n    if x: return x\n    return 0\n'
    lines = dict(tool.statement_lines(source))
    assert sorted(lines) == [1, 4, 5]
    assert lines[4] == {4}
