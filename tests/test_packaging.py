"""Packaging: the package imports nothing it does not declare, its
public names each come from one module, and its namespace loads them on
first use."""

import ast
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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


def _reads_of(name, path):
    """(file, enclosing top-level function or None) of every read of name:
    a load, an attribute or an import of it."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            read = (
                (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and name in (node.name, node.asname))
            )
            if read:
                yield path.name, owner


def test_only_the_field_kernels_read_the_singularity_threshold():
    # The memory-1 singularity rule is applied by dynamics' two kernel
    # entry points, and every route obeys them; a comparison anywhere else
    # would let routes disagree on which points are singular.
    readers = {reader for path in SOURCES for reader in _reads_of("_DENOMINATOR_TOL", path)}
    assert readers == {("dynamics.py", "_field_scalar"), ("dynamics.py", "_field_array")}


def test_only_real_batches_reach_the_array_kernel():
    # Many real points go to the array kernel: field_closed_form batches,
    # the drift block and the torus field grid. One point or a complex
    # step (jacobian) goes to the scalar kernel, so complex input cannot
    # come back to the array kernel. (torus.py, None) is torus's import.
    callers = {reader for path in SOURCES for reader in _reads_of("_field_array", path)}
    assert callers == {
        ("dynamics.py", "field_closed_form"),
        ("dynamics.py", "conservation_drift"),
        ("torus.py", None),
        ("torus.py", "field_grid"),
    }


def test_only_the_kernels_and_the_desingularized_field_read_the_numerators():
    # The memory-1 field's numerators are stated once, in
    # dynamics._field_components. The two kernels divide them by the
    # denominator; torus.desingularized_field pushes them forward to the
    # angles undivided. A hand-typed copy in angle coordinates would state
    # them again. (torus.py, None) is torus's import.
    readers = {reader for path in SOURCES for reader in _reads_of("_field_components", path)}
    assert readers == {
        ("dynamics.py", "_field_scalar"),
        ("dynamics.py", "_field_array"),
        ("torus.py", None),
        ("torus.py", "desingularized_field"),
    }


def test_the_torus_equilibria_read_the_interior_plane():
    # The interior plane is stated once, in dynamics.interior_plane_point,
    # and the torus equilibria are where it meets the torus. A second
    # statement in angles gave each psi root two arcsine phi-branches, one
    # spurious, and lost equilibria where the branches met.
    # (torus.py, None) is torus's import.
    readers = {reader for path in SOURCES for reader in _reads_of("interior_plane_point", path)}
    assert readers == {
        ("dynamics.py", "equilibrium_families"),
        ("dynamics.py", "interior_plane_grid"),
        ("torus.py", None),
        ("torus.py", "torus_equilibria"),
    }


def test_only_the_flip_table_reads_the_slot_masks():
    # The four relabelings are stated once, as symmetry._FLIPS, and
    # symmetry._masks alone turns a flip into the slots it XORs; a matrix,
    # strategy action or search that picked its own slots would state the
    # group again. (symmetry.py, None) is symmetry's import line.
    readers = {
        reader
        for path in SOURCES
        for name in ("_mask_even", "_mask_odd")
        for reader in _reads_of(name, path)
    }
    assert readers == {("symmetry.py", None), ("symmetry.py", "_masks")}


def test_only_the_fold_builds_a_check_result():
    # Every verify check yields its deviations, and verify._result alone
    # folds them and applies the pass rule; a check that built its own
    # CheckResult would state the fold and the rule again.
    readers = set(_reads_of("CheckResult", ROOT / "src" / "altpd" / "verify.py"))
    assert readers == {("verify.py", "_result")}


def test_only_the_command_table_reads_the_runners():
    # The subcommands are stated once, in cli._COMMANDS, which the parser
    # loops over and main indexes; a dispatch that named a runner would
    # state them again. (cli.py, None) is the module-level table.
    cli = ROOT / "src" / "altpd" / "cli.py"
    runners = {
        top.name
        for top in ast.parse(cli.read_text()).body
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_run_")
    }
    table = importlib.import_module("altpd.cli")._COMMANDS
    assert {runner.__name__ for _, runner in table.values()} == runners
    for name in runners:
        readers = {reader for path in SOURCES for reader in _reads_of(name, path)}
        assert readers == {("cli.py", None)}, name
    assert set(_reads_of("_COMMANDS", cli)) == {("cli.py", "_build_parser"), ("cli.py", "main")}


def _benefit_literal_comparisons(path):
    """(file, enclosing top-level function or None) of every comparison of
    params.b or config.b with a literal."""
    def benefit(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "b"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("params", "config")
        )

    def literal(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant)

    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(map(benefit, operands)) and any(map(literal, operands)):
                    yield path.name, owner


def test_no_route_singles_out_a_benefit_value():
    # b only rescales time: G(x; b, c) = b G(x; 1, c/b). Every route reads
    # the cost ratio c/b and scales its rates by b, so none refuses or
    # branches on a particular benefit.
    found = {hit for path in SOURCES for hit in _benefit_literal_comparisons(path)}
    assert found == set()


def _history_shifts(path):
    """(file, enclosing top-level function or None) of every left shift of
    a variable, the form history-index arithmetic takes; a shifted constant
    such as 1 << 15 is a size."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            shift = (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.LShift)
                and not isinstance(node.left, ast.Constant)
            ) or (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.LShift))
            if shift:
                yield path.name, owner


def test_only_strategy_states_the_history_shift_rule():
    # strategy's successor rule serves the direct matrix, the symmetry
    # recovery and follower_index. The recursive matrix (chain._pattern)
    # and the oracle keep their own arithmetic: they are the independent
    # routes the direct matrix is checked against.
    shifts = {shift for path in SOURCES for shift in _history_shifts(path)}
    elsewhere = {
        (name, owner)
        for name, owner in shifts
        if name not in ("strategy.py", "oracle.py") and (name, owner) != ("chain.py", "_pattern")
    }
    assert elsewhere == set()
    assert ("strategy.py", "_shift_in") in shifts


def _owned_nodes(path):
    """(enclosing top-level function or class or None, node) for every node
    of path."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield owner, node


def test_the_direct_matrix_reads_the_successor_table_and_not_the_pattern():
    # The direct and recursive matrix routes check each other only while
    # they share no index: the direct build's float rows (chain._fill_rows)
    # and its cached scatter indices (chain._scatter_indices) read
    # strategy's successor table, and chain._pattern serves the recursive
    # build and the stationary solve's zero-entry test alone.
    chain = ROOT / "src" / "altpd" / "chain.py"

    def readers(name):
        return {reader for path in SOURCES for reader in _reads_of(name, path)}

    assert {("chain.py", "_fill_rows"), ("chain.py", "_scatter_indices")} <= set(
        _reads_of("_successor_table", chain)
    )
    assert readers("_scatter_indices") == {("chain.py", "build_matrix_direct")}
    assert readers("_pattern") == {("chain.py", "build_matrix_recursive"), ("chain.py", "stationary")}
    # The row products are stated once, in _quadruple, which runs on floats
    # in _fill_rows and on arrays in build_matrix_direct. The determinant
    # payoff's row-0 check and field_numeric's patched stencil rows come
    # from _fill_rows. (payoff.py, None) and (dynamics.py, None) are the
    # imports.
    assert readers("_quadruple") == {("chain.py", "_fill_rows"), ("chain.py", "build_matrix_direct")}
    assert readers("_fill_rows") == {
        ("chain.py", "build_matrix_direct"),
        ("payoff.py", None),
        ("payoff.py", "payoff_by_determinant"),
        ("dynamics.py", None),
        ("dynamics.py", "field_numeric"),
    }
    # Products written inline beside _quadruple would state them again:
    # the -0.0 fold (+ 0.0) is _quadruple's alone, and the two builders
    # that call it do arithmetic on the matrix size only.
    folds = [
        (path.name, owner)
        for path in SOURCES
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and any(isinstance(a, ast.Constant) and a.value == 0.0 for a in (node.left, node.right))
    ]
    assert folds == [("chain.py", "_quadruple")] * 4
    for builder in ("build_matrix_direct", "_fill_rows"):
        arithmetic = {
            ast.unparse(node)
            for owner, node in _owned_nodes(chain)
            if owner == builder and isinstance(node, (ast.BinOp, ast.UnaryOp))
        }
        assert arithmetic <= {"4 ** memory", "n * n"}, builder


def test_the_general_memory_gradient_and_the_determinant_ratio_are_stated_once():
    # The determinant ratio is stated once, in payoff._determinant_ratio,
    # which the determinant payoff and field_numeric's stencil both read;
    # the central difference is stated once, in dynamics._central_differences,
    # which the stencil and the memory-N Jacobian both run. A second loop or
    # a second det call would state the gradient again. (dynamics.py, None)
    # is dynamics' import.
    def readers(name):
        return {reader for path in SOURCES for reader in _reads_of(name, path)}

    assert readers("det") == {("payoff.py", "_determinant_ratio")}
    assert readers("_determinant_ratio") == {
        ("payoff.py", "payoff_by_determinant"),
        ("dynamics.py", None),
        ("dynamics.py", "field_numeric"),
    }
    assert readers("_central_differences") == {
        ("dynamics.py", "field_numeric"),
        ("dynamics.py", "jacobian"),
    }


def test_per_memory_constants_are_cached():
    # Tier-1 times nothing, so only this keeps a refactor from rebuilding
    # these on every call: each depends on the memory (and the payoff
    # parameters) alone and is built once per key.
    from altpd import chain, payoff, strategy

    cached_builders = (
        strategy._successor_table,
        chain._pattern,
        chain._identity,
        payoff.build_payoff_vector,
    )
    for cached in cached_builders:
        assert callable(getattr(cached, "cache_info", None)), cached.__name__
    # The identity is shared by every stationary solve and determinant
    # payoff of its size, so it must be read-only, like the payoff vector.
    for n in (4, 16, 64):
        eye = chain._identity(n)
        assert chain._identity(n) is eye
        assert np.array_equal(eye, np.eye(n))
        with pytest.raises(ValueError):
            eye[0, 0] = 0.0


def _altpd_imports(path):
    """Every altpd module that path imports, relative or absolute."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "altpd":
                    continue
            if module:
                yield module.partition(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "altpd" and module:
                    yield module.partition(".")[0]


def test_the_oracle_imports_no_analytic_route():
    # The oracle arbitrates the analytic routes only while it knows nothing
    # about transition matrices, payoffs or fields: it plays the rounds.
    imported = set(_altpd_imports(ROOT / "src" / "altpd" / "oracle.py"))
    assert "strategy" in imported
    assert imported & {"chain", "payoff", "dynamics", "torus", "symmetry", "verify"} == set()


def _public_modules():
    """Every module whose __all__ the package exports (all but cli)."""
    return [
        importlib.import_module(f"altpd.{path.stem}")
        for path in SOURCES
        if path.stem not in ("__init__", "cli")
    ]


def _run_fresh(code):
    """Standard output of code run in a fresh interpreter."""
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_each_public_name_comes_from_one_module():
    # __init__ binds the public names of every module except cli, so a name
    # exported by two of them would be silently shadowed by the later one.
    modules = _public_modules()
    owners = Counter(name for module in modules for name in module.__all__)
    assert [name for name, count in owners.items() if count > 1] == []
    assert [name for name, count in Counter(altpd.__all__).items() if count > 1] == []
    assert set(altpd.__all__) == set(owners)
    for module in modules:
        for name in module.__all__:
            assert getattr(altpd, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    # A fresh interpreter, so the star import is the first use of the
    # lazy namespace.
    probe = """
import json
before = set(globals()) | {"before"}
from altpd import *
bound = sorted(set(globals()) - before)
import altpd
try:
    altpd.no_such_name
except AttributeError as exc:
    missing = str(exc)
else:
    missing = None
print(json.dumps({"bound": bound, "all": altpd.__all__, "missing": missing}))
"""
    seen = json.loads(_run_fresh(probe))
    public = [name for module in _public_modules() for name in module.__all__]
    assert len(public) == 71
    assert seen["all"] == public == altpd.__all__
    assert seen["bound"] == sorted(public)
    assert seen["missing"] == "module 'altpd' has no attribute 'no_such_name'"


def test_readme_quick_start_runs_as_written():
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "README has no Library quick start code block"
    _run_fresh(block.group(1))
