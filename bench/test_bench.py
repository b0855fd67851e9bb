"""Self-tests of the benchmark: names, determinism, and the failure count.

    python3 -m pytest bench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import altpd  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from recorder import Recorder  # noqa: E402
from speed import Speed  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_declared_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert set(workloads.BUILDERS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_names_match_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle_mc",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def _inputs(built):
    return [(op.kind, op.label, op.args) for op in built.ops]


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, altpd.Strategy):
        return np.array_equal(a.probs, b.probs)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b or callable(a)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    build = workloads.BUILDERS[name]
    first, again, other = (build(seed, tmp_path, {}) for seed in (11, 11, 12))
    assert _same(_inputs(first), _inputs(again))
    assert not _same(_inputs(first), _inputs(other))


def _outcomes(built):
    rec = Recorder()
    records = run.run_ops(rec, built.warmup, Speed())
    return [(r.label, r.cause) for r in records], rec.take()[1]


@pytest.mark.parametrize("name", ["cube_flow", "memory_n", "oracle_mc"])
def test_same_seed_same_outcomes(name, tmp_path):
    build = workloads.BUILDERS[name]
    first = _outcomes(build(5, tmp_path, {}))
    assert first == _outcomes(build(5, tmp_path, {}))
    assert all(cause is None for _, cause in first[0])


def test_reducible_presets_are_expected_outcomes(tmp_path):
    built = workloads.build_memory_n(5, tmp_path, {})
    presets = [op for op in built.ops if "/" in op.label]
    rec = Recorder()
    records = run.run_ops(rec, presets, Speed())
    assert all(r.cause is None for r in records)
    assert rec.counts["chain.stationary.nonunique"] == 3  # tft/tft at N = 1, 2, 3


def test_corrupted_payoff_is_a_failed_op(monkeypatch, tmp_path):
    # Same perturbation size as `altpd verify --corrupt-payoff`.
    honest = altpd.payoff_by_determinant
    monkeypatch.setattr(altpd, "payoff_by_determinant", lambda *a: honest(*a) + 1e-6)
    built = workloads.build_memory_n(5, tmp_path, {})
    records = run.run_ops(Recorder(), built.ops[:20], Speed())
    pairs = [r for r in records if r.kind.startswith("pair")]
    assert pairs and all("payoff routes differ" in (r.cause or "") for r in pairs)


def test_corrupted_cli_output_is_a_failed_op():
    doctored = {
        "payoff_determinant": 0.25 + 1e-6,
        "payoff_stationary": 0.25,
        "matrix": [[0.5, 0.5], [0.5, 0.5]],
        "stationary": [0.5, 0.5],
    }
    with pytest.raises(workloads.GateError, match="payoff routes differ"):
        workloads._check_matrix_json("", {"matrix.json": json.dumps(doctored).encode()})


def test_lifted_field_sums_to_the_memory_one_field():
    base = np.array([0.3, 0.6, 0.45, 0.7])
    rec = Recorder()
    workloads._field(rec, workloads.lift(base, 2), base)
    with pytest.raises(workloads.GateError):
        workloads._field(rec, workloads.lift(base, 2), base[::-1].copy())
