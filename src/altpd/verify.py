"""Property suite behind the verify subcommand.

Each check draws its own data from a seeded generator and yields its
deviations; _result folds them into the worst one and compares it to a
fixed tolerance, so a NaN deviation fails its check. Counts are sized for
an interactive run; the test suite repeats the heavy versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import build_matrix_direct, build_matrix_recursive
from .dynamics import conservation_drift, field_closed_form, integrate
from .oracle import simulate
from .payoff import (
    _exact_payoff_vector,
    _reversal_gap,
    payoff_by_determinant,
    payoff_by_stationary,
)
from .strategy import PayoffParams, random_strategy
from .symmetry import build_admissible, verify_admissibility
from .torus import TorusPoint, to_cube, to_torus, torus_trajectory

__all__ = ["CheckResult", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one property check."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _result(name: str, deviations, tolerance: float, detail: str = "") -> CheckResult:
    """Fold a check's deviations: the worst one, with a floor of 0.0, and
    NaN if any is NaN. It passes strictly below a positive tolerance, and
    only at exactly 0 for a zero tolerance."""
    deviations = [0.0, *deviations]
    worst = math.nan if any(map(math.isnan, deviations)) else max(deviations)
    passed = worst < tolerance if tolerance > 0 else worst == 0
    return CheckResult(name, bool(passed), float(worst), tolerance, detail)


def _pairs(rng, memories, count: int):
    """count random strategy pairs at each memory in turn, p drawn before q."""
    for n in memories:
        for _ in range(count):
            yield random_strategy(n, rng), random_strategy(n, rng)


def _stochasticity(rng, memory: int):
    for p, q in _pairs(rng, [memory], 20):
        m = build_matrix_direct(p, q).entries
        yield float(np.max(np.abs(m.sum(axis=1) - 1.0)))
        yield -float(np.min(m))


def _construction(rng, levels):
    for p, q in _pairs(rng, levels, 20):
        direct = build_matrix_direct(p, q).entries
        yield float(np.max(np.abs(direct - build_matrix_recursive(p, q).entries)))


def _payoff(rng, memory: int, params: PayoffParams):
    for p, q in _pairs(rng, range(1, min(memory, 2) + 1), 100):
        gap = payoff_by_determinant(p, q, params) - payoff_by_stationary(p, q, params)
        yield abs(gap) / params.b


def _reversal(memory: int, params: PayoffParams):
    # Exact Fractions: the fold compares them to 0 before any rounding.
    for n in range(1, max(memory, 2) + 1):
        yield _reversal_gap(_exact_payoff_vector(params, n), params)


def _conservation(starts, params: PayoffParams):
    for drift in conservation_drift(starts, params, 20.0 / params.b, 1e-3 / params.b):
        yield float(drift.max())


def _field_kernels(starts, params: PayoffParams):
    # conservation_drift runs so few rows on the single-state kernel that
    # no other check reaches the batch kernel; compare the two bit for bit.
    batch = field_closed_form(starts, params)
    rows = np.array([field_closed_form(row, params) for row in starts])
    yield float(np.max(np.abs(batch - rows)))


def _symmetry(rng, memory: int, params: PayoffParams):
    # A refused report carries an error of at least 1e-10: its payoff
    # error in units of b, or inf where the votes or the rebuild refused the
    # pair. A NaN payoff error means no unique stationary distribution: not
    # applicable.
    for p, q in _pairs(rng, range(1, min(memory, 2) + 1), 20):
        for j in build_admissible(p.memory).values():
            report = verify_admissibility(j, p, q, params)
            yield report.structure_error
            if not math.isnan(report.payoff_error):
                yield report.payoff_error / params.b


def _torus(rng, params: PayoffParams):
    # Each start is compared at the last step both orbits recorded.
    dt = 1e-3 / params.b
    for _ in range(5):
        x0 = rng.uniform(0.25, 0.75, 4)
        cube = integrate(x0, params, 5.0 / params.b, dt=dt)
        pt = to_torus(x0)
        _, path, _ = torus_trajectory(pt, params, float(cube.times[-1]), dt)
        last = min(len(path), len(cube.times)) - 1
        end = to_cube(TorusPoint(path[last, 0], path[last, 1], pt.level))
        yield float(np.max(np.abs(end - cube.states[last])))


def _oracle(rng, memory: int, params: PayoffParams):
    for p, q in _pairs(rng, [memory], 3):
        result = simulate(p, q, params, rounds=200_000, seed=int(rng.integers(2**31)))
        analytic = payoff_by_stationary(p, q, params)
        yield abs(result.mean_payoff - analytic) / result.std_error


def run_suite(
    memory: int = 1, seed: int = 0, params: PayoffParams = PayoffParams()
) -> list:
    """Run every property check and return the results in a fixed order.

    The default params are the game's defaults (b = 1, c = 0.3); the one
    shared instance is safe because PayoffParams is frozen. Since b only
    rescales time and payoffs, the horizons and steps of the memory-1
    field checks are in units of 1/b (as their details say) and the payoff
    deviations in units of b, so each tolerance holds at any b.
    """
    rng = np.random.default_rng(seed)
    levels = range(2, max(2, memory) + 1)
    memories = "memories " + ",".join(str(n) for n in levels)
    checks = [
        _result("row stochasticity", _stochasticity(rng, memory), 1e-12),
        _result("construction equivalence", _construction(rng, levels), 1e-15, memories),
        _result("payoff cross-check", _payoff(rng, memory, params), 1e-9),
        _result("reversal identity", _reversal(memory, params), 0.0, "exact rational arithmetic"),
        _result("symmetry conjugation", _symmetry(rng, memory, params), 1e-10),
    ]
    if memory == 1:
        starts = rng.uniform(0.1, 0.9, (10, 4))
        checks += [
            _result("conservation", _conservation(starts, params), 1e-8, "T=20/b, rk4 dt=1e-3/b"),
            _result(
                "field kernel agreement",
                _field_kernels(starts, params),
                0.0,
                "batch against single states",
            ),
            _result("torus commuting diagram", _torus(rng, params), 1e-6, "T=5/b"),
        ]
    oracle = _oracle(rng, memory, params)
    checks.append(_result("oracle agreement", oracle, 4.0, "deviation in standard errors"))
    return checks
