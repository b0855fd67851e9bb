"""Property suite behind the verify subcommand.

Each check draws its own data from a seeded generator, measures the worst
deviation, and compares it to a fixed tolerance. Counts are sized for an
interactive run; the test suite repeats the heavy versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chain import build_matrix_direct, build_matrix_recursive, stationary
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


def _check_stochasticity(rng, memory: int) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        m = build_matrix_direct(random_strategy(memory, rng), random_strategy(memory, rng))
        worst = max(worst, float(np.max(np.abs(m.entries.sum(axis=1) - 1.0))))
        worst = max(worst, float(max(0.0, -np.min(m.entries))))
    return CheckResult("row stochasticity", worst < 1e-12, worst, 1e-12)


def _check_construction(rng, memory: int) -> CheckResult:
    worst = 0.0
    levels = range(2, max(2, memory) + 1)
    for n in levels:
        for _ in range(20):
            p, q = random_strategy(n, rng), random_strategy(n, rng)
            direct = build_matrix_direct(p, q).entries
            recursive = build_matrix_recursive(p, q).entries
            worst = max(worst, float(np.max(np.abs(direct - recursive))))
    detail = "memories " + ",".join(str(n) for n in levels)
    return CheckResult("construction equivalence", worst < 1e-15, worst, 1e-15, detail)


def _check_payoff(rng, memory: int, params: PayoffParams) -> CheckResult:
    worst = 0.0
    for n in range(1, min(memory, 2) + 1):
        for _ in range(100):
            p, q = random_strategy(n, rng), random_strategy(n, rng)
            worst = max(
                worst,
                abs(
                    payoff_by_determinant(p, q, params)
                    - payoff_by_stationary(p, q, params)
                ),
            )
    return CheckResult("payoff cross-check", worst < 1e-9, worst, 1e-9)


def _check_reversal(memory: int, params: PayoffParams) -> CheckResult:
    worst = Fraction(0)
    for n in range(1, max(memory, 2) + 1):
        worst = max(worst, _reversal_gap(_exact_payoff_vector(params, n), params))
    return CheckResult(
        "reversal identity", worst == 0, float(worst), 0.0, "exact rational arithmetic"
    )


def _check_conservation(starts, params: PayoffParams) -> CheckResult:
    d1, d2 = conservation_drift(starts, params, 20.0)
    worst = float(max(d1.max(), d2.max()))
    return CheckResult("conservation", worst < 1e-8, worst, 1e-8, "T=20, rk4 dt=1e-3")


def _check_field_kernels(starts, params: PayoffParams) -> CheckResult:
    # conservation_drift runs so few rows on the single-state kernel that
    # no other check reaches the batch kernel; compare the two bit for bit.
    batch = field_closed_form(starts, params)
    rows = np.array([field_closed_form(row, params) for row in starts])
    worst = float(np.max(np.abs(batch - rows)))
    return CheckResult(
        "field kernel agreement",
        bool(np.array_equal(batch, rows)),
        worst,
        0.0,
        "batch against single states",
    )


def _check_symmetry(rng, memory: int, params: PayoffParams) -> CheckResult:
    worst = 0.0
    ok = True
    for n in range(1, min(memory, 2) + 1):
        js = build_admissible(n)
        for _ in range(20):
            p, q = random_strategy(n, rng), random_strategy(n, rng)
            for j in js.values():
                report = verify_admissibility(j, p, q, params)
                ok = ok and report.admissible
                worst = max(worst, report.structure_error, report.payoff_error)
    return CheckResult("symmetry conjugation", ok and worst < 1e-10, worst, 1e-10)


def _check_torus(rng, params: PayoffParams) -> CheckResult:
    # Each start is compared at the last step both orbits recorded.
    worst = 0.0
    for _ in range(5):
        x0 = rng.uniform(0.25, 0.75, 4)
        cube = integrate(x0, params, 5.0)
        pt = to_torus(x0)
        _, path, _ = torus_trajectory(pt, params, float(cube.times[-1]))
        last = min(len(path), len(cube.times)) - 1
        end = to_cube(TorusPoint(path[last, 0], path[last, 1], pt.level))
        worst = max(worst, float(np.max(np.abs(end - cube.states[last]))))
    return CheckResult("torus commuting diagram", worst < 1e-6, worst, 1e-6, "T=5")


def _check_oracle(rng, memory: int, params: PayoffParams) -> CheckResult:
    worst = 0.0
    for k in range(3):
        p, q = random_strategy(memory, rng), random_strategy(memory, rng)
        result = simulate(p, q, params, rounds=200_000, seed=int(rng.integers(2**31)))
        analytic = payoff_by_stationary(p, q, params)
        worst = max(worst, abs(result.mean_payoff - analytic) / result.std_error)
    return CheckResult(
        "oracle agreement", worst < 4.0, worst, 4.0, "deviation in standard errors"
    )


def run_suite(
    memory: int = 1, seed: int = 0, params: PayoffParams = PayoffParams()
) -> list:
    """Run every property check and return the results in a fixed order.

    The default params are the game's defaults (b = 1, c = 0.3); the one
    shared instance is safe because PayoffParams is frozen.
    """
    rng = np.random.default_rng(seed)
    checks = [
        _check_stochasticity(rng, memory),
        _check_construction(rng, memory),
        _check_payoff(rng, memory, params),
        _check_reversal(memory, params),
        _check_symmetry(rng, memory, params),
    ]
    if memory == 1:
        starts = rng.uniform(0.1, 0.9, (10, 4))
        checks.append(_check_conservation(starts, params))
        checks.append(_check_field_kernels(starts, params))
        checks.append(_check_torus(rng, params))
    checks.append(_check_oracle(rng, memory, params))
    return checks
