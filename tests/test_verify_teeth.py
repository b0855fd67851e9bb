"""Every `altpd verify` check can fail: each corrupted route turns exactly
its own checks red, and the clean suite stays green.

Each case patches one route in process and runs `run_suite()` at its
defaults (memory 1, seed 0), as `altpd verify` runs it.
"""

import numpy as np
import pytest

import altpd.dynamics
import altpd.payoff
import altpd.verify
from altpd.chain import TransitionMatrix
from altpd.verify import run_suite

CHECKS = {
    "row stochasticity",
    "construction equivalence",
    "payoff cross-check",
    "reversal identity",
    "symmetry conjugation",
    "conservation",
    "field kernel agreement",
    "torus commuting diagram",
    "oracle agreement",
}


def _swap_in_row_3(build):
    # Swap the largest and the smallest entry of row 3, so the swap moves
    # probability whatever the row's zeros.
    def corrupted(p, q):
        matrix = build(p, q)
        entries = matrix.entries.copy()
        row = entries[3]
        hi, lo = int(np.argmax(row)), int(np.argmin(row))
        row[hi], row[lo] = row[lo], row[hi]
        return TransitionMatrix(matrix.memory, entries)

    return corrupted


def _tilt(solve):
    # nu_h * (1 + 1e-6 h), renormalized.
    def corrupted(matrix):
        nu = solve(matrix) * (1.0 + 1e-6 * np.arange(matrix.entries.shape[0]))
        return nu / nu.sum()

    return corrupted


def _scale_g1(kernel):
    def corrupted(x1, x2, x3, x4, b, c):
        g1, g2, g3, g4 = kernel(x1, x2, x3, x4, b, c)
        return g1 * (1.0 + 1e-4), g2, g3, g4

    return corrupted


def _scale_g1_rows(kernel):
    # The batch kernel takes and returns coordinate-first arrays.
    def corrupted(y, b, c):
        field = kernel(y, b, c)
        field[0] *= 1.0 + 1e-4
        return field

    return corrupted


def _shift_x1(to_cube):
    def corrupted(pt):
        x = to_cube(pt)
        x[0] += 1e-5
        return x

    return corrupted


def _offset(payoff):
    def corrupted(p, q, params):
        return payoff(p, q, params) + 0.01

    return corrupted


# (id, module, attribute, corruption, checks that must turn red)
CASES = [
    ("recursive-matrix", altpd.verify, "build_matrix_recursive", _swap_in_row_3,
     {"construction equivalence"}),
    ("stationary-tilted", altpd.payoff, "stationary", _tilt, {"payoff cross-check"}),
    ("array-field-kernel", altpd.dynamics, "_field_array", _scale_g1_rows,
     {"field kernel agreement"}),
    ("scalar-field-kernel", altpd.dynamics, "_field_scalar", _scale_g1,
     {"conservation", "field kernel agreement"}),
    ("to-cube", altpd.verify, "to_cube", _shift_x1, {"torus commuting diagram"}),
    ("stationary-payoff", altpd.verify, "payoff_by_stationary", _offset,
     {"payoff cross-check", "oracle agreement"}),
]


def _failed(results):
    assert {r.name for r in results} == CHECKS
    return {r.name for r in results if not r.passed}


def test_clean_suite_is_all_green():
    assert _failed(run_suite()) == set()


@pytest.mark.parametrize(
    "module, attribute, corrupt, red",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_a_corrupted_route_turns_exactly_its_checks_red(
    monkeypatch, module, attribute, corrupt, red
):
    monkeypatch.setattr(module, attribute, corrupt(getattr(module, attribute)))
    assert _failed(run_suite()) == red
