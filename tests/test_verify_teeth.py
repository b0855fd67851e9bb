"""Every `altpd verify` check can fail: each corrupted route turns exactly
its own checks red, and the clean suite stays green.

Each case patches one route in process and runs `run_suite(memory=N)` at
seed 0, as `altpd verify --n N` runs it. Memory 1 runs every check; the
exact payoff vector is also corrupted at memory 3, which runs every check
but the three memory-1 field checks, and the determinant payoff at
b = 1e-6, where the payoff deviations are measured in units of b.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import altpd.dynamics
import altpd.payoff
import altpd.symmetry
import altpd.verify
from altpd.chain import TransitionMatrix
from altpd.strategy import PayoffParams
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
MEMORY_ONE_ONLY = {"conservation", "field kernel agreement", "torus commuting diagram"}


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


def _bump_f0(exact):
    # One payoff entry off by 1e-6, exactly.
    def corrupted(params, memory):
        f = exact(params, memory)
        f[0] += Fraction(1, 10**6)
        return f

    return corrupted


def _scale_relative(payoff):
    def corrupted(p, q, params):
        return payoff(p, q, params) * (1.0 + 1e-8)

    return corrupted


def _nan(route):
    def corrupted(*args, **kwargs):
        return np.nan

    return corrupted


def _nan_at_0(to_cube):
    def corrupted(pt):
        x = to_cube(pt)
        x[0] = np.nan
        return x

    return corrupted


def _nan_entry(build):
    def corrupted(p, q):
        matrix = build(p, q)
        entries = matrix.entries.copy()
        entries[3, 0] = np.nan
        return TransitionMatrix(matrix.memory, entries)

    return corrupted


def _nan_mean(simulate):
    def corrupted(*args, **kwargs):
        return dataclasses.replace(simulate(*args, **kwargs), mean_payoff=np.nan)

    return corrupted


def _nan_second_drift(drift):
    def corrupted(*args):
        d1, d2 = drift(*args)
        return d1, np.full_like(d2, np.nan)

    return corrupted


# (id, module, attribute, corruption, memory, checks that must turn red)
CASES = [
    ("recursive-matrix", altpd.verify, "build_matrix_recursive", _swap_in_row_3, 1,
     {"construction equivalence"}),
    ("stationary-tilted", altpd.payoff, "stationary", _tilt, 1, {"payoff cross-check"}),
    # verify_admissibility's payoff test holds by construction for an
    # equivariant solve, so only a solve that is not equivariant fails it.
    ("symmetry-stationary-tilted", altpd.symmetry, "stationary", _tilt, 1,
     {"symmetry conjugation"}),
    ("array-field-kernel", altpd.dynamics, "_field_array", _scale_g1_rows, 1,
     {"field kernel agreement"}),
    ("scalar-field-kernel", altpd.dynamics, "_field_scalar", _scale_g1, 1,
     {"conservation", "field kernel agreement", "torus commuting diagram"}),
    ("to-cube", altpd.verify, "to_cube", _shift_x1, 1, {"torus commuting diagram"}),
    ("stationary-payoff", altpd.verify, "payoff_by_stationary", _offset, 1,
     {"payoff cross-check", "oracle agreement"}),
    ("exact-payoff-vector", altpd.verify, "_exact_payoff_vector", _bump_f0, 1,
     {"reversal identity"}),
    ("exact-payoff-vector-memory-three", altpd.verify, "_exact_payoff_vector",
     _bump_f0, 3, {"reversal identity"}),
    # NaN routes: a fold on Python's max would drop them, since
    # max(worst, nan) keeps worst.
    ("stationary-payoff-nan", altpd.verify, "payoff_by_stationary", _nan, 1,
     {"payoff cross-check", "oracle agreement"}),
    ("determinant-payoff-nan", altpd.verify, "payoff_by_determinant", _nan, 1,
     {"payoff cross-check"}),
    ("to-cube-nan", altpd.verify, "to_cube", _nan_at_0, 1, {"torus commuting diagram"}),
    ("recursive-matrix-nan", altpd.verify, "build_matrix_recursive", _nan_entry, 1,
     {"construction equivalence"}),
    ("simulate-nan-mean", altpd.verify, "simulate", _nan_mean, 1, {"oracle agreement"}),
    ("conservation-drift-nan", altpd.verify, "conservation_drift", _nan_second_drift, 1,
     {"conservation"}),
]


def _failed(results, memory=1):
    expected = CHECKS if memory == 1 else CHECKS - MEMORY_ONE_ONLY
    assert {r.name for r in results} == expected
    return {r.name for r in results if not r.passed}


def test_clean_suite_is_all_green():
    assert _failed(run_suite()) == set()


@pytest.mark.parametrize(
    "module, attribute, corrupt, memory, red",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_a_corrupted_route_turns_exactly_its_checks_red(
    monkeypatch, module, attribute, corrupt, memory, red
):
    monkeypatch.setattr(module, attribute, corrupt(getattr(module, attribute)))
    assert _failed(run_suite(memory=memory), memory) == red


def test_a_relative_payoff_error_is_red_at_a_small_benefit(monkeypatch):
    # At b = 1e-6 a determinant route off by a relative 1e-8 is off by
    # about 8e-15 absolute; the payoff deviations are in units of b, so the
    # cross-check sees it as about 8e-9 against 1e-9.
    route = altpd.verify.payoff_by_determinant
    monkeypatch.setattr(altpd.verify, "payoff_by_determinant", _scale_relative(route))
    assert _failed(run_suite(params=PayoffParams(b=1e-6, c=3e-7))) == {"payoff cross-check"}
