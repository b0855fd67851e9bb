"""Round-by-round simulation against the analytic machinery."""

import numpy as np
import pytest

from altpd.chain import build_matrix_direct, stationary
from altpd.oracle import simulate
from altpd.payoff import payoff_by_stationary
from altpd.strategy import PayoffParams, Strategy, all_c, random_strategy

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)


def test_full_cooperation_pays_r_exactly():
    result = simulate(all_c(1), all_c(1), PARAMS, rounds=1000, seed=3)
    assert result.mean_payoff == PARAMS.r
    assert result.std_error == 0.0
    assert np.array_equal(result.state_frequencies, [1.0, 0.0, 0.0, 0.0])


def test_uniform_pair_approaches_the_table_average():
    half = Strategy(np.full(4, 0.5))
    result = simulate(half, half, PARAMS, rounds=10**6, seed=4)
    assert abs(result.mean_payoff - 0.35) < 3 * result.std_error
    assert np.max(np.abs(result.state_frequencies - 0.25)) < 3 / np.sqrt(
        result.rounds
    )


def test_matches_analytic_payoff_and_stationary():
    for seed in range(3):
        p, q = random_strategy(1, RNG), random_strategy(1, RNG)
        result = simulate(p, q, PARAMS, rounds=10**6, seed=seed)
        analytic = payoff_by_stationary(p, q, PARAMS)
        assert abs(result.mean_payoff - analytic) < 3 * result.std_error
        nu = stationary(build_matrix_direct(p, q))
        assert np.max(np.abs(result.state_frequencies - nu)) < 5 / np.sqrt(
            result.rounds
        )


def test_memory_two_agreement():
    p, q = random_strategy(2, RNG), random_strategy(2, RNG)
    result = simulate(p, q, PARAMS, rounds=10**6, seed=11)
    analytic = payoff_by_stationary(p, q, PARAMS)
    assert abs(result.mean_payoff - analytic) < 3 * result.std_error


def test_deterministic_per_seed():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    a = simulate(p, q, PARAMS, rounds=5000, seed=42)
    b = simulate(p, q, PARAMS, rounds=5000, seed=42)
    assert a.mean_payoff == b.mean_payoff
    assert a.std_error == b.std_error
    assert np.array_equal(a.state_frequencies, b.state_frequencies)
    c = simulate(p, q, PARAMS, rounds=5000, seed=43)
    assert c.mean_payoff != a.mean_payoff


def test_round_payoffs_stay_on_the_table_lattice():
    # Every recorded round pays one of R, S, T, P; with B=1, C=0.3 each
    # value is a multiple of 0.1, so the round total is too.
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    result = simulate(p, q, PARAMS, rounds=997, seed=9)
    total_tenths = result.mean_payoff * result.rounds * 10
    assert abs(total_tenths - round(total_tenths)) < 1e-6


def test_std_error_scales_as_inverse_sqrt_rounds():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    errors = {
        rounds: simulate(p, q, PARAMS, rounds=rounds, seed=21).std_error
        for rounds in (10**4, 10**5, 10**6)
    }
    for small, large in ((10**4, 10**5), (10**5, 10**6)):
        ratio = errors[small] / errors[large]
        assert np.sqrt(10) / 2 < ratio < 2 * np.sqrt(10)


def test_burn_in_defaults_to_a_tenth():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    assert simulate(p, q, PARAMS, rounds=1000, seed=0).burn_in == 100
    assert simulate(p, q, PARAMS, rounds=1000, burn_in=7, seed=0).burn_in == 7


def test_result_exports_with_seed_and_params():
    p, q = random_strategy(2, RNG), random_strategy(2, RNG)
    d = simulate(p, q, PARAMS, rounds=100, seed=5).to_dict()
    assert d["seed"] == 5 and d["memory"] == 2
    assert d["params"] == {"b": 1.0, "c": 0.3}
    assert len(d["state_frequencies"]) == 16


def test_input_validation():
    with pytest.raises(ValueError):
        simulate(all_c(1), all_c(2), PARAMS, rounds=10)
    with pytest.raises(ValueError):
        simulate(all_c(1), all_c(1), PARAMS, rounds=0)
    with pytest.raises(ValueError):
        simulate(all_c(1), all_c(1), PARAMS, rounds=10, burn_in=-1)
