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


def _bit_loop(p, q, rounds, burn_in, seed):
    """Reference: each round's moves and next state by history bit shifts.

    Returns (state_counts, outcome_counts) over the recorded rounds, with
    the same draws as simulate.
    """
    mask = p.n_states - 1
    rng = np.random.Generator(np.random.PCG64(seed))
    h = int(rng.integers(p.n_states))
    state_counts = [0] * p.n_states
    outcome_counts = [0] * 4
    for total, recording in ((burn_in, False), (rounds, True)):
        done = 0
        while done < total:
            count = min(1 << 16, total - done)
            u = rng.random(2 * count).tolist()
            for i in range(count):
                a = 0 if u[2 * i] < p.probs[h] else 1
                b = 0 if u[2 * i + 1] < q.probs[((h << 1) | a) & mask] else 1
                h = ((h << 2) | (a << 1) | b) & mask
                if recording:
                    outcome_counts[(a << 1) | b] += 1
                    state_counts[h] += 1
            done += count
    return state_counts, outcome_counts


@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize("rounds, burn_in", [(70_000, None), (1000, 0)])
def test_matches_the_bit_arithmetic_loop(memory, rounds, burn_in):
    rng = np.random.default_rng(memory)
    p, q = random_strategy(memory, rng), random_strategy(memory, rng)
    result = simulate(p, q, PARAMS, rounds=rounds, burn_in=burn_in, seed=memory)
    state_counts, outcome_counts = _bit_loop(p, q, rounds, result.burn_in, memory)
    assert np.array_equal(result.state_frequencies, np.array(state_counts) / rounds)
    mean = sum(c * v for c, v in zip(outcome_counts, PARAMS.rstp)) / rounds
    var = sum(c * (v - mean) ** 2 for c, v in zip(outcome_counts, PARAMS.rstp))
    assert result.mean_payoff == mean
    assert result.std_error == float(np.sqrt(var / (rounds - 1) / rounds))


def test_integer_counts_accept_numpy_integers():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    a = simulate(p, q, PARAMS, rounds=np.int64(500), burn_in=np.int64(5), seed=1)
    b = simulate(p, q, PARAMS, rounds=500, burn_in=5, seed=1)
    assert a.mean_payoff == b.mean_payoff and type(a.rounds) is int


@pytest.mark.parametrize(
    "memories, kwargs, match",
    [
        pytest.param((1, 2), {"rounds": 10}, "memory", id="mixed-memory"),
        pytest.param((1, 1), {"rounds": 0}, "rounds", id="zero-rounds"),
        pytest.param(
            (1, 1), {"rounds": 10, "burn_in": -1}, "burn_in", id="negative-burn-in"
        ),
        pytest.param((1, 1), {"rounds": 1000.0}, "rounds", id="float-rounds"),
        pytest.param((1, 1), {"rounds": True}, "rounds", id="bool-rounds"),
        pytest.param((1, 1), {"rounds": "10"}, "rounds", id="str-rounds"),
        pytest.param(
            (1, 1), {"rounds": 10, "burn_in": 2.0}, "burn_in", id="float-burn-in"
        ),
        pytest.param(
            (1, 1), {"rounds": 10, "burn_in": False}, "burn_in", id="bool-burn-in"
        ),
    ],
)
def test_input_validation(memories, kwargs, match):
    with pytest.raises(ValueError, match=match):
        simulate(all_c(memories[0]), all_c(memories[1]), PARAMS, **kwargs)
