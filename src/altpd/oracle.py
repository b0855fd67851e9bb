"""Monte Carlo simulation of the alternating game, round by round.

This module deliberately knows nothing about transition matrices or
stationary solves: it plays the game (leader draws, follower draws knowing
the leader's move, history shifts) so its statistics can arbitrate the
analytic routes. Randomness comes from numpy's PCG64 generator with an
explicit seed; results are bit-for-bit reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .strategy import PayoffParams, Strategy

__all__ = ["SimulationResult", "simulate"]

_CHUNK = 1 << 16


@dataclass(frozen=True)
class SimulationResult:
    mean_payoff: float
    std_error: float
    state_frequencies: np.ndarray
    rounds: int
    burn_in: int
    seed: int
    memory: int
    params: PayoffParams

    def to_dict(self) -> dict:
        return {
            "mean_payoff": self.mean_payoff,
            "std_error": self.std_error,
            "state_frequencies": list(self.state_frequencies),
            "rounds": self.rounds,
            "burn_in": self.burn_in,
            "seed": self.seed,
            "memory": self.memory,
            "params": {"b": self.params.b, "c": self.params.c},
        }


def simulate(
    p: Strategy,
    q: Strategy,
    params: PayoffParams,
    rounds: int,
    burn_in: int = None,
    seed: int = 0,
) -> SimulationResult:
    """Play burn_in warm-up rounds plus `rounds` recorded rounds.

    The initial history is drawn uniformly from the 4^N states. Each round
    the leader cooperates with probability p[h], the follower with
    probability q[k] where k conditions on the leader's fresh move, and the
    round's payoff is the R/S/T/P total for the (leader, follower) pair.
    std_error is the per-round sample standard deviation over sqrt(rounds);
    state_frequencies counts the post-round chain states.
    """
    if p.memory != q.memory:
        raise ValueError("leader and follower must share the same memory length")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if burn_in is None:
        burn_in = rounds // 10
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    n = p.n_states
    mask = n - 1
    rng = np.random.Generator(np.random.PCG64(seed))
    h = int(rng.integers(n))
    p_list = p.probs.tolist()
    q_list = q.probs.tolist()
    state_counts = [0] * n
    outcome_counts = [0, 0, 0, 0]

    h = _run(rng, p_list, q_list, mask, h, burn_in, None, None)
    _run(rng, p_list, q_list, mask, h, rounds, state_counts, outcome_counts)

    values = params.rstp
    mean = sum(c * v for c, v in zip(outcome_counts, values)) / rounds
    if rounds > 1:
        var = sum(c * (v - mean) ** 2 for c, v in zip(outcome_counts, values))
        var /= rounds - 1
    else:
        var = 0.0
    return SimulationResult(
        mean_payoff=mean,
        std_error=float(np.sqrt(var / rounds)),
        state_frequencies=np.array(state_counts) / rounds,
        rounds=rounds,
        burn_in=burn_in,
        seed=seed,
        memory=p.memory,
        params=params,
    )


def _run(rng, p_list, q_list, mask, h, total, state_counts, outcome_counts):
    # Uniform draws are pre-generated in chunks; the loop itself is plain
    # Python over a list, which keeps a million rounds under a second.
    recording = state_counts is not None
    done = 0
    while done < total:
        count = min(_CHUNK, total - done)
        u = rng.random(2 * count).tolist()
        ui = 0
        for _ in range(count):
            a = 0 if u[ui] < p_list[h] else 1
            b = 0 if u[ui + 1] < q_list[((h << 1) | a) & mask] else 1
            ui += 2
            h = ((h << 2) | (a << 1) | b) & mask
            if recording:
                outcome_counts[(a << 1) | b] += 1
                state_counts[h] += 1
        done += count
    return h
