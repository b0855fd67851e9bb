"""Monte Carlo simulation of the alternating game, round by round.

This module deliberately knows nothing about transition matrices or
stationary solves: it plays the game (leader draws, follower draws knowing
the leader's move, history shifts) so its statistics can arbitrate the
analytic routes. Randomness comes from numpy's PCG64 generator with an
explicit seed; results are bit-for-bit reproducible per seed.
"""

from __future__ import annotations

import operator
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
    state_frequencies counts the post-round chain states; a round's
    (leader, follower) outcome is the low two bits of its post-round state,
    so the payoff tally is summed from those counts. std_error is the
    per-round sample standard deviation over sqrt(rounds), the iid formula,
    although successive rounds are correlated through the chain. rounds
    and burn_in must be integers (bool is refused); ValueError otherwise.
    """
    if p.memory != q.memory:
        raise ValueError("leader and follower must share the same memory length")
    rounds = _integer("rounds", rounds)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    burn_in = rounds // 10 if burn_in is None else _integer("burn_in", burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    n = p.n_states
    mask = n - 1
    rng = np.random.Generator(np.random.PCG64(seed))
    h = int(rng.integers(n))
    # Per-state tables: the leader's probability, the follower's after the
    # leader's C and D, and the successor state after each (a, b) outcome.
    p_list = p.probs.tolist()
    q_list = q.probs.tolist()
    qc = [q_list[(s << 1) & mask] for s in range(n)]
    qd = [q_list[((s << 1) | 1) & mask] for s in range(n)]
    succ = [[((s << 2) | o) & mask for s in range(n)] for o in range(4)]
    tables = (p_list, qc, qd, *succ)

    h = _run(rng, tables, h, burn_in, [0] * n)
    state_counts = [0] * n
    _run(rng, tables, h, rounds, state_counts)
    outcome_counts = [sum(state_counts[o::4]) for o in range(4)]

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


def _integer(name, value):
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _run(rng, tables, h, total, counts):
    # Uniform draws are pre-generated in chunks; the loop itself is plain
    # Python over lists indexed by the current state.
    p, qc, qd, cc, cd, dc, dd = tables
    done = 0
    while done < total:
        count = min(_CHUNK, total - done)
        u = rng.random(2 * count).tolist()
        for u0, u1 in zip(u[::2], u[1::2]):
            if u0 < p[h]:
                h = cc[h] if u1 < qc[h] else cd[h]
            else:
                h = dc[h] if u1 < qd[h] else dd[h]
            counts[h] += 1
        done += count
    return h
