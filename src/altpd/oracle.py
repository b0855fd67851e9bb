"""Monte Carlo simulation of the alternating game, round by round.

This module deliberately knows nothing about transition matrices or
stationary solves: it plays the game (leader draws, follower draws knowing
the leader's move, history shifts) so its statistics can arbitrate the
analytic routes. Randomness comes from numpy's PCG64 generator with an
explicit seed; results are bit-for-bit reproducible per seed.

Each chunk of draws is split into blocks of _BLOCK consecutive rounds and
played in three stages:

1. Speculate: every block starts at the chunk's carried state, and all
   blocks step together in numpy, one step per round position.
2. Repair: a block's true start is the previous block's end. All blocks
   step again from there, rewriting their records, until every block has
   met its recorded path. From that round on the two paths share their
   draws, so they are one path: chains driven by common random numbers
   coalesce (Propp and Wilson 1996).
3. Walk: a block whose previous block never met its record starts from
   the wrong state. In round order, each such stretch is replayed round
   by round from its true start until a block ends on its record.

The states are bit-identical to playing the rounds one at a time, for
every pair: coupling decides only the speed, never the result. Pairs whose
paths never meet, such as a deterministic memory-2 pair on a cycle, leave
nearly every block to the walk and run about 1.5x slower than the plain
round loop would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .strategy import PayoffParams, Strategy, _shared_memory

__all__ = ["SimulationResult", "simulate"]

_CHUNK = 1 << 16
# Rounds per lockstep block. Over 220k rounds of random pairs, 32 leaves
# about 23k rounds per run to the walk at N = 3 and doubles its time, 128
# doubles the cost of stage 1 (+20-30% at N = 1 and 2), and 64 walks about
# 2k rounds at N = 3.
_BLOCK = 64


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
    although successive rounds are correlated through the chain.

    The rounds are evaluated in lockstep blocks repaired by coupling (see
    the module docstring), with the same draws and bit-identical results
    as playing them one at a time; a pair that never couples costs about
    1.5x the plain loop. rounds, burn_in and seed must be integers
    (bool is refused), seed non-negative; ValueError otherwise.
    """
    _shared_memory(p, q)
    rounds = _integer("rounds", rounds)
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    burn_in = rounds // 10 if burn_in is None else _integer("burn_in", burn_in)
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValueError("seed must be >= 0")

    rng = np.random.Generator(np.random.PCG64(seed))
    h = int(rng.integers(p.n_states))
    tables = _tables(p, q)
    h = _run(rng, tables, h, burn_in)
    counts = np.zeros(p.n_states, dtype=np.int64)
    _run(rng, tables, h, rounds, counts)
    state_counts = counts.tolist()
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


def _tables(p, q):
    # The leader's probability at history h; then, at x = (h << 1) | a with
    # the leader's fresh move a shifted in, the follower's probability and
    # the state after the follower's C (after D it is one more).
    mask = p.n_states - 1
    x = np.arange(2 * p.n_states)
    return p.probs, q.probs[x & mask], (x << 1) & mask


def _run(rng, tables, h, total, counts=None):
    # Draws come in chunks of _CHUNK rounds; when recording, each chunk's
    # states are added to counts.
    done = 0
    while done < total:
        count = min(_CHUNK, total - done)
        states = _play_chunk(tables, h, rng.random(2 * count))
        if counts is not None:
            counts += np.bincount(states, minlength=counts.size)
        h = int(states[-1])
        done += count
    return h


def _step(tables, s, u):
    # One round from every state in s, with u[0] against the leader and
    # u[1] against the follower.
    lead, follow, succ = tables
    x = (s << 1) | (u[0] >= lead[s])
    return succ[x] | (u[1] >= follow[x])


def _play_chunk(tables, h, u):
    """The state after each round of one chunk played from h on draws u."""
    rounds = u.size // 2
    k = -(-rounds // _BLOCK)
    # draws[t, :, j] are the two draws of round t in block j; the zeros
    # padding a short last block are never read back.
    draws = np.zeros((_BLOCK, 2, k))
    full = rounds // _BLOCK
    cut = 2 * _BLOCK * full
    draws[:, :, :full] = u[:cut].reshape(full, _BLOCK, 2).transpose(1, 2, 0)
    if full < k:
        tail = u[cut:].reshape(-1, 2)
        draws[: len(tail), :, full] = tail

    # Stage 1: start every block at h and step all of them together.
    path = np.empty((_BLOCK, k), dtype=np.intp)
    s = np.full(k, h, dtype=np.intp)
    for t in range(_BLOCK):
        s = path[t] = _step(tables, s, draws[t])

    # Stage 2: a block's true start is the previous block's end. Re-step
    # every block from there until each meets its recorded path: from
    # then on the draws are shared, so the paths are the same.
    start = np.empty(k, dtype=np.intp)
    start[0] = h
    start[1:] = path[-1, :-1]
    s = start
    for t in range(_BLOCK):
        s = _step(tables, s, draws[t])
        if np.array_equal(s, path[t]):
            break
        path[t] = s

    # Stage 3: each block's path now runs from start[j], and a block whose
    # previous block never merged starts from the wrong state. In round
    # order, replay from the true state until a block ends on its record.
    states = path.T.reshape(-1)[:rounds]
    stale = np.flatnonzero(start[1:] != path[-1, :-1]) + 1
    done = 0
    for i in (stale * _BLOCK).tolist():
        if i >= done:
            done = _walk(tables, u, states, i)
    return states


def _walk(tables, u, states, i):
    # Replay whole blocks from round i, on the state after round i - 1,
    # until a block ends in its recorded state. The record is one path on
    # the same draws, so the replay met it inside the block and the next
    # block's start is unchanged. Returns the round after the last block
    # replayed. Only the replayed blocks' draws become lists.
    lead, follow, succ = (t.tolist() for t in tables)
    first = i
    s = int(states[i - 1])
    new = []
    push = new.append
    while i < states.size:
        stop = min(i + _BLOCK, states.size)
        draws = iter(u[2 * i : 2 * stop].tolist())
        for u0, u1 in zip(draws, draws):
            x = s << 1 if u0 < lead[s] else (s << 1) | 1
            s = succ[x] if u1 < follow[x] else succ[x] | 1
            push(s)
        i = stop
        if s == states[i - 1]:
            break
    states[first:i] = new
    return i
