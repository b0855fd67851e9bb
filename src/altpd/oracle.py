"""Monte Carlo simulation of the alternating game, round by round.

This module deliberately knows nothing about transition matrices or
stationary solves: it plays the game (leader draws, follower draws knowing
the leader's move, history shifts) so its statistics can arbitrate the
analytic routes. Randomness comes from numpy's PCG64 generator with an
explicit seed; results are bit-for-bit reproducible per seed.

The burn-in and recorded rounds are one stream of draws, cut into equal
chunks of at most _CHUNK rounds. Each chunk is split into blocks of
_BLOCK consecutive rounds and played in three stages:

1. Speculate: every block starts at the chunk's carried state, and all
   blocks step together in numpy, one step per round position.
2. Repair: a block's true start is the previous block's end. All blocks
   step again from there, rewriting their records, until at most
   _STRAGGLERS blocks still differ from their recorded path. A block that
   has met its record shares its draws with it from that round on, so the
   two are one path: chains driven by common random numbers coalesce
   (Propp and Wilson 1996).
3. Walk: in round order, each straggler is replayed round by round from
   the round where stage 2 stopped, and on through the following blocks
   until a block ends on its record.

The states are bit-identical to playing the rounds one at a time, for
every pair: neither the chunk cuts nor coupling change the result, only
the speed. Pairs whose paths never meet, such as a deterministic memory-2
pair on a cycle, leave nearly every block to the walk and run about 1.25x
slower than the plain round loop would.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .strategy import PayoffParams, Strategy, _shared_memory

__all__ = ["SimulationResult", "simulate"]

_CHUNK = 1 << 16
# Rounds per lockstep block. Over 220k rounds of random pairs, 64 walks
# about 2.3k rounds per run at N = 3. 32 is about 10% faster at N = 1 but
# walks about 22k rounds at N = 3 and takes 1.45x as long there; 128
# doubles the lockstep steps and takes about 1.25x as long at N = 1 and 2.
_BLOCK = 64
# Stage 2 stops once at most this many blocks still differ from their
# record, and the walk finishes them. A lockstep step over a 55k-round
# chunk costs about as much as 100 walked rounds. At N = 3 a few blocks
# per chunk never meet their record, and at N = 1 every block meets it
# within about 10 steps. Over the 12 random pairs of the oracle benchmark,
# 8 cuts stage 2 from 33, 144 and 254 steps per 220k-round run at N = 1,
# 2 and 3 to 20, 92 and 235. Values from 2 to 16 run within noise of one
# another: fewer favour N = 1, more favour N = 3.
_STRAGGLERS = 8


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
    1.25x the plain loop. rounds, burn_in and seed must be integers
    (bool is refused), seed non-negative; ValueError otherwise.
    """
    _shared_memory(p, q)
    rounds = _integer("rounds", rounds, 1)
    burn_in = rounds // 10 if burn_in is None else _integer("burn_in", burn_in, 0)
    seed = _integer("seed", seed, 0)

    rng = np.random.Generator(np.random.PCG64(seed))
    h = int(rng.integers(p.n_states))
    tables = _tables(p, q)
    counts = np.zeros(p.n_states, dtype=np.int64)
    _run(rng, tables, h, burn_in, rounds, counts)
    state_counts = counts.tolist()
    outcome_counts = [sum(state_counts[o::4]) for o in range(4)]

    values = params.rstp
    mean = sum(c * v for c, v in zip(outcome_counts, values)) / rounds
    b = params.b  # the variance is in units of b: no square overflows or underflows
    if rounds > 1:
        var = sum(c * (v / b - mean / b) ** 2 for c, v in zip(outcome_counts, values))
        var /= rounds - 1
    else:
        var = 0.0
    return SimulationResult(
        mean_payoff=mean,
        std_error=b * float(np.sqrt(var / rounds)),
        state_frequencies=np.array(state_counts) / rounds,
        rounds=rounds,
        burn_in=burn_in,
        seed=seed,
        memory=p.memory,
        params=params,
    )


def _integer(name, value, minimum):
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}")
            return value
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _tables(p, q):
    # The leader's probability at history h; then, at x = (h << 1) | a with
    # the leader's fresh move a shifted in, the follower's probability and
    # the state after the follower's C (after D it is one more).
    mask = p.n_states - 1
    x = np.arange(2 * p.n_states)
    return p.probs, q.probs[x & mask], (x << 1) & mask


def _run(rng, tables, h, burn_in, rounds, counts):
    # Play burn_in + rounds rounds from h as one stream of draws cut into
    # equal chunks of at most _CHUNK rounds; the stream does not depend on
    # where it is cut. Adds each recorded round's state to counts and
    # returns the state after the last round.
    total = burn_in + rounds
    chunks = -(-total // _CHUNK)
    done = 0
    for j in range(1, chunks + 1):
        count = total * j // chunks - done
        states = _play_chunk(tables, h, rng.random(2 * count))
        if done + count > burn_in:
            counts += np.bincount(states[max(burn_in - done, 0) :], minlength=counts.size)
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
    # every block from there, rewriting its record, until at most
    # _STRAGGLERS blocks still differ from it: a block that meets its
    # record shares its draws with it from then on, so the paths are the
    # same.
    s = np.empty(k, dtype=np.intp)
    s[0] = h
    s[1:] = path[-1, :-1]
    for t in range(_BLOCK):
        s = _step(tables, s, draws[t])
        behind = s != path[t]
        path[t] = s
        if np.count_nonzero(behind) <= _STRAGGLERS:
            break

    # Stage 3: each block's record now follows it from its given start up
    # to its round t, and to its end if it met the record. In round order,
    # walk each straggler on from round t + 1, and on through the next
    # blocks until one ends on its record: a record that does not end where
    # the next block was started is a straggler's, whose walk covers that
    # block.
    states = path.T.reshape(-1)[:rounds]
    lists = [table.tolist() for table in tables]
    done = 0
    for i in (np.flatnonzero(behind) * _BLOCK + t + 1).tolist():
        if done <= i < rounds:
            done = _walk(lists, u, states, i)
    return states


def _walk(tables, u, states, i):
    # Replay from round i, on the state after round i - 1, to the end of
    # its block and on through whole blocks until one ends in its recorded
    # state. tables are lists; returns the round after the last one
    # replayed.
    lead, follow, succ = tables
    first = i
    s = int(states[i - 1])
    new = []
    push = new.append
    while i < states.size:
        stop = min((i // _BLOCK + 1) * _BLOCK, states.size)
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
