"""Memory-N strategies for the alternating prisoner's dilemma.

Encoding contract used throughout the package:

* A game history is a word of 2N symbols over {C, D}, oldest round first.
  Within each round the leader's choice comes before the follower's reply,
  so the leader's word reads (x_N, y_N, ..., x_1, y_1) with x_k / y_k the
  leader / follower choices k rounds ago.
* C maps to bit 0 and D to bit 1; the first symbol is the most significant
  bit, so a word is read as a base-2 integer in [0, 4^N).
* The follower decides knowing the leader's choice of the current round:
  its conditioning word drops the oldest leader symbol and appends the
  leader's fresh choice (own action N rounds ago first, then alternating
  leader/follower pairs, then the fresh leader action).
* Each round moves the game from history h to the word that drops h's
  oldest round and appends the fresh pair (a, b). `_shift_in` states this
  rule once and `_successor_table` tabulates it per memory; the slot masks
  `_mask_even` / `_mask_odd` pick each seat's symbols out of a word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache

import numpy as np

__all__ = [
    "Action",
    "History",
    "Strategy",
    "PayoffParams",
    "RawPayoffs",
    "encode_history",
    "decode_history",
    "follower_index",
    "state_label",
    "validate_raw",
    "raw_from_donation",
    "all_c",
    "all_d",
    "random_strategy",
    "tit_for_tat",
]


class Action(IntEnum):
    """Cooperate / defect, with the bit values used in history words."""

    C = 0
    D = 1

    @classmethod
    def parse(cls, value) -> "Action":
        if isinstance(value, Action):
            return value
        if isinstance(value, str) and value.upper() in ("C", "D"):
            return cls[value.upper()]
        if value in (0, 1):
            return cls(int(value))
        raise ValueError(f"action must be one of C, D, 0, 1; got {value!r}")


def _validate_word(word: str) -> None:
    if len(word) < 2 or len(word) % 2 != 0:
        raise ValueError("history length must be 2N")
    bad = set(word) - {"C", "D"}
    if bad:
        raise ValueError(f"history symbols must be C or D; got {sorted(bad)}")


@dataclass(frozen=True)
class History:
    """A 2N-symbol history word, oldest round first."""

    word: str

    def __post_init__(self):
        _validate_word(self.word)

    @property
    def memory(self) -> int:
        return len(self.word) // 2

    @property
    def index(self) -> int:
        return encode_history(self.word)


def encode_history(history) -> int:
    """Binary index of a history word (C=0, D=1, first symbol most significant)."""
    word = history.word if isinstance(history, History) else str(history)
    _validate_word(word)
    index = 0
    for symbol in word:
        index = (index << 1) | (symbol == "D")
    return index


def decode_history(index: int, memory: int) -> History:
    """Inverse of :func:`encode_history` for a given memory length."""
    if memory < 1:
        raise ValueError("memory must be >= 1")
    n_bits = 2 * memory
    if not 0 <= index < 1 << n_bits:
        raise ValueError(f"index must lie in [0, {1 << n_bits}) for memory {memory}")
    bits = ((index >> shift) & 1 for shift in reversed(range(n_bits)))
    return History("".join("D" if b else "C" for b in bits))


def state_label(index: int, memory: int) -> str:
    """Human-readable label, round pairs joined by '|' (e.g. 'CD|DC')."""
    word = decode_history(index, memory).word
    return "|".join(word[i : i + 2] for i in range(0, len(word), 2))


def _shift_in(h, symbols, memory: int):
    """History index h with symbols appended and as many oldest ones dropped.

    (a,) gives the follower's conditioning index, (a, b) the history after
    the round; Python ints and broadcastable numpy integer arrays both work.
    """
    for symbol in symbols:
        h = (h << 1) | symbol
    return h & ((1 << (2 * memory)) - 1)


def follower_index(history, leader_action) -> int:
    """Conditioning index of the follower given the leader's fresh action.

    Drops the first symbol of the history (the leader's oldest action) and
    appends the leader's current action.
    """
    if not isinstance(history, (History, str)):
        raise ValueError("history must be a History or a history word string")
    word = history.word if isinstance(history, History) else history
    h = encode_history(word)
    return _shift_in(h, (int(Action.parse(leader_action)),), len(word) // 2)


@lru_cache(maxsize=None)
def _successor_table(memory: int):
    """(follower, successor) as nested tuples of ints: follower[h][a] is the
    follower's conditioning index at history h after the leader's choice a,
    and successor[h][a][b] the history after the round (a, b)."""
    h = np.arange(4**memory)[:, None]
    bit = np.arange(2)
    follower = _shift_in(h, (bit,), memory).tolist()
    successor = _shift_in(h[:, :, None], (bit[:, None], bit), memory).tolist()
    return (
        tuple(map(tuple, follower)),
        tuple(tuple(map(tuple, row)) for row in successor),
    )


def _mask_even(memory: int) -> int:
    # 0b01 repeated per round: the co-player's slots of a leader history,
    # or the leader's slots of a follower word.
    return (4**memory - 1) // 3


def _mask_odd(memory: int) -> int:
    # 0b10 repeated per round: the word owner's own slots.
    return 2 * (4**memory - 1) // 3


@dataclass(frozen=True)
class Strategy:
    """Vector of cooperation probabilities indexed by history words.

    probs[i] is the probability of playing C given the history with binary
    index i; the length must be 4^N for the memory-N game.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.ndim != 1:
            raise ValueError("strategy must be a flat probability vector")
        n = probs.size
        memory = 0
        while n > 1:
            if n % 4:
                raise ValueError("strategy length must be 4^N")
            n //= 4
            memory += 1
        if memory < 1:
            raise ValueError("strategy length must be 4^N with N >= 1")
        # One reduction that is also False for NaN entries.
        if not np.all((probs >= 0.0) & (probs <= 1.0)):
            raise ValueError("strategy entries must lie in [0, 1]")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_memory", memory)

    @property
    def memory(self) -> int:
        return self._memory

    @property
    def n_states(self) -> int:
        return self.probs.size

    def __getitem__(self, index: int) -> float:
        return float(self.probs[index])


def _shared_memory(p: Strategy, q: Strategy) -> int:
    """Memory of a leader/follower pair; ValueError unless both agree."""
    if p.memory != q.memory:
        raise ValueError("leader and follower must share the same memory length")
    return p.memory


def all_c(memory: int) -> Strategy:
    """Unconditional cooperation."""
    return Strategy(np.ones(4**memory))


def all_d(memory: int) -> Strategy:
    """Unconditional defection."""
    return Strategy(np.zeros(4**memory))


def random_strategy(memory: int, rng: np.random.Generator) -> Strategy:
    """Uniformly random reaction probabilities."""
    return Strategy(rng.random(4**memory))


def tit_for_tat(memory: int) -> Strategy:
    """Mirror the co-player's most recent recorded action.

    The last symbol of a conditioning word is always the co-player's freshest
    action (the follower's previous reply for the leader, the leader's current
    choice for the follower), so one rule serves both seats: cooperate iff
    that symbol is C.
    """
    n = 4**memory
    probs = np.array([1.0 - (i & 1) for i in range(n)])
    return Strategy(probs)


@dataclass(frozen=True)
class PayoffParams:
    """Donation-game parameters: benefit b and cost c with 0 < c < b.

    The per-round totals for the pair (leader action, follower action) are
    R = b - c (CC), S = -c (CD), T = b (DC), P = 0 (DD). They satisfy the
    equal-gains-from-switching identity R + P = S + T. b only rescales time:
    the field at (b, c) is b times that at (1, c/b) (see altpd.torus).
    """

    b: float = 1.0
    c: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.c < self.b < math.inf:
            raise ValueError("donation parameters require 0 < c < b, b finite")

    @property
    def r(self) -> float:
        return self.b - self.c

    @property
    def s(self) -> float:
        return -self.c

    @property
    def t(self) -> float:
        return self.b

    @property
    def p(self) -> float:
        return 0.0

    @property
    def rstp(self) -> tuple:
        return (self.r, self.s, self.t, self.p)


def _step_count(t_final: float, dt: float) -> int:
    """Number of fixed steps of size dt that reach t_final (at least one).

    Raises ValueError unless t_final, dt and t_final / dt are all finite
    and positive.
    """

    def positive(v):
        return math.isfinite(v) and v > 0.0

    if not (positive(t_final) and positive(dt) and positive(t_final / dt)):
        raise ValueError(
            "t and dt must be finite and positive, and so must t / dt; "
            f"got t_final={t_final!r}, dt={dt!r}"
        )
    return max(1, int(round(t_final / dt)))


@dataclass(frozen=True)
class RawPayoffs:
    """Per-choice payoffs: cooperating yields a to self and b to the other;
    defecting yields c to self and d to the other."""

    a: float
    b: float
    c: float
    d: float


def validate_raw(raw: RawPayoffs) -> bool:
    """Prisoner's-dilemma validity: defecting tempts (c > a) but mutual
    cooperation beats alternating exploitation (c - a < b - d)."""
    return raw.c > raw.a and (raw.c - raw.a) < (raw.b - raw.d)


def raw_from_donation(params: PayoffParams, a: float = 0.0) -> RawPayoffs:
    """A one-parameter family of valid per-choice payoffs for the donation game."""
    return RawPayoffs(a=a, b=-a + params.b, c=a + params.c, d=-a - params.c - params.b)
