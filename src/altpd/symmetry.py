"""Relabeling symmetries of the alternating game.

Four permutation matrices commute with the game structure: the identity,
the follower's C/D flip, the leader's C/D flip, and both flips together
(the anti-diagonal). They form a group isomorphic to Z2 x Z2 and extend
from memory 1 to memory N as Kronecker powers. Conjugating a transition
matrix by one of them yields the transition matrix of the relabeled
strategy pair, which verify_admissibility recovers and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .chain import TransitionMatrix, build_matrix_direct, stationary
from .errors import NonUniqueStationaryError
from .payoff import build_payoff_vector
from .strategy import (
    PayoffParams,
    Strategy,
    _mask_even,
    _mask_odd,
    _shared_memory,
    _successor_table,
)

__all__ = [
    "build_admissible",
    "conjugation_action",
    "verify_admissibility",
    "exhaustive_admissible_search",
    "AdmissibilityReport",
]

_STRUCTURE_TOL = 1e-12  # entry tolerance for the recovered pair and rebuilt matrix

J_BASE = {
    1: np.eye(4),
    2: np.array(
        [[0.0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    ),
    3: np.array(
        [[0.0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]
    ),
    4: np.array(
        [[0.0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    ),
}


def build_admissible(memory: int) -> dict:
    """The four admissible matrices at memory N as Kronecker powers of the
    memory-1 ones."""
    if memory < 1:
        raise ValueError("memory must be >= 1")
    return {
        which: reduce(np.kron, [base] * memory)
        for which, base in J_BASE.items()
    }


def conjugation_action(p: Strategy, q: Strategy, which: int):
    """Strategy pair whose transition matrix is J M(p, q) J^T.

    J2 flips the follower's C/D labels (p reindexes the follower slots of
    its word; q complements and reindexes its own slots), J3 does the same
    for the leader, J4 composes both, which complements every slot: the
    reversal map v -> 1 - v reversed.
    """
    _shared_memory(p, q)
    n = p.n_states
    idx = np.arange(n)
    if which == 1:
        return p, q
    if which == 2:
        return (
            Strategy(p.probs[idx ^ _mask_even(p.memory)]),
            Strategy(1.0 - q.probs[idx ^ _mask_odd(p.memory)]),
        )
    if which == 3:
        return (
            Strategy(1.0 - p.probs[idx ^ _mask_odd(p.memory)]),
            Strategy(q.probs[idx ^ _mask_even(p.memory)]),
        )
    if which == 4:
        return (
            Strategy(1.0 - p.probs[idx ^ (n - 1)]),
            Strategy(1.0 - q.probs[idx ^ (n - 1)]),
        )
    raise ValueError("which must be one of 1, 2, 3, 4")


@dataclass(frozen=True)
class AdmissibilityReport:
    """payoff_error is NaN where the chain has no unique stationary distribution:
    a relabeling keeps its closed classes, so neither payoff exists."""

    admissible: bool
    p_image: Strategy = None
    q_image: Strategy = None
    structure_error: float = np.inf
    payoff_error: float = np.inf


def _permutation_of(j: np.ndarray) -> np.ndarray:
    j = np.asarray(j)
    n = j.shape[0]
    if j.shape != (n, n) or not np.array_equal(j, j.astype(bool).astype(float)):
        raise ValueError("J must be a 0/1 permutation matrix")
    if not (np.all(j.sum(axis=0) == 1) and np.all(j.sum(axis=1) == 1)):
        raise ValueError("J must be a 0/1 permutation matrix")
    return j.argmax(axis=1)


def verify_admissibility(
    j: np.ndarray,
    p: Strategy,
    q: Strategy,
    params: PayoffParams,
) -> AdmissibilityReport:
    """Check that J M(p,q) J^T is again an alternating-game matrix with the
    same payoff.

    Recovers the candidate strategy pair from the conjugated matrix row by
    row (row sums of the leader half give p'; the quadruple ratios give q',
    each entry up to twice, so agreement is part of the check), rebuilds the
    matrix from the recovered pair, and compares every entry, off the
    successor pattern too, within 1e-12. Then checks payoff invariance under
    params of the transformed triple (J nu, J M J^T, J f) against the
    original within 1e-10, where that payoff exists.
    """
    perm = _permutation_of(j)
    matrix = build_matrix_direct(p, q)
    m = matrix.entries
    n = m.shape[0]
    if perm.size != n:
        raise ValueError("J size must match the 4^N state space")
    follower, successor = _successor_table(matrix.memory)
    x = m[np.ix_(perm, perm)]

    p_rec = np.empty(n)
    q_votes = [[] for _ in range(n)]
    for i in range(n):
        cols = successor[i][0] + successor[i][1]
        p_rec[i] = x[i, cols[0]] + x[i, cols[1]]
        if p_rec[i] > 1e-9:
            q_votes[follower[i][0]].append(x[i, cols[0]] / p_rec[i])
        if 1.0 - p_rec[i] > 1e-9:
            q_votes[follower[i][1]].append(x[i, cols[2]] / (1.0 - p_rec[i]))
    # Ratios of nonnegative entries in rows summing to 1 lie in [0, 1], but
    # for a second-half ratio over a tiny 1 - p'. An entry without votes
    # meets only leader probabilities within 1e-9 of 0 or 1; it is set to 0
    # and the rebuild decides.
    q_rec = np.array([votes[0] if votes else 0.0 for votes in q_votes])
    vote_spread = max(max(votes) - min(votes) for votes in q_votes if votes)
    if vote_spread > 1e-9 or q_rec.max() > 1 + _STRUCTURE_TOL:
        return AdmissibilityReport(False)

    p_image = Strategy(p_rec.clip(0.0, 1.0))
    q_image = Strategy(q_rec.clip(0.0, 1.0))
    rebuilt = build_matrix_direct(p_image, q_image).entries
    structure_error = float(np.abs(x - rebuilt).max())
    if structure_error > _STRUCTURE_TOL:
        return AdmissibilityReport(False, structure_error=structure_error)

    f = build_payoff_vector(params, matrix.memory)
    try:
        original = stationary(matrix) @ f
    except NonUniqueStationaryError:
        return AdmissibilityReport(True, p_image, q_image, structure_error, np.nan)
    transformed = stationary(TransitionMatrix(matrix.memory, x)) @ f[perm]
    payoff_error = float(abs(original - transformed))
    if payoff_error > 1e-10:
        return AdmissibilityReport(False, p_image, q_image, structure_error, payoff_error)
    return AdmissibilityReport(True, p_image, q_image, structure_error, payoff_error)


def exhaustive_admissible_search(pairs, params: PayoffParams) -> list:
    """All 4x4 permutation matrices admissible for every given (p, q) pair
    under params: structure and payoff both preserved.

    Exhausts the 24 permutations of the memory-1 state space. For interior
    pairs the expected result is exactly the four J matrices (in particular,
    no permutation exchanges the two seats); with 0/1 leader probabilities
    other permutations can pass the per-pair check.
    """
    found = []
    for perm in permutations(range(4)):
        j = np.zeros((4, 4))
        j[np.arange(4), perm] = 1.0
        if all(verify_admissibility(j, p, q, params).admissible for p, q in pairs):
            found.append(perm)
    return found
