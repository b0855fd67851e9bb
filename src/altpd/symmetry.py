"""Relabeling symmetries of the alternating game.

Four relabelings commute with the game structure: the identity, the
follower's C/D flip, the leader's C/D flip, and both. They form Z2 x Z2,
stated once in _FLIPS; at any memory each maps a history index to its XOR
with the flipped seats' slots. Conjugating a transition matrix by its
permutation matrix J yields the matrix of the relabeled strategy pair,
which verify_admissibility recovers and checks.
"""

from __future__ import annotations

from dataclasses import dataclass
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

# which -> (leader flipped, follower flipped); flips compose by XOR.
_FLIPS = {1: (False, False), 2: (False, True), 3: (True, False), 4: (True, True)}


def _masks(which: int, memory: int):
    """XOR masks (leader history, follower word) of relabeling `which`: the
    slots a flipped seat owns in each seat's conditioning word."""
    try:
        leader, follower = _FLIPS[which]
    except (KeyError, TypeError):
        raise ValueError("which must be one of 1, 2, 3, 4") from None
    even, odd = _mask_even(memory), _mask_odd(memory)
    return even * follower | odd * leader, even * leader | odd * follower


def build_admissible(memory: int) -> dict:
    """The four admissible permutation matrices at memory N: J maps history
    h to h XOR the leader-history mask of its flips."""
    if memory < 1:
        raise ValueError("memory must be >= 1")
    idx = np.arange(4**memory)
    return {which: np.eye(idx.size)[idx ^ _masks(which, memory)[0]] for which in _FLIPS}


def conjugation_action(p: Strategy, q: Strategy, which: int):
    """Strategy pair whose transition matrix is J M(p, q) J^T: each strategy
    reindexed by its word's mask and complemented if its seat is flipped. J4
    complements every slot of both, the reversal map v -> 1 - v reversed."""
    masks = _masks(which, _shared_memory(p, q))
    if not any(masks):
        return p, q  # the identity keeps the very objects
    idx = np.arange(p.n_states)
    return tuple(
        Strategy(1.0 - s.probs[idx ^ mask] if flipped else s.probs[idx ^ mask])
        for s, mask, flipped in zip((p, q), masks, _FLIPS[which])
    )


@dataclass(frozen=True)
class AdmissibilityReport:
    """payoff_error is |nu f - stationary(J M J^T) (J f)|: zero by construction
    up to roundoff, it measures the solve's permutation-equivariance, not a
    kept payoff. NaN where the chain has no unique stationary distribution: a
    relabeling keeps its closed classes, so neither side exists."""

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
    """Check that J M(p,q) J^T is again an alternating-game matrix, and that
    the stationary solve is permutation-equivariant on it.

    Recovers the candidate strategy pair from the conjugated matrix row by
    row (row sums of the leader half give p'; the quadruple ratios give q',
    each entry up to twice, so agreement is part of the check), rebuilds the
    matrix from the recovered pair, and compares every entry, off the
    successor pattern too, within 1e-12. Then compares nu f with
    stationary(J M J^T) (J f) under params within 1e-10 in units of b (the
    payoffs are linear in b), where nu exists; payoff_error is absolute.
    Since stationary(J M J^T) = J nu, the two agree by construction: the
    test fails only when the floating solve is not permutation-equivariant,
    as a solve tilted by nu_h (1 + 1e-6 h) is not. It is no payoff
    invariance: under the unpermuted f the relabeled pair's payoff does
    change (by -0.77 for J2 at one random memory-1 pair).
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
    if payoff_error > 1e-10 * params.b:
        return AdmissibilityReport(False, p_image, q_image, structure_error, payoff_error)
    return AdmissibilityReport(True, p_image, q_image, structure_error, payoff_error)


def exhaustive_admissible_search(pairs, params: PayoffParams) -> list:
    """All 4x4 permutation matrices that verify_admissibility admits for
    every given (p, q) pair under params.

    Exhausts the 24 permutations of the memory-1 state space. For interior
    pairs the expected result is exactly the four J matrices (in particular,
    no permutation exchanges the two seats); with 0/1 leader probabilities
    other permutations can pass the per-pair check.
    """
    found = []
    for perm in permutations(range(4)):
        j = np.eye(4)[list(perm)]
        if all(verify_admissibility(j, p, q, params).admissible for p, q in pairs):
            found.append(perm)
    return found
