"""Payoff vectors over history states and the two payoff routes.

The expected per-round payoff of the leader is <nu, f> with nu the
stationary distribution; the same number falls out of a determinant ratio
that never forms nu explicitly. Both are exposed and must agree.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .chain import TransitionMatrix, build_matrix_direct, stationary
from .errors import SingularPayoffError
from .strategy import PayoffParams, Strategy, decode_history, raw_from_donation

__all__ = [
    "build_payoff_vector",
    "payoff_by_stationary",
    "payoff_by_determinant",
    "reversal_identity_check",
    "check_well_defined",
]


def _stacked(rstp, memory: int) -> np.ndarray:
    # The stacking recursion over float or Fraction (object array) entries.
    if memory < 1:
        raise ValueError("memory must be >= 1")
    f = np.array(rstp)
    for _ in range(memory - 1):
        f = np.concatenate([f + v for v in rstp])
    return f / memory


def build_payoff_vector(params: PayoffParams, memory: int) -> np.ndarray:
    """Mean per-round payoff of the leader for each remembered history.

    Built by the stacking recursion: the memory-N vector is four copies of
    the memory-(N-1) vector offset by R, S, T, P (the payoff of the oldest
    remembered round), normalized by the window length N.
    """
    return _stacked(params.rstp, memory)


def payoff_by_stationary(p: Strategy, q: Strategy, params: PayoffParams) -> float:
    """Leader payoff as <nu, f> over the stationary distribution."""
    matrix = build_matrix_direct(p, q)
    nu = stationary(matrix)
    f = build_payoff_vector(params, matrix.memory)
    return float(nu @ f)


def payoff_by_determinant(
    p: Strategy, q: Strategy, params: PayoffParams, matrix: TransitionMatrix = None
) -> float:
    """Leader payoff as a ratio of determinants.

    Both determinants take M - I and overwrite the last column, by f for the
    numerator and by ones for the denominator; the common cofactor scale
    cancels in the ratio.
    """
    if matrix is None:
        matrix = build_matrix_direct(p, q)
    f = build_payoff_vector(params, matrix.memory)
    base = matrix.entries - np.eye(matrix.entries.shape[0])
    numerator = base.copy()
    numerator[:, -1] = f
    denominator = base.copy()
    denominator[:, -1] = 1.0
    det_den = np.linalg.det(denominator)
    if not np.isfinite(det_den) or det_den == 0.0:
        raise SingularPayoffError("determinant formula singular")
    return float(np.linalg.det(numerator) / det_den)


def _exact_payoff_vector(params: PayoffParams, memory: int) -> np.ndarray:
    """build_payoff_vector in exact rationals, as an object array of Fractions."""
    b, c = Fraction(params.b), Fraction(params.c)
    return _stacked((b - c, -c, b, Fraction(0)), memory)


def _reversal_gap(f, params: PayoffParams) -> Fraction:
    """Exact max |f + reversed f - (R+P)| over a Fraction payoff vector."""
    constant = Fraction(params.b) - Fraction(params.c)  # R + P
    return max(abs(a + b - constant) for a, b in zip(f, reversed(f)))


def reversal_identity_check(params: PayoffParams, memory: int):
    """Exact check of -f + (R+P) 1 = (anti-diagonal) f; returns (holds, R+P).

    Flipping every symbol of a history (C <-> D) swaps R with P and S with T,
    so paired entries of f sum to the constant R+P. The check runs in exact
    rational arithmetic so "holds" means an identity, not a tolerance.
    """
    holds = _reversal_gap(_exact_payoff_vector(params, memory), params) == 0
    return holds, params.r + params.p


def check_well_defined(
    params: PayoffParams,
    memory: int,
    a: float = 0.0,
    _follower_d_offset: float = 0.0,
) -> bool:
    """Leader and follower accumulate identical winnings per shared word.

    Reconstructs, from the per-choice payoffs, the total winnings each player
    attributes to a 2N-symbol conditioning word: the odd positions are the
    player's own choices (each yields a or c to itself) and the even positions
    are the co-player's (each grants b or d). As written, both loops add the
    same terms in the same order, so the check returns False only through
    _follower_d_offset, a hook for tests; a check with teeth needs the
    paper's definition of the follower's word.
    """
    raw = raw_from_donation(params, a)
    n = 4**memory
    leader = np.empty(n)
    follower = np.empty(n)
    for index in range(n):
        bits = [symbol == "D" for symbol in decode_history(index, memory).word]
        # Leader's word: rounds oldest first, own choice then the reply.
        total = 0.0
        for k in range(memory):
            own, other = bits[2 * k], bits[2 * k + 1]
            total += raw.a if own == 0 else raw.c
            total += raw.b if other == 0 else raw.d
        leader[index] = total
        # Follower's word: own oldest choice, then leader/own pairs, then the
        # leader's fresh choice; slots alternate own, leader, own, leader, ...
        total = 0.0
        d_here = raw.d + _follower_d_offset
        for pos, bit in enumerate(bits):
            if pos % 2 == 0:
                total += raw.a if bit == 0 else raw.c
            else:
                total += raw.b if bit == 0 else d_here
        follower[index] = total
    return bool(np.array_equal(leader, follower))
