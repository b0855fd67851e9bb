"""Payoff vectors over history states and the two payoff routes.

The expected per-round payoff of the leader is <nu, f> with nu the
stationary distribution; the same number falls out of a determinant ratio
that never forms nu explicitly. Both are exposed and must agree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chain import TransitionMatrix, _fill_rows, _identity, build_matrix_direct, stationary
from .errors import SingularPayoffError
from .strategy import PayoffParams, Strategy, _shared_memory

__all__ = [
    "build_payoff_vector",
    "payoff_by_stationary",
    "payoff_by_determinant",
    "reversal_identity_check",
]


def _stacked(rstp, memory: int) -> np.ndarray:
    # The stacking recursion over float or Fraction (object array) entries.
    if memory < 1:
        raise ValueError("memory must be >= 1")
    f = np.array(rstp)
    for _ in range(memory - 1):
        f = np.concatenate([f + v for v in rstp])
    return f / memory


@lru_cache(maxsize=32)
def build_payoff_vector(params: PayoffParams, memory: int) -> np.ndarray:
    """Mean per-round payoff of the leader for each remembered history.

    Built by the stacking recursion: the memory-N vector is four copies of
    the memory-(N-1) vector offset by R, S, T, P (the payoff of the oldest
    remembered round), normalized by the window length N.

    Built once per (params, memory): every call returns the same read-only
    array, so a caller that writes into it must copy it first.
    """
    f = _stacked(params.rstp, memory)
    f.flags.writeable = False
    return f


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
    cancels in the ratio. The two matrices are stacked so that one
    np.linalg.det call runs the same LU on each.

    A prebuilt matrix must be the pair's: ValueError unless its memory is
    the pair's shared memory and its row 0 holds exactly the products that
    build_matrix_direct forms there, by the same _fill_rows (one row, so
    the check stays cheap).
    """
    if matrix is None:
        matrix = build_matrix_direct(p, q)
    elif matrix.memory != _shared_memory(p, q):
        raise ValueError(f"matrix has memory {matrix.memory} but the pair has memory {p.memory}")
    else:
        expected = {0: {}}  # row 0's four successor columns and products
        _fill_rows(expected, (0,), p.probs.tolist(), q.probs.tolist(), matrix.memory)
        row = matrix.entries[0]
        for col, product in expected[0].items():
            if row.item(col) != product:
                raise ValueError("matrix row 0 does not hold the pair's products")
    return _determinant_ratio(matrix.entries, build_payoff_vector(params, matrix.memory))


def _determinant_ratio(m: np.ndarray, f: np.ndarray) -> float:
    """payoff_by_determinant's ratio for the matrix entries m and payoff vector f."""
    n = m.shape[0]
    pair = np.empty((2, n, n))
    pair[:] = m - _identity(n)
    pair[0, :, -1] = f
    pair[1, :, -1] = 1.0
    det_num, det_den = np.linalg.det(pair)
    if not math.isfinite(det_den) or det_den == 0.0:
        raise SingularPayoffError("determinant formula singular")
    return float(det_num / det_den)


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
