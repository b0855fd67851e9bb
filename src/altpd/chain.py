"""Markov chain of the alternating game on the 4^N history states.

Each round moves the chain from history h = (i1 i2 ... i_2N) to
h' = (i3 ... i_2N a b), where a is the leader's fresh choice (played with
probability p_h of C) and b the follower's reply (probability q_k of C,
with k the follower's conditioning index). The matrix is row-stochastic;
the stationary distribution is its left eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonUniqueStationaryError
from .strategy import Strategy, _shared_memory, _successor_table, state_label

__all__ = [
    "TransitionMatrix",
    "build_matrix_direct",
    "build_matrix_recursive",
    "stationary",
    "perturb_strategies",
    "is_irreducible",
]


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic transition matrix over the 4^N history states."""

    memory: int
    entries: np.ndarray

    def state_labels(self) -> list:
        return [state_label(i, self.memory) for i in range(self.entries.shape[0])]


def build_matrix_direct(p: Strategy, q: Strategy) -> TransitionMatrix:
    """Shift-and-append construction, entry by entry.

    The row for history h holds the quadruple
    p_h q_kC, p_h (1-q_kC), (1-p_h) q_kD, (1-p_h)(1-q_kD)
    at the columns successor[h][a][b] of the strategy module's successor
    table (h's oldest round dropped, the fresh (a, b) pair appended); kA is
    the table's follower index follower[h][A] for leader action A.

    The four columns of a row are distinct (their low two bits are the
    fresh pair), so each entry is assigned once, not accumulated.

    The products are stated once, in _quadruple: on Python floats row by
    row at memory 1 (the probabilities read once with tolist()), on whole
    arrays above it, scattered at cached flat indices. The array calls cost
    a fixed overhead, so the float loop is faster on 4 rows and the arrays
    from 16 rows up. Both are IEEE float64 with round-to-nearest, so every
    product has the same bits either way. Each product gets +0.0 added,
    which maps -0.0 (from a -0.0 probability) to +0.0 and nothing else.
    """
    memory = _shared_memory(p, q)
    n = 4**memory
    if memory == 1:
        m = np.zeros((n, n))
        _fill_rows(m, range(n), p.probs.tolist(), q.probs.tolist(), memory)
        return TransitionMatrix(memory=memory, entries=m)
    follower_c, follower_d, flat = _scatter_indices(memory)
    m = np.zeros(n * n)
    m[flat] = _quadruple(p.probs, q.probs.take(follower_c), q.probs.take(follower_d))
    return TransitionMatrix(memory=memory, entries=m.reshape(n, n))


def _quadruple(p_c, q_c, q_d):
    """A row's products in successor order CC, CD, DC, DD, on Python floats
    (one row) or on numpy arrays (every row) with the same bits."""
    p_d = 1.0 - p_c
    return p_c * q_c + 0.0, p_c * (1.0 - q_c) + 0.0, p_d * q_d + 0.0, p_d * (1.0 - q_d) + 0.0


def _fill_rows(m, rows, p_probs, q_probs, memory: int) -> None:
    """Write _quadruple of each history h in rows, on the Python floats of
    the lists p_probs and q_probs, into m[h] at its four successor columns.

    Only those four entries of each row are written: the caller supplies
    the zeros elsewhere, and m[h] may be a dict that collects just the
    four. The products depend on the probabilities alone, so a row written
    into any matrix has the bits it has in a full build.
    """
    follower, successor = _successor_table(memory)
    for h in rows:
        row, (k_c, k_d), ((cc, cd), (dc, dd)) = m[h], follower[h], successor[h]
        row[cc], row[cd], row[dc], row[dd] = _quadruple(p_probs[h], q_probs[k_c], q_probs[k_d])


@lru_cache(maxsize=None)
def _scatter_indices(memory: int):
    """Read-only follower indices kC, kD of every row and, one row per (a, b)
    in _quadruple's order, the flat indices h * 4^N + successor[h][a][b]."""
    follower, successor = _successor_table(memory)
    n = 4**memory
    follower_c, follower_d = np.array(follower).T.copy()
    flat = np.array(successor).reshape(n, 4).T + np.arange(n) * n
    for a in (follower_c, follower_d, flat):
        a.flags.writeable = False
    return follower_c, follower_d, flat


# Entry pattern of the memory-1 matrix, row by row: each entry is
# (+-)p[p_idx] * (+-)q[q_idx] at column col.
_BASE_COL = np.array([[0, 1, 2, 3]] * 4)
_BASE_P_IDX = np.array([[0] * 4, [1] * 4, [2] * 4, [3] * 4])
_BASE_Q_IDX = np.array([[0, 0, 1, 1], [2, 2, 3, 3], [0, 0, 1, 1], [2, 2, 3, 3]])


@lru_cache(maxsize=None)
def _pattern(memory: int):
    """Symbolic entry pattern (flat index, p index, p flag, q index, q flag)
    built by the cut-into-quarters recursion, once per memory.

    The memory-(m+1) matrix stacks sixteen slabs: the four quarters of the
    memory-m matrix, repeated once per prefix pair XY in {CC, CD, DC, DD}.
    Slab (XY, quarter j) lands in block column j; its p indices gain the
    prefix XY and its q indices gain (Y, first old symbol) at the front.
    Every array is flat and read-only, four entries per row; the flat index
    row * 4^N + col addresses each entry in the raveled matrix.
    """
    col, p_idx, q_idx = _BASE_COL, _BASE_P_IDX, _BASE_Q_IDX
    for m in range(1, memory):
        n_old = 4**m
        quarter = n_old // 4
        old_first_bit = p_idx >> (2 * m - 1)  # leading symbol of each old p word
        slab_of_row = np.arange(n_old) // quarter
        new_col = np.empty((4 * n_old, 4), dtype=int)
        new_p_idx = np.empty_like(new_col)
        new_q_idx = np.empty_like(new_col)
        for g in range(4):
            rows = slice(g * n_old, (g + 1) * n_old)
            new_col[rows] = slab_of_row[:, None] * n_old + col
            new_p_idx[rows] = g * n_old + p_idx
            g2 = g & 1
            new_q_idx[rows] = (g2 << (2 * m + 1)) | (old_first_bit << (2 * m)) | q_idx
        col, p_idx, q_idx = new_col, new_p_idx, new_q_idx
    n = 4**memory
    # Every row at every memory lists its successors for the fresh rounds
    # CC, CD, DC, DD, so every row has the same complement flags.
    p_comp = np.tile([False, False, True, True], n)
    q_comp = np.tile([False, True, False, True], n)
    flat = np.arange(n)[:, None] * n + col
    pattern = tuple(a.ravel() for a in (flat, p_idx, p_comp, q_idx, q_comp))
    for a in pattern:
        a.flags.writeable = False
    return pattern


def build_matrix_recursive(p: Strategy, q: Strategy) -> TransitionMatrix:
    """Block-recursive construction; must agree with the direct one to 1e-15."""
    memory = _shared_memory(p, q)
    if memory == 1:
        raise ValueError("recursion base is memory 1")
    flat, p_idx, p_comp, q_idx, q_comp = _pattern(memory)
    p_factor = np.where(p_comp, 1.0 - p.probs[p_idx], p.probs[p_idx])
    q_factor = np.where(q_comp, 1.0 - q.probs[q_idx], q.probs[q_idx])
    n = 4**memory
    m = np.zeros(n * n)
    m[flat] = p_factor * q_factor
    return TransitionMatrix(memory=memory, entries=m.reshape(n, n))


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The read-only n x n identity, built once per size: the stationary
    solve and the determinant payoff subtract it from the matrix, and its
    last row is the solve's unit right-hand side."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def stationary(matrix: TransitionMatrix) -> np.ndarray:
    """Stationary distribution nu with nu^T M = nu^T and sum(nu) = 1.

    It is unique exactly when the support digraph of M, in which every
    positive entry, however tiny, is an edge, has one closed class: that
    count is the multiplicity of eigenvalue 1 (Kemeny & Snell 1960, "Finite
    Markov Chains"). Two or more raise NonUniqueStationaryError before any
    solve; with no zero successor-pattern entry the support holds the
    strongly connected successor digraph, so the count is skipped. Then
    (M^T - I) nu = 0, its last row replaced by sum(nu) = 1, is solved; a
    failed solve or residual test raises NonUniqueStationaryError too.
    """
    m = matrix.entries
    if m.take(_pattern(matrix.memory)[0]).min() <= 0.0 and _closed_classes(m) > 1:
        raise NonUniqueStationaryError("non-unique stationary distribution")
    eye = _identity(m.shape[0])
    a = m.T - eye
    a[-1, :] = 1.0
    try:
        nu = np.linalg.solve(a, eye[-1])
    except np.linalg.LinAlgError:
        raise NonUniqueStationaryError("stationary solve failed") from None
    if not _is_distribution(nu, m):
        raise NonUniqueStationaryError("stationary solve failed")
    nu = nu.clip(min=0.0)
    return nu / nu.sum()


def _is_distribution(nu: np.ndarray, m: np.ndarray) -> bool:
    # A NaN entry fails the residual test (NaN compares false), -inf fails
    # the min test, and +inf makes the residual NaN or infinite.
    if nu.min() < -1e-12:
        return False
    return np.abs(nu @ m - nu).max() < 1e-10


def _reach(m: np.ndarray) -> np.ndarray:
    """Transitive closure of the support digraph ((i, j) is True when positive
    transitions lead from i to j), by squaring until it stops changing."""
    reach = m > 0.0
    while True:
        walk = reach.astype(float)
        wider = reach | (walk @ walk > 0.0)
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _closed_classes(m: np.ndarray) -> int:
    """Closed classes of the support digraph: the distinct sets that recurrent
    states reach (a state is recurrent when all it reaches reaches it back)."""
    reach = _reach(m)
    recurrent = ~(reach & ~reach.T).any(axis=1)
    return len({row.tobytes() for row in reach[recurrent]})


def perturb_strategies(p: Strategy, q: Strategy, eps: float):
    """Mix both strategies with noise: v -> eps + (1 - 2 eps) v."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    return (
        Strategy(eps + (1.0 - 2.0 * eps) * p.probs),
        Strategy(eps + (1.0 - 2.0 * eps) * q.probs),
    )


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """Strong connectivity of the digraph of positive transitions."""
    return bool(_reach(matrix.entries).all())
