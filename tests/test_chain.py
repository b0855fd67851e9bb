"""Transition-matrix constructions and the stationary solve."""

import numpy as np
import pytest

from altpd import chain
from altpd.chain import (
    _is_distribution,
    _pattern,
    build_matrix_direct,
    build_matrix_recursive,
    is_irreducible,
    perturb_strategies,
    stationary,
)
from altpd.errors import NonUniqueStationaryError
from altpd.strategy import Strategy, all_c, all_d, random_strategy

RNG = np.random.default_rng(0)


def _memory_one_reference(p, q):
    """Spelled-out 4x4 entry pattern: row h lists the four (a, b) successors."""
    p, q = p.probs, q.probs
    return np.array(
        [
            [p[0] * q[0], p[0] * (1 - q[0]), (1 - p[0]) * q[1], (1 - p[0]) * (1 - q[1])],
            [p[1] * q[2], p[1] * (1 - q[2]), (1 - p[1]) * q[3], (1 - p[1]) * (1 - q[3])],
            [p[2] * q[0], p[2] * (1 - q[0]), (1 - p[2]) * q[1], (1 - p[2]) * (1 - q[1])],
            [p[3] * q[2], p[3] * (1 - q[2]), (1 - p[3]) * q[3], (1 - p[3]) * (1 - q[3])],
        ]
    )


# ---- direct construction ----


def test_full_cooperation_rows():
    m = build_matrix_direct(all_c(1), all_c(1))
    assert np.array_equal(m.entries, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))


def test_frozen_single_entry():
    p = Strategy(np.array([0.1, 0.2, 0.3, 0.4]))
    q = Strategy(np.array([0.5, 0.6, 0.7, 0.8]))
    m = build_matrix_direct(p, q)
    # From CD the leader cooperates with p_CD and the follower, who now
    # remembers DC, cooperates with q_DC.
    assert m.entries[1, 0] == pytest.approx(0.2 * 0.7)


def test_uniform_strategies_give_uniform_rows():
    half = Strategy(np.full(4, 0.5))
    m = build_matrix_direct(half, half)
    assert np.allclose(m.entries, 0.25, atol=0.0)


def test_memory_one_matrix_matches_entry_pattern():
    for _ in range(20):
        p, q = random_strategy(1, RNG), random_strategy(1, RNG)
        m = build_matrix_direct(p, q)
        assert np.max(np.abs(m.entries - _memory_one_reference(p, q))) < 1e-15


def test_rows_are_stochastic_with_four_successors():
    for memory in (1, 2, 3):
        for _ in range(5):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            m = build_matrix_direct(p, q)
            assert np.max(np.abs(m.entries.sum(axis=1) - 1.0)) < 1e-12
            assert np.min(m.entries) >= 0.0
            assert np.all((m.entries > 0).sum(axis=1) <= 4)


def test_mismatched_memory_rejected():
    with pytest.raises(ValueError):
        build_matrix_direct(all_c(1), all_c(2))


# ---- recursive construction ----


def test_recursive_equals_direct():
    for memory in (2, 3, 4):
        # The pattern is built once per memory and shared read-only.
        pattern = _pattern(memory)
        assert _pattern(memory) is pattern
        assert not any(a.flags.writeable for a in pattern)
        for _ in range(10):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            direct = build_matrix_direct(p, q).entries
            recursive = build_matrix_recursive(p, q).entries
            assert np.max(np.abs(direct - recursive)) < 1e-15
            assert np.array_equal(direct != 0.0, recursive != 0.0)


def test_recursive_full_cooperation_absorbs():
    m = build_matrix_recursive(all_c(2), all_c(2))
    row = np.zeros(16)
    row[0] = 1.0
    assert np.array_equal(m.entries[0], row)


def test_recursion_needs_memory_two():
    with pytest.raises(ValueError, match="recursion base is memory 1"):
        build_matrix_recursive(all_c(1), all_c(1))


# ---- stationary distribution ----


def test_absorbing_cooperation_has_point_mass():
    nu = stationary(build_matrix_direct(all_c(1), all_c(1)))
    assert np.allclose(nu, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_uniform_chain_is_uniform():
    half = Strategy(np.full(4, 0.5))
    nu = stationary(build_matrix_direct(half, half))
    assert np.allclose(nu, 0.25, atol=1e-12)


def test_stationary_is_a_left_fixed_point():
    for memory in (1, 2, 3):
        for _ in range(5):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            m = build_matrix_direct(p, q)
            nu = stationary(m)
            assert np.min(nu) >= 0.0
            assert abs(nu.sum() - 1.0) < 1e-12
            assert np.max(np.abs(nu @ m.entries - nu)) < 1e-10


def test_two_absorbing_classes_error():
    # CC and DD are both absorbing, so the kernel is two-dimensional.
    s = Strategy(np.array([1.0, 0.5, 0.5, 0.0]))
    with pytest.raises(NonUniqueStationaryError):
        stationary(build_matrix_direct(s, s))


def test_interior_strategies_never_error():
    for _ in range(50):
        p, q = random_strategy(1, RNG), random_strategy(1, RNG)
        stationary(build_matrix_direct(p, q))


def _reference_is_distribution(nu, m):
    if not np.all(np.isfinite(nu)) or nu.min() < -1e-12:
        return False
    return np.abs(nu @ m - nu).max() < 1e-10


def _reference_stationary(m):
    """The stationary solve written out with a fresh identity for each
    M^T - I, a zeros right-hand side and a separate finiteness pass."""
    n = m.shape[0]
    a = m.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        nu = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        nu = None
    if nu is None or not _reference_is_distribution(nu, m):
        _, sing, vt = np.linalg.svd(m.T - np.eye(n))
        if int(np.sum(sing < 1e-10)) != 1:
            raise NonUniqueStationaryError("kernel dimension")
        nu = vt[-1]
        total = nu.sum()
        if abs(total) < 1e-12 or nu.min() * np.sign(total) < -1e-12 * abs(total):
            raise NonUniqueStationaryError("kernel sign")
        nu = nu / total
        if not _reference_is_distribution(nu, m):
            raise NonUniqueStationaryError("kernel residual")
    nu = nu.clip(min=0.0)
    return nu / nu.sum()


def _outcome(route, *args):
    """The bytes of route(*args), or the error type it raised."""
    try:
        return route(*args).tobytes()
    except NonUniqueStationaryError:
        return NonUniqueStationaryError


def test_stationary_matches_the_reference_solve_bit_for_bit(pair_corpus):
    raised = 0
    for memory, kind, p, q in pair_corpus:
        matrix = build_matrix_direct(p, q)
        expected = _outcome(_reference_stationary, matrix.entries)
        assert _outcome(stationary, matrix) == expected, (memory, kind)
        raised += expected is NonUniqueStationaryError
    assert raised > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("memory", [1, 2, 3])
def test_non_finite_candidate_is_not_a_distribution(memory, bad):
    # Without a finiteness pass: NaN fails the residual test, -inf the min
    # test, and +inf turns the residual NaN or infinite (numpy warns about
    # the invalid operation on the way).
    matrix = build_matrix_direct(random_strategy(memory, RNG), random_strategy(memory, RNG))
    nu = stationary(matrix)
    assert _is_distribution(nu, matrix.entries)
    nu[RNG.integers(nu.size)] = bad
    with np.errstate(invalid="ignore"):
        assert not _is_distribution(nu, matrix.entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "raise"])
def test_failed_direct_solve_falls_back_to_the_kernel(monkeypatch, bad):
    # A one-dimensional kernel whose direct solve returns a non-finite
    # candidate or raises still yields the reference distribution, through
    # the kernel route, whichever sign the SVD gives the kernel vector.
    real_solve, real_svd = np.linalg.solve, np.linalg.svd
    real_kernel = chain._kernel_distribution
    kernel_calls = []

    def failing_solve(a, b):
        if bad == "raise":
            raise np.linalg.LinAlgError("singular matrix")
        nu = real_solve(a, b)
        nu[1] = bad
        return nu

    def kernel(m):
        kernel_calls.append(m)
        return real_kernel(m)

    matrix = build_matrix_direct(random_strategy(2, RNG), random_strategy(2, RNG))
    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    monkeypatch.setattr(chain, "_kernel_distribution", kernel)
    with np.errstate(invalid="ignore"):
        expected = _reference_stationary(matrix.entries)
        nu = stationary(matrix)
    assert len(kernel_calls) == 1
    assert nu.tobytes() == expected.tobytes()

    def flipped_svd(a):
        u, sing, vt = real_svd(a)
        return u, sing, -vt

    monkeypatch.setattr(np.linalg, "svd", flipped_svd)
    with np.errstate(invalid="ignore"):
        assert _reference_stationary(matrix.entries).tobytes() == expected.tobytes()
        nu = stationary(matrix)
    assert len(kernel_calls) == 2
    assert nu.tobytes() == expected.tobytes()


# ---- helpers ----


def test_perturbation_pulls_corners_inside():
    p, q = perturb_strategies(all_c(1), all_d(1), 0.01)
    assert np.allclose(p.probs, 0.99) and np.allclose(q.probs, 0.01)
    half = Strategy(np.full(4, 0.5))
    p, _ = perturb_strategies(half, half, 0.3)
    assert np.allclose(p.probs, 0.5)
    with pytest.raises(ValueError):
        perturb_strategies(half, half, 0.6)


def test_irreducibility_flag():
    assert not is_irreducible(build_matrix_direct(all_c(1), all_c(1)))
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    assert is_irreducible(build_matrix_direct(p, q))
