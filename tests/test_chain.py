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
from altpd.errors import NonUniqueStationaryError, SingularPayoffError
from altpd.payoff import payoff_by_determinant
from altpd.strategy import PayoffParams, Strategy, all_c, all_d, random_strategy

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)


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


def _reference_reach(adj):
    """Reachability by breadth-first search from every state: row i marks
    the states that a path of one or more edges leads to from i."""
    n = adj.shape[0]
    reach = np.zeros((n, n), dtype=bool)
    for start in range(n):
        frontier = [start]
        while frontier:
            nxt = adj[frontier].any(axis=0) & ~reach[start]
            reach[start] |= nxt
            frontier = list(np.flatnonzero(nxt))
    return reach


def _reference_closed_classes(m):
    """States that every state they reach reaches back, each counted when it
    is the lowest state it reaches: one count per closed class."""
    reach = _reference_reach(m > 0.0)
    count = 0
    for i in range(m.shape[0]):
        reached = np.flatnonzero(reach[i])
        count += all(reach[j, i] for j in reached) and reached[0] == i
    return count


def _reference_stationary(m):
    """The stationary solve written out with a fresh identity for each
    M^T - I, a zeros right-hand side and a separate finiteness pass, behind
    the closed-class count of a breadth-first search."""
    if _reference_closed_classes(m) > 1:
        raise NonUniqueStationaryError("closed classes")
    n = m.shape[0]
    a = m.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        nu = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        raise NonUniqueStationaryError("solve") from None
    if not _reference_is_distribution(nu, m):
        raise NonUniqueStationaryError("residual")
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
    assert raised == 55


def test_two_closed_classes_raise_though_the_solve_passes(pair_corpus):
    # Entry 232 has closed classes of 9 and 2 states. The bordered solve is
    # singular in exact arithmetic, yet in floating point it returns a
    # candidate that passes the residual test and splits 0.629 / 0.371
    # between the classes.
    memory, kind, p, q = pair_corpus[232]
    assert (memory, kind) == (3, "corner")
    matrix = build_matrix_direct(p, q)
    assert _reference_closed_classes(matrix.entries) == 2
    with pytest.raises(NonUniqueStationaryError):
        stationary(matrix)


def test_closed_class_count_decides_the_determinant_route(pair_corpus):
    # The multiplicity of eigenvalue 1 is the closed-class count, so the
    # determinant's denominator vanishes exactly where there are two or more.
    multichain = 0
    for memory, kind, p, q in pair_corpus:
        matrix = build_matrix_direct(p, q)
        count = chain._closed_classes(matrix.entries)
        assert count == _reference_closed_classes(matrix.entries), (memory, kind)
        try:
            payoff_by_determinant(p, q, PARAMS, matrix)
            singular = False
        except SingularPayoffError:
            singular = True
        assert singular == (count >= 2), (memory, kind)
        multichain += singular
    assert multichain == 55


def test_irreducibility_matches_a_breadth_first_search(pair_corpus):
    # The extra pair has two absorbing states, yet every state is entered.
    s = Strategy(np.array([1.0, 0.5, 0.5, 0.0]))
    irreducible = 0
    for memory, kind, p, q in [*pair_corpus, (1, "two absorbing", s, s)]:
        matrix = build_matrix_direct(p, q)
        expected = bool(_reference_reach(matrix.entries > 0.0).all())
        assert is_irreducible(matrix) == expected, (memory, kind)
        irreducible += expected
    assert 0 < irreducible < len(pair_corpus)


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
def test_failed_direct_solve_raises(monkeypatch, bad):
    # A one-class chain whose direct solve raises or returns a non-finite
    # candidate has no other route to its distribution.
    real_solve = np.linalg.solve

    def failing_solve(a, b):
        if bad == "raise":
            raise np.linalg.LinAlgError("singular matrix")
        nu = real_solve(a, b)
        nu[1] = bad
        return nu

    matrix = build_matrix_direct(random_strategy(2, RNG), random_strategy(2, RNG))
    assert _reference_closed_classes(matrix.entries) == 1
    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    with np.errstate(invalid="ignore"), pytest.raises(NonUniqueStationaryError):
        stationary(matrix)


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
