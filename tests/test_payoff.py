"""Payoff vectors and the two payoff routes."""

from fractions import Fraction

import numpy as np
import pytest

from altpd.chain import build_matrix_direct, build_matrix_recursive
from altpd.errors import SingularPayoffError
from altpd.payoff import (
    _exact_payoff_vector,
    _stacked,
    build_payoff_vector,
    payoff_by_determinant,
    payoff_by_stationary,
    reversal_identity_check,
)
from altpd.strategy import (
    PayoffParams,
    Strategy,
    all_c,
    all_d,
    decode_history,
    random_strategy,
)

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)


# ---- payoff vector ----


def test_memory_one_vector_is_rstp():
    assert np.allclose(build_payoff_vector(PARAMS, 1), [0.7, -0.3, 1.0, 0.0])


def test_stacking_recursion_at_memory_two():
    f = build_payoff_vector(PARAMS, 2)
    # First block: memory-1 vector offset by the oldest round's R, halved.
    assert np.allclose(f[:4], [0.7, 0.2, 0.85, 0.35])
    assert f[15] == pytest.approx(0.0)  # DD|DD averages to P


def test_vector_length_and_rejects_bad_memory():
    assert build_payoff_vector(PARAMS, 3).shape == (64,)
    with pytest.raises(ValueError):
        build_payoff_vector(PARAMS, 0)


def test_reversal_identity_exact():
    for memory in (1, 2, 3):
        holds, constant = reversal_identity_check(PARAMS, memory)
        assert holds
        assert constant == pytest.approx(0.7)
    f = build_payoff_vector(PARAMS, 1)
    assert np.allclose(-f + 0.7, f[::-1])


def _payoff_vector_by_rounds(params, memory):
    """f[h] read off the word of history h, in exact rationals.

    Each round is the leader's choice then the follower's reply; the
    leader pays c for each of its own cooperations and gains b from each
    of the follower's. f[h] is the mean over the N rounds.
    """
    b, c = Fraction(params.b), Fraction(params.c)
    f = []
    for index in range(4**memory):
        word = decode_history(index, memory).word
        rounds = [word[k : k + 2] for k in range(0, len(word), 2)]
        total = sum((b if reply == "C" else 0) - (c if own == "C" else 0) for own, reply in rounds)
        f.append(total / memory)
    return f


@pytest.mark.parametrize(
    "params", [PARAMS, PayoffParams(b=2.0, c=1.5), PayoffParams(b=3.0, c=0.7)]
)
@pytest.mark.parametrize("memory", [1, 2, 3, 4])
def test_payoff_vector_is_the_mean_payoff_of_the_remembered_rounds(params, memory):
    by_rounds = _payoff_vector_by_rounds(params, memory)
    assert list(_exact_payoff_vector(params, memory)) == by_rounds
    want = np.array([float(v) for v in by_rounds])
    f = build_payoff_vector(params, memory)
    assert np.max(np.abs(f - want)) <= 4 * np.finfo(float).eps
    # Built once per (params, memory): the one shared array is the stacking
    # recursion's, bit for bit, and read-only.
    assert f.tobytes() == _stacked(params.rstp, memory).tobytes()
    assert build_payoff_vector(params, memory) is f
    with pytest.raises(ValueError):
        f[0] = 0.0


def test_payoff_vector_cache_is_keyed_by_params_and_bounded():
    costs = [k / 1001 for k in range(1, 1001)]
    vectors = {build_payoff_vector(PayoffParams(b=1.0, c=c), 2).tobytes() for c in costs}
    vectors.add(build_payoff_vector(PayoffParams(b=2.0, c=costs[0]), 2).tobytes())
    assert len(vectors) == 1001
    info = build_payoff_vector.cache_info()
    assert info.currsize <= info.maxsize == 32


# ---- payoff routes ----


def test_pure_corner_payoffs():
    assert payoff_by_stationary(all_c(1), all_c(1), PARAMS) == pytest.approx(0.7)
    assert payoff_by_stationary(all_d(1), all_d(1), PARAMS) == pytest.approx(0.0)


def test_uniform_pair_averages_the_table():
    half = Strategy(np.full(4, 0.5))
    assert payoff_by_determinant(half, half, PARAMS) == pytest.approx(0.35)


def test_routes_agree_memory_one_and_two():
    for memory, tol in ((1, 1e-10), (2, 1e-9)):
        for _ in range(50):
            p = random_strategy(memory, RNG)
            q = random_strategy(memory, RNG)
            det = payoff_by_determinant(p, q, PARAMS)
            sta = payoff_by_stationary(p, q, PARAMS)
            assert abs(det - sta) < tol


def test_determinant_accepts_prebuilt_matrix():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    m = build_matrix_direct(p, q)
    assert payoff_by_determinant(p, q, PARAMS, matrix=m) == pytest.approx(
        payoff_by_determinant(p, q, PARAMS)
    )


def test_determinant_rejects_a_matrix_of_another_memory():
    # The prebuilt matrix is the pair's only when the memories agree; a
    # memory-1 pair given a memory-2 matrix must not get that chain's payoff.
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    other = build_matrix_direct(random_strategy(2, RNG), random_strategy(2, RNG))
    with pytest.raises(ValueError, match="matrix has memory 2 but the pair has memory 1"):
        payoff_by_determinant(p, q, PARAMS, other)
    own = build_matrix_direct(p, q)
    wide = random_strategy(2, RNG), random_strategy(2, RNG)
    with pytest.raises(ValueError, match="matrix has memory 1 but the pair has memory 2"):
        payoff_by_determinant(*wide, PARAMS, own)
    with pytest.raises(ValueError, match="share the same memory"):
        payoff_by_determinant(p, wide[1], PARAMS, own)


def test_determinant_rejects_another_pairs_matrix():
    # A matrix of the pair's memory built for another pair gave that pair's
    # payoff (0.30586 against 0.36987); row 0 of the matrix tells them apart.
    rng = np.random.default_rng(1)
    p, q, r, s = (random_strategy(1, rng) for _ in range(4))
    for other in (build_matrix_direct(r, s), build_matrix_direct(q, p)):
        with pytest.raises(ValueError, match="row 0 does not hold the pair's products"):
            payoff_by_determinant(p, q, PayoffParams(), other)
    own = payoff_by_determinant(p, q, PayoffParams(), build_matrix_direct(p, q))
    assert own == payoff_by_determinant(p, q, PayoffParams())
    assert round(own, 5) == 0.36987
    wide = random_strategy(2, rng), random_strategy(2, rng)
    recursive = build_matrix_recursive(*wide)
    assert payoff_by_determinant(*wide, PARAMS, recursive) == pytest.approx(
        payoff_by_determinant(*wide, PARAMS), abs=1e-12
    )


def test_determinant_singular_on_two_closed_classes():
    s = Strategy(np.array([1.0, 0.5, 0.5, 0.0]))
    with pytest.raises(SingularPayoffError):
        payoff_by_determinant(s, s, PARAMS)


def _reference_determinant(matrix, params):
    """The determinant route written out with two np.linalg.det calls."""
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


def _outcome(route, *args):
    """The bytes of route(*args), or the error type it raised."""
    try:
        return np.float64(route(*args)).tobytes()
    except SingularPayoffError:
        return SingularPayoffError


def test_stacked_determinants_match_two_det_calls_bit_for_bit(pair_corpus):
    raised = 0
    for memory, kind, p, q in pair_corpus:
        matrix = build_matrix_direct(p, q)
        expected = _outcome(_reference_determinant, matrix, PARAMS)
        actual = _outcome(payoff_by_determinant, p, q, PARAMS, matrix)
        assert actual == expected, (memory, kind)
        raised += expected is SingularPayoffError
    assert raised > 0
