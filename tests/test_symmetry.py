"""Relabeling symmetries: group structure, conjugation, admissibility."""

import re
from functools import reduce

import numpy as np
import pytest

from altpd.chain import build_matrix_direct, stationary
from altpd.dynamics import win_loss_exchange
from altpd.errors import NonUniqueStationaryError
from altpd.strategy import PayoffParams, Strategy, all_c, all_d, random_strategy
from altpd.symmetry import (
    _FLIPS,
    build_admissible,
    conjugation_action,
    exhaustive_admissible_search,
    verify_admissibility,
)

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)

# The memory-1 matrices as typed from the paper: an independent reference
# for build_admissible, which derives them from the flip table.
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


# ---- the matrices ----


def test_base_matrices():
    assert np.array_equal(J_BASE[1], np.eye(4))
    assert np.array_equal(J_BASE[4], np.eye(4)[::-1])


def test_group_is_klein_four():
    for j in J_BASE.values():
        assert np.array_equal(j @ j, np.eye(4))
    assert np.array_equal(J_BASE[2] @ J_BASE[3], J_BASE[4])
    assert np.array_equal(J_BASE[3] @ J_BASE[2], J_BASE[4])
    labels = list(J_BASE)
    products = {
        tuple(map(tuple, J_BASE[a] @ J_BASE[b])) for a in labels for b in labels
    }
    assert products == {tuple(map(tuple, j)) for j in J_BASE.values()}


def test_memory_extension_is_kronecker_power():
    for memory in (1, 2, 3, 4):
        js = build_admissible(memory)
        assert list(js) == [1, 2, 3, 4]
        for which, j in js.items():
            power = reduce(np.kron, [J_BASE[which]] * memory)
            assert j.dtype == np.float64
            assert np.array_equal(j, power), (memory, which)
    with pytest.raises(ValueError):
        build_admissible(0)


@pytest.mark.parametrize("memory", [1, 2, 3])
def test_flips_compose_by_xor(memory):
    # J_a J_b = J_c where c flips each seat that exactly one of a, b flips.
    js = build_admissible(memory)
    by_flips = {flips: which for which, flips in _FLIPS.items()}
    for a, (leader_a, follower_a) in _FLIPS.items():
        for b, (leader_b, follower_b) in _FLIPS.items():
            c = by_flips[leader_a ^ leader_b, follower_a ^ follower_b]
            assert np.array_equal(js[a] @ js[b], js[c]), (a, b)


# ---- conjugation ----


def test_identity_fixes_strategies():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    assert conjugation_action(p, q, 1) == (p, q)


def test_unknown_relabeling_rejected():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    for which in (0, 5, "2", None):
        with pytest.raises(ValueError, match="which must be one of"):
            conjugation_action(p, q, which)
    # The memories are checked first.
    with pytest.raises(ValueError, match="same memory"):
        conjugation_action(p, random_strategy(2, RNG), 5)


def test_leader_flip_substitution_pattern():
    p = Strategy(np.array([0.1, 0.2, 0.3, 0.4]))
    q = random_strategy(1, RNG)
    p_image, _ = conjugation_action(p, q, 3)
    assert np.allclose(p_image.probs, [0.7, 0.6, 0.9, 0.8])


def test_conjugations_are_involutions():
    p, q = random_strategy(2, RNG), random_strategy(2, RNG)
    for which in (1, 2, 3, 4):
        p2, q2 = conjugation_action(*conjugation_action(p, q, which), which)
        assert np.allclose(p2.probs, p.probs) and np.allclose(q2.probs, q.probs)


def test_conjugation_matches_matrix_conjugation():
    for memory in (1, 2, 3):
        js = build_admissible(memory)
        for _ in range(5):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            m = build_matrix_direct(p, q).entries
            for which, j in js.items():
                p_image, q_image = conjugation_action(p, q, which)
                rebuilt = build_matrix_direct(p_image, q_image).entries
                assert np.max(np.abs(j @ m @ j.T - rebuilt)) < 1e-14


@pytest.mark.parametrize("memory", [1, 2])
def test_both_flips_are_the_win_loss_exchange(memory):
    # A resident plays both seats; J4 maps it to 1 - x reversed in each.
    s = random_strategy(memory, RNG)
    p_image, q_image = conjugation_action(s, s, 4)
    assert np.array_equal(win_loss_exchange(s.probs), p_image.probs)
    assert np.array_equal(p_image.probs, q_image.probs)


# ---- admissibility ----


def test_all_four_admissible_with_payoff_invariance():
    for memory in (1, 2):
        js = build_admissible(memory)
        for _ in range(20):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            for j in js.values():
                report = verify_admissibility(j, p, q, PARAMS)
                assert report.admissible
                assert report.structure_error < 1e-12
                assert report.payoff_error < 1e-10


def test_report_recovers_the_conjugated_pair():
    # Within the module's 1e-12 structure tolerance; at most 1.2e-13 over
    # 400 pair-relabelings at each of N = 1 and 2 and 80 at N = 3.
    for memory in (1, 2, 3):
        js = build_admissible(memory)
        for _ in range(3):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            for which, j in js.items():
                report = verify_admissibility(j, p, q, PARAMS)
                expected_p, expected_q = conjugation_action(p, q, which)
                assert np.max(np.abs(report.p_image.probs - expected_p.probs)) < 1e-12
                assert np.max(np.abs(report.q_image.probs - expected_q.probs)) < 1e-12


def test_non_admissible_permutation_detected():
    swap_first_two = np.eye(4)[[1, 0, 2, 3]]
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    assert not verify_admissibility(swap_first_two, p, q, PARAMS).admissible
    # At memory 2 the conjugated matrix has entries off the successor
    # pattern, where the rebuild from the recovered pair is zero.
    rng = np.random.default_rng(2)
    swap = np.eye(16)[[1, 0, *range(2, 16)]]
    shuffle = np.eye(16)[rng.permutation(16)]
    assert not any(np.array_equal(shuffle, j) for j in build_admissible(2).values())
    for _ in range(5):
        p, q = random_strategy(2, rng), random_strategy(2, rng)
        for j in (swap, shuffle):
            assert not verify_admissibility(j, p, q, PARAMS).admissible


def test_rebuild_refuses_a_pair_whose_votes_agree():
    # A 0/1 memory-2 pair under a shuffle of the 16 states: every follower
    # entry's votes agree, so a pair is recovered, but its matrix is not
    # the conjugated one. The rebuild refuses it with its measured error.
    p = Strategy(np.array([0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1], dtype=float))
    q = Strategy(np.array([0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1], dtype=float))
    shuffle = np.eye(16)[[2, 1, 15, 10, 9, 0, 5, 14, 3, 13, 11, 7, 12, 8, 4, 6]]
    report = verify_admissibility(shuffle, p, q, PARAMS)
    assert report.admissible is False
    assert report.p_image is None
    assert 1e-12 < report.structure_error < np.inf


def _has_unique_stationary(p, q):
    try:
        stationary(build_matrix_direct(p, q))
    except NonUniqueStationaryError:
        return False
    return True


def test_deterministic_leaders_are_decided_by_the_rebuild(pair_corpus):
    # All-C, all-D and tit-for-tat leaders play C with probability 0 or 1,
    # so some follower entries are never voted for; the relabeled pair is
    # still recovered. Where the stationary distribution is not unique the
    # payoff test does not apply (NaN) and the rebuild alone decides.
    unique = 0
    for memory, kind, p, q in pair_corpus:
        if kind != "preset" or memory > 2:
            continue
        has_payoff = _has_unique_stationary(p, q)
        unique += has_payoff
        for which, j in build_admissible(memory).items():
            report = verify_admissibility(j, p, q, PARAMS)
            assert report.admissible, (memory, which)
            assert np.isnan(report.payoff_error) != has_payoff, (memory, which)
            expected_p, _ = conjugation_action(p, q, which)
            assert np.array_equal(report.p_image.probs, expected_p.probs)
    assert 0 < unique < 18


def test_exhaustive_search_answers_on_multichain_corners(pair_corpus):
    # 0/1 corner pairs at memory 1 whose chain has two or more closed
    # classes: no payoff exists, the search still returns its list, and the
    # four relabelings are in it.
    four = {(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)}
    multichain = 0
    for memory, kind, p, q in pair_corpus:
        if memory != 1 or kind != "corner" or _has_unique_stationary(p, q):
            continue
        multichain += 1
        found = exhaustive_admissible_search([(p, q)], PARAMS)
        assert four <= set(found), (p.probs, q.probs)
    assert multichain > 0


def test_rejects_non_permutation_input():
    with pytest.raises(ValueError):
        verify_admissibility(
            np.full((4, 4), 0.25), *[random_strategy(1, RNG)] * 2, PARAMS
        )


NOT_A_PERMUTATION = "J must be a 0/1 permutation matrix"
WRONG_SIZE = "J size must match the 4^N state space"


@pytest.mark.parametrize(
    "j, message",
    [
        (np.float64(1.0), NOT_A_PERMUTATION),
        (Strategy(np.full(4, 0.5)), NOT_A_PERMUTATION),
        (np.ones(4), NOT_A_PERMUTATION),
        (np.ones((4, 3)), NOT_A_PERMUTATION),
        # 0/1 and square, but rows and columns do not each sum to 1.
        (np.ones((4, 4)), NOT_A_PERMUTATION),
        (np.eye(4)[[0, 0, 1, 2]], NOT_A_PERMUTATION),
        # Permutations of another state space than the memory-1 pair's.
        (np.eye(16), WRONG_SIZE),
        (np.eye(0), WRONG_SIZE),
    ],
    ids=["0-d", "strategy", "1-d", "4x3", "ones", "repeated-row", "16x16", "0x0"],
)
def test_malformed_j_is_refused_by_name(j, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        verify_admissibility(j, all_c(1), all_d(1), PARAMS)


def test_exhaustive_search_finds_exactly_the_four():
    pairs = [(random_strategy(1, RNG), random_strategy(1, RNG)) for _ in range(5)]
    found = exhaustive_admissible_search(pairs, PARAMS)
    assert sorted(found) == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def test_exhaustive_search_at_a_large_benefit_finds_the_four():
    # The payoffs, and so the roundoff between the two stationary solves,
    # grow with b: the payoff test is in units of b. An absolute 1e-10
    # admitted only the identity at b = 1e8.
    rng = np.random.default_rng(1)
    pairs = [(random_strategy(1, rng), random_strategy(1, rng)) for _ in range(5)]
    found = exhaustive_admissible_search(pairs, PayoffParams(b=1e8, c=3e7))
    assert sorted(found) == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
