"""Relabeling symmetries: group structure, conjugation, admissibility."""

import numpy as np
import pytest

from altpd.chain import build_matrix_direct, stationary
from altpd.errors import NonUniqueStationaryError
from altpd.strategy import PayoffParams, Strategy, random_strategy
from altpd.symmetry import (
    J_BASE,
    build_admissible,
    conjugation_action,
    exhaustive_admissible_search,
    verify_admissibility,
)

RNG = np.random.default_rng(0)
PARAMS = PayoffParams(b=1.0, c=0.3)


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
    js = build_admissible(2)
    assert np.array_equal(js[1], np.eye(16))
    for which in (2, 3, 4):
        assert np.array_equal(js[which], np.kron(J_BASE[which], J_BASE[which]))
    with pytest.raises(ValueError):
        build_admissible(0)


# ---- conjugation ----


def test_identity_fixes_strategies():
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    assert conjugation_action(p, q, 1) == (p, q)


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
    for memory in (1, 2):
        js = build_admissible(memory)
        for _ in range(5):
            p, q = random_strategy(memory, RNG), random_strategy(memory, RNG)
            m = build_matrix_direct(p, q).entries
            for which, j in js.items():
                p_image, q_image = conjugation_action(p, q, which)
                rebuilt = build_matrix_direct(p_image, q_image).entries
                assert np.max(np.abs(j @ m @ j.T - rebuilt)) < 1e-14


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
    p, q = random_strategy(1, RNG), random_strategy(1, RNG)
    report = verify_admissibility(J_BASE[4], p, q, PARAMS)
    expected_p, expected_q = conjugation_action(p, q, 4)
    assert np.allclose(report.p_image.probs, expected_p.probs)
    assert np.allclose(report.q_image.probs, expected_q.probs)


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


def test_exhaustive_search_finds_exactly_the_four():
    pairs = [(random_strategy(1, RNG), random_strategy(1, RNG)) for _ in range(5)]
    found = exhaustive_admissible_search(pairs, PARAMS)
    assert sorted(found) == [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
