"""History encoding, strategy containers, and payoff parameter wiring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altpd.strategy import (
    Action,
    History,
    PayoffParams,
    RawPayoffs,
    Strategy,
    all_c,
    all_d,
    decode_history,
    encode_history,
    follower_index,
    random_strategy,
    raw_from_donation,
    state_label,
    tit_for_tat,
    validate_raw,
)
from altpd.strategy import _mask_even, _mask_odd, _successor_table


# ---- history encoding ----


def test_lexicographic_corners():
    assert encode_history("CC") == 0
    assert encode_history("DD") == 3
    # First symbol most significant: CDDC reads as binary 0110.
    assert encode_history("CDDC") == 6


def test_memory_one_labels_enumerate_round_outcomes():
    assert [state_label(i, 1) for i in range(4)] == ["CC", "CD", "DC", "DD"]


def test_labels_join_round_pairs():
    assert state_label(6, 2) == "CD|DC"
    assert state_label(0, 3) == "CC|CC|CC"


def test_encode_decode_round_trip_exhaustive():
    for memory in (1, 2, 3):
        for index in range(4**memory):
            h = decode_history(index, memory)
            assert h.memory == memory
            assert encode_history(h) == index


def test_malformed_histories_rejected():
    for word in ("C", "CCC", "CX", ""):
        with pytest.raises(ValueError):
            encode_history(word)
    with pytest.raises(ValueError):
        decode_history(4, 1)


def test_follower_sees_leaders_fresh_move():
    # Drop the leader's oldest symbol, append its current choice.
    assert follower_index("CD", "C") == encode_history("DC")
    assert follower_index("CC", "D") == encode_history("CD")
    assert follower_index("CDDC", "D") == encode_history("DDCD")


def test_follower_index_stays_in_range():
    for memory in (1, 2):
        for index in range(4**memory):
            h = decode_history(index, memory)
            for a in (Action.C, Action.D):
                assert 0 <= follower_index(h, a) < 4**memory


def test_successor_table_matches_word_operations():
    # Derived on the words themselves: the follower's word drops the first
    # symbol and appends a; the next history drops the first round and
    # appends (a, b). Seats move along with the symbols they label.
    for memory in (1, 2, 3, 4):
        follower, successor = _successor_table(memory)
        for h in range(4**memory):
            word = decode_history(h, memory).word
            for a in (0, 1):
                k = encode_history(word[1:] + "CD"[a])
                assert follower[h][a] == k == follower_index(word, a)
                for b in (0, 1):
                    next_word = word[2:] + "CD"[a] + "CD"[b]
                    assert successor[h][a][b] == encode_history(next_word)
        leader_seats = "LF" * memory
        follower_seats = leader_seats[1:] + "L"
        for seats, owner in ((leader_seats, "L"), (follower_seats, "F")):
            own = encode_history("".join("D" if s == owner else "C" for s in seats))
            other = encode_history("".join("C" if s == owner else "D" for s in seats))
            assert (_mask_odd(memory), _mask_even(memory)) == (own, other)


def test_actions_are_cooperate_zero_defect_one():
    assert Action.C == 0 and Action.D == 1
    assert Action.parse("c") is Action.C
    with pytest.raises(ValueError):
        Action.parse("x")


# ---- strategies ----


def test_strategy_checks_shape_and_range():
    with pytest.raises(ValueError):
        Strategy(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Strategy(np.array([0.5, 0.5, 0.5, 1.5]))
    with pytest.raises(ValueError):
        Strategy(np.full((2, 2), 0.5))


def test_strategy_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            Strategy(np.array([bad, 0.5, 0.5, 0.5]))


def test_strategy_memory_inferred_from_length():
    assert Strategy(np.full(4, 0.5)).memory == 1
    assert Strategy(np.full(16, 0.5)).memory == 2
    assert Strategy(np.full(64, 0.5)).memory == 3


def test_presets():
    assert np.all(all_c(2).probs == 1.0)
    assert np.all(all_d(2).probs == 0.0)
    s = random_strategy(3, np.random.default_rng(7))
    assert s.memory == 3 and np.all((s.probs >= 0) & (s.probs <= 1))
    # Mirror rule reads the last symbol, the co-player's freshest action.
    assert list(tit_for_tat(1).probs) == [1.0, 0.0, 1.0, 0.0]


def test_strategy_probs_are_read_only():
    s = all_c(1)
    with pytest.raises(ValueError):
        s.probs[0] = 0.0


# ---- payoff parameters ----


def test_donation_payoffs():
    params = PayoffParams(b=1.0, c=0.3)
    assert params.rstp == pytest.approx((0.7, -0.3, 1.0, 0.0))


def test_payoff_params_require_positive_gain():
    with pytest.raises(ValueError):
        PayoffParams(b=0.3, c=0.3)
    with pytest.raises(ValueError):
        PayoffParams(b=1.0, c=0.0)


def test_payoff_params_require_finite_values():
    for b, c in [(np.inf, 0.3), (np.nan, 0.3), (1.0, np.nan), (np.inf, np.inf)]:
        with pytest.raises(ValueError):
            PayoffParams(b=b, c=c)


def test_equal_gains_identity():
    for b, c in [(1.0, 0.3), (2.0, 0.5), (1.5, 1.2)]:
        params = PayoffParams(b=b, c=c)
        assert params.r + params.p == pytest.approx(params.s + params.t)


def test_raw_from_donation_frozen_values():
    assert raw_from_donation(PayoffParams(1.0, 0.3), 0.0) == RawPayoffs(
        0.0, 1.0, 0.3, -1.3
    )
    assert raw_from_donation(PayoffParams(2.0, 0.5), 1.0) == RawPayoffs(
        1.0, 1.0, 1.5, -3.5
    )


def test_validate_raw_frozen_values():
    assert validate_raw(RawPayoffs(0.0, 1.0, 0.3, -1.3))
    assert not validate_raw(RawPayoffs(1.0, 1.0, 0.5, 0.0))
    assert not validate_raw(RawPayoffs(0.0, 1.0, 0.9, 0.5))


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_raw_from_donation_always_valid(b, c_fraction, a):
    params = PayoffParams(b=b, c=b * c_fraction)
    assert validate_raw(raw_from_donation(params, a))


def test_history_container():
    h = History("CDDC")
    assert h.memory == 2 and h.index == 6
    with pytest.raises(ValueError):
        History("CDC")
