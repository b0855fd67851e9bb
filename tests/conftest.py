"""Shared test inputs."""

import numpy as np
import pytest

from altpd.strategy import Strategy, all_c, all_d, tit_for_tat


@pytest.fixture(scope="session")
def pair_corpus():
    """(memory, kind, p, q) at N = 1, 2, 3: the nine all-C/all-D/tit-for-tat
    preset pairs, then random pairs, pairs rounded to k/1024 and 0/1 corner
    pairs, 252 in all. The presets and corners include reducible chains,
    with one closed class or with several, so both the stationary solve and
    its closed-class refusal are reached."""
    rng = np.random.default_rng(5)
    presets = (all_c, all_d, tit_for_tat)
    corpus = []
    for memory in (1, 2, 3):
        n = 4**memory
        corpus += [
            (memory, "preset", a(memory), b(memory)) for a in presets for b in presets
        ]
        draws = {
            "random": lambda: rng.random(n),
            "rounded": lambda: np.round(rng.random(n) * 1024) / 1024,
            "corner": lambda: rng.integers(0, 2, n).astype(float),
        }
        for kind, draw in draws.items():
            corpus += [
                (memory, kind, Strategy(draw()), Strategy(draw())) for _ in range(25)
            ]
    return corpus
