"""Adaptive dynamics of the alternating donation game.

Strategies remember the last N rounds; the leader moves first each round
and the follower replies having seen it. The package builds the induced
Markov chain over history states, computes long-run payoffs two ways,
follows the memory-1 adaptive dynamics with its two conserved quantities,
reduces the flow to invariant tori, and cross-checks everything against a
Monte Carlo oracle.
"""

from . import chain, dynamics, errors, oracle, payoff, strategy, symmetry, torus, verify
from .chain import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .oracle import *  # noqa: F403
from .payoff import *  # noqa: F403
from .strategy import *  # noqa: F403
from .symmetry import *  # noqa: F403
from .torus import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# The package API is exactly the modules' own public names (cli stays out).
__all__ = [
    name
    for module in (chain, dynamics, errors, oracle, payoff, strategy, symmetry, torus, verify)
    for name in module.__all__
]
