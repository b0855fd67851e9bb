"""Adaptive dynamics of the alternating donation game.

Strategies remember the last N rounds; the leader moves first each round
and the follower replies having seen it. The package builds the induced
Markov chain over history states, computes long-run payoffs two ways,
follows the memory-1 adaptive dynamics with its two conserved quantities,
reduces the flow to invariant tori, and cross-checks everything against a
Monte Carlo oracle.

Modules load on first use: `import altpd` imports none of them, and the
first name asked of the package loads them all.
"""

import importlib

__version__ = "0.1.0"

# The package API is exactly these modules' own public names, in this order
# (cli stays out).
_MODULES = ("chain", "dynamics", "errors", "oracle", "payoff", "strategy", "symmetry", "torus", "verify")


def __getattr__(name):
    """Load on first use (PEP 562).

    The first name asked of the package that it does not hold imports
    every module and binds its `__all__` names here, and `__all__` becomes
    their concatenation, so `altpd.X` is the module's own object and
    `from altpd import *` binds the same names.
    """
    namespace = globals()
    if "__all__" not in namespace:
        public = []
        for module_name in _MODULES:
            module = importlib.import_module(f"{__name__}.{module_name}")
            namespace.update((n, getattr(module, n)) for n in module.__all__)
            public += module.__all__
        namespace["__all__"] = public
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
