"""Explicit-state global model checking for fixed ring sizes.

This is the substrate the paper's local method is contrasted with (and
validated against): for one concrete ``K`` it explores the global state
space ``S_p(K)`` — on symmetric rings through its rotation quotient,
reporting the full space — and decides closure, deadlock-freedom,
livelock-freedom and strong/weak convergence exactly (Proposition 2.1).

The cost grows exponentially in ``K`` — which is precisely the paper's
motivation for reasoning in the local state space instead.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "statespace": ("StateGraph",),
    "convergence": (
        "GlobalReport",
        "check_instance",
        "is_closed",
        "is_self_stabilizing",
        "strongly_converges",
        "weakly_converges",
    ),
    "deadlock": ("illegitimate_deadlocks",),
    "livelock": ("livelock_cycles",),
    "synthesis": ("GlobalSynthesizer", "GlobalSynthesisResult"),
    "sweep": ("SweepResult", "sweep_verify"),
    "ranking": ("RankingCertificate", "compute_ranking", "verify_ranking"),
})
