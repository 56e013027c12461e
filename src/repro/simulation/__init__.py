"""Execution of concrete protocol instances under interleaving semantics.

Provides central-daemon schedulers (random, round-robin, adversarial),
an execution engine producing traces, transient-fault injection, and
convergence-time statistics — the runtime counterpart of the static
analyses: a protocol certified convergent by :mod:`repro.core` can be
watched actually recovering here.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "schedulers": (
        "Scheduler",
        "RandomScheduler",
        "RoundRobinScheduler",
        "AdversarialScheduler",
    ),
    "engine": ("Trace", "run", "run_until_convergence"),
    "faults": ("perturb", "random_state"),
    "metrics": ("ConvergenceStats", "convergence_study"),
    "rounds": ("round_boundaries", "rounds_to_convergence"),
})
