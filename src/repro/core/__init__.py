"""The paper's contribution: local reasoning over the representative
process's state space for global, any-K guarantees.

Main entry points
-----------------
* :func:`repro.core.convergence.verify_convergence` — the combined
  parameterized analysis (Theorem 4.2 + Theorem 5.14).
* :func:`repro.core.synthesis.synthesize_convergence` — the Section 6
  methodology: add convergence to a non-stabilizing protocol.
* :func:`repro.core.deadlock.analyze_deadlocks`,
  :func:`repro.core.livelock.certify_livelock_freedom` — the individual
  analyses.
* :func:`repro.core.rcg.build_rcg`, :func:`repro.core.ltg.build_ltg` —
  the underlying graph constructions.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "rcg": ("build_rcg", "closed_walk_to_global_state"),
    "ltg": ("build_ltg", "ltg_of", "t_arcs"),
    "deadlock": ("DeadlockAnalyzer", "DeadlockReport", "analyze_deadlocks"),
    "pseudolivelock": (
        "write_projection_graph",
        "has_pseudo_livelock",
        "elementary_pseudo_livelocks",
        "pseudo_livelock_supports",
        "is_pseudo_livelock_support",
    ),
    "trail": ("ContiguousTrailSearcher", "TrailWitness", "round_pattern"),
    "livelock": (
        "LivelockCertifier",
        "LivelockReport",
        "LivelockVerdict",
        "certify_livelock_freedom",
    ),
    "selfdisabling": (
        "is_self_disabling",
        "is_self_terminating",
        "make_self_disabling",
        "self_disabling_transitions",
    ),
    "convergence": (
        "ConvergenceReport",
        "ConvergenceVerdict",
        "check_local_closure",
        "verify_convergence",
    ),
    "synthesis": (
        "Synthesizer",
        "SynthesisResult",
        "SynthesisOutcome",
        "synthesize_convergence",
    ),
    "precedence": (
        "PrecedenceRelation",
        "precedence_relation",
        "precedence_preserving_schedules",
    ),
    "contiguous": ("ContiguousLivelockModel",),
    "hybrid": (
        "HybridReport",
        "HybridVerdict",
        "WitnessClassification",
        "hybrid_verify",
        "HybridSynthesisResult",
        "hybrid_synthesize",
    ),
})
