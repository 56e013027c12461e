"""Local reasoning for global convergence of parameterized rings.

A verification and synthesis library for self-stabilizing ring protocols,
reproducing Farahat & Ebnenasir (ICDCS 2012 / Michigan Tech CS-TR-11-04):

* model parameterized ring protocols from a representative process
  (:mod:`repro.protocol`);
* decide **deadlock-freedom for every ring size** from the Right
  Continuation Graph — Theorem 4.2, exact
  (:func:`repro.core.analyze_deadlocks`);
* certify **livelock-freedom for every ring size** from the Local
  Transition Graph — Theorem 5.14, sufficient
  (:func:`repro.core.certify_livelock_freedom`);
* **synthesize convergence** in the local state space — Section 6
  (:func:`repro.core.synthesize_convergence`);
* cross-validate with an explicit-state global model checker and a
  fixed-K global synthesizer baseline (:mod:`repro.checker`);
* execute and fault-inject concrete rings (:mod:`repro.simulation`).

Quickstart
----------
>>> from repro import RingProtocol, ProcessTemplate, ranged
>>> from repro import synthesize_convergence
>>> x = ranged("x", 2)
>>> empty = ProcessTemplate(variables=(x,))
>>> agreement = RingProtocol("agreement", empty, "x[0] == x[-1]")
>>> result = synthesize_convergence(agreement)
>>> result.succeeded
True
"""

from repro import _lazy

__version__ = "0.1.0"

__all__ = ["__version__", *_lazy.exports(globals(), {
    "errors": (
        "ReproError",
        "ProtocolDefinitionError",
        "DslSyntaxError",
        "DslNameError",
        "DomainError",
        "TopologyError",
        "AssumptionViolation",
        "SynthesisFailure",
        "VerificationError",
    ),
    # protocol model
    "protocol.variables": ("boolean", "ranged"),
    "protocol": (
        "Variable",
        "Action",
        "LocalState",
        "LocalStateSpace",
        "LocalTransition",
        "LocalView",
        "ProcessTemplate",
        "RingProtocol",
        "RingInstance",
        "parse_action",
        "parse_predicate",
    ),
    # local reasoning, and the hybrid extension
    "core": (
        "DeadlockAnalyzer",
        "DeadlockReport",
        "analyze_deadlocks",
        "LivelockCertifier",
        "LivelockReport",
        "LivelockVerdict",
        "certify_livelock_freedom",
        "make_self_disabling",
        "ConvergenceReport",
        "ConvergenceVerdict",
        "verify_convergence",
        "Synthesizer",
        "SynthesisResult",
        "SynthesisOutcome",
        "synthesize_convergence",
        "HybridVerdict",
        "hybrid_verify",
        "hybrid_synthesize",
    ),
    # global substrate
    "checker": (
        "check_instance",
        "GlobalSynthesizer",
        "compute_ranking",
        "verify_ranking",
        "sweep_verify",
    ),
    # chain and tree extensions
    "protocol.chain": ("ChainProtocol", "ChainInstance"),
    "core.chains": (
        "verify_chain_convergence",
        "synthesize_chain_convergence",
    ),
    "protocol.tree": ("TreeInstance",),
    "core.trees": ("TreeDeadlockAnalyzer",),
    # serialization
    "serialization": (
        "protocol_to_dict",
        "protocol_from_dict",
        "save_protocol",
        "load_protocol",
    ),
})]
