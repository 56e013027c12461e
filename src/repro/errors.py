"""Exception hierarchy for the library.

All errors raised by :mod:`repro` derive from :class:`ReproError`, so a
caller can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ProtocolDefinitionError(ReproError):
    """A protocol, process template or invariant is ill-formed."""


class DslSyntaxError(ProtocolDefinitionError):
    """A guarded-command DSL string could not be parsed."""


class DslNameError(ProtocolDefinitionError):
    """A DSL expression references an unknown variable or offset."""


class DomainError(ProtocolDefinitionError):
    """A statement assigned a value outside the variable's domain."""


class TopologyError(ReproError):
    """An analysis was applied to an unsupported topology.

    For example, the livelock certificate of Theorem 5.14 requires a
    unidirectional ring (or, on bidirectional rings, only certifies absence
    of *contiguous* livelocks).
    """


class AssumptionViolation(ReproError):
    """A protocol violates an assumption of the analysis being run.

    Section 5 requires self-terminating processes and self-disabling actions
    (Assumption 1 and 2); analyses that rely on them refuse to run
    otherwise — use
    :func:`repro.core.selfdisabling.make_self_disabling` first.
    """


class SynthesisFailure(ReproError):
    """The synthesis methodology declared failure (Section 6, step 5)."""


class VerificationError(ReproError):
    """A requested verification could not be carried out."""
