"""Parameterized livelock-freedom certification (Theorem 5.14).

For a unidirectional ring protocol with self-disabling actions, if some
``p(K)`` has a livelock then the LTG contains a contiguous trail through an
illegitimate local state whose t-arcs form pseudo-livelocks.  A trail of
any round pattern ``(K, |E|)`` maps, phase by kind, onto one finite object
that does not depend on K: the three-phase (T, S, S!) product of its t-arc
support.  The certifier therefore asks one question that covers every K:

* does *some* pseudo-livelock support have a matching component in its
  three-phase product?  The kernel answers with one SCC refinement over
  the whole transition set, without enumerating supports
  (:meth:`repro.engine.localkernel.LocalKernel.livelock_support`);
* if none does, livelock-freedom is certified for **all** K;
* otherwise the answer is *unknown* (the condition is sufficient only — a
  found trail may be spurious, see sum-not-two in Section 6.2).  The
  bounded ``(K, |E|)`` scan up to ``max_ring_size`` names the matched
  support's round pattern when it has one within that bound.

The naive backend is the reference: it enumerates every support (capped,
see :data:`repro.core.pseudolivelock.MAX_SUPPORTS`) and builds one naive
three-phase product per support.

On bidirectional rings the same machinery certifies absence of
*contiguous* livelocks only (Section 5's closing remark); the report says
so explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.pseudolivelock import (
    SupportExplosion,
    pseudo_livelock_supports,
)
from repro.core.selfdisabling import (
    is_self_disabling,
    is_self_terminating,
    not_self_terminating_reason,
    self_enabling_reason,
)
from repro.core.trail import ContiguousTrailSearcher, TrailWitness
from repro.engine import EngineStats
from repro.errors import AssumptionViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


class LivelockVerdict(enum.Enum):
    """Outcome of the Theorem 5.14 analysis."""

    CERTIFIED_FREE = "certified-livelock-free"
    """No pseudo-livelock support has a match in its three-phase
    product, so none forms a contiguous trail at any K: livelock-free
    for every ring size (for unidirectional rings;
    contiguous-livelock-free for bidirectional ones)."""

    UNKNOWN = "unknown"
    """Some support has a match; the sufficient condition cannot
    conclude.  The witness may or may not be a real livelock — check
    concrete sizes with :mod:`repro.checker`."""


@dataclass(frozen=True)
class LivelockReport:
    """Result of the parameterized livelock analysis."""

    verdict: LivelockVerdict
    passes: int
    """The work behind the verdict: SCC passes of the kernel's
    refinement, or supports examined by the naive reference."""
    trail_witnesses: tuple[TrailWitness, ...]
    """Empty when certified; otherwise the one matched support.  Its
    ``ring_size`` and ``enablements`` are ``None`` when it forms no
    trail up to ``max_ring_size``."""
    contiguous_only: bool
    """True on bidirectional rings: the verdict covers only contiguous
    livelocks (Theorem 5.14's scope there)."""
    note: str = ""
    """Human-readable caveat, e.g. when the naive reference's support
    enumeration was cut off and the verdict degraded to a conservative
    UNKNOWN."""
    stats: EngineStats | None = field(default=None, compare=False)
    """Engine instrumentation for this run (excluded from equality)."""

    @property
    def certified(self) -> bool:
        """Whether livelock-freedom is certified for all K."""
        return (self.verdict is LivelockVerdict.CERTIFIED_FREE
                and not self.contiguous_only)


class LivelockCertifier:
    """Runs the Theorem 5.14 sufficient condition on a protocol.

    The verdict covers every ring size; *max_ring_size* only bounds the
    ``(K, |E|)`` scan that names a matched support's round pattern.
    The certificate is not cached on its own:
    :func:`repro.core.convergence.verify_convergence` caches the whole
    report that carries it.
    """

    def __init__(self, protocol: "RingProtocol",
                 max_ring_size: int = 9,
                 require_self_disabling: bool = True,
                 backend: str = "auto") -> None:
        if max_ring_size < 2:
            raise ValueError("max_ring_size must be at least 2")
        resolved = "kernel" if backend == "auto" else backend
        if resolved not in ("kernel", "naive"):
            raise ValueError(f"unknown livelock backend {backend!r}")
        self.protocol = protocol
        self.max_ring_size = max_ring_size
        self.require_self_disabling = require_self_disabling
        self.backend = resolved

    def analyze(self) -> LivelockReport:
        """Run the analysis; raises :class:`AssumptionViolation` when the
        protocol breaks Assumption 1/2 (use
        :func:`repro.core.selfdisabling.make_self_disabling` first)."""
        stats = EngineStats()
        space = self.protocol.space
        if self.require_self_disabling:
            if not is_self_terminating(space):
                raise AssumptionViolation(
                    not_self_terminating_reason(self.protocol.name))
            if not is_self_disabling(space):
                raise AssumptionViolation(
                    self_enabling_reason(self.protocol.name))

        contiguous_only = not self.protocol.unidirectional
        with stats.stage("trail-search", backend=self.backend):
            if self.backend == "naive":
                searcher = ContiguousTrailSearcher(
                    self.protocol, max_ring_size=self.max_ring_size)
                try:
                    witness, passes = _naive_livelock_support(searcher)
                except SupportExplosion as explosion:
                    # Too many candidate supports to examine: degrade to
                    # the (sound) conservative answer.
                    return LivelockReport(
                        verdict=LivelockVerdict.UNKNOWN, passes=0,
                        trail_witnesses=(),
                        contiguous_only=contiguous_only,
                        note=str(explosion), stats=stats)
                named = (None if witness is None
                         else searcher.find_trail(witness.t_arcs))
            else:
                from repro.engine.localkernel import local_kernel_for

                kernel = local_kernel_for(self.protocol)
                witness, passes = kernel.livelock_support(space.transitions)
                named = (None if witness is None
                         else kernel.find_trail(witness.t_arcs,
                                                self.max_ring_size))
        if named is not None:
            witness = replace(witness, ring_size=named.ring_size,
                              enablements=named.enablements)

        return LivelockReport(
            verdict=(LivelockVerdict.CERTIFIED_FREE if witness is None
                     else LivelockVerdict.UNKNOWN),
            passes=passes,
            trail_witnesses=() if witness is None else (witness,),
            contiguous_only=contiguous_only,
            stats=stats,
        )


def _naive_livelock_support(searcher: ContiguousTrailSearcher,
                            ) -> tuple[TrailWitness | None, int]:
    """The reference for :meth:`LocalKernel.livelock_support
    <repro.engine.localkernel.LocalKernel.livelock_support>`: the first
    support, in enumeration order, whose naive three-phase product
    matches, and the number of supports examined."""
    supports = pseudo_livelock_supports(searcher.space.transitions)
    for examined, support in enumerate(supports, 1):
        witness = searcher.forms_trail(support)
        if witness is not None:
            return witness, examined
    return None, len(supports)


def certify_livelock_freedom(protocol: "RingProtocol",
                             max_ring_size: int = 9,
                             backend: str = "auto") -> LivelockReport:
    """Convenience wrapper around :class:`LivelockCertifier`."""
    return LivelockCertifier(protocol, max_ring_size=max_ring_size,
                             backend=backend).analyze()
