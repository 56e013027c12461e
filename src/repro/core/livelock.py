"""Parameterized livelock-freedom certification (Theorem 5.14).

For a unidirectional ring protocol with self-disabling actions, if some
``p(K)`` has a livelock then the LTG contains a contiguous trail through an
illegitimate local state whose t-arcs form pseudo-livelocks.  The certifier
therefore:

1. enumerates every candidate t-arc support (union of elementary
   pseudo-livelocks of ``δ_r``);
2. runs the contiguous-trail search for each;
3. certifies livelock-freedom for **all** K when no support yields a
   trail, and otherwise answers *unknown* (the condition is sufficient
   only — a found trail may be spurious, see sum-not-two in Section 6.2).

On bidirectional rings the same machinery certifies absence of
*contiguous* livelocks only (Section 5's closing remark); the report says
so explicitly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
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
from repro.engine import EngineStats, supervise_work_items
from repro.engine.supervisor import SupervisorPolicy
from repro.errors import AssumptionViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


class LivelockVerdict(enum.Enum):
    """Outcome of the Theorem 5.14 analysis."""

    CERTIFIED_FREE = "certified-livelock-free"
    """No pseudo-livelock support forms a contiguous trail: livelock-free
    for every ring size (for unidirectional rings; contiguous-livelock-free
    for bidirectional ones)."""

    UNKNOWN = "unknown"
    """Some support forms a contiguous trail; the sufficient condition
    cannot conclude.  The witnesses may or may not be real livelocks —
    check concrete sizes with :mod:`repro.checker`."""


@dataclass(frozen=True)
class LivelockReport:
    """Result of the parameterized livelock analysis."""

    verdict: LivelockVerdict
    supports_checked: int
    trail_witnesses: tuple[TrailWitness, ...]
    contiguous_only: bool
    """True on bidirectional rings: the verdict covers only contiguous
    livelocks (Theorem 5.14's scope there)."""
    note: str = ""
    """Human-readable caveat, e.g. when support enumeration was cut off
    and the verdict degraded to a conservative UNKNOWN."""
    stats: EngineStats | None = field(default=None, compare=False)
    """Engine instrumentation for this run (excluded from equality)."""

    @property
    def certified(self) -> bool:
        """Whether livelock-freedom is certified for all K."""
        return (self.verdict is LivelockVerdict.CERTIFIED_FREE
                and not self.contiguous_only)


def _find_trail_worker(searcher: ContiguousTrailSearcher,
                       support) -> TrailWitness | None:
    """Module-level worker for :func:`repro.engine.supervise_work_items`."""
    return searcher.find_trail(support)


class LivelockCertifier:
    """Runs the Theorem 5.14 sufficient condition on a protocol.

    Each candidate t-arc support is an independent contiguous-trail
    search, so ``jobs > 1`` fans the supports out over worker processes
    (witnesses keep the serial support order).  The certificate is not
    cached on its own: :func:`repro.core.convergence.verify_convergence`
    caches the whole report that carries it.
    """

    def __init__(self, protocol: "RingProtocol",
                 max_ring_size: int = 9,
                 require_self_disabling: bool = True,
                 jobs: int = 1,
                 backend: str = "auto",
                 policy: SupervisorPolicy | None = None) -> None:
        self.protocol = protocol
        self.max_ring_size = max_ring_size
        self.require_self_disabling = require_self_disabling
        self.jobs = jobs
        self.backend = backend
        self.policy = policy

    def analyze(self) -> LivelockReport:
        """Run the analysis; raises :class:`AssumptionViolation` when the
        protocol breaks Assumption 1/2 (use
        :func:`repro.core.selfdisabling.make_self_disabling` first)."""
        stats = EngineStats(jobs=self.jobs)
        space = self.protocol.space
        if self.require_self_disabling:
            if not is_self_terminating(space):
                raise AssumptionViolation(
                    not_self_terminating_reason(self.protocol.name))
            if not is_self_disabling(space):
                raise AssumptionViolation(
                    self_enabling_reason(self.protocol.name))

        with stats.stage("supports"):
            try:
                supports = pseudo_livelock_supports(space.transitions)
            except SupportExplosion as explosion:
                # Too many candidate supports to examine: degrade to the
                # (sound) conservative answer.
                return LivelockReport(
                    verdict=LivelockVerdict.UNKNOWN,
                    supports_checked=0,
                    trail_witnesses=(),
                    contiguous_only=not self.protocol.unidirectional,
                    note=str(explosion),
                    stats=stats,
                )
        with stats.stage("trail-search", supports=len(supports),
                         backend=self.backend):
            # No separate prewarm hook: constructing the searcher
            # compiles the local kernel in-parent, so forked workers
            # inherit it hot.
            searcher = ContiguousTrailSearcher(
                self.protocol, max_ring_size=self.max_ring_size,
                backend=self.backend)
            found = supervise_work_items(
                _find_trail_worker, supports, jobs=self.jobs,
                context=searcher, stats=stats, policy=self.policy)
        witnesses = [witness for witness in found if witness is not None]

        verdict = (LivelockVerdict.CERTIFIED_FREE if not witnesses
                   else LivelockVerdict.UNKNOWN)
        return LivelockReport(
            verdict=verdict,
            supports_checked=len(supports),
            trail_witnesses=tuple(witnesses),
            contiguous_only=not self.protocol.unidirectional,
            stats=stats,
        )


def certify_livelock_freedom(protocol: "RingProtocol",
                             max_ring_size: int = 9,
                             jobs: int = 1,
                             backend: str = "auto") -> LivelockReport:
    """Convenience wrapper around :class:`LivelockCertifier`."""
    return LivelockCertifier(protocol, max_ring_size=max_ring_size,
                             jobs=jobs, backend=backend).analyze()
