"""Random ring-protocol generation and theorem fuzzing.

The most convincing evidence that a verification procedure is
implemented correctly is adversarial: sample random protocols and
compare the local verdicts against brute-force global checking.  This
module provides

* :class:`ProtocolSampler` — random unidirectional ring protocols with
  locally conjunctive invariants and (optionally) self-disabling,
  closure-respecting transition sets;
* :func:`audit_theorems` — a fuzzing harness asserting Theorem 4.2's
  exactness and Theorem 5.14's soundness on each sample, used by the
  hypothesis test-suite and exposed on the CLI as ``repro fuzz``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.checker.livelock import has_livelock
from repro.checker.statespace import StateGraph
from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import LivelockCertifier, LivelockVerdict
from repro.core.selfdisabling import action_for_transition
from repro.engine import EngineStats, ResultCache, analysis_key, \
    supervise_work_items
from repro.engine.supervisor import SupervisorPolicy
from repro.protocol.actions import LocalTransition
from repro.protocol.localstate import LocalState
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged


@dataclass
class ProtocolSampler:
    """Samples random unidirectional ring protocols.

    Parameters
    ----------
    min_domain, max_domain:
        Range of the (single) variable's domain size.
    max_transitions:
        Upper bound on the number of local transitions drawn.
    restrict_sources_to_bad:
        When true, transitions originate only in illegitimate local
        states — which makes ``I`` trivially closed (inside ``I`` no
        process is enabled) and matches the synthesis setting of
        Section 6.  Theorem 5.14's certificate presumes closure, so the
        livelock fuzzing keeps this on.
    seed:
        RNG seed; each :meth:`sample` call advances the stream.
    """

    min_domain: int = 2
    max_domain: int = 3
    max_transitions: int = 6
    restrict_sources_to_bad: bool = True
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 2 <= self.min_domain <= self.max_domain:
            raise ValueError("need 2 <= min_domain <= max_domain")
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    def sample(self) -> RingProtocol:
        """Draw one random protocol."""
        rng = self._rng
        domain = rng.randint(self.min_domain, self.max_domain)
        x = ranged("x", domain)
        blank = RingProtocol("random",
                             ProcessTemplate(variables=(x,)),
                             lambda view: True)
        states = blank.space.states
        legit = frozenset(s for s in states if rng.random() < 0.5)
        protocol = RingProtocol(
            "random", ProcessTemplate(variables=(x,)),
            _membership_predicate(legit))

        picks: list[LocalTransition] = []
        sources: set[LocalState] = set()
        for _ in range(rng.randint(0, self.max_transitions)):
            source = states[rng.randrange(len(states))]
            if self.restrict_sources_to_bad and source in legit:
                continue
            new_value = rng.randrange(domain)
            target = source.replace_own((new_value,))
            if target == source:
                continue
            picks.append(LocalTransition(source, target, "rnd"))
            sources.add(source)
        # Keep the set self-disabling: no transition may land on another
        # transition's source.
        kept = [t for t in picks if t.target not in sources]
        deduped = list(dict.fromkeys(kept))
        actions = tuple(action_for_transition(t, name=f"r{i}")
                        for i, t in enumerate(deduped))
        return protocol.with_actions(actions, name="random")


def _membership_predicate(legit: frozenset):
    def predicate(view) -> bool:
        return view.state in legit

    return predicate


@dataclass(frozen=True)
class Discrepancy:
    """A disagreement between local and global verdicts (a bug if ever
    produced)."""

    kind: str
    ring_size: int
    protocol_listing: str


@dataclass
class AuditReport:
    """Outcome of a fuzzing run."""

    samples: int
    certificates_issued: int
    deadlock_checks: int
    discrepancies: list[Discrepancy] = field(default_factory=list)
    stats: EngineStats | None = field(default=None, compare=False)

    @property
    def clean(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "CLEAN" if self.clean else \
            f"{len(self.discrepancies)} DISCREPANCIES"
        return (f"fuzzing audit: {self.samples} random protocols, "
                f"{self.deadlock_checks} per-size deadlock comparisons, "
                f"{self.certificates_issued} livelock certificates "
                f"verified — {status}")


@dataclass(frozen=True)
class _SampleOutcome:
    """The audit of one sampled protocol (picklable work-item result)."""

    certified: bool
    deadlock_checks: int
    states_explored: int
    discrepancies: tuple[Discrepancy, ...]


def _audit_one(max_ring_size: int, protocol: RingProtocol,
               ) -> _SampleOutcome:
    """Audit a single protocol against brute force (one work item).

    The brute-force side rides the compiled kernel backend through
    :class:`StateGraph` — one packed enumeration per size answers both
    the deadlock and (under a certificate) the livelock comparison.
    """
    analyzer = DeadlockAnalyzer(protocol)
    predicted = analyzer.deadlocked_ring_sizes(max_ring_size)
    certificate = LivelockCertifier(
        protocol, max_ring_size=max_ring_size + 1).analyze()
    certified = certificate.verdict is LivelockVerdict.CERTIFIED_FREE
    deadlock_checks = 0
    states_explored = 0
    discrepancies: list[Discrepancy] = []
    for size in range(2, max_ring_size + 1):
        deadlock_checks += 1
        graph = StateGraph(protocol.instantiate(size))
        states_explored += len(graph)
        has_deadlock = bool(graph.scan.deadlocks)
        if has_deadlock != (size in predicted):
            discrepancies.append(Discrepancy(
                "theorem-4.2-mismatch", size, protocol.pretty()))
        if certified and has_livelock(graph):
            discrepancies.append(Discrepancy(
                "theorem-5.14-unsound", size, protocol.pretty()))
    return _SampleOutcome(certified=certified,
                          deadlock_checks=deadlock_checks,
                          states_explored=states_explored,
                          discrepancies=tuple(discrepancies))


def audit_theorems(samples: int = 50, max_ring_size: int = 5,
                   seed: int = 0,
                   sampler: ProtocolSampler | None = None,
                   jobs: int = 1,
                   cache: ResultCache | None = None,
                   policy: SupervisorPolicy | None = None) -> AuditReport:
    """Fuzz Theorem 4.2 (exactness) and Theorem 5.14 (soundness).

    For each sampled protocol, compares the local per-size deadlock
    prediction against global enumeration for every
    ``K in 2..max_ring_size``, and — when a livelock-freedom certificate
    is issued — confirms no instance livelocks.  Any disagreement is
    recorded as a :class:`Discrepancy`; a correct implementation always
    returns a clean report.

    Sampling is always serial (the RNG stream fixes the protocols).
    Small random protocols often repeat (about a third of the samples
    at the default sizes), so each distinct protocol, keyed by its
    structural fingerprint, is audited once, in first-sample order, and
    a repeat counts its first sample's outcome, discrepancy listing
    included: the report counts every sample, ``stats.work_items`` and
    ``stats.states_explored`` the audits run.  The audits are
    independent work items: ``jobs > 1`` fans them out over worker
    processes, and *cache* answers and stores one outcome per distinct
    protocol (each as soon as it completes, so a killed audit's rerun
    resumes) — both with reports identical to the serial, uncached run.
    *policy* supervises the fanned-out audits (per-item timeouts, crash
    retry, and an in-parent rerun of an audit past its retries — see
    :mod:`repro.engine.supervisor`).
    """
    if sampler is None:
        sampler = ProtocolSampler(seed=seed)
    stats = EngineStats(jobs=jobs)
    protocols = [sampler.sample() for _ in range(samples)]

    outcomes: dict[str, _SampleOutcome] = {}
    with stats.stage("audit", samples=samples,
                     max_ring_size=max_ring_size, jobs=jobs):
        keys = [analysis_key("audit-sample", protocol,
                             max_ring_size=max_ring_size)
                for protocol in protocols]
        first: dict[str, int] = {}  # key -> its first sample, in order
        for index, key in enumerate(keys):
            first.setdefault(key, index)
        pending: list[int] = []
        for index in first.values():
            if cache is not None:
                cached = cache.get(keys[index])
                if cached is not None:
                    stats.cache_hits += 1
                    outcomes[keys[index]] = cached
                    continue
                stats.cache_misses += 1
            pending.append(index)

        # No prewarm hook: every pending protocol is distinct, so there
        # is no shared kernel to compile ahead of the fork.
        fresh = supervise_work_items(
            _audit_indexed_worker, pending, jobs=jobs,
            context=(max_ring_size, protocols), stats=stats,
            policy=policy, cache=cache,
            keys=([keys[index] for index in pending]
                  if cache is not None else None))
        for index, outcome in zip(pending, fresh):
            stats.work_items += 1
            stats.states_explored += outcome.states_explored
            outcomes[keys[index]] = outcome

    report = AuditReport(samples=samples, certificates_issued=0,
                         deadlock_checks=0, stats=stats)
    for key in keys:
        outcome = outcomes[key]
        if outcome.certified:
            report.certificates_issued += 1
        report.deadlock_checks += outcome.deadlock_checks
        report.discrepancies.extend(outcome.discrepancies)
    return report


def _audit_indexed_worker(context, index: int) -> _SampleOutcome:
    """Module-level worker for :func:`repro.engine.supervise_work_items`."""
    max_ring_size, protocols = context
    return _audit_one(max_ring_size, protocols[index])
