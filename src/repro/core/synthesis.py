"""Automated addition of convergence (Section 6 methodology).

Given a (possibly empty) non-stabilizing protocol ``p`` and a locally
conjunctive invariant closed in ``p``, the synthesizer follows the paper's
five steps, entirely in the local state space:

1. compute the local deadlocks and the RCG induced over them;
2. pick ``Resolve`` — a minimal feedback vertex set of that graph drawn
   from ``¬LC_r``, so that resolving those deadlocks leaves no cycle
   through an illegitimate local deadlock (Theorem 4.2 ⇒ deadlock-freedom
   for every K);
3. enumerate ``Candidates_r`` — local transitions out of each Resolve
   state into a non-Resolve local deadlock (hence self-disabling);
4. try candidate combinations with **no** pseudo-livelock (*NPL*): accept
   immediately by Theorem 5.14;
5. otherwise accept a combination whose pseudo-livelocks form **no**
   contiguous trail through an illegitimate state (*PL*); if every
   combination of every Resolve set fails, declare failure.

The output protocol ``p_ss`` adds the chosen recovery actions to ``p``;
since every added action fires only in an illegitimate local deadlock,
``I`` and ``Δ_p|I`` are untouched (Problem 3.1's constraints).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import LivelockCertifier, LivelockVerdict
from repro.core.pseudolivelock import (
    SupportExplosion,
    pseudo_livelock_supports,
)
from repro.core.selfdisabling import (
    action_for_transition,
    local_transition_graph,
    not_self_terminating_reason,
    self_enabling_reason,
)
from repro.core.trail import trail_reason
from repro.engine import EngineStats, ResultCache, analysis_key
from repro.engine.supervisor import FaultPlan, SupervisorPolicy
from repro.errors import SynthesisFailure
from repro.graphs import has_cycle
from repro.protocol.actions import LocalTransition
from repro.protocol.localstate import LocalState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol

#: A combination's rejection on a bidirectional ring unless
#: ``accept_contiguous_only``: there Theorem 5.14 only excludes
#: contiguous livelocks, which is not enough evidence for the
#: methodology (stated for unidirectional rings).
BIDIRECTIONAL_REASON = (
    "bidirectional ring: Theorem 5.14 only excludes contiguous "
    "livelocks; pass accept_contiguous_only=True to accept such "
    "certificates anyway")


class SynthesisOutcome(enum.Enum):
    """How the methodology concluded."""

    SUCCESS_NPL = "success-no-pseudo-livelock"
    """Accepted at step 4: the combination has no pseudo-livelock."""

    SUCCESS_PL = "success-pseudo-livelocks-without-trails"
    """Accepted at step 5: pseudo-livelocks exist but none forms a
    contiguous trail."""

    ALREADY_STABILIZING = "already-stabilizing"
    """The input protocol needed no new transitions."""

    FAILURE = "failure"
    """Every candidate combination of every Resolve set was rejected
    (the paper's "declare failure" — the sufficient livelock condition
    could not be established; a stabilizing protocol may still exist)."""


@dataclass(frozen=True)
class RejectedCombination:
    """Diagnostic record of one rejected candidate combination."""

    transitions: tuple[LocalTransition, ...]
    reason: str


@dataclass
class SynthesisResult:
    """Everything the synthesizer found out.

    ``protocol`` is the synthesized ``p_ss`` on success, else ``None``.
    """

    outcome: SynthesisOutcome
    protocol: "RingProtocol | None"
    resolve: frozenset[LocalState]
    candidates: dict[LocalState, tuple[LocalTransition, ...]]
    chosen: tuple[LocalTransition, ...]
    rejected: tuple[RejectedCombination, ...] = ()
    resolve_sets_tried: tuple[frozenset[LocalState], ...] = ()
    stats: EngineStats | None = field(default=None, compare=False)
    """Engine instrumentation for this run (excluded from equality)."""

    @property
    def succeeded(self) -> bool:
        return self.outcome in (SynthesisOutcome.SUCCESS_NPL,
                                SynthesisOutcome.SUCCESS_PL,
                                SynthesisOutcome.ALREADY_STABILIZING)

    def summary(self) -> str:
        lines = [f"outcome: {self.outcome.value}"]
        lines.append("Resolve = {"
                     + ", ".join(str(s) for s in sorted(self.resolve)) + "}")
        if self.chosen:
            lines.append("added transitions:")
            for transition in self.chosen:
                lines.append(f"  {transition}")
        if self.rejected:
            lines.append(f"rejected combinations: {len(self.rejected)}")
            for rejection in self.rejected[:8]:
                arcs = ", ".join(str(t) for t in rejection.transitions)
                lines.append(f"  [{arcs}] -- {rejection.reason}")
        return "\n".join(lines)


class Synthesizer:
    """Implements the Section 6.1 methodology for a ring protocol.

    *backend* selects how candidate combinations are judged:
    ``"kernel"`` (the default behind ``"auto"``) evaluates each
    combination against the base protocol's compiled local kernel —
    merged transition set, assumption checks and pseudo-livelock
    supports computed without materializing the extended protocol, and
    every trail search sharing one set of ``(K, |E|)`` skeletons and
    one support memo.  ``"naive"`` materializes every candidate and
    runs the reference :class:`LivelockCertifier` over the per-query
    ``Digraph`` searcher.  Verdicts are identical (the differential
    suite pins this).

    Each Resolve set's candidate pool is judged by one search in
    enumeration order, stopping at the first accepted combination.
    *search* ``"lattice"`` (the default) is the incremental lattice walk
    of :mod:`repro.engine.synthsearch`: one plan of contiguous work
    units per pool, dispatched once, so the accepted combination and
    the :class:`RejectedCombination` log are identical for every jobs
    value.  ``"flat"`` re-judges every combination from scratch in this
    process — the serial oracle the lattice is differentially tested
    against, and the only search of the naive backend.  *jobs*,
    *cache*, *policy* and *fault_plan* drive the lattice only.
    """

    def __init__(self, protocol: "RingProtocol",
                 max_ring_size: int = 9,
                 max_resolve_sets: int = 16,
                 max_combinations: int = 4096,
                 accept_contiguous_only: bool = False,
                 backend: str = "auto",
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 policy: SupervisorPolicy | None = None,
                 search: str = "lattice",
                 fault_plan: FaultPlan | None = None) -> None:
        if max_ring_size < 2:
            raise ValueError("max_ring_size must be at least 2")
        resolved = "kernel" if backend == "auto" else backend
        if resolved not in ("kernel", "naive"):
            raise ValueError(f"unknown synthesis backend {backend!r}")
        if search not in ("lattice", "flat"):
            raise ValueError(f"unknown synthesis search {search!r}")
        self.protocol = protocol
        self.max_ring_size = max_ring_size
        self.max_resolve_sets = max_resolve_sets
        self.max_combinations = max_combinations
        self.accept_contiguous_only = accept_contiguous_only
        """On bidirectional rings Theorem 5.14 only excludes contiguous
        livelocks; by default such certificates are NOT accepted as
        synthesis evidence (the paper's methodology is stated for
        unidirectional rings).  Set True to accept them knowingly."""
        self.backend = resolved
        self.jobs = jobs
        self.cache = cache
        """Persists lattice work units across runs; each unit is written
        through as it completes, so a killed run's rerun replays the
        units it had already walked."""
        self.policy = policy
        self.fault_plan = (fault_plan if fault_plan is not None
                           else FaultPlan.from_env() or FaultPlan())
        """Deterministic fault injection
        (:class:`repro.engine.supervisor.FaultPlan`) for the property
        harness — sabotages supervised work-unit attempts, exactly as
        in :func:`repro.checker.sweep.sweep_verify`.  Resolved from
        ``REPRO_INJECT_FAULT`` once per synthesis (an empty plan
        injects nothing), not once per dispatch."""
        self.stats = EngineStats(jobs=jobs)
        self._kernel = None
        self._lattice = None
        if resolved == "kernel":
            from repro.engine.localkernel import local_kernel_for

            with self.stats.collecting():
                self._kernel = local_kernel_for(protocol)
            self._base_transitions = tuple(protocol.space.transitions)
            self._base_deadlocks = frozenset(protocol.space.deadlocks())
        self.search = search if resolved == "kernel" else "flat"
        """``"lattice"`` or ``"flat"`` (see the class docstring).  The
        naive backend has no kernel to delta against and always
        searches flat."""

    # ------------------------------------------------------------------
    def candidate_transitions(
            self, resolve: frozenset[LocalState],
    ) -> dict[LocalState, tuple[LocalTransition, ...]]:
        """Step 3: candidate t-arcs out of each Resolve state.

        A candidate ``(s, s')`` rewrites the owned cell of ``s`` and lands
        in a local deadlock outside Resolve, so the revised protocol is
        self-disabling by construction.
        """
        space = self.protocol.space
        deadlocks = set(space.deadlocks())
        candidates: dict[LocalState, tuple[LocalTransition, ...]] = {}
        for state in sorted(resolve):
            options = []
            for cell in space.cells:
                if cell == state.own:
                    continue
                target = state.replace_own(cell)
                if target in resolve or target not in deadlocks:
                    continue
                label = _transition_label(state, target)
                options.append(LocalTransition(state, target, label))
            candidates[state] = tuple(options)
        return candidates

    # ------------------------------------------------------------------
    def synthesize(self) -> SynthesisResult:
        """Run the methodology; never raises on failure — inspect
        :attr:`SynthesisResult.outcome`."""
        result = self._synthesize()
        result.stats = self.stats
        return result

    def _synthesize(self) -> SynthesisResult:
        if not self.protocol.unidirectional and \
                not self.accept_contiguous_only:
            return SynthesisResult(
                outcome=SynthesisOutcome.FAILURE,
                protocol=None,
                resolve=frozenset(),
                candidates={},
                chosen=(),
                rejected=(RejectedCombination(
                    (), "bidirectional ring: Theorem 5.14 only excludes "
                        "contiguous livelocks, which is insufficient "
                        "synthesis evidence; pass "
                        "accept_contiguous_only=True to proceed "
                        "anyway"),),
            )
        analyzer = DeadlockAnalyzer(self.protocol)
        with self.stats.stage("resolve"):
            resolve_sets = analyzer.resolve_candidates(
                max_sets=self.max_resolve_sets)
        if not resolve_sets:
            # No subset of ¬LC_r breaks all illegitimate cycles: the
            # deadlock structure itself is unrepairable by local t-arcs.
            return SynthesisResult(
                outcome=SynthesisOutcome.FAILURE,
                protocol=None,
                resolve=frozenset(),
                candidates={},
                chosen=(),
                rejected=(RejectedCombination(
                    (), "no feedback vertex set within ¬LC_r exists"),),
            )

        all_rejected: list[RejectedCombination] = []
        with self.stats.stage("combinations"):
            for resolve in resolve_sets:
                result = self._try_resolve_set(resolve)
                if result.succeeded:
                    result.rejected = tuple(all_rejected) + result.rejected
                    result.resolve_sets_tried = tuple(resolve_sets)
                    return result
                all_rejected.extend(result.rejected)

        return SynthesisResult(
            outcome=SynthesisOutcome.FAILURE,
            protocol=None,
            resolve=resolve_sets[0],
            candidates=self.candidate_transitions(resolve_sets[0]),
            chosen=(),
            rejected=tuple(all_rejected),
            resolve_sets_tried=tuple(resolve_sets),
        )

    # ------------------------------------------------------------------
    def evaluate_all_combinations(
            self, resolve: frozenset[LocalState] | None = None,
    ) -> list[tuple[tuple[LocalTransition, ...], str | None]]:
        """Verdicts for **every** candidate combination of one Resolve
        set, in the paper's enumeration style (§6.1 lists all 2³ subsets
        for 3-coloring; §6.2 names the accepted/rejected ones for
        sum-not-two).

        Returns ``(combination, reason)`` pairs where ``reason`` is
        ``None`` for accepted combinations and the rejection diagnosis
        otherwise.  *resolve* defaults to the first minimal Resolve set.
        """
        if resolve is None:
            analyzer = DeadlockAnalyzer(self.protocol)
            candidates_sets = analyzer.resolve_candidates()
            if not candidates_sets:
                return []
            resolve = candidates_sets[0]
        candidates = self.candidate_transitions(resolve)
        if not resolve or any(not opts for opts in candidates.values()):
            return []
        combos = self._enumerate_combinations(candidates)[0]
        with self.stats.collecting():
            verdicts = self._judge_pool(combos, first_accept=False)
        return list(zip(combos, verdicts))

    # ------------------------------------------------------------------
    def _try_resolve_set(self,
                         resolve: frozenset[LocalState]) -> SynthesisResult:
        candidates = self.candidate_transitions(resolve)
        rejected: list[RejectedCombination] = []

        if any(not options for options in candidates.values()):
            blocked = [s for s, options in candidates.items() if not options]
            rejected.append(RejectedCombination(
                (), f"no candidate t-arc resolves "
                    f"{', '.join(str(s) for s in blocked)}"))
            return SynthesisResult(
                outcome=SynthesisOutcome.FAILURE, protocol=None,
                resolve=resolve, candidates=candidates, chosen=(),
                rejected=tuple(rejected))

        # An empty Resolve (already deadlock-free) enumerates the one
        # empty combination: only the livelock side needs checking.
        combos, exhausted = self._enumerate_combinations(candidates)
        for combo, reason in zip(combos, self._judge_pool(
                combos, first_accept=True)):
            if reason is None:
                if not resolve:
                    return SynthesisResult(
                        outcome=SynthesisOutcome.ALREADY_STABILIZING,
                        protocol=self.protocol, resolve=resolve,
                        candidates=candidates, chosen=())
                return self._success(resolve, candidates, combo,
                                     rejected)
            rejected.append(RejectedCombination(combo, reason))
        if exhausted:
            rejected.append(RejectedCombination(
                (), f"combination budget ({self.max_combinations}) "
                    f"exhausted"))

        return SynthesisResult(
            outcome=SynthesisOutcome.FAILURE, protocol=None,
            resolve=resolve, candidates=candidates, chosen=(),
            rejected=tuple(rejected))

    def _enumerate_combinations(
            self, candidates: dict[LocalState, tuple[LocalTransition, ...]],
    ) -> tuple[list[tuple[LocalTransition, ...]], bool]:
        """The deterministic candidate enumeration: ``itertools.product``
        over per-state pools in sorted-state order, truncated at the
        combination budget.  Returns ``(combinations, exhausted)``."""
        pools = [candidates[s] for s in sorted(candidates)]
        combos = [tuple(combo) for combo in itertools.islice(
            itertools.product(*pools), self.max_combinations + 1)]
        exhausted = len(combos) > self.max_combinations
        if exhausted:
            del combos[self.max_combinations:]
        return combos, exhausted

    # ------------------------------------------------------------------
    def _judge_pool(self, combos: list[tuple[LocalTransition, ...]],
                    first_accept: bool) -> list[str | None]:
        """Reasons for one pool of combinations, in order (``None`` =
        accepted).  With *first_accept* the list ends at the first
        accepted combination; otherwise every combination is judged."""
        if self.search == "lattice":
            if self._lattice is None:
                from repro.engine.synthsearch import LatticeSearch

                self._lattice = LatticeSearch(self)
            return self._lattice.verdicts(combos, first_accept)
        reasons: list[str | None] = []
        for combo in combos:
            reasons.append(self._evaluate_verdict(combo))
            if first_accept and reasons[-1] is None:
                break
        return reasons

    def _evaluate_verdict(
            self, combo: tuple[LocalTransition, ...]) -> str | None:
        """One combination judged from scratch (steps 4/5)."""
        from repro.errors import AssumptionViolation

        if not self.protocol.unidirectional and \
                not self.accept_contiguous_only:
            return BIDIRECTIONAL_REASON

        if self._kernel is not None:
            return self._kernel_verdict(combo)

        candidate_protocol = self._materialize(combo)
        certifier = LivelockCertifier(candidate_protocol,
                                      max_ring_size=self.max_ring_size,
                                      backend="naive")
        try:
            report = certifier.analyze()
        except AssumptionViolation as violation:
            return str(violation)
        if report.verdict is LivelockVerdict.CERTIFIED_FREE:
            return None
        if not report.trail_witnesses:
            # Support enumeration overflowed (SupportExplosion): the
            # conservative UNKNOWN carries the reason in its note.
            return report.note
        witness = report.trail_witnesses[0]
        return trail_reason(witness.t_arcs, witness.ring_size,
                            witness.enablements)

    def _kernel_verdict(
            self, combo: tuple[LocalTransition, ...]) -> str | None:
        """The kernel-backend judgement, without materializing ``p_ss``.

        Candidate sources are base local deadlocks, so the extended
        space's transition set is exactly the base set plus the combo
        (no (source, target) collisions to merge) and a state is an
        extended-space deadlock iff it is a base deadlock that is not a
        combo source.  The trail searches run on the *base* protocol's
        kernel: s-adjacency and legitimacy depend only on the process
        template, never on the transition set.  Every returned string
        is byte-identical to the naive backend's.
        """
        merged = self._base_transitions + tuple(combo)
        name = f"{self.protocol.name}_ss"
        if has_cycle(local_transition_graph(merged)):
            return not_self_terminating_reason(name)
        combo_sources = {t.source for t in combo}
        if any(t.target not in self._base_deadlocks
               or t.target in combo_sources for t in merged):
            return self_enabling_reason(name)
        try:
            supports = pseudo_livelock_supports(merged)
        except SupportExplosion as explosion:
            return str(explosion)
        for support in supports:
            witness = self._kernel.find_trail(support, self.max_ring_size)
            if witness is not None:
                return trail_reason(witness.t_arcs, witness.ring_size,
                                    witness.enablements)
        return None

    def _materialize(self,
                     combo: Iterable[LocalTransition]) -> "RingProtocol":
        actions = tuple(action_for_transition(t, name=t.label)
                        for t in combo)
        return self.protocol.extended_with(actions)

    def _success(self, resolve, candidates, combo,
                 rejected) -> SynthesisResult:
        from repro.core.pseudolivelock import has_pseudo_livelock

        protocol = self._materialize(combo)
        protocol.name = f"{self.protocol.name}_ss"
        space = protocol.space
        outcome = (SynthesisOutcome.SUCCESS_NPL
                   if not has_pseudo_livelock(space.transitions)
                   else SynthesisOutcome.SUCCESS_PL)
        return SynthesisResult(
            outcome=outcome,
            protocol=protocol,
            resolve=resolve,
            candidates=candidates,
            chosen=tuple(combo),
            rejected=tuple(rejected),
        )


def synthesis_fingerprint(protocol: "RingProtocol",
                          max_ring_size: int = 9,
                          accept_contiguous_only: bool = False) -> str:
    """The identity of one synthesis run (its ledger fingerprint)."""
    return analysis_key("synthesis", protocol,
                        max_ring_size=max_ring_size,
                        accept_contiguous_only=accept_contiguous_only)


def synthesize_convergence(protocol: "RingProtocol",
                           max_ring_size: int = 9,
                           **kwargs) -> SynthesisResult:
    """Run the Section 6 methodology on *protocol*.

    Raises :class:`SynthesisFailure` when the caller sets
    ``raise_on_failure=True`` and no combination is accepted.
    Engine keywords (``jobs``, ``cache``, ``policy``, ...) pass through
    to :class:`Synthesizer`.
    """
    raise_on_failure = kwargs.pop("raise_on_failure", False)
    synthesizer = Synthesizer(protocol, max_ring_size=max_ring_size,
                              **kwargs)
    result = synthesizer.synthesize()
    if raise_on_failure and not result.succeeded:
        raise SynthesisFailure(
            f"could not synthesize convergence for {protocol.name!r}: "
            f"{len(result.rejected)} combinations rejected")
    return result


def _transition_label(source: LocalState, target: LocalState) -> str:
    def fmt(cell) -> str:
        parts = [str(v)[0] if isinstance(v, str) else str(v) for v in cell]
        return "".join(parts) if len(cell) == 1 else "(" + ",".join(parts) + ")"

    return f"t{fmt(source.own)}{fmt(target.own)}"
