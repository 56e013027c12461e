"""Hybrid verification: local certificates refined by bounded checking.

Theorem 5.14 is sufficient, not necessary: a contiguous-trail witness may
be *spurious* — the paper demonstrates this for sum-not-two, where the
rejected candidate's (K=3, |E|=2) trail fails to reconstruct into a real
livelock.  This module automates that reconstruction argument:

1. run the parameterized analyses (exact deadlocks + livelock
   certificate);
2. when the livelock side is ``UNKNOWN``, model-check the concrete ring
   sizes up to a bound, classifying the certificate's trail witness (its
   one matched support) as **real** (a global livelock exists at its
   parameter family) or **spurious up to the bound**;
3. report a refined verdict: a definitive counterexample, a full
   certificate, "certified deadlock-free + livelock-free for all
   checked sizes" (the best obtainable when sufficiency fails), or,
   when a witness indicts no size up to the bound, that it went
   unchecked.

The refinement never overclaims: ``BOUNDED`` means exactly what it says.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.checker.livelock import has_livelock, livelock_cycles
from repro.checker.statespace import StateGraph
from repro.core.convergence import (
    ConvergenceReport,
    ConvergenceVerdict,
    verify_convergence,
)
from repro.core.trail import TrailWitness

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


class HybridVerdict(enum.Enum):
    """Refined outcome of the hybrid analysis."""

    CONVERGES = "converges"
    """Fully certified for every ring size by the local analyses."""

    DIVERGES_DEADLOCK = "diverges-deadlock"
    """Theorem 4.2 found a deadlock witness (definitive)."""

    DIVERGES_LIVELOCK = "diverges-livelock"
    """A concrete global livelock was found at some checked size
    (definitive counterexample for that size)."""

    BOUNDED = "converges-up-to-bound"
    """Deadlock-free for every K (exact) and livelock-free for every
    checked K; the local livelock certificate could not close the
    remaining gap — every trail witness was checked and spurious up to
    the bound."""

    WITNESS_PAST_BOUND = "witness-past-bound"
    """Deadlock-free for every K and livelock-free for every checked K,
    but some trail witness's K exceeds the bound, so no checked size
    could refute it: nothing is concluded about that witness."""


@dataclass(frozen=True)
class WitnessClassification:
    """How one contiguous-trail witness fared under reconstruction."""

    witness: TrailWitness
    checked_sizes: tuple[int, ...]
    """The sizes the witness indicts up to the bound; empty when its K
    exceeds the bound, so nothing was checked."""
    real_at: int | None
    """The smallest checked ring size exhibiting a global livelock, or
    ``None`` when the witness is spurious up to the bound (or was not
    checked)."""
    bound: int | None = None
    """The largest ring size model-checked."""

    @property
    def spurious(self) -> bool:
        return self.real_at is None and bool(self.checked_sizes)

    def __str__(self) -> str:
        if not self.checked_sizes:
            return (f"{self.witness} — not checked (K="
                    f"{self.witness.ring_size} exceeds the bound "
                    f"{self.bound})")
        if self.real_at is None:
            checked = ",".join(map(str, self.checked_sizes))
            return f"{self.witness} — spurious (no livelock at K={checked})"
        return f"{self.witness} — REAL at K={self.real_at}"


@dataclass(frozen=True)
class HybridReport:
    """Outcome of :func:`hybrid_verify`."""

    verdict: HybridVerdict
    base: ConvergenceReport
    classifications: tuple[WitnessClassification, ...]
    checked_sizes: tuple[int, ...]
    counterexample: tuple | None
    """A concrete global livelock cycle when the verdict is
    ``DIVERGES_LIVELOCK``."""

    def summary(self) -> str:
        lines = [f"hybrid verdict: {self.verdict.value}"]
        lines.append(self.base.summary())
        if self.checked_sizes:
            lines.append("globally checked sizes: "
                         + ",".join(map(str, self.checked_sizes)))
        for classification in self.classifications:
            lines.append(f"  {classification}")
        if self.counterexample is not None:
            lines.append(f"counterexample livelock "
                         f"({len(self.counterexample)} states)")
        return "\n".join(lines)


def _witness_sizes(witness: TrailWitness, bound: int,
                   minimum: int) -> list[int]:
    """The ring sizes a trail witness indicts, up to *bound*.

    A trail at parameters (K, |E|) recurs at every multiple of its round
    structure; spuriousness must be ruled out at the base size and its
    multiples.  A witness with no K (a K-free match that forms no trail
    up to the certifier's bound) indicts every size.
    """
    base = witness.ring_size
    if base is None:
        return list(range(max(2, minimum), bound + 1))
    return [size for size in range(max(base, minimum), bound + 1)
            if size % base == 0]


def hybrid_verify(protocol: "RingProtocol",
                  max_ring_size: int = 9,
                  check_up_to: int = 7) -> HybridReport:
    """Run the local analyses, then refine UNKNOWN livelock verdicts by
    explicit-state checking up to ``check_up_to`` processes.

    The per-size global checks are also used to *find* real livelocks
    that the trail parameters suggest, returning a concrete
    counterexample cycle when one exists.  Each size asks only whether
    a livelock exists, which the kernel's rotation quotient decides;
    the full space is built once, at the first livelocked size, to
    name the counterexample (a cycle of orbits repeats only up to
    rotation).

    Raises :class:`ValueError` when ``check_up_to`` is below the
    protocol's smallest ring size: there would be nothing to check.
    """
    minimum = protocol.process.window_width
    first = max(2, minimum)
    if check_up_to < first:
        raise ValueError(f"empty check range {first}..{check_up_to}: "
                         f"the smallest ring size of {protocol.name} is "
                         f"{first}")
    base = verify_convergence(protocol, max_ring_size=max_ring_size)

    if base.verdict is ConvergenceVerdict.CONVERGES:
        return HybridReport(HybridVerdict.CONVERGES, base, (), (), None)
    if base.verdict is ConvergenceVerdict.DIVERGES:
        return HybridReport(HybridVerdict.DIVERGES_DEADLOCK, base, (),
                            (), None)

    all_sizes = list(range(first, check_up_to + 1))
    livelocked = {size: has_livelock(StateGraph(
        protocol.instantiate(size), symmetry=True)) for size in all_sizes}

    witnesses = (base.livelock.trail_witnesses
                 if base.livelock is not None else ())
    classifications = []
    for witness in witnesses:
        sizes = _witness_sizes(witness, check_up_to, minimum)
        real_at = next((s for s in sizes if livelocked.get(s)), None)
        classifications.append(WitnessClassification(
            witness=witness, checked_sizes=tuple(sizes),
            real_at=real_at, bound=check_up_to))

    first_real = next((size for size in all_sizes if livelocked[size]),
                      None)
    if first_real is not None:
        full = StateGraph(protocol.instantiate(first_real))
        return HybridReport(
            verdict=HybridVerdict.DIVERGES_LIVELOCK,
            base=base,
            classifications=tuple(classifications),
            checked_sizes=tuple(all_sizes),
            counterexample=tuple(livelock_cycles(full, max_cycles=1)[0]),
        )
    return HybridReport(
        verdict=(HybridVerdict.BOUNDED
                 if all(c.spurious for c in classifications)
                 else HybridVerdict.WITNESS_PAST_BOUND),
        base=base,
        classifications=tuple(classifications),
        checked_sizes=tuple(all_sizes),
        counterexample=None,
    )


@dataclass(frozen=True)
class HybridSynthesisResult:
    """Outcome of :func:`hybrid_synthesize`."""

    local: "object"
    """The :class:`~repro.core.synthesis.SynthesisResult` of the pure
    Section 6 methodology."""
    protocol: "RingProtocol | None"
    guarantee: str
    """``"all-k"`` for a local certificate, ``"bounded"`` when the
    solution was recovered from a rejected combination whose trail
    witnesses are all spurious up to the checked bound, ``"none"`` on
    failure."""
    report: HybridReport | None

    @property
    def succeeded(self) -> bool:
        return self.protocol is not None


def hybrid_synthesize(protocol: "RingProtocol",
                      max_ring_size: int = 9,
                      check_up_to: int = 7) -> HybridSynthesisResult:
    """Section 6 synthesis with a bounded-checking fallback.

    Theorem 5.14's sufficiency gap can reject perfectly good candidate
    combinations (the paper's own sum-not-two walkthrough rejects
    ``{t21, t10, t02}`` over a trail it then shows to be spurious).
    This wrapper first runs the pure local methodology; if it fails,
    each rejected combination is re-examined with :func:`hybrid_verify`,
    and the first one that is deadlock-free for all K *and* livelock-free
    for every checked size, with every trail witness checked and
    spurious, is returned with an explicit ``"bounded"`` guarantee.
    Protocols for which every combination has a *real* livelock
    (2-coloring, 3-coloring) still fail.
    """
    from repro.core.selfdisabling import action_for_transition
    from repro.core.synthesis import Synthesizer

    synthesizer = Synthesizer(protocol, max_ring_size=max_ring_size)
    local = synthesizer.synthesize()
    if local.succeeded:
        return HybridSynthesisResult(local=local, protocol=local.protocol,
                                     guarantee="all-k", report=None)

    for rejection in local.rejected:
        if rejection.transitions:
            actions = [action_for_transition(t, t.label or f"h{i}")
                       for i, t in enumerate(rejection.transitions)]
            candidate = protocol.extended_with(actions)
        elif local.resolve == frozenset() and "pseudo-livelock" in \
                rejection.reason:
            # The input itself was deadlock-free but uncertified.
            candidate = protocol
        else:
            continue
        report = hybrid_verify(candidate, max_ring_size=max_ring_size,
                               check_up_to=check_up_to)
        if report.verdict is HybridVerdict.BOUNDED:
            return HybridSynthesisResult(local=local, protocol=candidate,
                                         guarantee="bounded",
                                         report=report)
    return HybridSynthesisResult(local=local, protocol=None,
                                 guarantee="none", report=None)
