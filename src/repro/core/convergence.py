"""Parameterized convergence verdicts (Proposition 2.1, locally).

A protocol strongly converges to ``I`` iff it has no deadlock and no
livelock outside ``I``.  This module combines the exact deadlock analysis
(Theorem 4.2) with the sufficient livelock analysis (Theorem 5.14) into a
three-valued verdict over *all* ring sizes, plus a local closure check for
the problem statement's precondition that ``I`` be closed in ``p``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from itertools import product
from typing import TYPE_CHECKING

from repro.core.deadlock import DeadlockAnalyzer, DeadlockReport
from repro.core.livelock import (
    LivelockCertifier,
    LivelockReport,
)
from repro.core.rcg import build_rcg
from repro.engine import EngineStats, ResultCache, analysis_key
from repro.protocol.localstate import LocalState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


class ConvergenceVerdict(enum.Enum):
    """Three-valued answer to "does p strongly converge to I for all K?"."""

    CONVERGES = "converges"
    """Deadlock-free (exact) and certified livelock-free: the protocol is
    strongly self-stabilizing for every ring size."""

    DIVERGES = "diverges"
    """A deadlock witness exists: some ring size has an illegitimate
    deadlock (Theorem 4.2 is exact, so this is definitive)."""

    UNKNOWN = "unknown"
    """Deadlock-free, but livelock-freedom could not be certified."""


@dataclass(frozen=True)
class ConvergenceReport:
    """Combined parameterized analysis of a ring protocol."""

    verdict: ConvergenceVerdict
    deadlock: DeadlockReport
    livelock: LivelockReport | None
    closure_ok: bool
    stats: EngineStats | None = field(default=None, compare=False)

    def summary(self) -> str:
        """A short multi-line human-readable summary."""
        lines = [f"verdict: {self.verdict.value}"]
        lines.append(
            f"closure of I under p: {'ok' if self.closure_ok else 'BROKEN'}")
        lines.append(
            f"deadlock-free for all K: {self.deadlock.deadlock_free} "
            f"({len(self.deadlock.local_deadlocks)} local deadlocks, "
            f"{len(self.deadlock.illegitimate_deadlocks)} illegitimate)")
        if self.deadlock.witness_cycles:
            first = self.deadlock.witness_cycles[0]
            lines.append(
                f"  witness cycle (length {len(first)}): "
                + " -> ".join(str(s) for s in first))
        if self.livelock is None:
            lines.append("livelock analysis: skipped")
        else:
            passes = self.livelock.passes
            lines.append(
                f"livelock verdict: {self.livelock.verdict.value} "
                f"(covers every K; {passes} "
                f"pass{'' if passes == 1 else 'es'}"
                + (", contiguous livelocks only)"
                   if self.livelock.contiguous_only else ")"))
            for witness in self.livelock.trail_witnesses:
                lines.append(f"  {witness}")
        return "\n".join(lines)


def check_local_closure(protocol: "RingProtocol") -> bool:
    """Local check that ``I(K)`` is closed in ``p(K)`` for every K.

    A transition of ``P_r`` can violate the legitimacy of exactly the
    processes whose read window covers position ``r`` — those at ring
    positions ``r - reads_right .. r + reads_left``.  Their windows
    jointly span the cell positions ``r - reads_right - reads_left ..
    r + reads_left + reads_right``.  The check enumerates every
    assignment of cells to that span such that:

    1. the centre window matches the transition's source local state,
    2. every complete window inside the span satisfies ``LC_r``, and
    3. the span embeds in a legitimate ring of *some* size — i.e. the RCG
       restricted to legitimate local states has a (>= 1 arc) path from
       the span's last window back to its first, closing the ring through
       further legitimate states;

    and reports a closure violation when the write leaves any affected
    window illegitimate.  Conditions 1–3 make the check exact for every
    ring size larger than the span (smaller, degenerate sizes are the
    global checker's domain).
    """
    space = protocol.space
    process = protocol.process
    rl, rr = process.reads_left, process.reads_right
    width = process.window_width
    span_width = width + rl + rr
    window_count = rl + rr + 1  # affected processes / windows in the span

    legit_rcg = build_rcg(space, vertices=protocol.legitimate_states())
    reach = _reachability(legit_rcg)

    for transition in space.transitions:
        if not protocol.is_legitimate(transition.source):
            continue  # fires outside LC_r: cannot leave I
        for assignment in _span_assignments(space.cells, span_width, rr,
                                            transition.source):
            windows = [LocalState(tuple(assignment[i:i + width]), rl)
                       for i in range(window_count)]
            if any(not protocol.is_legitimate(w) for w in windows):
                continue
            last, first = windows[-1], windows[0]
            if first not in reach.get(last, ()):
                continue  # the pre-state embeds in no legitimate ring
            written = list(assignment)
            written[rr + rl] = transition.target.own  # own cell slot
            for i in range(window_count):
                updated = LocalState(tuple(written[i:i + width]), rl)
                if not protocol.is_legitimate(updated):
                    return False
    return True


def _span_assignments(all_cells, span_width: int, left_extra: int,
                      source: LocalState):
    """Assignments of cells to the span consistent with *source*.

    The transitioning process's window occupies span slots
    ``left_extra .. left_extra + width - 1`` (``left_extra`` equals
    ``reads_right``: the predecessors' windows stick that far out to the
    left); the remaining slots range over all cells.
    """
    width = len(source.cells)
    fixed = {left_extra + j: source.cells[j] for j in range(width)}
    free = [i for i in range(span_width) if i not in fixed]
    for combo in product(all_cells, repeat=len(free)):
        assignment: list = [None] * span_width
        for slot, cell in fixed.items():
            assignment[slot] = cell
        for slot, cell in zip(free, combo):
            assignment[slot] = cell
        yield assignment


def _reachability(graph) -> dict:
    """``node -> set of nodes reachable via >= 1 arc`` for a Digraph."""
    reach: dict = {}
    for node in graph.nodes:
        seen: set = set()
        frontier = list(graph.successors(node))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(graph.successors(current))
        reach[node] = seen
    return reach


def verify_convergence(protocol: "RingProtocol",
                       max_ring_size: int = 9,
                       check_livelocks: bool = True,
                       cache: ResultCache | None = None,
                       backend: str = "auto",
                       ) -> ConvergenceReport:
    """The full parameterized analysis of *protocol*.

    Both verdicts cover every ring size; ``max_ring_size`` only bounds
    the ``(K, |E|)`` scan that names a livelock witness's round pattern.
    With ``check_livelocks=False`` only the (exact) deadlock analysis
    runs and the verdict is ``UNKNOWN`` unless a deadlock witness makes
    it ``DIVERGES``.  *cache* reuses whole convergence reports across
    runs (keyed on the protocol fingerprint plus ``max_ring_size`` /
    ``check_livelocks``); *backend* selects the livelock certifier
    (``kernel``, or the ``naive`` reference, see
    :class:`repro.core.livelock.LivelockCertifier`).
    """
    stats = EngineStats()
    key = None
    if cache is not None:
        # The kind names the certificate: a report cached while the
        # verdict rested on a bounded scan is never read back.
        key = analysis_key("verify-convergence/k-free", protocol,
                           max_ring_size=max_ring_size,
                           check_livelocks=check_livelocks,
                           backend="kernel" if backend == "auto"
                           else backend)
        cached = cache.get(key)
        if cached is not None:
            stats.cache_hits += 1
            return replace(cached, stats=stats)
        stats.cache_misses += 1

    with stats.stage("closure"):
        closure_ok = check_local_closure(protocol)
    with stats.stage("deadlock"):
        deadlock = DeadlockAnalyzer(protocol).analyze()
    livelock: LivelockReport | None = None

    if not deadlock.deadlock_free:
        verdict = ConvergenceVerdict.DIVERGES
    elif not check_livelocks:
        verdict = ConvergenceVerdict.UNKNOWN
    else:
        from repro.errors import AssumptionViolation

        try:
            with stats.stage("livelock"):
                livelock = LivelockCertifier(
                    protocol, max_ring_size=max_ring_size,
                    backend=backend).analyze()
        except AssumptionViolation:
            # Theorem 5.14 does not apply (Assumptions 1/2 broken);
            # the deadlock half still stands, livelocks stay open.
            livelock = None
            verdict = ConvergenceVerdict.UNKNOWN
        else:
            if livelock.certified and closure_ok:
                verdict = ConvergenceVerdict.CONVERGES
            else:
                verdict = ConvergenceVerdict.UNKNOWN
    report = ConvergenceReport(verdict=verdict, deadlock=deadlock,
                               livelock=livelock, closure_ok=closure_ok,
                               stats=stats)
    if cache is not None and key is not None:
        cache.put(key, replace(report, stats=None))
    return report
