"""Cutoff-style sweep verification (the related-work baseline of §7).

Cutoff methods (Emerson–Kahlon, Emerson–Namjoshi) reduce parameterized
verification to model checking every size up to a cutoff.  The paper
argues local reasoning is cheaper than "verification for every K smaller
than or equal to the cutoff"; this module implements that baseline —
verify ``p(K)`` for each ``K`` in a range — so the comparison can be
made concretely (benchmark X2 and the ablation benches use it).

Each ``p(K)`` is an independent work item, so the sweep fans out over
:func:`repro.engine.supervise_work_items` when ``jobs > 1`` and reuses prior
per-K reports through a :class:`repro.engine.ResultCache`; verdicts are
identical to the serial, uncached run by construction (deterministic
result ordering, whole-report caching).

No general cutoff theorem applies to arbitrary convergence properties,
so a sweep result is evidence for the checked range only; contrast with
:func:`repro.core.verify_convergence`, whose verdicts quantify over all
ring sizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.checker.convergence import GlobalReport, check_instance
from repro.engine import EngineStats, ResultCache, analysis_key, \
    supervise_work_items
from repro.engine.pool import PortableContext
from repro.engine.supervisor import FaultPlan, SupervisorPolicy
from repro.obs import live

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


@dataclass(frozen=True)
class SweepResult:
    """Per-size reports plus the aggregate verdict for the range."""

    reports: tuple[GlobalReport, ...]
    elapsed_seconds: tuple[float, ...]
    stats: EngineStats | None = field(default=None, compare=False)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(r.ring_size for r in self.reports)

    @property
    def all_self_stabilizing(self) -> bool:
        return all(r.self_stabilizing for r in self.reports)

    @property
    def failing_sizes(self) -> tuple[int, ...]:
        return tuple(r.ring_size for r in self.reports
                     if not r.self_stabilizing)

    @property
    def total_states_explored(self) -> int:
        return sum(r.state_count for r in self.reports)

    def summary(self) -> str:
        lines = [f"sweep over K = {self.sizes[0]}..{self.sizes[-1]}: "
                 + ("self-stabilizing throughout"
                    if self.all_self_stabilizing
                    else f"fails at K = {list(self.failing_sizes)}")]
        for report, elapsed in zip(self.reports, self.elapsed_seconds):
            lines.append(
                f"  K={report.ring_size}: {report.state_count} states, "
                f"{'ok' if report.self_stabilizing else 'FAIL'} "
                f"({elapsed * 1e3:.1f} ms)")
        lines.append(f"total states explored: "
                     f"{self.total_states_explored}")
        if self.stats is not None:
            lines.append(self.stats.summary())
        return "\n".join(lines)


def _sweep_key(protocol: "RingProtocol", size: int,
               symmetry: bool = False) -> str:
    # Backend choice never perturbs the report (the kernel reproduces
    # the naive graph state for state) so it stays out of the key;
    # the quotient changes state/witness counts and gets its own keys.
    # The value is always the bare GlobalReport, whichever of the
    # in-order loop or the dispatcher stored it (``repro check`` is a
    # one-size sweep).
    if symmetry:
        return analysis_key("check-instance", protocol, ring_size=size,
                            symmetry=True)
    return analysis_key("check-instance", protocol, ring_size=size)


def _check_size(protocol: "RingProtocol", size: int,
                backend: str = "auto",
                symmetry: bool = False) -> GlobalReport:
    return check_instance(protocol.instantiate(size),
                          backend=backend, symmetry=symmetry)


def _check_seconds(report: GlobalReport) -> float:
    """The wall time of one computed size, as measured by the check."""
    return report.stats.stage_seconds.get("check", 0.0)


def sweep_fingerprint(protocol: "RingProtocol", up_to: int,
                      start: int | None = None,
                      symmetry: bool = False) -> str:
    """The identity of one sweep (its ledger fingerprint)."""
    first = protocol.process.window_width if start is None else start
    return analysis_key("sweep", protocol, start=first, up_to=up_to,
                        symmetry=symmetry)


def sweep_verify(protocol: "RingProtocol", up_to: int,
                 start: int | None = None,
                 stop_on_failure: bool = False,
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 backend: str = "auto",
                 symmetry: bool = False,
                 policy: SupervisorPolicy | None = None,
                 fault_plan: FaultPlan | None = None) -> SweepResult:
    """Model-check every ring size from *start* (default: the read-window
    width) through *up_to*.

    With ``stop_on_failure`` the sweep aborts at the first
    non-stabilizing size — the typical bug-hunting mode.  ``jobs > 1``
    fans the per-K checks out over worker processes (a parallel
    ``stop_on_failure`` sweep still checks every size speculatively and
    truncates afterwards, so its result equals the serial one); *cache*
    reuses per-K reports across runs, keyed on the protocol fingerprint
    and the ring size, and stores each size as soon as it is checked —
    so rerunning a killed sweep with the same cache skips every size it
    finished.  *backend* and *symmetry* are forwarded to
    :func:`repro.checker.convergence.check_instance` — the compiled
    kernel (and, opt-in, its rotation quotient) replaces the naive
    per-state interpretation with identical verdicts.

    *policy* supervises the per-K checks (timeouts, crash retry, and
    an in-parent rerun of a size past its retries — see
    :mod:`repro.engine.supervisor`).  A supervised ``stop_on_failure``
    sweep checks speculatively like the parallel one.  *fault_plan* is
    test-only injection.

    The pending sizes go to :func:`repro.engine.supervise_work_items`,
    which picks serial or parallel execution.  The one exception is an
    unsupervised ``jobs <= 1`` sweep (no policy or fault plan,
    ``REPRO_INJECT_FAULT`` included): it checks sizes in order here, so
    ``stop_on_failure`` stops at the first failing size instead of
    checking the rest speculatively.
    """
    first = protocol.process.window_width if start is None else start
    if first > up_to:
        raise ValueError(f"empty sweep range {first}..{up_to}")
    sizes = list(range(first, up_to + 1))
    stats = EngineStats(jobs=jobs)
    if fault_plan is None:
        # An environment-injected fault must reach the dispatcher; the
        # in-order loop below never injects one.
        fault_plan = FaultPlan.from_env()
    supervised = policy is not None or fault_plan is not None

    if jobs <= 1 and not supervised:
        # Serial: check sizes in order so stop_on_failure exits early.
        kept_reports: list[GlobalReport] = []
        kept_timings: list[float] = []
        live.begin_stage("sweep", total=len(sizes))
        with stats.stage("sweep", start=first, up_to=up_to, jobs=jobs):
            for size in sizes:
                report, elapsed = _checked_size(protocol, size, cache,
                                                stats, backend, symmetry)
                kept_reports.append(report)
                kept_timings.append(elapsed)
                live.note(done=1)
                live.tick(lambda: live.cache_payload(stats))
                if stop_on_failure and not report.self_stabilizing:
                    break
        return SweepResult(reports=tuple(kept_reports),
                           elapsed_seconds=tuple(kept_timings),
                           stats=stats)

    # Parallel / supervised: probe the cache up front, hand the misses
    # to the dispatcher (which stores each as it completes), truncate
    # afterwards (speculative checking keeps the result equal to
    # serial).
    reports: dict[int, GlobalReport] = {}
    timings: dict[int, float] = {}

    with stats.stage("sweep", start=first, up_to=up_to, jobs=jobs):
        pending = []
        for size in sizes:
            if cache is not None:
                probe_began = time.perf_counter()
                cached = cache.get(_sweep_key(protocol, size, symmetry))
                if cached is not None:
                    stats.cache_hits += 1
                    reports[size] = cached
                    timings[size] = time.perf_counter() - probe_began
                    continue
                stats.cache_misses += 1
            pending.append(size)

        keys = [_sweep_key(protocol, size, symmetry)
                for size in pending] if cache is not None else None
        outcomes = supervise_work_items(
            _sweep_worker, pending, jobs=jobs,
            context=(protocol, backend, symmetry),
            stats=stats, policy=policy, cache=cache,
            keys=keys, plan=fault_plan,
            prewarm=lambda: _sweep_prewarm(protocol, backend),
            portable=_sweep_portable(protocol, backend, symmetry))
        for size, report in zip(pending, outcomes):
            stats.work_items += 1
            stats.states_explored += report.state_count
            reports[size] = report
            timings[size] = _check_seconds(report)

    kept_reports = []
    kept_timings = []
    for size in sizes:
        kept_reports.append(reports[size])
        kept_timings.append(timings[size])
        if stop_on_failure and not reports[size].self_stabilizing:
            break
    return SweepResult(reports=tuple(kept_reports),
                       elapsed_seconds=tuple(kept_timings),
                       stats=stats)


def _checked_size(protocol: "RingProtocol", size: int,
                  cache: ResultCache | None, stats: EngineStats,
                  backend: str = "auto",
                  symmetry: bool = False) -> tuple[GlobalReport, float]:
    """One serial work item: cache probe, compute on miss, store."""
    if cache is not None:
        probe_began = time.perf_counter()
        cached = cache.get(_sweep_key(protocol, size, symmetry))
        if cached is not None:
            stats.cache_hits += 1
            return cached, time.perf_counter() - probe_began
        stats.cache_misses += 1
    report = _check_size(protocol, size, backend, symmetry)
    elapsed = _check_seconds(report)
    stats.work_items += 1
    stats.states_explored += report.state_count
    if cache is not None:
        cache.put(_sweep_key(protocol, size, symmetry), report)
    return report, elapsed


def _sweep_prewarm(protocol: "RingProtocol", backend: str) -> None:
    """Compile the protocol's kernel once in the parent so forked
    workers inherit a hot compile cache instead of recompiling per K —
    and, with an artifact store active, so the compiled table is
    *published* for spawn workers and later runs to attach.

    The kernel-support probe runs on a throwaway smallest instance:
    :func:`supports_kernel` classifies instances, not protocols.
    """
    if backend not in ("auto", "kernel"):
        return
    from repro.engine.kernel import compile_protocol, supports_kernel

    try:
        probe = protocol.instantiate(protocol.process.window_width)
    except Exception:
        return
    if supports_kernel(probe):
        compile_protocol(protocol)


def _rebuild_sweep_context(payload) -> tuple:
    """Spawn-side builder: re-hydrate the sweep worker context."""
    from repro.serialization import protocol_from_dict

    data, backend, symmetry = payload
    return (protocol_from_dict(data), backend, symmetry)


def _sweep_portable(protocol: "RingProtocol", backend: str,
                    symmetry: bool) -> PortableContext | None:
    """A portable recipe for the sweep context, when one exists.

    DSL-defined protocols round-trip through their serialized form;
    protocols carrying opaque predicate callables (e.g. sampled ones)
    do not, and return ``None`` — those keep the serial no-fork
    fallback.
    """
    from repro.serialization import protocol_to_dict

    try:
        payload = protocol_to_dict(protocol)
    except Exception:
        return None
    return PortableContext(_rebuild_sweep_context,
                           (payload, backend, symmetry))


def _sweep_worker(context, size: int) -> GlobalReport:
    """Module-level worker for :func:`repro.engine.supervise_work_items`."""
    protocol, backend, symmetry = context
    return _check_size(protocol, size, backend, symmetry)

