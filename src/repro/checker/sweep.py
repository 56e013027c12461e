"""Cutoff-style sweep verification (the related-work baseline of §7).

Cutoff methods (Emerson–Kahlon, Emerson–Namjoshi) reduce parameterized
verification to model checking every size up to a cutoff.  The paper
argues local reasoning is cheaper than "verification for every K smaller
than or equal to the cutoff"; this module implements that baseline —
verify ``p(K)`` for each ``K`` in a range — so the comparison can be
made concretely (benchmark X2 and the ablation benches use it).

Each ``p(K)`` is an independent work item, so the sweep is one call to
:func:`repro.engine.supervise_work_items`, which fans the sizes out when
``jobs > 1`` and answers prior per-K reports from a
:class:`repro.engine.ResultCache`; verdicts are identical to the serial,
uncached run by construction (deterministic result ordering,
whole-report caching).

No general cutoff theorem applies to arbitrary convergence properties,
so a sweep result is evidence for the checked range only; contrast with
:func:`repro.core.verify_convergence`, whose verdicts quantify over all
ring sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.checker.convergence import GlobalReport, check_instance
from repro.engine import EngineStats, ResultCache, analysis_key, \
    supervise_work_items
from repro.engine.pool import PortableContext
from repro.engine.supervisor import FaultPlan, SupervisorPolicy

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
    def total_states(self) -> int:
        """The checked instances' states, summed over the sizes."""
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
        lines.append(f"total states: {self.total_states}")
        if self.stats is not None:
            lines.append(self.stats.summary())
        return "\n".join(lines)


def _sweep_key(protocol: "RingProtocol", size: int) -> str:
    # Backend choice never perturbs the report (the kernel's
    # quotient-backed check reproduces the naive report field for
    # field) so it stays out of the key.  The value is always the bare
    # GlobalReport the dispatcher stored (``repro check`` is a one-size
    # sweep).
    return analysis_key("check-instance", protocol, ring_size=size)


def _check_seconds(report: GlobalReport) -> float:
    """The wall time of one size's check, as measured when it ran (a
    stored report without stats reads 0)."""
    if report.stats is None:
        return 0.0
    return report.stats.stage_seconds.get("check", 0.0)


def sweep_fingerprint(protocol: "RingProtocol", up_to: int,
                      start: int | None = None) -> str:
    """The identity of one sweep (its ledger fingerprint).

    The key keeps ``symmetry=False``, the value every sweep had before
    the rotation quotient became the checker's one path, so ledger
    records from before still match."""
    first = protocol.process.window_width if start is None else start
    return analysis_key("sweep", protocol, start=first, up_to=up_to,
                        symmetry=False)


def sweep_verify(protocol: "RingProtocol", up_to: int,
                 start: int | None = None,
                 stop_on_failure: bool = False,
                 jobs: int = 1,
                 cache: ResultCache | None = None,
                 backend: str = "auto",
                 policy: SupervisorPolicy | None = None,
                 fault_plan: FaultPlan | None = None) -> SweepResult:
    """Model-check every ring size from *start* (default: the read-window
    width) through *up_to*.

    With ``stop_on_failure`` the sweep ends at the first
    non-stabilizing size — the typical bug-hunting mode.  ``jobs > 1``
    fans the per-K checks out over worker processes; *cache* reuses
    per-K reports across runs, keyed on the protocol fingerprint and the
    ring size, and stores each size as soon as it is checked — so
    rerunning a killed sweep with the same cache skips every size it
    finished.  *backend* is forwarded to
    :func:`repro.checker.convergence.check_instance` — the compiled
    kernel's rotation quotient replaces the naive per-state
    interpretation with identical reports.

    *policy* supervises the per-K checks (timeouts, crash retry, and
    an in-parent rerun of a size past its retries — see
    :mod:`repro.engine.supervisor`).  *fault_plan* is test-only
    injection.

    The sizes are one :func:`repro.engine.supervise_work_items` call,
    which decides serial or parallel execution, answers cached sizes,
    counts the work and applies the ``stop_on_failure`` stop: a serial
    sweep checks nothing past the first failing size, a parallel or
    timed one checks the rest speculatively (none past a failing size
    the cache answers) and truncates, so both return the same result.
    ``elapsed_seconds`` is each size's own check time, also for a size
    answered from the cache.
    """
    first = protocol.process.window_width if start is None else start
    if first > up_to:
        raise ValueError(f"empty sweep range {first}..{up_to}")
    sizes = list(range(first, up_to + 1))
    stats = EngineStats(jobs=jobs)
    with stats.stage("sweep", start=first, up_to=up_to, jobs=jobs):
        reports = supervise_work_items(
            _sweep_worker, sizes, jobs=jobs,
            context=(protocol, backend),
            stats=stats, policy=policy, cache=cache,
            keys=[_sweep_key(protocol, size) for size in sizes]
            if cache is not None else None,
            plan=fault_plan,
            prewarm=lambda: _sweep_prewarm(protocol, backend),
            portable=PortableContext(
                _sweep_context,
                (_SerializedProtocol(protocol), backend)),
            until=_fails if stop_on_failure else None)
    return SweepResult(reports=tuple(reports),
                       elapsed_seconds=tuple(map(_check_seconds, reports)),
                       stats=stats)


def _fails(report: GlobalReport) -> bool:
    return not report.self_stabilizing


def _sweep_prewarm(protocol: "RingProtocol", backend: str) -> None:
    """Compile the protocol's kernel once in the parent so forked
    workers inherit a hot compile cache instead of recompiling per K
    (spawned workers compile their own).

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


class _SerializedProtocol:
    """A protocol that pickles as its serialized DSL form.

    Only a spawn dispatch pickles the sweep's recipe, so fork and
    serial sweeps never serialize the protocol; a spawn dispatch does
    it once, however many workers it starts.  A protocol with no
    serialized form (one carrying opaque predicate callables, e.g. a
    sampled one) does not pickle, which keeps the dispatcher's serial
    no-fork fallback.
    """

    __slots__ = ("protocol", "data")

    def __init__(self, protocol: "RingProtocol") -> None:
        self.protocol = protocol
        self.data = None

    def __reduce__(self):
        from repro.serialization import protocol_from_dict, \
            protocol_to_dict

        if self.data is None:
            self.data = protocol_to_dict(self.protocol)
        return protocol_from_dict, (self.data,)


def _sweep_context(payload: tuple) -> tuple:
    """Spawn-side builder: unpickling the payload rebuilt the protocol,
    so the payload is the sweep worker context."""
    return payload


def _sweep_worker(context, size: int) -> GlobalReport:
    """Module-level worker for :func:`repro.engine.supervise_work_items`."""
    protocol, backend = context
    return check_instance(protocol.instantiate(size), backend=backend)

