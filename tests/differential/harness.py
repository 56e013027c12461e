"""The differential matrix: one analysis, one source, one set of axes.

::

    matrix.cell("sweep", sources.bundled("matching-ex4.2"), up_to=6,
                jobs=2, fault="crash", cache="cold")

runs ``sweep_verify`` on a fresh copy of the protocol with the given
axis values (the rest at their production defaults, see
:mod:`tests.differential.axes`) and compares the result with the naive
serial reference of the same ``(analysis, source, parameters)``.  A
cell on the production backend is also compared with the production
default, itself a cell.  The reference and the default are computed
once per session.  Where the naive engine may legitimately pick other
witnesses (trail, livelock, verify), the reference comparison covers
the backend-independent surface and the default comparison the whole
result.  A kernel ``check`` or ``sweep`` runs on the rotation
quotient, and its reports must equal the naive full-space reports in
full, witnesses and their order included.

A divergence fails the test with a 1-minimal reproducer: the shrinker
drops actions while the same cell still diverges from the reference.

Each run gets its own scratch directory for the cache.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from tests.differential.axes import BY_NAME, DEFAULT, REFERENCE
from tests.differential.shrink import shrink_failing_protocol

KERNEL_OR_NAIVE = ("kernel", "naive")


class ParentDown(BaseException):
    """Stands in for the SIGKILL of the whole run (patchable death)."""


@dataclass
class Run:
    result: Any
    seconds: float
    cache: Any = None


@dataclass
class Outcome:
    """Every run a cell made (a warm cache makes a cold one first)."""

    runs: list

    @property
    def result(self) -> Any:
        return self.runs[-1].result


# ----------------------------------------------------------------------
# the analyses
# ----------------------------------------------------------------------
def _graph(protocol, config, *, size, **_):
    from repro.checker.statespace import StateGraph

    instance = protocol.instantiate(size)
    graph = StateGraph(instance, backend=config["backend"])
    assert graph.backend == config["backend"]
    states = list(instance.states())
    assert len(graph) == len(states)
    # Both backends enumerate in itertools.product order.
    for index, state in enumerate(states):
        assert graph.decode(index) == state
        assert graph.index_of(state) == index
    return graph


def _graph_surface(graph):
    from repro.checker.livelock import has_livelock

    # Edge for edge, order included (moves scan processes 0..K-1 in
    # both backends and distinct moves write distinct cells).
    return (len(graph), list(graph.succ_off), list(graph.succ_flat),
            bytes(graph.invariant), graph.scan, has_livelock(graph))


def _check(protocol, config, *, size, **_):
    from repro.checker.convergence import check_instance

    return check_instance(protocol.instantiate(size),
                          backend=config["backend"])


def _sweep(protocol, config, *, cache=None, policy=None, plan=None,
           **params):
    from repro.checker.sweep import sweep_verify

    return sweep_verify(protocol, jobs=config["jobs"], cache=cache,
                        policy=policy, fault_plan=plan,
                        backend=config["backend"], **params)


def _supports(protocol):
    """The protocol's pseudo-livelock supports (none past the cap)."""
    from repro.core.pseudolivelock import (
        SupportExplosion,
        pseudo_livelock_supports,
    )

    try:
        return pseudo_livelock_supports(protocol.space.transitions)
    except SupportExplosion:
        return []


def _trail(protocol, config, *, max_ring_size=9, **_):
    if config["backend"] == "naive":
        from repro.core.trail import ContiguousTrailSearcher

        find_trail = ContiguousTrailSearcher(
            protocol, max_ring_size=max_ring_size).find_trail
    else:
        from repro.engine.localkernel import local_kernel_for

        kernel = local_kernel_for(protocol)

        def find_trail(support):
            return kernel.find_trail(support, max_ring_size)

    found = tuple(find_trail(support) for support in _supports(protocol))
    for witness in found:
        if witness is not None:
            assert witness.illegitimate_states
            assert set(witness.states) <= set(protocol.space.states)
    return found


def _head(witness):
    """The deterministic part of a trail witness; the witnessing SCC's
    member states may legitimately differ between backends."""
    if witness is None:
        return None
    return (witness.ring_size, witness.enablements, witness.t_arcs)


def _livelock(protocol, config, *, max_ring_size=9, **_):
    from repro.core.livelock import LivelockCertifier

    return LivelockCertifier(
        protocol, max_ring_size=max_ring_size,
        backend=config["backend"]).analyze()


def _livelock_surface(report):
    # The kernel's refinement and the naive per-support reference may
    # match different supports, and count different work.
    return (report.verdict, report.contiguous_only)


def _verify(protocol, config, *, cache=None, max_ring_size=9, **_):
    from repro.core.convergence import verify_convergence

    return verify_convergence(
        protocol, max_ring_size=max_ring_size, cache=cache,
        backend=config["backend"])


def _verify_surface(report):
    return (report.verdict, report.deadlock,
            None if report.livelock is None
            else _livelock_surface(report.livelock),
            report.closure_ok)


def _synthesizer(protocol, config, *, max_ring_size=9, **_):
    from repro.core.synthesis import Synthesizer

    return Synthesizer(protocol, max_ring_size=max_ring_size,
                       backend=config["backend"], search=config["search"])


def _synthesis(protocol, config, **options):
    return _synthesizer(protocol, config, **options).synthesize()


def _synthesis_surface(result):
    return (
        result.outcome,
        result.resolve,
        result.chosen,
        tuple((r.transitions, r.reason) for r in result.rejected),
        result.resolve_sets_tried,
        None if result.protocol is None else result.protocol.name,
    )


def _rows(protocol, config, **options):
    return _synthesizer(protocol, config,
                        **options).evaluate_all_combinations()


def _audit(seed, config, *, cache=None, policy=None, **params):
    from repro.randomgen import audit_theorems

    return audit_theorems(seed=seed, jobs=config["jobs"],
                          cache=cache, policy=policy, **params)


def _audit_surface(report):
    return (report.samples, report.certificates_issued,
            report.deadlock_checks, tuple(report.discrepancies))


def _sweep_resumed(result, written: int) -> None:
    # A resumed sweep runs exactly the sizes the dying run did not write.
    assert result.stats.work_items == len(result.reports) - written


@dataclass(frozen=True)
class Analysis:
    run: Callable
    surface: Callable
    accepts: dict
    """Axis name -> the values this analysis takes (``None``: any)."""
    exact: Callable | None = None
    """Identity with the production default beyond the surface, for
    analyses whose witnesses the naive engine may pick differently."""
    resumed: Callable | None = None


ANALYSES = {
    "graph": Analysis(_graph, _graph_surface,
                      {"backend": KERNEL_OR_NAIVE}),
    "check": Analysis(_check, lambda report: report,
                      {"backend": None}),
    "sweep": Analysis(_sweep, lambda result: result.reports,
                      {"backend": None, "jobs": None, "cache": None,
                       "fault": None},
                      resumed=_sweep_resumed),
    "trail": Analysis(_trail, lambda found: tuple(map(_head, found)),
                      {"backend": KERNEL_OR_NAIVE}),
    "livelock": Analysis(_livelock, _livelock_surface,
                         {"backend": KERNEL_OR_NAIVE},
                         exact=lambda report: report),
    "verify": Analysis(_verify, _verify_surface,
                       {"backend": KERNEL_OR_NAIVE, "cache": None},
                       exact=lambda report: report),
    "synthesis": Analysis(_synthesis, _synthesis_surface,
                          {"backend": KERNEL_OR_NAIVE, "search": None}),
    "rows": Analysis(_rows, list,
                     {"backend": KERNEL_OR_NAIVE, "search": None}),
    "audit": Analysis(_audit, _audit_surface,
                      {"jobs": None, "cache": None}),
}


# ----------------------------------------------------------------------
# applying the axes
# ----------------------------------------------------------------------
def _fault(mode: str):
    """The supervision policy and fault plan of one fault value."""
    from repro.engine.supervisor import FaultPlan, SupervisorPolicy

    if mode == "crash":
        return (SupervisorPolicy(retries=2),
                FaultPlan(crash_items=frozenset({0, 2})))
    if mode == "hang":
        return (SupervisorPolicy(timeout=0.15, retries=2),
                FaultPlan(hang_items=frozenset({1}), hang_seconds=30.0))
    if mode == "kill-resume":
        return SupervisorPolicy(retries=2), None
    return None, None


def _timed(call, **kwargs) -> Run:
    began = time.perf_counter()
    result = call(**kwargs)
    return Run(result, time.perf_counter() - began, kwargs.get("cache"))


def _entries(directory: Path) -> int:
    """Result-cache entries on disk under *directory*."""
    return len(list(directory.rglob("*.pkl")))


def _kill_resume(spec: Analysis, call, directory: Path) -> Outcome:
    """Kill the run after its first durable cache write, then resume."""
    from repro.engine.cache import ResultCache
    from repro.engine.supervisor import FaultPlan

    def die(status):
        raise ParentDown(status)

    try:
        call(cache=ResultCache(directory, durable=True),
             plan=FaultPlan(die_after_checkpoints=1, die=die))
    except ParentDown:
        pass
    else:
        pytest.fail("the run ended before its first durable cache write")
    written = _entries(directory)
    assert written >= 1, "died before the first checkpoint"
    resumed = _timed(call, cache=ResultCache(directory, durable=True))
    # Every written item is answered from the cache, never re-run.
    assert resumed.result.stats.cache_hits == written
    if spec.resumed is not None:
        spec.resumed(resumed.result, written)
    return Outcome([resumed])


def execute(spec: Analysis, subject, config: dict, params: dict) -> Outcome:
    """Run *spec* on *subject* under *config* (every axis it accepts)."""
    from repro.engine.cache import ResultCache

    fault = config.get("fault", "none")
    caching = config.get("cache", "none")
    policy, plan = _fault(fault)
    with contextlib.ExitStack() as stack:
        def scratch() -> Path:
            return Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix="matrix-")))

        def call(cache=None, plan=plan):
            options = dict(params, cache=cache, policy=policy)
            if "fault" in spec.accepts:
                options["plan"] = plan
            return spec.run(subject, config, **options)

        if fault == "kill-resume":
            assert caching != "warm", "kill-resume brings its own cache"
            return _kill_resume(spec, call, scratch())
        if caching == "none":
            return Outcome([_timed(call)])
        directory = scratch()
        runs = [_timed(call, cache=ResultCache(directory))]
        if caching == "warm":
            # A second instance: cold memory, warm disk.
            runs.append(_timed(call, cache=ResultCache(directory)))
        return Outcome(runs)


# ----------------------------------------------------------------------
# comparing
# ----------------------------------------------------------------------
def divergence(spec: Analysis, result, reference, default) -> str | None:
    """Why *result* disagrees with its oracles, or ``None``."""
    if spec.surface(result) != spec.surface(reference):
        return "diverged from the naive serial reference"
    exact = spec.exact or spec.surface
    if default is not None and exact(result) != exact(default):
        return "diverged from the production default"
    return None


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
def _configs(analysis: str, spec: Analysis, axes: dict):
    """The cell's, the default's and the reference's axis values."""
    for name, value in axes.items():
        assert name in spec.accepts, f"{analysis} has no {name} axis"
        allowed = spec.accepts[name]
        assert allowed is None or value in allowed, \
            f"{analysis} takes no {name}={value!r}"
    default = {name: DEFAULT[name] for name in spec.accepts}
    reference = {name: REFERENCE[name] for name in spec.accepts}
    return {**default, **axes}, default, reference


def _against_default(config: dict, default: dict, reference: dict) -> bool:
    """Whether a cell also answers to the production default: it runs
    on the production backend, is not the default itself, and the
    default is not the reference (an analysis without a backend)."""
    return (config != default and default != reference
            and config.get("backend", "kernel") == "kernel")


class Matrix:
    """The cells of one test session.

    Each ``(analysis, source, parameters)`` gets its naive serial
    reference and its production default computed once, on first use.
    *analyses* replaces the analyses table (a test plants a faulty
    analysis this way).
    """

    def __init__(self, analyses: dict | None = None) -> None:
        self.analyses = ANALYSES if analyses is None else analyses
        self._memo: dict = {}

    def reference(self, analysis: str, source, **params):
        """The naive serial reference of ``(analysis, source, params)``."""
        spec = self.analyses[analysis]
        _, _, config = _configs(analysis, spec, {})
        key = ("reference", analysis, source.key,
               tuple(sorted(params.items())))
        if source.key is not None and key in self._memo:
            return self._memo[key]
        result = execute(spec, source.build(), config, params).result
        if source.key is not None:
            self._memo[key] = result
        return result

    def _default(self, analysis: str, source, params: dict):
        key = ("default", analysis, source.key,
               tuple(sorted(params.items())))
        if source.key is not None and key in self._memo:
            return self._memo[key]
        return self.cell(analysis, source, **params).result

    def cell(self, analysis: str, source, **settings) -> Outcome:
        """Run one cell and pin it to its oracles (see the module doc).

        *settings* are axis values (names in the axes table) and the
        analysis's own parameters (``size``, ``up_to``,
        ``max_ring_size``, ...).  Returns the cell's :class:`Outcome`
        for further checks.
        """
        spec = self.analyses[analysis]
        axes = {k: v for k, v in settings.items() if k in BY_NAME}
        params = {k: v for k, v in settings.items() if k not in BY_NAME}
        config, default_config, reference_config = _configs(
            analysis, spec, axes)
        expected = self.reference(analysis, source, **params)
        default = (self._default(analysis, source, params)
                   if _against_default(config, default_config,
                                       reference_config) else None)
        outcome = execute(spec, source.build(), config, params)
        for run in outcome.runs:
            problem = divergence(spec, run.result, expected, default)
            if problem is not None:
                _fail(analysis, spec, source, config, params, problem)
        if config == default_config and source.key is not None:
            self._memo.setdefault(("default", analysis, source.key,
                                   tuple(sorted(params.items()))),
                                  outcome.result)
        return outcome


def _fail(analysis, spec, source, config, params, problem) -> None:
    spelled = ", ".join(f"{k}={v}" for k, v in sorted(config.items()))
    message = (f"{analysis} cell ({spelled}) on {source} with {params}: "
               f"{problem}")
    if source.shrinkable:
        _, default_config, reference_config = _configs(analysis, spec, {})

        def still_fails(candidate) -> bool:
            def run(axes):
                return execute(spec, candidate, axes, params)

            expected = run(reference_config).result
            default = (run(default_config).result
                       if _against_default(config, default_config,
                                           reference_config) else None)
            return any(divergence(spec, each.result, expected,
                                  default) is not None
                       for each in run(config).runs)

        minimal = shrink_failing_protocol(source.build(), still_fails)
        message += f"; minimized reproducer:\n{minimal.pretty()}"
    pytest.fail(message)
