"""Property-based differential harness for the supervision layer.

The supervisor's contract is brutal and simple: **faults must not change
verdicts**.  A sweep that survives worker crashes, per-task timeouts or
a hard parent kill followed by ``--resume`` must produce reports
structurally identical to the serial, unsupervised, naive-backend
reference run.

This file pins that property on seeded random protocols
(:class:`repro.randomgen.ProtocolSampler`): each seed's protocol runs
through the naive serial path, the kernel serial path, and the
supervised path under an injected failure mode, and every report tuple
must compare equal (report equality ignores timing/stats fields by
construction, so this is exactly verdict-and-witness equality).

Every seed runs its injected fault through the one dispatch path — the
batch scheduler's persistent workers — so its crash-requeue,
heartbeat-timeout and cache-write-through resume paths must reproduce
the serial verdicts exactly.

When a case ever diverges, :func:`shrink_failing_protocol` greedily
removes actions while the divergence persists and the assertion message
carries the minimized guarded-command listing — a failing seed should
arrive on a maintainer's desk already small.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

from repro.checker.sweep import sweep_verify
from repro.core.synthesis import Synthesizer
from repro.engine.cache import ResultCache
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import FaultPlan, SupervisorPolicy
from repro.randomgen import ProtocolSampler

pytestmark = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")

#: Sweep bound: sizes 2..4 for the single-variable samples — three work
#: items, enough for every failure mode to hit a mid-run item.
UP_TO = 4

#: Seeds per failure mode.  3 modes x 18 seeds = 54 distinct protocols
#: (each mode draws from its own seed block), comfortably past the
#: 50-protocol floor this suite promises.
SEEDS_PER_MODE = 18

FAILURE_MODES = ("crash", "timeout", "kill-resume")


class ParentDown(BaseException):
    """Stands in for the SIGKILL of the whole run (patchable death)."""


def _fresh_cache_dir(tmp_path) -> Path:
    """An empty cache directory per kill-resume cycle (the shrinker
    reruns cycles under one *tmp_path*)."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=tmp_path))


def _entries(directory: Path) -> int:
    """Result-cache entries the dying run left on disk."""
    return len(list(directory.rglob("*.pkl")))


def _sample(mode: str, seed: int):
    """One deterministic protocol per (mode, seed): disjoint seed blocks
    keep the 54 sampled protocols distinct across modes."""
    block = FAILURE_MODES.index(mode)
    sampler = ProtocolSampler(max_domain=3, max_transitions=6,
                              seed=1000 * block + seed)
    return sampler.sample()


def _reference(protocol):
    """The trusted result: serial, unsupervised, naive backend."""
    return sweep_verify(protocol, up_to=UP_TO, backend="naive", jobs=1)


def _supervised(protocol, mode: str, tmp_path):
    """Run the sweep under *mode*'s injected fault and return the
    result (after a resume cycle for the kill mode)."""
    policy = SupervisorPolicy(retries=2, backoff=0.01)
    if mode == "crash":
        return sweep_verify(
            protocol, up_to=UP_TO, jobs=2, policy=policy,
            fault_plan=FaultPlan(crash_items=frozenset({0, 2})))
    if mode == "timeout":
        return sweep_verify(
            protocol, up_to=UP_TO, jobs=2,
            policy=SupervisorPolicy(timeout=0.5, retries=2,
                                    backoff=0.01),
            fault_plan=FaultPlan(hang_items=frozenset({1}),
                                 hang_seconds=30.0))
    if mode == "kill-resume":
        # The dying run uses workers (jobs=2): the write that triggered
        # the death must be on disk when the parent "dies" by stack
        # unwind out of the scheduler loop.
        directory = _fresh_cache_dir(tmp_path)
        with pytest.raises(ParentDown):
            sweep_verify(
                protocol, up_to=UP_TO, jobs=2, policy=policy,
                cache=ResultCache(directory, durable=True),
                fault_plan=FaultPlan(
                    die_after_checkpoints=1,
                    die=lambda status: (_ for _ in ()).throw(
                        ParentDown(status))))
        written = _entries(directory)
        assert written >= 1, "died before the first checkpoint"
        result = sweep_verify(protocol, up_to=UP_TO, jobs=2,
                              policy=policy,
                              cache=ResultCache(directory, durable=True))
        # The resumed run answers every written item from the cache
        # (never re-executes it) and runs exactly the rest.
        assert result.stats.cache_hits == written
        assert result.stats.work_items == len(result.reports) - written
        return result
    raise AssertionError(f"unknown mode {mode!r}")


# ----------------------------------------------------------------------
# the shrinker
# ----------------------------------------------------------------------
def shrink_failing_protocol(protocol, still_fails):
    """Greedy delta-debugging over the protocol's actions.

    Repeatedly drops single actions as long as *still_fails* keeps
    holding; the result is 1-minimal (no single further removal
    preserves the failure).  Predicates that crash on a candidate are
    treated as "does not fail" — shrinking must never introduce new
    error classes.
    """
    current = protocol
    progress = True
    while progress:
        progress = False
        actions = current.process.actions
        for index in range(len(actions)):
            candidate = current.with_actions(
                actions[:index] + actions[index + 1:],
                name=f"{protocol.name}_shrunk")
            try:
                failing = still_fails(candidate)
            except Exception:
                continue
            if failing:
                current = candidate
                progress = True
                break
    return current


def _assert_no_divergence(protocol, mode, tmp_path):
    reference = _reference(protocol)
    kernel = sweep_verify(protocol, up_to=UP_TO, backend="auto", jobs=1)
    assert kernel.reports == reference.reports, \
        "kernel backend diverged from the naive reference"
    supervised = _supervised(protocol, mode, tmp_path)
    if supervised.reports == reference.reports:
        return

    def diverges(candidate) -> bool:
        base = _reference(candidate)
        faulted = _supervised(candidate, mode, tmp_path / "shrink")
        return faulted.reports != base.reports

    (tmp_path / "shrink").mkdir(exist_ok=True)
    minimal = shrink_failing_protocol(protocol, diverges)
    pytest.fail(
        f"supervised sweep diverged from the serial reference under "
        f"injected {mode}; minimized "
        f"reproducer:\n{minimal.pretty()}")


# ----------------------------------------------------------------------
# the properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
class TestFaultsNeverChangeVerdicts:
    def test_worker_crashes(self, seed, tmp_path):
        _assert_no_divergence(_sample("crash", seed), "crash", tmp_path)

    def test_hangs_under_timeout(self, seed, tmp_path):
        _assert_no_divergence(_sample("timeout", seed), "timeout",
                              tmp_path)

    def test_kill_resume_rerun(self, seed, tmp_path):
        _assert_no_divergence(_sample("kill-resume", seed),
                              "kill-resume", tmp_path)


# ----------------------------------------------------------------------
# the same faults against the lattice synthesis search
# ----------------------------------------------------------------------
#: Seeds per failure mode for the synthesis-side property; the lattice
#: engine partitions the combination list into subtree work units, so
#: the same crash/hang/kill-resume ladder must leave synthesis verdicts
#: AND the intrinsic pruned/evaluated counter split untouched.
SYNTH_SEEDS = 6
SYNTH_MAX_RING = 4


def _synth_sample(mode: str, seed: int):
    block = FAILURE_MODES.index(mode)
    sampler = ProtocolSampler(max_domain=3, max_transitions=6,
                              seed=5000 + 1000 * block + seed)
    return sampler.sample()


def _synth_comparable(result):
    return (
        result.outcome,
        result.resolve,
        result.chosen,
        tuple((r.transitions, r.reason) for r in result.rejected),
        result.resolve_sets_tried,
        None if result.protocol is None else result.protocol.name,
    )


def _synth_flat_reference(protocol):
    """The trusted result: serial flat search, no supervision."""
    return _synth_comparable(
        Synthesizer(protocol, max_ring_size=SYNTH_MAX_RING,
                    search="flat").synthesize())


def _synth_unfaulted(protocol):
    """Unfaulted lattice run at the faulted runs' parallelism: the
    counter-split oracle.  The pruned/evaluated split is intrinsic per
    judged combination, and ``jobs`` fixes the work-unit plan — every
    unit of a walked pool runs, speculative ones included — so every
    faulted ``jobs=2`` run below must reproduce this run's split
    exactly."""
    synthesizer = Synthesizer(protocol, max_ring_size=SYNTH_MAX_RING,
                              search="lattice", jobs=2)
    comparable = _synth_comparable(synthesizer.synthesize())
    stats = synthesizer.stats
    return comparable, (stats.combos_pruned, stats.full_evaluations)


def _synth_supervised(protocol, mode: str, tmp_path):
    policy = SupervisorPolicy(retries=2, backoff=0.01)
    if mode == "crash":
        synthesizer = Synthesizer(
            protocol, max_ring_size=SYNTH_MAX_RING, search="lattice",
            jobs=2, policy=policy,
            fault_plan=FaultPlan(crash_items=frozenset({0, 2})))
    elif mode == "timeout":
        synthesizer = Synthesizer(
            protocol, max_ring_size=SYNTH_MAX_RING, search="lattice",
            jobs=2,
            policy=SupervisorPolicy(timeout=0.5, retries=2,
                                    backoff=0.01),
            fault_plan=FaultPlan(hang_items=frozenset({1}),
                                 hang_seconds=30.0))
    elif mode == "kill-resume":
        directory = _fresh_cache_dir(tmp_path)
        dying = Synthesizer(
            protocol, max_ring_size=SYNTH_MAX_RING,
            search="lattice", jobs=2, policy=policy,
            cache=ResultCache(directory, durable=True),
            fault_plan=FaultPlan(
                die_after_checkpoints=1,
                die=lambda status: (_ for _ in ()).throw(
                    ParentDown(status))))
        try:
            result = dying.synthesize()
        except ParentDown:
            pass
        else:
            # Nothing ever reached the supervised unit loop (e.g. a
            # combination-free methodology outcome, or a pool the
            # uniform assumption check rejects): no unit was written
            # through, so there is no resume cycle to exercise, just a
            # verdict to check.
            assert _entries(directory) == 0
            return (_synth_comparable(result),
                    (dying.stats.combos_pruned,
                     dying.stats.full_evaluations))
        written = _entries(directory)
        assert written >= 1, "died before the first unit checkpoint"
        synthesizer = Synthesizer(
            protocol, max_ring_size=SYNTH_MAX_RING, search="lattice",
            jobs=2, policy=policy,
            cache=ResultCache(directory, durable=True))
        result = synthesizer.synthesize()
        # Written units and verdicts are answered from the cache — a
        # unit's verdicts AND counter deltas replay instead of
        # re-running, so the resumed totals must still match the
        # unfaulted split.
        assert synthesizer.stats.cache_hits == written
        return (_synth_comparable(result),
                (synthesizer.stats.combos_pruned,
                 synthesizer.stats.full_evaluations))
    else:  # pragma: no cover - harness guard
        raise AssertionError(f"unknown mode {mode!r}")
    result = synthesizer.synthesize()
    return (_synth_comparable(result),
            (synthesizer.stats.combos_pruned,
             synthesizer.stats.full_evaluations))


def _assert_lattice_fault_free(seed: int, mode: str, tmp_path) -> None:
    protocol = _synth_sample(mode, seed)
    reference = _synth_flat_reference(protocol)
    unfaulted, counters = _synth_unfaulted(protocol)
    assert unfaulted == reference, \
        "unfaulted lattice diverged from the flat reference"
    faulted, faulted_counters = _synth_supervised(protocol, mode,
                                                  tmp_path)
    assert faulted == reference, \
        f"lattice search diverged under injected {mode}"
    assert faulted_counters == counters, \
        f"pruned/evaluated split drifted under injected {mode}"


@pytest.mark.parametrize("seed", range(SYNTH_SEEDS))
class TestLatticeSearchUnderFaults:
    def test_worker_crashes(self, seed, tmp_path):
        _assert_lattice_fault_free(seed, "crash", tmp_path)

    def test_hangs_under_timeout(self, seed, tmp_path):
        _assert_lattice_fault_free(seed, "timeout", tmp_path)

    def test_kill_resume_replays_prune_state(self, seed, tmp_path):
        _assert_lattice_fault_free(seed, "kill-resume", tmp_path)


# ----------------------------------------------------------------------
# the shrinker itself
# ----------------------------------------------------------------------
class TestShrinker:
    def test_shrinks_to_the_single_responsible_action(self):
        protocol = ProtocolSampler(max_transitions=6, seed=14).sample()
        actions = protocol.process.actions
        assert len(actions) >= 2, "seed 14 must sample a rich protocol"
        target = actions[-1].name

        def still_fails(candidate) -> bool:
            return any(a.name == target
                       for a in candidate.process.actions)

        minimal = shrink_failing_protocol(protocol, still_fails)
        assert [a.name for a in minimal.process.actions] == [target]

    def test_deliberate_divergence_is_caught_and_minimized(
            self, tmp_path, monkeypatch):
        """End-to-end failure drill: plant a verdict-corrupting
        "supervisor" and demand the harness fail with a minimized
        reproducer — the exact path a real supervision bug would take."""
        import tests.engine.test_supervisor_properties as module

        from repro.checker.sweep import SweepResult

        def corrupted_supervised(protocol, mode, path):
            genuine = _reference(protocol)
            return SweepResult(reports=genuine.reports[:-1],
                               elapsed_seconds=genuine.
                               elapsed_seconds[:-1])

        monkeypatch.setattr(module, "_supervised",
                            corrupted_supervised)
        protocol = ProtocolSampler(max_transitions=6, seed=24).sample()
        assert len(protocol.process.actions) >= 2
        with pytest.raises(pytest.fail.Exception,
                           match="minimized reproducer") as info:
            _assert_no_divergence(protocol, "crash", tmp_path)
        # The dropped-report corruption diverges for every candidate,
        # so the shrinker must have stripped the protocol bare.
        assert "protocol" in str(info.value)
