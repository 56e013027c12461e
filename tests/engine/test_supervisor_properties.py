"""Faults never change verdicts: the matrix's fault cells.

The supervisor's contract is brutal and simple: a sweep that survives
worker crashes, per-task timeouts or a hard parent kill followed by a
resume must produce results structurally identical to the naive serial
reference run and to the unfaulted production default.  Each seed's
protocol (:class:`repro.randomgen.ProtocolSampler`) runs under one
injected fault (``fault=crash|hang|kill-resume`` at ``jobs=2``, a cell
of :mod:`tests.differential`), and a divergence fails with a minimized
reproducer.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.pool import parallelism_available
from repro.randomgen import ProtocolSampler
from tests.differential import harness, sources
from tests.differential.shrink import shrink_failing_protocol

pytestmark = pytest.mark.skipif(not parallelism_available(),
                                reason="needs the fork start method")

#: Sweep bound: sizes 2..4 for the single-variable samples — three work
#: items, enough for every failure mode to hit a mid-run item.
UP_TO = 4

#: Seeds per failure mode.  3 modes x 18 seeds = 54 distinct protocols
#: (each mode draws from its own seed block).
SEEDS_PER_MODE = 18

#: Test-name failure mode -> the matrix's fault value.
FAILURE_MODES = {"crash": "crash", "timeout": "hang",
                 "kill-resume": "kill-resume"}


def _sample(mode: str, seed: int):
    """One deterministic protocol per (mode, seed): disjoint seed blocks
    keep the sampled protocols distinct across modes."""
    block = list(FAILURE_MODES).index(mode)
    return sources.sampled(1000 * block + seed, 0,
                           max_domain=3, max_transitions=6)


def _assert_no_divergence(matrix, mode: str, seed: int) -> None:
    matrix.cell("sweep", _sample(mode, seed), up_to=UP_TO, jobs=2,
                fault=FAILURE_MODES[mode])


@pytest.mark.parametrize("seed", range(SEEDS_PER_MODE))
class TestFaultsNeverChangeVerdicts:
    def test_worker_crashes(self, matrix, seed):
        _assert_no_divergence(matrix, "crash", seed)

    def test_hangs_under_timeout(self, matrix, seed):
        _assert_no_divergence(matrix, "timeout", seed)

    def test_kill_resume_rerun(self, matrix, seed):
        _assert_no_divergence(matrix, "kill-resume", seed)


# ----------------------------------------------------------------------
# the shrinker
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

    def test_deliberate_divergence_is_caught_and_minimized(self):
        """End-to-end failure drill: plant a verdict-corrupting
        "supervisor" and demand the matrix fail with a minimized
        reproducer — the exact path a real supervision bug would take."""
        from repro.checker.sweep import SweepResult

        genuine = harness.ANALYSES["sweep"]

        def corrupted(protocol, config, **options):
            result = genuine.run(protocol, config, **options)
            if config["fault"] == "none":
                return result
            return SweepResult(reports=result.reports[:-1],
                               elapsed_seconds=result.elapsed_seconds[:-1])

        planted = harness.Matrix({
            **harness.ANALYSES,
            "sweep": dataclasses.replace(genuine, run=corrupted)})
        source = sources.sampled(24, 0, max_transitions=6)
        assert len(source.build().process.actions) >= 2
        with pytest.raises(pytest.fail.Exception,
                           match="minimized reproducer") as info:
            planted.cell("sweep", source, up_to=UP_TO, jobs=2,
                         fault="crash")
        # The dropped-report corruption diverges for every candidate,
        # so the shrinker must have stripped the protocol bare.
        assert "protocol" in str(info.value)
