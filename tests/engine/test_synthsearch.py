"""Differential cells and unit coverage for the lattice synthesis search.

The flat per-combination loop and the naive backend are the oracles;
the lattice walk (:mod:`repro.engine.synthsearch`) must reproduce them
exactly:

* byte-identical :class:`SynthesisResult` surfaces (outcome, Resolve,
  chosen combination, rejected list with reasons) on every bundled
  protocol and on 40 seeded random protocols (the ``search="flat"``
  cells of :mod:`tests.differential`);
* prune soundness — every combination the lattice answered without a
  leaf-level trail query must get the identical verdict from an
  un-memoized flat evaluation;
* determinism — verdicts are identical across ``--jobs 1/2/4``, and
  so is the pruned/evaluated counter split wherever every combination
  is judged;
* one search — a Resolve set's pool is one supervised dispatch.

Plus unit coverage for the engine's parts: the subset-closed
:class:`BlockedMaskIndex`, the support-closure explosion cap, and the
``_unit_key`` index-pair regression (labels truncate string cell
values, so distinct combos used to collide).
"""

from __future__ import annotations

import pytest

from repro.core.synthesis import Synthesizer
from repro.engine.pool import parallelism_available
from repro.engine.synthsearch import (
    MAX_SUPPORTS,
    BlockedMaskIndex,
    LatticeSearch,
)
from repro.protocol.actions import LocalTransition
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import Variable
from repro.protocols import coloring, gouda_acharya_matching, three_coloring
from tests.differential import sources
from tests.differential.harness import ANALYSES

RANDOM_SAMPLES = 5  # 8 seeds x 5 = 40 random protocols, the suite's floor
RANDOM_MAX_RING = 5


# ----------------------------------------------------------------------
# Verdict equality: lattice vs flat
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", sources.bundled_by_factory())
def test_lattice_matches_flat_on_bundled(matrix, source):
    matrix.cell("synthesis", source, search="flat")


@pytest.mark.parametrize(
    "source", sources.bundled_by_factory(["3-coloring", "sum-not-two"]))
def test_lattice_matches_flat_full_sweep(matrix, source):
    # evaluate_all_combinations exercises the non-stop-at-first path:
    # every combination's reason string must match, not just the
    # winning prefix.
    matrix.cell("rows", source, search="flat")


@pytest.mark.parametrize("seed", range(8))
def test_lattice_matches_flat_on_random_protocols(matrix, seed):
    # Fresh protocol objects per run: the kernel trail memo hangs off
    # the protocol's kernel, and a shared one would mask divergence.
    for source in sources.sampled_run(seed, RANDOM_SAMPLES):
        matrix.cell("synthesis", source, max_ring_size=RANDOM_MAX_RING,
                    search="flat")


def test_naive_backend_silently_searches_flat():
    synthesizer = Synthesizer(three_coloring(), backend="naive",
                              search="lattice")
    assert synthesizer.search == "flat"


def test_unknown_search_mode_is_rejected():
    with pytest.raises(ValueError, match="unknown synthesis search"):
        Synthesizer(three_coloring(), search="bogus")


# ----------------------------------------------------------------------
# Prune soundness
# ----------------------------------------------------------------------
def test_pruned_combos_recheck_identically_flat():
    """Feed the walker one combination at a time, classify each leaf
    from the counter delta, and re-judge every pruned combination with
    an un-memoized flat evaluation: identical verdict required."""
    from repro.core.deadlock import DeadlockAnalyzer

    synthesizer = Synthesizer(three_coloring(), search="lattice")
    resolve = DeadlockAnalyzer(synthesizer.protocol).resolve_candidates()[0]
    candidates = synthesizer.candidate_transitions(resolve)
    combos, _ = synthesizer._enumerate_combinations(candidates)
    search = LatticeSearch(synthesizer)
    pruned = []
    for combo in combos:
        before = search._counts["combos_pruned"]
        reasons, _delta = search.evaluate_unit([combo], False)
        if search._counts["combos_pruned"] > before:
            pruned.append((combo, reasons[0]))
    assert pruned, "three-coloring must exercise the pruning path"
    oracle = Synthesizer(three_coloring(), search="flat")
    for combo, reason in pruned:
        assert oracle._evaluate_verdict(combo) == reason


def test_counter_split_covers_every_combination():
    synthesizer = Synthesizer(three_coloring(), search="lattice")
    rows = synthesizer.evaluate_all_combinations()
    stats = synthesizer.stats
    assert stats.combos_pruned + stats.full_evaluations == len(rows)
    assert stats.combos_pruned > 0
    assert stats.delta_reuses > 0
    assert stats.checkpoint_bytes > 0


# ----------------------------------------------------------------------
# Determinism across jobs
# ----------------------------------------------------------------------
@pytest.mark.skipif(not parallelism_available(),
                    reason="needs the fork start method")
def test_verdicts_and_counters_invariant_across_jobs(matrix):
    # three_coloring rejects every combination, so every jobs value
    # judges the whole pool.  forbidden_sum(6, 1) accepts its second
    # combination, which falls in the second unit at jobs 2 and 4: the
    # units after it are speculative, run but cut from the result, and
    # their counters are not folded.  Each cell's result is compared
    # with the reference, and the counter split must match across jobs
    # for both pools.
    def split(source, jobs):
        stats = matrix.cell("synthesis", source, jobs=jobs).result.stats
        return stats.combos_pruned, stats.full_evaluations

    accepts_second = sources.forbidden_sum(6, 1)
    surface = ANALYSES["synthesis"].surface(
        matrix.cell("synthesis", accepts_second, search="flat").result)
    assert surface[0].name.startswith("SUCCESS") and len(surface[3]) == 1
    for source in (sources.coloring(3), accepts_second):
        reference = split(source, 1)
        for jobs in (2, 4):
            assert split(source, jobs) == reference, jobs


def test_one_dispatch_per_pool(monkeypatch):
    import repro.engine.synthsearch as synthsearch

    calls = []
    dispatch = synthsearch.supervise_work_items
    monkeypatch.setattr(
        synthsearch, "supervise_work_items",
        lambda *args, **kwargs: calls.append(1) or dispatch(*args,
                                                            **kwargs))
    result = Synthesizer(coloring(5), jobs=1).synthesize()
    assert len(result.rejected) == 1024
    assert len(calls) == 1
    # A pool the uniform Assumption 1/2 check rejects is not dispatched.
    calls.clear()
    result = Synthesizer(gouda_acharya_matching(),
                         accept_contiguous_only=True).synthesize()
    assert "(Assumption 2)" in result.rejected[0].reason
    assert calls == []


# ----------------------------------------------------------------------
# _unit_key regression: local-state index pairs, not label strings
# ----------------------------------------------------------------------
def _label_colliding_protocol():
    """States over domain ("aa", "ab"): labels keep only the first
    character of string cell values, so the two opposite transitions
    both render as ``taa``."""
    m = Variable("m", ("aa", "ab"))
    process = ProcessTemplate(variables=(m,), actions=(),
                              reads_left=1, reads_right=0)
    return RingProtocol("label_collider", process, "True")


def test_unit_key_distinguishes_label_colliding_combos():
    from repro.core.synthesis import _transition_label

    protocol = _label_colliding_protocol()
    space = protocol.space
    states = {state.cells: state for state in space.states}
    forward = LocalTransition(states[(("aa",), ("aa",))],
                              states[(("aa",), ("ab",))])
    backward = LocalTransition(states[(("aa",), ("ab",))],
                               states[(("aa",), ("aa",))])
    # The historical failure mode: distinct transitions, same label.
    assert _transition_label(forward.source, forward.target) \
        == _transition_label(backward.source, backward.target) == "taa"
    search = LatticeSearch(Synthesizer(protocol))
    assert search._unit_key([(forward,)], True) \
        != search._unit_key([(backward,)], True)
    # A unit that stops at its first accept never answers a full walk.
    assert search._unit_key([(forward,)], True) \
        != search._unit_key([(forward,)], False)


# ----------------------------------------------------------------------
# BlockedMaskIndex
# ----------------------------------------------------------------------
def test_blocked_mask_index_covers_supersets_only():
    index = BlockedMaskIndex()
    index.add(0b0011, (2, ["a", "b"]), frozenset({"a", "b"}), (3, 4))
    assert index.covers_min(0b0011) is not None
    assert index.covers_min(0b0111) is not None  # strict superset
    assert index.covers_min(0b0001) is None      # subset: not covered
    assert index.covers_min(0b1100) is None      # disjoint


def test_blocked_mask_index_returns_minimal_key():
    index = BlockedMaskIndex()
    index.add(0b0001, (1, ["z"]), frozenset({"z"}), (5, 5))
    index.add(0b0110, (2, ["a", "b"]), frozenset({"a", "b"}), (3, 4))
    key, support, head = index.covers_min(0b0111)
    assert key == (1, ["z"])
    assert head == (5, 5)


def test_blocked_mask_index_deduplicates_masks():
    index = BlockedMaskIndex()
    index.add(0b1, (1, ["a"]), frozenset({"a"}), (2, 2))
    index.add(0b1, (1, ["a"]), frozenset({"a"}), (9, 9))
    assert len(index) == 1
    assert index.covers_min(0b1)[2] == (2, 2)


# ----------------------------------------------------------------------
# Support-closure explosion
# ----------------------------------------------------------------------
def test_explosion_reason_matches_flat_string():
    """13 disjoint write-projection 2-cycles have 2^13 - 1 > 4096
    non-empty cycle unions: both paths must trip the identical cap with
    the identical message."""
    from repro.core.pseudolivelock import (
        SupportExplosion,
        pseudo_livelock_supports,
    )

    m = Variable("m", tuple(range(26)))
    process = ProcessTemplate(variables=(m,), actions=(),
                              reads_left=1, reads_right=0)
    protocol = RingProtocol("explosive", process, "True")
    by_own = {}
    for state in protocol.space.states:
        by_own.setdefault(state.own, state)
    arcs = []
    for low in range(0, 26, 2):
        a, b = by_own[(low,)], by_own[(low + 1,)]
        arcs.append(LocalTransition(a, a.replace_own(b.own)))
        arcs.append(LocalTransition(b, b.replace_own(a.own)))
    with pytest.raises(SupportExplosion) as info:
        pseudo_livelock_supports(arcs)
    assert str(info.value) == (
        "more than 4096 pseudo-livelock supports; raise max_supports or "
        "reduce the candidate set")
    assert MAX_SUPPORTS == 4096


# ----------------------------------------------------------------------
# Ledger / obs wiring
# ----------------------------------------------------------------------
def test_search_counters_reach_the_work_counter_schema():
    from repro.obs.ledger import WORK_COUNTERS

    assert "combos_pruned" in WORK_COUNTERS
    assert "full_evaluations" in WORK_COUNTERS
    # delta_reuses varies with unit partitioning (re-pushed prefixes)
    # and must never be treated as drift-on-identity.
    assert "delta_reuses" not in WORK_COUNTERS


def test_prune_broadcast_event_schema_is_validated():
    from repro.obs.validate import ValidationError, _validate_event

    _validate_event({"kind": "prune-broadcast", "level": "info",
                     "ts": 1.0, "entries": 3, "source": "load"}, "ok")
    with pytest.raises(ValidationError):
        _validate_event({"kind": "prune-broadcast", "level": "info",
                         "ts": 1.0}, "missing payload")


def test_synthsearch_metrics_must_be_numeric():
    from repro.obs.validate import ValidationError, validate_chrome_trace_data

    def trace(values):
        return {
            "traceEvents": [{"ph": "X", "name": "s", "pid": 1, "tid": 1,
                             "ts": 0.0, "dur": 1.0, "depth": 0,
                             "args": {}}],
            "otherData": {"run": "x", "metrics": values},
        }

    validate_chrome_trace_data(trace({"synthsearch.combos_pruned": 4}))
    with pytest.raises(ValidationError, match="must be numeric"):
        validate_chrome_trace_data(trace({"synthsearch.combos_pruned": "4"}))


def test_stats_summary_mentions_the_search_counters():
    synthesizer = Synthesizer(three_coloring(), search="lattice")
    synthesizer.evaluate_all_combinations()
    summary = synthesizer.stats.summary()
    assert "synthsearch" in summary
    assert "combos pruned" in summary
