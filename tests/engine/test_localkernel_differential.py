"""Differential suite: the local-reasoning kernel == the naive pipeline.

The original ``Digraph``-per-query implementations are the reference;
the bitmask kernel must reproduce them exactly:

* trail search — same found/not-found verdict and the same
  ``(K, |E|, t_arcs)`` witness head for every pseudo-livelock support of
  every bundled protocol (the witnessing SCC's ``states`` may come from
  a different matching component, so only the head is pinned);
* FVS enumeration — the branch-and-bound search returns the exhaustive
  enumerator's sets in the exhaustive enumerator's order, truncation
  included, over seeded random digraphs;
* synthesis — byte-identical :class:`SynthesisResult` surfaces
  (outcome, Resolve, chosen combination, rejected list with reasons) on
  every bundled protocol and on ≥ 60 seeded random protocols, and
  identical results under ``jobs=1`` vs ``jobs=2``.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.convergence import verify_convergence
from repro.core.pseudolivelock import (
    SupportExplosion,
    pseudo_livelock_supports,
)
from repro.core.synthesis import Synthesizer
from repro.core.trail import ContiguousTrailSearcher
from repro.engine import EngineStats, localkernel, parallelism_available
from repro.graphs import (
    Digraph,
    FvsStats,
    minimal_feedback_vertex_sets,
    minimal_feedback_vertex_sets_exhaustive,
)
from repro.protocols import (
    agreement,
    generalizable_matching,
    gouda_acharya_matching,
    livelock_agreement,
    matching_base,
    nongeneralizable_matching,
    stabilizing_agreement,
    stabilizing_sum_not_two,
    sum_not_two,
    three_coloring,
    two_coloring,
)
from repro.randomgen import ProtocolSampler

BUNDLED = (
    matching_base,
    generalizable_matching,
    nongeneralizable_matching,
    gouda_acharya_matching,
    agreement,
    livelock_agreement,
    stabilizing_agreement,
    two_coloring,
    three_coloring,
    sum_not_two,
    stabilizing_sum_not_two,
)

RANDOM_SEEDS = tuple(range(10))
SAMPLES_PER_SEED = 6  # 10 × 6 = 60 random protocols ≥ the 60 required
RANDOM_MAX_RING = 5


# ----------------------------------------------------------------------
# Trail search
# ----------------------------------------------------------------------
def _supports(protocol):
    try:
        return pseudo_livelock_supports(protocol.space.transitions)
    except SupportExplosion:
        return []


@pytest.mark.parametrize("factory", BUNDLED,
                         ids=lambda f: f.__name__)
def test_trail_kernel_matches_naive_on_bundled(factory):
    protocol = factory()
    kernel = ContiguousTrailSearcher(protocol, backend="kernel")
    naive = ContiguousTrailSearcher(protocol, backend="naive")
    for support in _supports(protocol):
        found_kernel = kernel.find_trail(support)
        found_naive = naive.find_trail(support)
        assert (found_kernel is None) == (found_naive is None), support
        if found_kernel is None:
            continue
        # The witness head is deterministic; the witnessing SCC's
        # member states may legitimately differ between backends.
        assert found_kernel.ring_size == found_naive.ring_size
        assert found_kernel.enablements == found_naive.enablements
        assert found_kernel.t_arcs == found_naive.t_arcs
        assert found_kernel.illegitimate_states
        assert set(found_kernel.states) <= set(protocol.space.states)


def test_trail_kernel_memoizes_repeat_queries():
    # The base sum-not-two has no transitions; the stabilized variant's
    # recovery arcs give a non-empty support pool.
    protocol = stabilizing_sum_not_two()
    searcher = ContiguousTrailSearcher(protocol, backend="kernel")
    supports = _supports(protocol)
    assert supports
    first = [searcher.find_trail(s) for s in supports]
    stats = EngineStats()
    with stats.collecting():
        second = [searcher.find_trail(s) for s in supports]
    assert second == first
    assert stats.trail_cache_hits == len(supports)
    assert stats.mask_evaluations == 0


def test_kernel_cache_frees_dropped_protocols(monkeypatch):
    # The memo is keyed weakly on the protocol; a kernel that referred
    # back to its key would keep every analysed protocol alive, with
    # its skeletons and trail memo, for the life of the process.
    cache = weakref.WeakKeyDictionary()
    monkeypatch.setattr(localkernel, "_KERNEL_CACHE", cache)
    protocol = stabilizing_sum_not_two()
    report = verify_convergence(protocol, backend="kernel")
    assert report.verdict.value == "converges"
    assert len(cache) == 1
    alive = weakref.ref(protocol)
    del protocol, report
    gc.collect()
    assert alive() is None
    assert len(cache) == 0


# ----------------------------------------------------------------------
# FVS branch-and-bound vs the exhaustive oracle
# ----------------------------------------------------------------------
def _random_digraph(rng: random.Random, nodes: int = 7) -> Digraph:
    graph = Digraph(nodes=range(nodes))
    for _ in range(rng.randrange(0, 3 * nodes)):
        graph.add_edge(rng.randrange(nodes), rng.randrange(nodes))
    return graph


@pytest.mark.parametrize("seed", range(40))
def test_fvs_branch_and_bound_matches_exhaustive(seed):
    rng = random.Random(seed)
    graph = _random_digraph(rng)
    nodes = list(graph.nodes)
    allowed = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
    bad = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
    stats = FvsStats()
    mine = list(minimal_feedback_vertex_sets(
        graph, allowed=allowed, bad=bad, stats=stats))
    oracle = list(minimal_feedback_vertex_sets_exhaustive(
        graph, allowed=allowed, bad=bad))
    # Same sets in the same (size-then-combinations) order.
    assert mine == oracle
    if mine and mine != [frozenset()]:
        assert stats.nodes_explored > 0


@pytest.mark.parametrize("seed", range(10))
def test_fvs_truncation_is_a_prefix(seed):
    rng = random.Random(1000 + seed)
    graph = _random_digraph(rng)
    full = list(minimal_feedback_vertex_sets(graph))
    for max_sets in (1, 2, 3):
        truncated = list(minimal_feedback_vertex_sets(
            graph, max_sets=max_sets))
        assert truncated == full[:max_sets]


# ----------------------------------------------------------------------
# Synthesis
# ----------------------------------------------------------------------
def _comparable(result):
    """The backend-independent surface of a SynthesisResult."""
    return (
        result.outcome,
        result.resolve,
        result.chosen,
        tuple((r.transitions, r.reason) for r in result.rejected),
        result.resolve_sets_tried,
        None if result.protocol is None else result.protocol.name,
    )


def _assert_synthesis_identical(protocol, **kwargs):
    naive = Synthesizer(protocol, backend="naive", **kwargs).synthesize()
    kernel = Synthesizer(protocol, backend="kernel", **kwargs).synthesize()
    assert _comparable(kernel) == _comparable(naive)
    return kernel


@pytest.mark.parametrize("factory", BUNDLED,
                         ids=lambda f: f.__name__)
def test_synthesis_kernel_matches_naive_on_bundled(factory):
    _assert_synthesis_identical(factory())


def _random_protocols():
    for seed in RANDOM_SEEDS:
        # Alternate the closure restriction so both sampler regimes
        # (synthesis-style and free-form) exercise the kernel.
        sampler = ProtocolSampler(
            seed=seed, restrict_sources_to_bad=bool(seed % 2))
        for index in range(SAMPLES_PER_SEED):
            yield pytest.param(sampler.sample(),
                               id=f"seed{seed}-sample{index}")


@pytest.mark.parametrize("protocol", _random_protocols())
def test_synthesis_kernel_matches_naive_on_random(protocol):
    _assert_synthesis_identical(protocol,
                                max_ring_size=RANDOM_MAX_RING)


@pytest.mark.parametrize("factory", (sum_not_two, three_coloring),
                         ids=lambda f: f.__name__)
def test_synthesis_deterministic_across_jobs(factory):
    serial = Synthesizer(factory(), jobs=1).synthesize()
    parallel = Synthesizer(factory(), jobs=2).synthesize()
    assert _comparable(parallel) == _comparable(serial)
    # Without fork (e.g. REPRO_START_METHOD=spawn) the synthesizer has
    # no portable context and runs serially by design.
    assert parallel.stats.parallel or not parallel.rejected \
        or not parallelism_available()
    sweep_serial = Synthesizer(factory(),
                               jobs=1).evaluate_all_combinations()
    sweep_parallel = Synthesizer(factory(),
                                 jobs=2).evaluate_all_combinations()
    assert sweep_parallel == sweep_serial


def test_repeated_sweep_returns_the_same_rows():
    synthesizer = Synthesizer(sum_not_two())
    first = synthesizer.evaluate_all_combinations()
    assert synthesizer.evaluate_all_combinations() == first


def test_synthesis_stats_expose_kernel_counters():
    result = Synthesizer(sum_not_two(), backend="kernel").synthesize()
    assert result.stats is not None
    assert result.stats.skeleton_compiles > 0
    assert result.stats.mask_evaluations > 0
    assert result.stats.fvs_nodes_explored > 0
    summary = result.stats.summary()
    assert "localkernel" in summary and "fvs" in summary


def test_synthesis_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown synthesis backend"):
        Synthesizer(sum_not_two(), backend="turbo")
