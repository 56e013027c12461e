"""Differential cells: the local-reasoning kernel == the naive pipeline.

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
  every bundled protocol and on 60 seeded random protocols.

The trail and synthesis cells run through :mod:`tests.differential`.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.convergence import verify_convergence
from repro.core.pseudolivelock import pseudo_livelock_supports
from repro.core.synthesis import Synthesizer
from repro.engine import EngineStats, localkernel
from repro.graphs import (
    Digraph,
    minimal_feedback_vertex_sets,
    minimal_feedback_vertex_sets_exhaustive,
)
from repro.protocols import stabilizing_sum_not_two, sum_not_two
from tests.differential import sources

#: 10 seeds x 6 samples = 60 random protocols, both sampler regimes.
RANDOM = sources.sample_block(range(10), 6, alternate=True)
RANDOM_MAX_RING = 5


# ----------------------------------------------------------------------
# Trail search
# ----------------------------------------------------------------------
@pytest.mark.parametrize("source", sources.bundled_by_factory())
def test_trail_kernel_matches_naive_on_bundled(matrix, source):
    matrix.cell("trail", source)


def test_trail_kernel_memoizes_repeat_queries():
    # The base sum-not-two has no transitions; the stabilized variant's
    # recovery arcs give a non-empty support pool.
    protocol = stabilizing_sum_not_two()
    kernel = localkernel.local_kernel_for(protocol)
    supports = pseudo_livelock_supports(protocol.space.transitions)
    assert supports
    first = [kernel.find_trail(s, 9) for s in supports]
    stats = EngineStats()
    with stats.collecting():
        second = [kernel.find_trail(s, 9) for s in supports]
        # The memo is keyed on the bound too: another bound searches.
        assert [kernel.find_trail(s, 8) for s in supports] == first
    assert second == first
    assert stats.trail_cache_hits == len(supports)
    # No support forms a trail: 28 (K, |E|) patterns each up to K = 8.
    assert stats.mask_evaluations == 28 * len(supports)


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
    stats = EngineStats()
    with stats.collecting():
        mine = list(minimal_feedback_vertex_sets(
            graph, allowed=allowed, bad=bad))
    oracle = list(minimal_feedback_vertex_sets_exhaustive(
        graph, allowed=allowed, bad=bad))
    # Same sets in the same (size-then-combinations) order.
    assert mine == oracle
    if mine and mine != [frozenset()]:
        assert stats.fvs_nodes_explored > 0


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
@pytest.mark.parametrize("source", sources.bundled_by_factory())
def test_synthesis_kernel_matches_naive_on_bundled(matrix, source):
    matrix.cell("synthesis", source)


@pytest.mark.parametrize("source", RANDOM)
def test_synthesis_kernel_matches_naive_on_random(matrix, source):
    matrix.cell("synthesis", source, max_ring_size=RANDOM_MAX_RING)


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
