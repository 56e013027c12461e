"""Differential cells: the compiled kernel backend == the naive backend.

The naive pure-Python interpreter over tuple states is the reference
implementation; the kernel must reproduce it *exactly* — not just
verdict for verdict but state for state and edge for edge, including
enumeration order.  The cells (see :mod:`tests.differential`) cover
every bundled protocol at every tractable ring size, 60 seeded random
protocols in both sampler regimes, and hypothesis-drawn protocols.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.checker.statespace import StateGraph
from repro.engine import EngineStats
from repro.protocols import stabilizing_agreement
from tests.differential import sources

#: 10 seeds x 6 samples = 60 random protocols, both sampler regimes.
RANDOM = sources.sample_block(range(10), 6, alternate=True)
RANDOM_MAX_K = 4


@pytest.mark.parametrize("source,size", sources.bundled_instances())
def test_kernel_matches_naive_on_bundled(matrix, source, size):
    matrix.cell("graph", source, size=size)


@pytest.mark.parametrize("source,size", sources.bundled_instances())
def test_kernel_report_matches_naive_on_bundled(matrix, source, size):
    # GlobalReport equality excludes the stats field, so this compares
    # every verdict, count, and witness tuple.
    matrix.cell("check", source, size=size)


@pytest.mark.parametrize("source", RANDOM)
def test_kernel_matches_naive_on_random(matrix, source):
    for size in range(2, RANDOM_MAX_K + 1):
        matrix.cell("graph", source, size=size)
        matrix.cell("check", source, size=size)


@given(sources.protocol_draws)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_naive_on_hypothesis_draws(matrix, draw):
    domain, mask, picks = draw
    source = sources.drawn(domain, mask[:domain * domain], picks)
    for size in (2, 3):
        matrix.cell("graph", source, size=size)


def test_backend_auto_prefers_kernel():
    stats = EngineStats()
    with stats.collecting():
        graph = StateGraph(stabilizing_agreement().instantiate(3))
    assert graph.backend == "kernel"
    assert stats.states_encoded == len(graph) == 8


def test_backend_rejects_unknown_name():
    instance = stabilizing_agreement().instantiate(3)
    with pytest.raises(ValueError, match="unknown backend"):
        StateGraph(instance, backend="turbo")
