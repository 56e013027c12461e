"""Memory budget of one global check.

A check keeps its state graph in flat CSR arrays, counts the deadlocks
outside ``I`` without decoding them and decodes only the witness states
it reports (at most ``max_witnesses`` of each kind), so its peak
allocation scales with machine words per state, not with Python objects
per state and edge.  Example 4.3's matching at K=7 (2,187 states) and
3-coloring at K=9 (19,683 states, 19,173 of them illegitimate
deadlocks) must each peak below 2 MiB, build and analyses included; a
check that decodes every deadlock, or every state, or copies the graph
into hashed containers needs more.
"""

import tracemalloc

import pytest

from repro.checker import check_instance
from repro.protocols.registry import REGISTRY

BUDGET_BYTES = 2 * 2**20


@pytest.mark.parametrize("name,size", [
    pytest.param("matching-ex4.3", 7, id="ex4.3-K7"),
    pytest.param("3-coloring", 9, id="3-coloring-K9"),
])
def test_check_instance_peak_allocation_within_budget(name, size):
    factory = REGISTRY[name]
    tracemalloc.start()
    try:
        report = check_instance(factory().instantiate(size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.state_count == 3 ** size
    assert peak < BUDGET_BYTES, f"peak {peak / 2**20:.2f} MiB"
