"""Memory budget of one global check.

A check keeps its state graph in flat CSR arrays and decodes only
witness states, so its peak allocation scales with machine words per
state, not with Python objects per state and edge.  Example 4.3's
matching at K=7 (2,187 states) must peak below 2 MiB, build and
analyses included; a check that decodes every state or copies the
graph into hashed containers needs several times that.
"""

import tracemalloc

from repro.checker import check_instance
from repro.protocols import nongeneralizable_matching

BUDGET_BYTES = 2 * 2**20


def test_check_instance_peak_allocation_within_budget():
    tracemalloc.start()
    try:
        report = check_instance(nongeneralizable_matching().instantiate(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.state_count == 3 ** 7
    assert peak < BUDGET_BYTES, f"peak {peak / 2**20:.2f} MiB"
