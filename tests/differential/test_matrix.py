"""The matrix's own cells, on one representative source per analysis.

For every analysis: the naive serial reference (rerun, so it must be
deterministic), the production default, and the default with one axis
changed at a time — every value of :data:`tests.differential.axes.AXES`
the analysis takes, so a value added there runs here.  Then the
multi-axis combinations the engine suites cover on their own sources
(:data:`COMBOS`).  The engine suites run further cells under their own
names.
"""

from __future__ import annotations

import pytest

from tests.differential import harness, sources
from tests.differential.axes import REFERENCE, one_axis_changes

#: Three pseudo-livelock supports, each forming a trail.
THREE_TRAILS = sources.sampled(199, 0, max_domain=4, max_transitions=12)

#: analysis -> (source, parameters) its cells run on.
ROWS = {
    "graph": (sources.bundled("matching-ex4.2"), {"size": 5}),
    "check": (sources.bundled("matching-ex4.2"), {"size": 6}),
    "sweep": (sources.bundled("matching-ex4.2"), {"up_to": 6}),
    "trail": (THREE_TRAILS, {}),
    "livelock": (THREE_TRAILS, {}),
    "verify": (sources.bundled("sum-not-two-ss"), {}),
    "synthesis": (sources.forbidden_sum(6, 1), {}),
    "rows": (sources.coloring(3), {}),
    "audit": (sources.stream(5), {"samples": 10, "max_ring_size": 3}),
}

#: Multi-axis combinations, one per line.
COMBOS = (
    ("sweep", {"jobs": 2, "fault": "crash", "cache": "cold"}),
    ("sweep", {"jobs": 2, "fault": "hang"}),
    ("sweep", {"jobs": 2, "fault": "kill-resume"}),
    ("sweep", {"jobs": 2, "cache": "warm"}),
    ("audit", {"jobs": 2, "cache": "warm"}),
)


def _spelled(axes: dict) -> str:
    return ",".join(f"{name}={value}" for name, value in axes.items())


def _cells():
    for analysis in ROWS:
        accepts = harness.ANALYSES[analysis].accepts
        reference = {name: REFERENCE[name] for name in accepts}
        yield pytest.param(analysis, reference, id=f"{analysis}-reference")
        yield pytest.param(analysis, {}, id=f"{analysis}-default")
        for name, value in one_axis_changes():
            if name in accepts and (accepts[name] is None
                                    or value in accepts[name]):
                yield pytest.param(analysis, {name: value},
                                   id=f"{analysis}-{name}={value}")
    for analysis, axes in COMBOS:
        yield pytest.param(analysis, axes,
                           id=f"{analysis}-{_spelled(axes)}")


@pytest.mark.parametrize("analysis,axes", list(_cells()))
def test_cell(matrix, analysis, axes):
    source, params = ROWS[analysis]
    matrix.cell(analysis, source, **params, **axes)
