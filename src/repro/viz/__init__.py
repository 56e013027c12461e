"""Rendering of RCGs, LTGs and trails.

Every figure of the paper is a graph over local states; this package
emits them as Graphviz DOT (for the figures proper) and as deterministic
ASCII adjacency listings (used by the benchmark harness so figure content
is diffable in plain terminals).
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "dot": ("rcg_to_dot", "ltg_to_dot"),
    "ascii_art": ("adjacency_listing", "render_table", "state_label"),
    "report": (
        "render_trail_witness",
        "render_ranking_stairs",
        "render_livelock_cycle",
    ),
})
