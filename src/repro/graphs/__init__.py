"""Self-contained directed-graph algorithms used throughout the library.

The local-reasoning method of the paper is, at its computational heart, a
collection of graph analyses over the local state space of the representative
process:

* Theorem 4.2 (deadlock-freedom) is a cycle search over an induced subgraph
  of the Right Continuation Graph.
* The ``Resolve`` computation of Section 6 enumerates minimal feedback
  vertex sets.
* Pseudo-livelock detection (Definition 5.13) enumerates simple cycles of a
  projection multigraph.
* The contiguous-trail search (Lemma 5.12) is an SCC analysis of a product
  graph.

All algorithms are implemented from scratch here; :mod:`networkx` is only
used in the test suite as an independent oracle.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "digraph": ("Digraph",),
    "scc": (
        "strongly_connected_components",
        "condensation",
        "masked_cyclic_mask",
    ),
    "cycles": ("has_cycle", "simple_cycles", "find_cycle_through"),
    "fvs": (
        "minimal_feedback_vertex_sets",
        "minimal_feedback_vertex_sets_exhaustive",
        "is_feedback_vertex_set",
    ),
    "walks": ("closed_walk_lengths", "shortest_closed_walk"),
})
