"""Rotation-symmetry quotient: every claimed verdict is preserved.

Ring rotations are automorphisms of symmetric ring instances, so the
quotient by rotation orbits preserves closure, deadlock existence,
livelock existence, strong/weak convergence, self-stabilization, and
BFS distances into the invariant (hence the worst-case recovery bound).
State and witness *counts* refer to orbits — those are the only fields
allowed to differ from the full space.  The preservation cells are the
matrix's ``backend="quotient"`` value (see :mod:`tests.differential`);
this file adds the quotient's own mechanics.
"""

from __future__ import annotations

import pytest

from repro.checker.statespace import StateGraph
from repro.engine import EngineStats
from repro.engine.kernel import canonical_rotation
from repro.protocols import (
    DijkstraTokenRing,
    generalizable_matching,
    stabilizing_agreement,
)
from tests.differential import sources


@pytest.mark.parametrize("source,size", sources.bundled_instances())
def test_quotient_preserves_verdicts_on_bundled(matrix, source, size):
    matrix.cell("check", source, size=size, backend="quotient")


@pytest.mark.parametrize("seed", range(6))
def test_quotient_preserves_verdicts_on_random(matrix, seed):
    for source in sources.sampled_run(seed, 4, alternate=True):
        for size in range(2, 5):
            matrix.cell("check", source, size=size, backend="quotient")


def test_quotient_orbits_partition_the_full_space():
    """Each full-space state canonicalizes onto exactly one quotient
    representative, and the orbit sizes add back up to |C|^K."""
    instance = generalizable_matching().instantiate(5)
    full = StateGraph(instance, backend="kernel")
    quotient = StateGraph(instance, backend="kernel", symmetry=True)
    assert quotient.symmetry and not full.symmetry

    reps = {quotient.decode(i) for i in range(len(quotient))}
    size = instance.size
    for state in instance.states():
        rotations = {tuple(state[r:] + state[:r]) for r in range(size)}
        assert len(rotations & reps) == 1
        # The representative is the canonical (minimal-code) rotation.
        assert min(rotations, key=full.index_of) in reps
    # Orbit sizes, summed over representatives, tile the full space.
    orbit_total = sum(
        len({tuple(s[r:] + s[:r]) for r in range(size)})
        for s in reps)
    assert orbit_total == len(full)


def test_canonical_rotation_is_minimal_and_idempotent():
    ring_size, cells = 4, 3
    for code in range(cells ** ring_size):
        canon = canonical_rotation(code, ring_size, cells)
        assert canon <= code
        assert canonical_rotation(canon, ring_size, cells) == canon
        # Rotating never escapes the orbit.
        rotated = (code % cells ** (ring_size - 1)) * cells \
            + code // cells ** (ring_size - 1)
        assert canonical_rotation(rotated, ring_size, cells) == canon


def test_quotient_distances_equal_full_space_distances():
    """BFS distances on the quotient equal the full-space distances of
    each representative (rotations preserve I, so orbits are
    equidistant from the invariant)."""
    instance = stabilizing_agreement().instantiate(5)
    full = StateGraph(instance, backend="kernel")
    quotient = StateGraph(instance, backend="kernel", symmetry=True)
    full_distance = full.distances_to_invariant()
    for index, distance in enumerate(quotient.distances_to_invariant()):
        state = quotient.decode(index)
        assert quotient.index_of(state) == index
        assert distance == full_distance[full.index_of(state)]


def test_quotient_stats_record_the_reduction():
    instance = generalizable_matching().instantiate(6)
    stats = EngineStats()
    with stats.collecting():
        graph = StateGraph(instance, backend="kernel", symmetry=True)
    assert stats.quotient_full_states == 3 ** 6
    assert stats.quotient_states == len(graph)
    assert 1.0 < stats.quotient_ratio <= 6.0


def test_symmetry_requires_kernel_backend():
    instance = stabilizing_agreement().instantiate(3)
    with pytest.raises(ValueError, match="kernel"):
        StateGraph(instance, backend="naive", symmetry=True)


def test_kernel_backend_rejects_rooted_rings():
    # Dijkstra's token ring has a distinguished root process: it is not
    # rotation-symmetric and must stay on the naive interpreter.
    ring = DijkstraTokenRing(3)
    graph = StateGraph(ring)
    assert graph.backend == "naive"
    with pytest.raises(ValueError, match="kernel"):
        StateGraph(ring, backend="kernel")
    with pytest.raises(ValueError, match="kernel"):
        StateGraph(ring, symmetry=True)
