"""Rotation-symmetry quotient: the kernel's check decides on it.

Ring rotations are automorphisms of symmetric ring instances, so the
quotient by rotation orbits preserves closure, deadlock existence,
livelock existence, strong/weak convergence, self-stabilization, and
BFS distances into the invariant (hence the worst-case recovery bound).
``check_instance`` on the kernel decides every verdict on the quotient
and reports the full space: orbit sizes add up to the state counts,
deadlock orbits expand into their rotations, and the full graph is
built only to name a livelock.  The kernel cells below pin that report
to the naive full-space one field for field, witnesses and their order
included (see :mod:`tests.differential`); the rest of this file covers
the quotient's own mechanics.
"""

from __future__ import annotations

import pytest

from repro.checker.convergence import check_instance
from repro.checker.statespace import StateGraph
from repro.engine import EngineStats
from repro.engine.kernel import rotations
from repro.protocols import (
    DijkstraTokenRing,
    generalizable_matching,
    nongeneralizable_matching,
    stabilizing_agreement,
)
from tests.differential import sources


@pytest.mark.parametrize("source,size", sources.bundled_instances())
def test_quotient_preserves_verdicts_on_bundled(matrix, source, size):
    matrix.cell("check", source, size=size, backend="kernel")


@pytest.mark.parametrize("seed", range(6))
def test_quotient_preserves_verdicts_on_random(matrix, seed):
    for source in sources.sampled_run(seed, 4, alternate=True):
        for size in range(2, 5):
            matrix.cell("check", source, size=size, backend="kernel")


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
    # An orbit's codes come ascending, each once, so the first is the
    # canonical (minimal) representative; the orbit size divides K.
    ring_size, cells = 4, 3
    for code in range(cells ** ring_size):
        orbit = rotations(code, ring_size, cells)
        assert orbit == sorted(set(orbit)) and code in orbit
        assert ring_size % len(orbit) == 0
        assert rotations(orbit[0], ring_size, cells) == orbit
        # Rotating never escapes the orbit.
        rotated = (code % cells ** (ring_size - 1)) * cells \
            + code // cells ** (ring_size - 1)
        assert rotations(rotated, ring_size, cells) == orbit


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


def test_livelock_free_check_encodes_only_the_orbits():
    # Example 4.3 at K=8 deadlocks but never livelocks: the report
    # describes all 3^8 states, and only the 834 orbits are encoded.
    report = check_instance(nongeneralizable_matching().instantiate(8))
    assert report.state_count == 3 ** 8 == 6561
    assert report.deadlocks_outside and not report.livelock_cycles
    assert report.stats.states_encoded == 834
    assert report.stats.states_explored == 834


def test_livelocked_check_encodes_the_full_space_once():
    # Gouda-Acharya matching livelocks at K=6: the quotient finds the
    # livelock, and the full space is built once to name its witnesses.
    from repro.protocols import gouda_acharya_matching

    instance = gouda_acharya_matching().instantiate(6)
    report = check_instance(instance)
    assert report.livelock_cycles
    orbits = len(StateGraph(instance, symmetry=True))
    assert orbits < report.state_count
    assert report.stats.states_encoded == orbits + report.state_count
    assert report.stats.states_explored == orbits + report.state_count
    assert report == check_instance(instance, backend="naive")
