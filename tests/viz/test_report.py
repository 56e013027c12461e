"""Rendering of trails, ranking stairs and livelock cycles."""

from repro.checker import StateGraph, compute_ranking
from repro.checker.livelock import livelock_cycles
from repro.core import certify_livelock_freedom
from repro.protocols import livelock_agreement, stabilizing_agreement
from repro.viz import (
    render_livelock_cycle,
    render_ranking_stairs,
    render_trail_witness,
)


def test_render_trail_witness():
    report = certify_livelock_freedom(livelock_agreement())
    text = render_trail_witness(report.trail_witnesses[0])
    assert "contiguous trail candidate" in text
    assert "|E|=2" in text
    assert "pseudo-livelock" in text
    assert "illegitimate" in text
    # A bound too small for any trail leaves the witness without a K.
    bounded = certify_livelock_freedom(livelock_agreement(), max_ring_size=2)
    text = render_trail_witness(bounded.trail_witnesses[0])
    assert "K-free trail candidate" in text
    assert "K=None" not in text


def test_render_ranking_stairs():
    graph = StateGraph(stabilizing_agreement().instantiate(4))
    certificate = compute_ranking(graph)
    text = render_ranking_stairs(certificate)
    assert "convergence stairs" in text
    assert "rank   0" in text
    assert "(I)" in text
    # one line per layer plus the header
    assert len(text.splitlines()) == len(certificate.layers()) + 1


def test_render_livelock_cycle():
    instance = livelock_agreement().instantiate(4)
    cycle = livelock_cycles(StateGraph(instance), max_cycles=1)[0]
    text = render_livelock_cycle(instance, cycle)
    assert f"livelock cycle of {len(cycle)} states" in text
    assert "*" in text  # enabled markers
    assert text.count("(") == len(cycle)
