"""Differential suite: the compiled kernel backend == the naive backend.

The naive pure-Python interpreter over tuple states is the reference
implementation; the kernel must reproduce it *exactly* — not just
verdict for verdict but state for state and edge for edge, including
enumeration order (both follow the ``itertools.product`` order of
cells, so even successor lists match positionally).  Coverage:

* every bundled symmetric protocol at every tractable ring size,
* ≥ 50 seeded random protocols from :class:`ProtocolSampler`
  (self-disabling and free-form alike), and
* hypothesis-drawn protocols built from raw domain/legitimacy/
  transition draws.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checker.convergence import check_instance
from repro.checker.livelock import has_livelock
from repro.checker.statespace import StateGraph
from repro.core.selfdisabling import action_for_transition
from repro.engine import EngineStats
from repro.protocol.actions import LocalTransition
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import (
    agreement,
    generalizable_matching,
    gouda_acharya_matching,
    livelock_agreement,
    matching_base,
    nongeneralizable_matching,
    stabilizing_agreement,
    stabilizing_sum_not_two,
    sum_not_two,
    three_coloring,
    two_coloring,
)
from repro.randomgen import ProtocolSampler

BUNDLED = (
    matching_base,
    generalizable_matching,
    nongeneralizable_matching,
    gouda_acharya_matching,
    agreement,
    livelock_agreement,
    stabilizing_agreement,
    two_coloring,
    three_coloring,
    sum_not_two,
    stabilizing_sum_not_two,
)
MAX_STATES = 1200

RANDOM_SEEDS = tuple(range(10))
SAMPLES_PER_SEED = 6  # 10 × 6 = 60 random protocols ≥ the 50 required
RANDOM_MAX_K = 4


def assert_backends_identical(instance) -> None:
    """The kernel graph must reproduce the naive graph exactly."""
    naive = StateGraph(instance, backend="naive")
    kernel = StateGraph(instance, backend="kernel")
    assert kernel.backend == "kernel" and naive.backend == "naive"
    assert len(kernel) == len(naive)
    # Same enumeration order: packed codes follow itertools.product.
    for index, state in enumerate(instance.states()):
        assert kernel.decode(index) == naive.decode(index) == state
        assert kernel.index_of(state) == naive.index_of(state) == index
    # Edge-for-edge, order included (moves scan processes 0..K-1 in
    # both backends and distinct moves write distinct cells).
    assert list(kernel.succ_off) == list(naive.succ_off)
    assert list(kernel.succ_flat) == list(naive.succ_flat)
    assert bytes(kernel.invariant) == bytes(naive.invariant)
    assert kernel.scan == naive.scan
    assert has_livelock(kernel) == has_livelock(naive)


def _bundled_instances():
    for factory in BUNDLED:
        protocol = factory()
        size = protocol.process.window_width
        while len(protocol.space.cells) ** size <= MAX_STATES:
            yield pytest.param(protocol, size,
                               id=f"{protocol.name}-K{size}")
            size += 1


@pytest.mark.parametrize("protocol,size", _bundled_instances())
def test_kernel_matches_naive_on_bundled(protocol, size):
    instance = protocol.instantiate(size)
    assert_backends_identical(instance)


@pytest.mark.parametrize("protocol,size", _bundled_instances())
def test_kernel_report_matches_naive_on_bundled(protocol, size):
    instance = protocol.instantiate(size)
    kernel = check_instance(instance, backend="kernel")
    naive = check_instance(instance, backend="naive")
    # GlobalReport equality excludes the stats field, so this compares
    # every verdict, count, and witness tuple.
    assert kernel == naive


def _random_protocols():
    for seed in RANDOM_SEEDS:
        # Alternate the closure restriction so both sampler regimes
        # (synthesis-style and free-form) exercise the kernel.
        sampler = ProtocolSampler(
            seed=seed, restrict_sources_to_bad=bool(seed % 2))
        for index in range(SAMPLES_PER_SEED):
            yield pytest.param(sampler.sample(),
                               id=f"seed{seed}-sample{index}")


@pytest.mark.parametrize("protocol", _random_protocols())
def test_kernel_matches_naive_on_random(protocol):
    for size in range(2, RANDOM_MAX_K + 1):
        instance = protocol.instantiate(size)
        assert_backends_identical(instance)
        assert (check_instance(instance, backend="kernel")
                == check_instance(instance, backend="naive"))


# ----------------------------------------------------------------------
# Hypothesis: protocols from raw draws (not the sampler's distribution).
# ----------------------------------------------------------------------
def _make_protocol(domain: int, legit_mask, transition_picks):
    """A unidirectional protocol from raw hypothesis draws."""
    x = ranged("x", domain)
    skeleton = RingProtocol(
        "hyp", ProcessTemplate(variables=(x,)), lambda v: True)
    states = skeleton.space.states
    legit = frozenset(
        s for s, keep in zip(states, legit_mask) if keep)
    protocol = RingProtocol(
        "hyp", ProcessTemplate(variables=(x,)),
        lambda view: view.state in legit)
    transitions = []
    for index, value in transition_picks:
        source = states[index % len(states)]
        target = source.replace_own((value % domain,))
        if target != source:
            transitions.append(LocalTransition(source, target, "rnd"))
    deduped = list(dict.fromkeys(transitions))
    actions = tuple(action_for_transition(t, name=f"r{i}")
                    for i, t in enumerate(deduped))
    return protocol.with_actions(actions, name="hyp")


protocol_draws = st.tuples(
    st.integers(2, 3),                                   # domain size
    st.lists(st.booleans(), min_size=9, max_size=9),     # legitimacy
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)),
             max_size=6),                                # transitions
)


@given(protocol_draws)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_naive_on_hypothesis_draws(draw):
    domain, mask, picks = draw
    protocol = _make_protocol(domain, mask[:domain * domain], picks)
    for size in (2, 3):
        assert_backends_identical(protocol.instantiate(size))


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
