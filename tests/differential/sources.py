"""The matrix's one source table: every protocol a differential cell runs.

A :class:`Source` names a protocol and builds a *fresh* object on every
call — per-protocol memos (the local kernel's trail memo, compiled
tables) hang off the protocol object, and a cell sharing one with its
reference would mask a divergence.  The source key names the
protocol, so the harness memoizes the reference run on it; hypothesis
draws have no key and are never memoized.

The kinds, one constructor each:

* ``bundled`` — the registered protocols (:data:`BUNDLED`);
* ``sampled`` — :class:`repro.randomgen.ProtocolSampler` draws, in
  either ``restrict_sources_to_bad`` regime;
* ``drawn`` — protocols built from raw hypothesis draws
  (:data:`protocol_draws`), outside the sampler's distribution;
* ``coloring`` / ``forbidden_sum`` — the synthesis pools
  ``coloring(k)`` and ``forbidden_sum(domain, forbidden)``;
* ``stream`` — the seed of the fuzzing audit, which samples its own
  protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import strategies as st

from repro.core.selfdisabling import action_for_transition
from repro.protocol.actions import LocalTransition
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import coloring as _coloring
from repro.protocols.registry import REGISTRY
from repro.protocols.sum_not_two import forbidden_sum as _forbidden_sum
from repro.randomgen import ProtocolSampler

#: The registered protocols, name -> factory.
BUNDLED = REGISTRY


@dataclass(frozen=True)
class Source:
    """One protocol of the table: ``build()`` makes a fresh copy."""

    key: str | None
    build: Callable[[], Any]
    shrinkable: bool = True

    def __str__(self) -> str:
        return self.key or "drawn"


def bundled(name: str) -> Source:
    return Source(f"bundled:{name}", BUNDLED[name])


def sampled(seed: int, index: int, **options) -> Source:
    """The *index*-th protocol of ``ProtocolSampler(seed=seed,
    **options)``."""
    def build() -> RingProtocol:
        sampler = ProtocolSampler(seed=seed, **options)
        for _ in range(index):
            sampler.sample()
        return sampler.sample()

    spelled = ",".join(f"{k}={v}" for k, v in sorted(options.items()))
    return Source(f"sampled:{seed}:{index}:{spelled}", build)


def drawn(domain: int, legit_mask, transition_picks) -> Source:
    """A unidirectional protocol from raw hypothesis draws."""
    def build() -> RingProtocol:
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

    return Source(None, build)


def coloring(colors: int) -> Source:
    return Source(f"coloring:{colors}", lambda: _coloring(colors))


def forbidden_sum(domain: int, forbidden: int) -> Source:
    return Source(f"forbidden_sum:{domain}:{forbidden}",
                  lambda: _forbidden_sum(domain, forbidden))


def stream(seed: int) -> Source:
    """The fuzzing audit's sampler seed (not a protocol: no shrink)."""
    return Source(f"stream:{seed}", lambda: seed, shrinkable=False)


#: Hypothesis draws for :func:`drawn`: domain size, legitimacy mask,
#: (state index, new value) transition picks.
protocol_draws = st.tuples(
    st.integers(2, 3),
    st.lists(st.booleans(), min_size=9, max_size=9),
    st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2)),
             max_size=6),
)


# ----------------------------------------------------------------------
# parameter sets (pytest ids are part of the suites' test names)
# ----------------------------------------------------------------------
def bundled_by_factory(names=None) -> list:
    """Bundled sources, with the factory's name as the pytest id."""
    return [pytest.param(bundled(name), id=BUNDLED[name].__name__)
            for name in (names or BUNDLED)]


def bundled_instances(max_states: int = 1200) -> list:
    """Every bundled ``(source, K)`` with at most *max_states* global
    states, from the read-window width up."""
    params = []
    for name, factory in BUNDLED.items():
        protocol = factory()
        size = protocol.process.window_width
        while len(protocol.space.cells) ** size <= max_states:
            params.append(pytest.param(bundled(name), size,
                                       id=f"{protocol.name}-K{size}"))
            size += 1
    return params


def sample_block(seeds, per_seed: int, alternate: bool = False,
                 **options) -> list:
    """``per_seed`` sampled sources per seed, ids ``seed<S>-sample<I>``.

    With *alternate*, odd seeds restrict transition sources to
    illegitimate states (the synthesis regime) and even seeds sample
    free-form, so both regimes run.
    """
    params = []
    for seed in seeds:
        regime = ({"restrict_sources_to_bad": bool(seed % 2)}
                  if alternate else {})
        for index in range(per_seed):
            params.append(pytest.param(
                sampled(seed, index, **regime, **options),
                id=f"seed{seed}-sample{index}"))
    return params


def sampled_run(seed: int, count: int, alternate: bool = False,
                **options) -> list[Source]:
    """The first *count* sources of one seed (see :func:`sample_block`)."""
    return [param.values[0]
            for param in sample_block((seed,), count, alternate,
                                      **options)]
