"""Assumption 2 of Section 5: self-disabling processes.

The livelock analysis assumes that executing any local transition leaves
the process locally deadlocked (its successor may of course re-enable it).
Together with Assumption 1 (self-termination: no infinite purely-local
computation) this is no loss of generality: the paper's transformation
replaces every local transition chain with direct shortcuts to the chain's
terminal deadlocks, preserving reachability, adding no deadlocks and
introducing no new livelocks.

This module implements the check and the transformation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import AssumptionViolation
from repro.graphs import Digraph, has_cycle
from repro.protocol.actions import Action, LocalTransition
from repro.protocol.localstate import LocalState, LocalStateSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.ring import RingProtocol


def local_transition_graph(
        transitions: Iterable[LocalTransition]) -> Digraph:
    """Digraph over local states with one arc per local transition."""
    graph = Digraph()
    for transition in transitions:
        graph.add_edge(transition.source, transition.target, key=transition)
    return graph


def is_self_terminating(space: LocalStateSpace) -> bool:
    """Assumption 1: every purely-local computation reaches a deadlock.

    Holds iff the local transition graph is acyclic.
    """
    return not has_cycle(local_transition_graph(space.transitions))


def is_self_disabling(space: LocalStateSpace) -> bool:
    """Assumption 2 (as used by Lemma 5.5): every local transition leaves
    the process disabled — every t-arc target is a local deadlock."""
    return all(space.is_deadlock(t.target) for t in space.transitions)


def not_self_terminating_reason(name: str) -> str:
    """Why protocol *name* fails Assumption 1 (the certifier's
    violation and a synthesis rejection's reason)."""
    return f"protocol {name!r} is not self-terminating (Assumption 1)"


def self_enabling_reason(name: str) -> str:
    """Why protocol *name* fails Assumption 2."""
    return (f"protocol {name!r} has self-enabling local transitions "
            f"(Assumption 2); apply make_self_disabling() first")


def self_disabling_transitions(
        space: LocalStateSpace) -> tuple[LocalTransition, ...]:
    """The self-disabling transition set equivalent to ``δ_r``.

    Every transition ``(s, s')`` with a non-deadlocked target is replaced
    by shortcuts ``(s, s_k)`` to each terminal local deadlock ``s_k``
    reachable from ``s'`` by local transitions.  Raises
    :class:`AssumptionViolation` when the local transition graph has a
    cycle (Assumption 1 fails, so no terminal state exists to shortcut
    to).
    """
    transitions = space.transitions
    graph = local_transition_graph(transitions)
    if has_cycle(graph):
        raise AssumptionViolation(
            "the process is not self-terminating: its local transition "
            "graph has a cycle, so the self-disabling transformation is "
            "undefined (Assumption 1 of Section 5)")

    terminal_cache: dict[LocalState, frozenset[LocalState]] = {}

    def terminals(state: LocalState) -> frozenset[LocalState]:
        if state in terminal_cache:
            return terminal_cache[state]
        if state not in graph or not list(graph.successors(state)):
            result = frozenset([state])
        else:
            result = frozenset().union(
                *(terminals(succ) for succ in graph.successors(state)))
        terminal_cache[state] = result
        return result

    shortcuts: dict[tuple[LocalState, LocalState], list[str]] = {}
    for transition in transitions:
        for terminal in terminals(transition.target):
            if terminal == transition.source:
                continue  # would be a no-op
            key = (transition.source, terminal)
            shortcuts.setdefault(key, [])
            if transition.label and transition.label not in shortcuts[key]:
                shortcuts[key].append(transition.label)
    return tuple(
        LocalTransition(source, target, "+".join(labels) + "*")
        for (source, target), labels in shortcuts.items())


def action_for_transition(transition: LocalTransition,
                          name: str | None = None) -> Action:
    """An :class:`Action` realizing exactly one local transition.

    The guard matches the transition's source local state; the effect
    writes the target's owned cell.  Used by the self-disabling
    transformation and by synthesis to materialize candidate t-arcs.
    """
    source, target = transition.source, transition.target

    def guard(view) -> bool:
        return view.state == source

    def effect(view):
        return target.own

    label = name or transition.label or "t"
    return Action(name=label, guard=guard, effect=effect,
                  source_text=f"state == {source} -> write {target.own}")


def make_self_disabling(protocol: "RingProtocol") -> "RingProtocol":
    """A behaviourally equivalent protocol with self-disabling actions.

    Returns *protocol* itself when it already satisfies Assumption 2.
    """
    space = protocol.space
    if is_self_disabling(space):
        return protocol
    transitions = self_disabling_transitions(space)
    actions = tuple(
        action_for_transition(t, name=f"sd{i}")
        for i, t in enumerate(transitions))
    return protocol.with_actions(actions,
                                 name=f"{protocol.name}_selfdisabling")
