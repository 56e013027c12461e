"""JSON serialization of protocols and analysis reports.

Protocols written in the guarded-command DSL round-trip losslessly
(guards, effects and the legitimacy constraint are stored as their
source text); callable-based protocols cannot be serialized and raise.
Analysis reports export one-way into plain dictionaries for logging or
CI artifacts — the CLI's ``--json`` flags use these.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ProtocolDefinitionError
from repro.protocol.chain import ChainProtocol
from repro.protocol.dsl import parse_actions
from repro.protocol.localstate import LocalState
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import Variable


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
def protocol_to_dict(protocol: RingProtocol | ChainProtocol,
                     ) -> dict[str, Any]:
    """A JSON-ready description of a DSL-defined protocol.

    Raises :class:`ProtocolDefinitionError` when any action or the
    legitimacy constraint lacks DSL source text (e.g. hand-written
    callables or synthesized state-matching actions).
    """
    legitimacy = getattr(protocol.legitimacy, "source_text", None)
    if legitimacy is None:
        raise ProtocolDefinitionError(
            f"protocol {protocol.name!r}: legitimacy has no DSL source; "
            f"only DSL-defined protocols serialize")
    from repro.errors import ReproError
    from repro.protocol.dsl import parse_action

    actions = []
    for action in protocol.process.actions:
        source = action.source_text
        if source is not None:
            try:  # must reparse cleanly, not merely look like DSL
                parse_action(source, protocol.process.variables)
            except ReproError:
                source = None
        if source is None:
            raise ProtocolDefinitionError(
                f"action {action.name!r} has no parseable DSL source; "
                f"only DSL-defined protocols serialize")
        actions.append({"name": action.name, "text": source})
    data: dict[str, Any] = {
        "name": protocol.name,
        "description": protocol.description,
        "variables": [{"name": v.name, "domain": list(v.domain)}
                      for v in protocol.process.variables],
        "reads_left": protocol.process.reads_left,
        "reads_right": protocol.process.reads_right,
        "legitimacy": legitimacy,
        "actions": actions,
    }
    if isinstance(protocol, ChainProtocol):
        data["topology"] = "chain"
        data["left_boundary"] = (list(protocol.left_boundary)
                                 if protocol.left_boundary is not None
                                 else None)
        data["right_boundary"] = (list(protocol.right_boundary)
                                  if protocol.right_boundary is not None
                                  else None)
    else:
        data["topology"] = "ring"
    return data


def protocol_from_dict(data: dict[str, Any],
                       ) -> RingProtocol | ChainProtocol:
    """Rebuild a protocol serialized by :func:`protocol_to_dict`."""
    variables = tuple(
        Variable(v["name"], tuple(v["domain"]))
        for v in data["variables"])
    actions = parse_actions(
        [(a["name"], a["text"]) for a in data["actions"]], variables)
    process = ProcessTemplate(
        variables=variables, actions=actions,
        reads_left=data["reads_left"], reads_right=data["reads_right"])
    topology = data.get("topology", "ring")
    if topology == "chain":
        def boundary(key):
            value = data.get(key)
            return tuple(value) if value is not None else None

        return ChainProtocol(
            data["name"], process, data["legitimacy"],
            left_boundary=boundary("left_boundary"),
            right_boundary=boundary("right_boundary"),
            description=data.get("description", ""))
    if topology != "ring":
        raise ProtocolDefinitionError(f"unknown topology {topology!r}")
    return RingProtocol(data["name"], process, data["legitimacy"],
                        description=data.get("description", ""))


def save_protocol(protocol, path) -> None:
    """Write a protocol to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(protocol_to_dict(protocol), handle, indent=2)


def load_protocol(path):
    """Load a protocol previously saved with :func:`save_protocol`."""
    with open(path) as handle:
        return protocol_from_dict(json.load(handle))


# ----------------------------------------------------------------------
# Canonical structure (fingerprint substrate)
# ----------------------------------------------------------------------
def protocol_structure_dict(protocol) -> dict[str, Any]:
    """A canonical, content-addressed description of a protocol.

    Unlike :func:`protocol_to_dict` this never needs DSL source text: it
    enumerates the local state space, so callable-based and synthesized
    protocols are covered too.  Two protocols with equal structure dicts
    are interchangeable for every analysis in this repository — the
    description captures exactly the verdict-relevant content (variables,
    read window, transition set, legitimate local states, topology) and
    deliberately omits presentation details such as the protocol name,
    its description, and action labels.  ``repro.engine`` hashes this
    dict into cache keys.
    """
    process = protocol.process
    space = protocol.space
    data: dict[str, Any] = {
        "variables": [[v.name, list(v.domain)]
                      for v in process.variables],
        "reads_left": process.reads_left,
        "reads_right": process.reads_right,
        "legitimate": sorted(repr(s.cells)
                             for s in protocol.legitimate_states()),
        "transitions": sorted(repr((t.source.cells, t.target.cells))
                              for t in space.transitions),
    }
    if isinstance(protocol, ChainProtocol):
        data["topology"] = "chain"
        data["left_boundary"] = repr(protocol.left_boundary)
        data["right_boundary"] = repr(protocol.right_boundary)
    else:
        data["topology"] = "ring"
    return data


# ----------------------------------------------------------------------
# Reports (one-way export)
# ----------------------------------------------------------------------
def _state_str(state: LocalState) -> str:
    return str(state)


def engine_stats_to_dict(stats) -> dict[str, Any] | None:
    """Export an :class:`~repro.engine.EngineStats` (or ``None``)."""
    return None if stats is None else stats.to_dict()


def convergence_report_to_dict(report) -> dict[str, Any]:
    """Export a :class:`~repro.core.convergence.ConvergenceReport`."""
    deadlock = report.deadlock
    data: dict[str, Any] = {
        "verdict": report.verdict.value,
        "closure_ok": report.closure_ok,
        "deadlock": {
            "deadlock_free": deadlock.deadlock_free,
            "local_deadlocks": [_state_str(s)
                                for s in deadlock.local_deadlocks],
            "illegitimate_deadlocks": [
                _state_str(s) for s in deadlock.illegitimate_deadlocks],
            "witness_cycles": [[_state_str(s) for s in cycle]
                               for cycle in deadlock.witness_cycles],
        },
    }
    if report.livelock is None:
        data["livelock"] = None
    else:
        data["livelock"] = {
            "verdict": report.livelock.verdict.value,
            "contiguous_only": report.livelock.contiguous_only,
            "passes": report.livelock.passes,
            "note": report.livelock.note,
            "trail_witnesses": [
                {
                    "ring_size": w.ring_size,
                    "enablements": w.enablements,
                    "t_arcs": sorted(str(t) for t in w.t_arcs),
                    "illegitimate_states": [
                        _state_str(s) for s in w.illegitimate_states],
                }
                for w in report.livelock.trail_witnesses
            ],
        }
    data["stats"] = engine_stats_to_dict(report.stats)
    return data


def global_report_to_dict(report) -> dict[str, Any]:
    """Export a :class:`~repro.checker.convergence.GlobalReport`."""
    return {
        "ring_size": report.ring_size,
        "state_count": report.state_count,
        "invariant_count": report.invariant_count,
        "closed": report.closed,
        "deadlocks_outside": report.deadlock_count,
        "livelock_cycles": len(report.livelock_cycles),
        "strongly_converging": report.strongly_converging,
        "weakly_converging": report.weakly_converging,
        "self_stabilizing": report.self_stabilizing,
        "worst_case_recovery_steps": report.worst_case_recovery_steps,
        "stats": engine_stats_to_dict(getattr(report, "stats", None)),
    }
