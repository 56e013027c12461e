"""JSON round-trips for protocols and report exports."""

import json

import pytest

from repro.core import analyze_deadlocks, verify_convergence
from repro.checker import check_instance
from repro.errors import ProtocolDefinitionError
from repro.protocols import chain_broadcast, stabilizing_agreement
from repro.protocols.registry import REGISTRY, get_protocol
from repro.serialization import (
    convergence_report_to_dict,
    global_report_to_dict,
    load_protocol,
    protocol_from_dict,
    protocol_to_dict,
    save_protocol,
)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_protocols_roundtrip(name):
    original = get_protocol(name)
    rebuilt = protocol_from_dict(
        json.loads(json.dumps(protocol_to_dict(original))))
    assert rebuilt.name == original.name
    assert rebuilt.process.window_offsets == \
        original.process.window_offsets
    # Semantics preserved: identical local transitions and legitimacy.
    assert rebuilt.space.transitions == original.space.transitions
    for state in original.space.states:
        assert rebuilt.is_legitimate(state) == \
            original.is_legitimate(state)


def test_chain_roundtrip(tmp_path):
    original = chain_broadcast(values=3, boundary=2)
    path = tmp_path / "broadcast.json"
    save_protocol(original, path)
    rebuilt = load_protocol(path)
    assert rebuilt.left_boundary == (2,)
    assert rebuilt.space.transitions == original.space.transitions
    # The rebuilt chain is analyzable like the original.
    from repro.core.chains import verify_chain_convergence

    assert verify_chain_convergence(rebuilt).verdict.value == "converges"


def test_roundtripped_protocol_analyzes_identically():
    original = stabilizing_agreement()
    rebuilt = protocol_from_dict(protocol_to_dict(original))
    assert analyze_deadlocks(rebuilt).deadlock_free == \
        analyze_deadlocks(original).deadlock_free
    assert verify_convergence(rebuilt).verdict == \
        verify_convergence(original).verdict


def test_callable_protocols_refuse_serialization():
    from repro.protocol.process import ProcessTemplate
    from repro.protocol.ring import RingProtocol
    from repro.protocol.variables import ranged

    x = ranged("x", 2)
    protocol = RingProtocol("opaque", ProcessTemplate(variables=(x,)),
                            lambda view: True)
    with pytest.raises(ProtocolDefinitionError):
        protocol_to_dict(protocol)


def test_synthesized_actions_refuse_serialization():
    from repro.core import synthesize_convergence
    from repro.protocols import agreement

    result = synthesize_convergence(agreement())
    with pytest.raises(ProtocolDefinitionError):
        protocol_to_dict(result.protocol)


def test_unknown_topology_rejected():
    data = protocol_to_dict(stabilizing_agreement())
    data["topology"] = "torus"
    with pytest.raises(ProtocolDefinitionError):
        protocol_from_dict(data)


def test_convergence_report_export():
    report = verify_convergence(stabilizing_agreement())
    data = convergence_report_to_dict(report)
    assert data["verdict"] == "converges"
    assert data["deadlock"]["deadlock_free"] is True
    assert data["livelock"]["verdict"] == "certified-livelock-free"
    json.dumps(data)  # fully JSON-ready

    from repro.protocols import livelock_agreement

    unknown = convergence_report_to_dict(
        verify_convergence(livelock_agreement()))
    (witness,) = unknown["livelock"]["trail_witnesses"]
    assert (witness["ring_size"], witness["enablements"]) == (3, 2)
    assert unknown["livelock"]["passes"] == 1
    assert unknown["livelock"]["note"] == ""
    json.dumps(unknown)

    # A witness with no trail up to the bound has no K: null in JSON.
    unnamed = json.loads(json.dumps(convergence_report_to_dict(
        verify_convergence(livelock_agreement(), max_ring_size=2))))
    (witness,) = unnamed["livelock"]["trail_witnesses"]
    assert witness["ring_size"] is None and witness["enablements"] is None


def test_global_report_export():
    report = check_instance(stabilizing_agreement().instantiate(4))
    data = global_report_to_dict(report)
    assert data["self_stabilizing"] is True
    assert data["state_count"] == 16
    json.dumps(data)
