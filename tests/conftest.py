"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

import pytest

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


@pytest.fixture
def agreement_protocol() -> RingProtocol:
    return agreement()


@pytest.fixture
def agreement_ss() -> RingProtocol:
    return stabilizing_agreement()


@pytest.fixture
def matching_42() -> RingProtocol:
    return generalizable_matching()


@pytest.fixture
def matching_43() -> RingProtocol:
    return nongeneralizable_matching()


@pytest.fixture
def gouda_matching() -> RingProtocol:
    return gouda_acharya_matching()


@pytest.fixture
def snt() -> RingProtocol:
    return sum_not_two()


@pytest.fixture
def snt_ss() -> RingProtocol:
    return stabilizing_sum_not_two()


@pytest.fixture
def coloring2() -> RingProtocol:
    return two_coloring()


@pytest.fixture
def coloring3() -> RingProtocol:
    return three_coloring()


@pytest.fixture
def agreement_ll() -> RingProtocol:
    return livelock_agreement()


@pytest.fixture
def matching_invariant_only() -> RingProtocol:
    return matching_base()


@pytest.fixture(scope="session")
def matrix():
    """The differential matrix: each naive reference and production
    default is computed once per session (see ``tests/differential``)."""
    from tests.differential.harness import Matrix

    return Matrix()


@pytest.fixture(autouse=True)
def _no_ambient_fault_injection(monkeypatch):
    """Keep the suite hermetic: a leaked REPRO_INJECT_FAULT in the
    environment must not sabotage unrelated tests."""
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


def empty_unidirectional(domain_size: int, name: str = "p",
                         legitimacy: str = "x[0] == x[-1]") -> RingProtocol:
    """A fresh empty unidirectional protocol for ad-hoc tests."""
    x = ranged("x", domain_size)
    process = ProcessTemplate(variables=(x,))
    return RingProtocol(name, process, legitimacy)
