"""Theorem 5.14 certification on the paper's protocols, and the K-free
certificate against the naive per-support reference."""

import itertools

import pytest

from repro.checker import check_instance
from repro.core.deadlock import DeadlockAnalyzer
from repro.core.livelock import (
    LivelockCertifier,
    LivelockVerdict,
    certify_livelock_freedom,
)
from repro.core.pseudolivelock import (
    SupportExplosion,
    is_pseudo_livelock_support,
    pseudo_livelock_supports,
)
from repro.core.selfdisabling import action_for_transition
from repro.core.synthesis import Synthesizer
from repro.core.trail import ContiguousTrailSearcher
from repro.engine.localkernel import local_kernel_for
from repro.errors import AssumptionViolation
from repro.protocol.dsl import parse_action
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import (
    gouda_acharya_matching,
    livelock_agreement,
    stabilizing_agreement,
    stabilizing_sum_not_two,
    sum_not_two,
    three_coloring,
)
from repro.protocols.registry import get_protocol
from tests.differential import sources


class TestCertification:
    def test_stabilizing_agreement_certified(self):
        report = certify_livelock_freedom(stabilizing_agreement())
        assert report.verdict is LivelockVerdict.CERTIFIED_FREE
        assert report.certified
        assert not report.contiguous_only

    def test_stabilizing_sum_not_two_certified(self):
        report = certify_livelock_freedom(stabilizing_sum_not_two())
        assert report.certified
        assert report.passes >= 1  # {t21, t12} was examined
        assert report.trail_witnesses == ()

    def test_livelock_agreement_unknown_with_witness(self):
        report = certify_livelock_freedom(livelock_agreement())
        assert report.verdict is LivelockVerdict.UNKNOWN
        assert not report.certified
        (witness,) = report.trail_witnesses
        assert len(witness.t_arcs) == 2
        assert (witness.ring_size, witness.enablements) == (3, 2)

    def test_gouda_acharya_contiguous_only(self):
        report = certify_livelock_freedom(gouda_acharya_matching())
        assert report.contiguous_only  # bidirectional ring
        assert report.verdict is LivelockVerdict.UNKNOWN

    def test_decided_past_the_support_cap(self):
        """matching-ex4.2 has more supports than the naive reference
        enumerates; the refinement names its witness anyway."""
        protocol = get_protocol("matching-ex4.2")
        with pytest.raises(SupportExplosion):
            pseudo_livelock_supports(protocol.space.transitions)
        report = certify_livelock_freedom(protocol)
        assert report.verdict is LivelockVerdict.UNKNOWN
        assert report.note == ""
        (witness,) = report.trail_witnesses
        assert (witness.ring_size, witness.enablements) == (5, 2)
        assert is_pseudo_livelock_support(witness.t_arcs)
        naive = certify_livelock_freedom(get_protocol("matching-ex4.2"),
                                         backend="naive")
        assert naive.verdict is LivelockVerdict.UNKNOWN
        assert "pseudo-livelock supports" in naive.note

    def test_witness_named_only_within_the_bound(self):
        report = certify_livelock_freedom(livelock_agreement(),
                                          max_ring_size=2)
        (witness,) = report.trail_witnesses
        assert witness.ring_size is None and witness.enablements is None
        assert witness.illegitimate_states
        assert "no K within the bound" in str(witness)

    def test_bidirectional_certificate_never_full(self):
        """Even a trail-free bidirectional protocol is only certified for
        contiguous livelocks (Section 5's scope note)."""
        from repro.protocols import generalizable_matching
        from repro.core.selfdisabling import make_self_disabling

        protocol = make_self_disabling(generalizable_matching())
        report = LivelockCertifier(protocol).analyze()
        assert report.contiguous_only
        assert not report.certified


class TestAssumptions:
    def test_non_self_disabling_protocol_rejected(self):
        x = ranged("x", 3)
        chain = parse_action("x[0] < x[-1] -> x := x[0] + 1", [x])
        protocol = RingProtocol(
            "chain", ProcessTemplate(variables=(x,), actions=(chain,)),
            "x[0] == x[-1]")
        with pytest.raises(AssumptionViolation):
            LivelockCertifier(protocol).analyze()

    def test_non_terminating_protocol_rejected(self):
        x = ranged("x", 2)
        spin = parse_action("x[-1] == 1 -> x := 1 - x[0]", [x])
        protocol = RingProtocol(
            "spin", ProcessTemplate(variables=(x,), actions=(spin,)),
            "x[0] == x[-1]")
        with pytest.raises(AssumptionViolation):
            LivelockCertifier(protocol).analyze()

    def test_checks_can_be_disabled(self):
        x = ranged("x", 3)
        chain = parse_action("x[0] < x[-1] -> x := x[0] + 1", [x])
        protocol = RingProtocol(
            "chain", ProcessTemplate(variables=(x,), actions=(chain,)),
            "x[0] == x[-1]")
        report = LivelockCertifier(
            protocol, require_self_disabling=False).analyze()
        assert report is not None  # analysis runs; verdict best-effort


# ----------------------------------------------------------------------
# One K-free certificate: the refinement against the naive per-support
# reference
# ----------------------------------------------------------------------
def _pool(factory) -> list:
    """The synthesis pool of *factory*'s first Resolve set, each
    combination added to the protocol (Figs. 9 and 12)."""
    protocol = factory()
    resolve = DeadlockAnalyzer(protocol).resolve_candidates()[0]
    candidates = Synthesizer(protocol).candidate_transitions(resolve)
    params = []
    for index, combo in enumerate(itertools.product(
            *(candidates[state] for state in sorted(candidates)))):
        def build(combo=combo):
            return factory().extended_with(
                [action_for_transition(t, t.label) for t in combo])

        params.append(pytest.param(
            sources.Source(f"pool:{factory.__name__}:{index}", build),
            id=f"{factory.__name__}-combo{index}"))
    return params


#: Every non-exploding source: the two Example 4.2/4.3 matchings have
#: more supports than the enumeration cap, so the naive reference
#: cannot decide them.
CERTIFICATE_SOURCES = (
    sources.bundled_by_factory(
        [name for name in sources.BUNDLED
         if name not in ("matching-ex4.2", "matching-ex4.3")])
    + _pool(three_coloring) + _pool(sum_not_two)
    + sources.sample_block((11, 5), 20, min_domain=3, max_domain=6,
                           max_transitions=30))


@pytest.mark.parametrize("source", CERTIFICATE_SOURCES)
def test_refinement_matches_the_per_support_reference(source):
    protocol = source.build()
    transitions = protocol.space.transitions
    witness, _passes = local_kernel_for(protocol).livelock_support(
        transitions)
    searcher = ContiguousTrailSearcher(protocol, max_ring_size=9)
    supports = pseudo_livelock_supports(transitions)
    matched = [s for s in supports if searcher.forms_trail(s) is not None]
    # The refinement's verdict is the OR of the per-support verdicts.
    assert (witness is None) == (not matched)
    if witness is None:
        # K-free certified implies certified under the bounded scan.
        assert all(searcher.find_trail(s) is None for s in supports)
    else:
        assert witness.t_arcs in supports
        assert searcher.forms_trail(witness.t_arcs) is not None
    verdicts = {LivelockCertifier(source.build(), max_ring_size=bound,
                                  require_self_disabling=False)
                .analyze().verdict for bound in (2, 9, 25)}
    assert len(verdicts) == 1


#: ``ProtocolSampler(seed=5)`` draws (domains 8-10, up to 60
#: transitions) whose supports exceed the enumeration cap.
EXPLODING = (7, 22, 40, 49, 86, 88, 120, 140, 164, 231)


@pytest.mark.parametrize("index", EXPLODING)
def test_exploding_protocols_are_decided_soundly(index):
    source = sources.sampled(5, index, min_domain=8, max_domain=10,
                             max_transitions=60)
    protocol = source.build()
    with pytest.raises(SupportExplosion):
        pseudo_livelock_supports(protocol.space.transitions)
    report = LivelockCertifier(protocol).analyze()
    if report.certified:
        for size in range(2, 5):
            assert check_instance(
                protocol.instantiate(size)).livelock_cycles == ()
    else:
        (witness,) = report.trail_witnesses
        assert is_pseudo_livelock_support(witness.t_arcs)
