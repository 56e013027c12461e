"""Hybrid synthesis: the bounded-checking fallback."""

from repro.core.hybrid import HybridVerdict, hybrid_synthesize
from repro.core.selfdisabling import action_for_transition
from repro.protocol.actions import LocalTransition
from repro.protocols import (
    agreement,
    sum_not_two,
    three_coloring,
    two_coloring,
)


def rejected_sum_not_two():
    """Sum-not-two pre-equipped with the paper's rejected candidate
    {t21, t10, t02} (spurious trail)."""
    protocol = sum_not_two()
    space = protocol.space

    def t(a, b, new):
        source = space.state_of(a, b)
        return LocalTransition(source, source.replace_own((new,)),
                               f"t{b}{new}")

    combo = [t(0, 2, 1), t(1, 1, 0), t(2, 0, 2)]
    return protocol.extended_with(
        [action_for_transition(x, x.label) for x in combo])


def test_local_success_keeps_all_k_guarantee():
    result = hybrid_synthesize(agreement())
    assert result.succeeded
    assert result.guarantee == "all-k"
    assert result.local.succeeded


def test_sum_not_two_local_success():
    result = hybrid_synthesize(sum_not_two())
    assert result.guarantee == "all-k"


def test_colorings_fail_even_with_fallback():
    """Their rejected combinations carry *real* livelocks."""
    for factory in (two_coloring, three_coloring):
        result = hybrid_synthesize(factory(), check_up_to=5)
        assert not result.succeeded
        assert result.guarantee == "none"


def test_unchecked_witness_is_not_accepted_as_bounded():
    """Under a bound of 2 the candidate's K=3 trail is never checked,
    so nothing shows it spurious: no ``"bounded"`` guarantee."""
    result = hybrid_synthesize(rejected_sum_not_two(), check_up_to=2)
    assert not result.succeeded
    assert result.guarantee == "none"


def test_spurious_rejection_recovered_as_bounded():
    """The paper's rejected {t21, t10, t02}: the pure methodology cannot
    accept it (its pseudo-livelock forms a trail) but bounded checking
    shows every witness spurious — the hybrid path certifies it up to
    the bound."""
    result = hybrid_synthesize(rejected_sum_not_two(), check_up_to=6)
    assert result.succeeded
    assert result.guarantee == "bounded"
    assert result.report is not None
    assert result.report.verdict is HybridVerdict.BOUNDED
    assert all(c.spurious for c in result.report.classifications)
    # and the recovered protocol genuinely stabilizes at checked sizes
    from repro.checker import check_instance

    for size in (3, 4, 5, 6):
        report = check_instance(result.protocol.instantiate(size))
        assert report.self_stabilizing
