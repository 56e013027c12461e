"""F12 — Figure 12 / §6.2: sum-not-two — sufficiency without necessity.

Three claims:

1. ``Resolve = {20, 11, 02}`` and the methodology succeeds at the PL
   stage (pseudo-livelocks exist, none forms a trail);
2. the candidate set {t21, t10, t02} is rejected because its
   pseudo-livelock participates in a (K=3, |E|=2) trail — which is
   **spurious**: the global instance has no livelock, demonstrating that
   Theorem 5.14's condition is sufficient but unnecessary;
3. the paper's accepted set {t21, t12, t01} — packaged as the two
   guarded commands of §6.2 — self-stabilizes at every checked size.
"""

from repro.checker import check_instance
from repro.core import synthesize_convergence, verify_convergence
from repro.core.selfdisabling import action_for_transition
from repro.core.synthesis import SynthesisOutcome
from repro.engine.localkernel import local_kernel_for
from repro.protocol.actions import LocalTransition
from repro.protocols import stabilizing_sum_not_two, sum_not_two
from repro.viz import state_label


def test_fig12_sum_not_two(benchmark, write_artifact):
    protocol = sum_not_two()

    result = benchmark(synthesize_convergence, protocol)

    assert result.outcome is SynthesisOutcome.SUCCESS_PL
    assert {state_label(s) for s in result.resolve} == {"20", "11", "02"}

    space = protocol.space

    def t(a, b, new):
        source = space.state_of(a, b)
        return LocalTransition(source, source.replace_own((new,)),
                               f"t{b}{new}")

    # 2. the rejected combination and its spurious trail
    rejected = [t(0, 2, 1), t(1, 1, 0), t(2, 0, 2)]  # {t21, t10, t02}
    candidate = protocol.extended_with(
        [action_for_transition(x, x.label) for x in rejected])
    witness = local_kernel_for(candidate).find_trail(rejected, 9)
    assert witness is not None
    assert (witness.ring_size, witness.enablements) == (3, 2)
    spurious_check = check_instance(candidate.instantiate(3))
    assert spurious_check.livelock_cycles == ()  # no real livelock!

    # 3. the paper's packaged solution
    packaged = stabilizing_sum_not_two()
    assert verify_convergence(packaged).verdict.value == "converges"
    for size in (3, 5, 7):
        assert check_instance(packaged.instantiate(size)).self_stabilizing

    # 4. exhaustive audit of all 2^3 combinations: the paper's blanket
    # "none of the remaining forms a trail" is refuted — two remaining
    # combinations livelock for real and are (correctly) rejected.
    from repro.core.synthesis import Synthesizer

    rows = []
    accepted_count = 0
    for combo, reason in Synthesizer(protocol) \
            .evaluate_all_combinations():
        candidate2 = protocol.extended_with(
            [action_for_transition(x, x.label) for x in combo])
        global_ok = all(
            check_instance(candidate2.instantiate(size)).self_stabilizing
            for size in (3, 4, 5))
        local = "accept" if reason is None else "reject"
        if reason is None:
            accepted_count += 1
            assert global_ok  # soundness over the whole lattice
        if not global_ok:
            assert reason is not None  # real livelocks never accepted
        rows.append(("+".join(t.label for t in combo), local,
                     "stabilizes" if global_ok else "REAL LIVELOCK"))
    assert accepted_count == 4

    from repro.viz import render_table

    write_artifact(
        "fig12_sum_not_two.txt",
        result.summary()
        + f"\n\nrejected {{t21, t10, t02}} trail: {witness}"
        + "\nglobal check at the trail's K=3: no livelock (spurious)"
        + "\n\npackaged solution:\n" + packaged.pretty()
        + "\n\nexhaustive combination audit (refines the paper's "
          "'none of the remaining' claim):\n"
        + render_table(["combination", "Thm 5.14 verdict",
                        "global K=3..5"], rows))
