"""X6 — recovery-time scaling of the synthesized protocols.

The classic empirical companion of a stabilization proof: how fast is
recovery, and how does it scale with the ring size?  For the two
synthesized solutions we measure, per size, the mean/max recovery steps
over random starts under the random daemon, the asynchronous-rounds
count, and the certified worst-daemon bound (from the ranking
certificate, where the state space allows).

Shape assertions: recovery steps grow with K but stay linear-ish (well
under the state-space bound), and measured rounds never exceed the step
counts.
"""

from repro.checker import StateGraph, compute_ranking
from repro.engine import EngineStats
from repro.protocols import stabilizing_agreement, stabilizing_sum_not_two
from repro.simulation import (
    RandomScheduler,
    convergence_study,
    random_state,
    run,
    rounds_to_convergence,
)
from repro.viz import render_table

SIZES = (4, 6, 8, 10)
SAMPLES = 120


def study():
    import random as random_module

    rows = []
    kernel = EngineStats()
    for factory in (stabilizing_agreement, stabilizing_sum_not_two):
        protocol = factory()
        for size in SIZES:
            instance = protocol.instantiate(size)
            stats = convergence_study(instance, samples=SAMPLES, seed=7)
            assert stats.converged == SAMPLES  # certified: must recover
            rng = random_module.Random(size)
            rounds = []
            for seed in range(30):
                trace = run(instance, random_state(instance, rng),
                            RandomScheduler(seed=seed), max_steps=2000)
                measured = rounds_to_convergence(instance, trace)
                if measured is not None:
                    rounds.append(measured)
            if size <= 6:  # ranking needs the full state graph
                with kernel.collecting():
                    graph = StateGraph(instance)
                certificate = compute_ranking(graph)
                worst = certificate.max_rank
                assert stats.max_steps <= worst
            else:
                worst = "-"
            mean_rounds = sum(rounds) / len(rounds)
            assert max(rounds) <= stats.max_steps or not rounds
            rows.append((protocol.name, size,
                         f"{stats.mean_steps:.1f}", stats.max_steps,
                         f"{mean_rounds:.1f}", worst))
    return rows, kernel


def test_x6_recovery_scaling(benchmark, write_artifact):
    rows, kernel = benchmark.pedantic(study, rounds=1, iterations=1)
    # growth shape: mean steps increase with K for each protocol
    for name in {r[0] for r in rows}:
        means = [float(r[2]) for r in rows if r[0] == name]
        assert means[-1] > means[0]
    # Ranking certificates ran on kernel-built state graphs.
    assert kernel.states_encoded > 0
    write_artifact(
        "x6_recovery_scaling.txt",
        render_table(["protocol", "K", "mean steps", "max steps",
                      "mean rounds", "worst-daemon bound"], rows)
        + f"\nranking state graphs: {kernel.states_encoded} states "
        f"kernel-encoded @ {kernel.encode_rate / 1e3:.0f}k states/s")
