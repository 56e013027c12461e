#!/usr/bin/env python3
"""Evidence beyond verdicts: rankings, rounds and machine-readable
reports.

A downstream user rarely wants a bare "converges"; they want
*artifacts*: a checkable certificate, a daemon-independent time bound,
and JSON they can archive in CI.  This example produces all three for
the synthesized sum-not-two protocol:

* a strict **ranking certificate** (every step outside I decreases it),
  independently re-verified, whose maximum is the worst-daemon recovery
  time — and we confirm no adversarial run exceeds it;
* **rounds-to-convergence** statistics (the SS literature's measure);
* the parameterized report exported as **JSON**, plus the protocol
  itself round-tripped through its JSON form and re-verified.
"""

import json
import random

from repro.checker import StateGraph, check_instance, compute_ranking, \
    verify_ranking
from repro.core import verify_convergence
from repro.protocols import stabilizing_sum_not_two
from repro.serialization import (
    convergence_report_to_dict,
    protocol_from_dict,
    protocol_to_dict,
)
from repro.simulation import (
    AdversarialScheduler,
    RandomScheduler,
    random_state,
    run,
    rounds_to_convergence,
)
from repro.viz import render_ranking_stairs, render_table


def main() -> None:
    protocol = stabilizing_sum_not_two()
    size = 5
    instance = protocol.instantiate(size)

    print("== ranking certificate ==")
    graph = StateGraph(instance)
    certificate = compute_ranking(graph)
    assert certificate is not None
    assert verify_ranking(graph, certificate.ranks)
    print(render_ranking_stairs(certificate))
    print()

    # No adversary can outlast the certificate's maximum.
    worst_seen = 0
    for seed in range(50):
        start = graph.decode((seed * 13) % len(graph))
        trace = run(instance, start,
                    AdversarialScheduler(instance, seed=seed),
                    max_steps=certificate.max_rank + 1)
        assert trace.converged
        worst_seen = max(worst_seen, trace.recovery_steps)
    print(f"adversarial runs: worst observed {worst_seen} steps "
          f"<= certified bound {certificate.max_rank}")
    best = check_instance(instance).worst_case_recovery_steps
    print(f"(best-daemon bound for comparison: {best} steps)")
    print()

    print("== rounds to convergence ==")
    rng = random.Random(0)
    rows = []
    for sample_size in (4, 6, 8):
        inst = protocol.instantiate(sample_size)
        rounds = []
        for seed in range(40):
            trace = run(inst, random_state(inst, rng),
                        RandomScheduler(seed=seed), max_steps=500)
            if trace.converged:
                measured = rounds_to_convergence(inst, trace)
                if measured is not None:
                    rounds.append(measured)
        rows.append((sample_size, f"{sum(rounds)/len(rounds):.1f}",
                     max(rounds)))
    print(render_table(["K", "mean rounds", "max rounds"], rows))
    print()

    print("== machine-readable artifacts ==")
    report = verify_convergence(protocol)
    payload = convergence_report_to_dict(report)
    print("verdict from JSON:", json.dumps(payload["verdict"]))
    rebuilt = protocol_from_dict(protocol_to_dict(protocol))
    assert verify_convergence(rebuilt).verdict.value == "converges"
    print("protocol JSON round-trip re-verified: converges")


if __name__ == "__main__":
    main()
