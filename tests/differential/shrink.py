"""The matrix's shrinker: a divergent protocol, minimized."""

from __future__ import annotations


def shrink_failing_protocol(protocol, still_fails):
    """Greedy delta-debugging over the protocol's actions.

    Repeatedly drops single actions as long as *still_fails* keeps
    holding; the result is 1-minimal (no single further removal
    preserves the failure).  Predicates that crash on a candidate are
    treated as "does not fail" — shrinking must never introduce new
    error classes.
    """
    current = protocol
    progress = True
    while progress:
        progress = False
        actions = current.process.actions
        for index in range(len(actions)):
            candidate = current.with_actions(
                actions[:index] + actions[index + 1:],
                name=f"{protocol.name}_shrunk")
            try:
                failing = still_fails(candidate)
            except Exception:
                continue
            if failing:
                current = candidate
                progress = True
                break
    return current
