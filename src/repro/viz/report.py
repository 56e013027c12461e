"""Textual rendering of analysis artifacts beyond raw graphs."""

from __future__ import annotations

from repro.viz.ascii_art import state_label


def render_trail_witness(witness) -> str:
    """Multi-line rendering of a contiguous-trail witness."""
    if witness.ring_size is None:
        lines = ["K-free trail candidate (no round pattern within the "
                 "bound searched forms a trail)"]
    else:
        lines = [f"contiguous trail candidate at K={witness.ring_size}, "
                 f"|E|={witness.enablements}"]
    lines.append("  t-arcs (the pseudo-livelock):")
    for transition in sorted(witness.t_arcs, key=str):
        lines.append(f"    {state_label(transition.source)} "
                     f"=> {state_label(transition.target)}"
                     + (f"  [{transition.label}]" if transition.label
                        else ""))
    lines.append("  states visited: "
                 + " ".join(state_label(s) for s in witness.states))
    lines.append("  illegitimate among them: "
                 + " ".join(state_label(s)
                            for s in witness.illegitimate_states))
    return "\n".join(lines)


def render_ranking_stairs(certificate, width: int = 40) -> str:
    """The "convergence stairs": one bar per rank value.

    Rank 0 is the invariant; higher ranks are further from recovery
    under the worst daemon.
    """
    layers = certificate.layers()
    peak = max(layers.values())
    lines = [f"convergence stairs (max rank {certificate.max_rank}, "
             f"{sum(layers.values())} states)"]
    for rank, count in layers.items():
        bar = "#" * max(1, round(width * count / peak))
        tag = " (I)" if rank == 0 else ""
        lines.append(f"  rank {rank:3d} | {bar} {count}{tag}")
    return "\n".join(lines)


def render_livelock_cycle(instance, cycle) -> str:
    """A livelock cycle with enabled processes marked per state."""
    lines = [f"livelock cycle of {len(cycle)} states at "
             f"K={instance.size}"]
    for state in cycle:
        enabled = set(instance.enabled_processes(state))
        marks = " ".join(f"{i}*" if i in enabled else f"{i} "
                         for i in range(instance.size))
        lines.append(f"  {instance.format_state(state)}   enabled: "
                     f"{marks}")
    return "\n".join(lines)
