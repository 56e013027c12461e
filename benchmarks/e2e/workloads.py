"""The four workloads: their ops, seeded inputs and expected verdicts.

A workload is a list of ops run as one *pass*; the harness shuffles each
pass with the run's seed.  CLI ops are ``repro`` argument lists checked
against the exit code and the ledger verdict; library ops (``api-local``)
are descriptors ``api_driver.py`` turns into calls.  ``expected.json``
holds the answers; :func:`build_expected` regenerates it from the naive
reference backends and checks it against the paper's pinned claims.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

BUNDLED = ("2-coloring", "3-coloring", "agreement", "agreement-livelock",
           "agreement-ss", "matching-base", "matching-ex4.2",
           "matching-ex4.3", "matching-gouda-acharya", "sum-not-two",
           "sum-not-two-ss")
#: Empty input protocols the CLI synthesizes (paper Section 6).
SYNTH_CLI = ("sum-not-two", "2-coloring", "3-coloring", "agreement",
             "matching-base")
CHECK_K = 5
#: (protocol, --up-to) of the sweep workloads.
SWEEPS = (("sum-not-two-ss", 9), ("matching-ex4.3", 9), ("3-coloring", 9),
          ("matching-gouda-acharya", 9), ("agreement-ss", 11))
FUZZ_SAMPLES = 400
API_COLORINGS = (4, 5, 6)
API_FORBIDDEN = tuple((d, f) for d in range(3, 7) for f in range(2 * d - 1))
API_BOUNDS = (9, 15, 25)
API_RANDOM = 300
ORACLE_SIZES = range(2, 7)

SMOKE_SWEEPS = (("sum-not-two-ss", 6),)
SMOKE_FUZZ = 20


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what it must answer."""

    key: str
    argv: tuple[str, ...]
    expect: dict = field(hash=False)
    #: ``"fresh"``: a new empty ``--cache-dir``; ``"warm"``: the op's own
    #: cache dir, filled by its cold run during setup; ``None``: defaults.
    cache: str | None = None


def cli_oneshot_ops(expected: dict, smoke: bool = False) -> list[Op]:
    expected = expected["cli"]
    verify, check, synth = (BUNDLED, BUNDLED, SYNTH_CLI) if not smoke \
        else (("sum-not-two-ss",), ("sum-not-two-ss",), ("sum-not-two",))
    ops = [Op(f"verify {p}", ("verify", p), expected["verify"][p])
           for p in verify]
    ops += [Op(f"check {p} -K {CHECK_K}", ("check", p, "-K", str(CHECK_K)),
               expected["check"][p]) for p in check]
    ops += [Op(f"synthesize {p}", ("synthesize", p), expected["synthesize"][p])
            for p in synth]
    return ops


def sweep_ops(expected: dict, jobs: int, fuzz_seed: int, cache: str,
              smoke: bool = False) -> list[Op]:
    expected = expected["cli"]["sweep"]
    ops = []
    for protocol, up_to in (SMOKE_SWEEPS if smoke else SWEEPS):
        key = f"sweep {protocol} --up-to {up_to}"
        ops.append(Op(key, ("sweep", protocol, "--up-to", str(up_to),
                            "--jobs", str(jobs)), expected[key], cache))
    samples = SMOKE_FUZZ if smoke else FUZZ_SAMPLES
    ops.append(Op(f"fuzz --samples {samples} --seed {fuzz_seed}",
                  ("fuzz", "--samples", str(samples), "--seed",
                   str(fuzz_seed), "--jobs", str(jobs)),
                  {"exit": 0, "verdict": {"clean": True,
                                          "discrepancies": 0}}, cache))
    return ops


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The first op of each command: enough to fill the bytecode and
    page caches and run the commands' lazy imports once."""
    seen: dict[str, Op] = {}
    for op in ops:
        seen.setdefault(op.argv[0], op)
    return list(seen.values())


# ----------------------------------------------------------------------
# api-local
# ----------------------------------------------------------------------
def random_protocol(rng: random.Random, index: int) -> dict:
    """A random unidirectional DSL protocol as ``save_protocol`` JSON.

    One variable over 3 or 4 values; about 40% of the local states are
    illegitimate, and most of those get one transition out (never into
    another transition's source, so the action set is self-disabling
    and ``I`` stays closed).  Five values are left out on purpose: with
    few transitions, the deadlock analysis then enumerates the cycles of
    a near-complete 25-state graph, and single protocols take seconds,
    which makes the workload's cost depend on the seed.
    """
    domain = rng.randint(3, 4)
    states = [(a, b) for a in range(domain) for b in range(domain)]
    bad = [s for s in states if rng.random() < 0.4] or [rng.choice(states)]
    picks = []
    for a, b in bad:
        if rng.random() < 0.9:
            picks.append((a, b, rng.choice(
                [v for v in range(domain) if v != b])))
    sources = {(a, b) for a, b, _ in picks}
    kept = [(a, b, c) for a, b, c in picks if (a, c) not in sources]
    return {
        "name": f"random-{index:03d}",
        "description": "seeded random benchmark protocol",
        "topology": "ring",
        "variables": [{"name": "x", "domain": list(range(domain))}],
        "reads_left": 1, "reads_right": 0,
        "legitimacy": "not (" + " or ".join(
            f"(x[-1] == {a} and x[0] == {b})" for a, b in bad) + ")",
        "actions": [{"name": f"t{i}",
                     "text": f"x[-1] == {a} and x[0] == {b} -> x := {c}"}
                    for i, (a, b, c) in enumerate(kept)],
    }


def api_ops(expected: dict, rng: random.Random, directory: Path,
            smoke: bool = False) -> list[dict]:
    """Library op descriptors; writes the random protocols to *directory*."""
    expected = expected["api"]
    colorings, forbidden, bundled, randoms = (
        ((4,), ((3, 2),), ("sum-not-two-ss",), 10) if smoke else
        (API_COLORINGS, API_FORBIDDEN, BUNDLED, API_RANDOM))
    ops = [{"key": f"synthesize coloring({k})", "call": "synthesize",
            "factory": "coloring", "args": [k],
            "expect": expected["synthesize"][f"coloring({k})"]}
           for k in colorings]
    ops += [{"key": f"synthesize forbidden_sum({d},{f})",
             "call": "synthesize", "factory": "forbidden_sum", "args": [d, f],
             "expect": expected["synthesize"][f"forbidden_sum({d},{f})"]}
            for d, f in forbidden]
    ops += [{"key": f"verify {p} @{bound}", "call": "verify",
             "protocol": p, "bound": bound,
             "expect": expected["verify"][p][str(bound)]}
            for p in bundled for bound in API_BOUNDS]
    directory.mkdir(parents=True, exist_ok=True)
    for index in range(randoms):
        path = directory / f"random-{index:03d}.json"
        path.write_text(json.dumps(random_protocol(rng, index)))
        ops.append({"key": f"verify {path.name}", "call": "verify",
                    "file": str(path), "bound": 9, "expect": None})
    return ops


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
#: Outcomes pinned by tests/integration/test_paper_claims.py and
#: tests/checker/test_global_convergence.py; build_expected() refuses to
#: write an oracle that contradicts them.
PAPER_CLAIMS = {
    ("synthesize", "3-coloring"): False,       # Fig. 9, §6.1
    ("synthesize", "agreement"): True,         # Fig. 10, §6.2
    ("synthesize", "2-coloring"): False,       # Fig. 11, §6.2
    ("synthesize", "sum-not-two"): True,       # Fig. 12, §6.2
    ("check", "matching-gouda-acharya"): False,  # Fig. 8: livelock at K=5
    ("check", "matching-ex4.3"): True,         # clean at its design K=5
    ("check", "agreement-livelock"): False,    # Ex. 5.2 / Fig. 5 livelock
    ("verify", "agreement-ss"): "converges",   # §6.2 solution
    ("verify", "sum-not-two-ss"): "converges",  # §6.2 solution
}

GENERATED_BY = [
    "python benchmarks/e2e/run.py oracle > benchmarks/e2e/expected.json",
    "verify: verify_convergence(p, max_ring_size=b, backend='naive')",
    f"check: check_instance(p.instantiate({CHECK_K}), backend='naive')",
    "synthesize: synthesize_convergence(p, backend='naive', "
    "search='flat')",
    "sweep: repro sweep P --up-to N --backend naive (failing_sizes)",
]


def build_expected() -> dict:
    """Every expected verdict, computed with the naive reference backends."""
    from repro.checker import check_instance
    from repro.checker.sweep import sweep_verify
    from repro.core import synthesize_convergence, verify_convergence
    from repro.protocols.coloring import coloring
    from repro.protocols.registry import get_protocol
    from repro.protocols.sum_not_two import forbidden_sum

    def exit_code(ok: bool) -> int:
        return 0 if ok else 1

    cli: dict = {"verify": {}, "check": {}, "synthesize": {}, "sweep": {}}
    api: dict = {"verify": {}, "synthesize": {}}
    for name in BUNDLED:
        verdicts = {str(bound): verify_convergence(
            get_protocol(name), max_ring_size=bound,
            backend="naive").verdict.value
            for bound in sorted({9, *API_BOUNDS})}
        api["verify"][name] = {b: verdicts[b] for b in map(str, API_BOUNDS)}
        cli["verify"][name] = {"exit": exit_code(verdicts["9"] == "converges"),
                               "verdict": {"verdict": verdicts["9"]}}
        stable = check_instance(get_protocol(name).instantiate(CHECK_K),
                                backend="naive").self_stabilizing
        cli["check"][name] = {"exit": exit_code(stable),
                              "verdict": {"self_stabilizing": stable,
                                          "ring_size": CHECK_K}}
    for name in SYNTH_CLI:
        ok = synthesize_convergence(get_protocol(name), backend="naive",
                                    search="flat").succeeded
        cli["synthesize"][name] = {"exit": exit_code(ok),
                                   "verdict": {"succeeded": ok}}
    for name, up_to in sorted({*SWEEPS, *SMOKE_SWEEPS}):
        result = sweep_verify(get_protocol(name), up_to=up_to,
                              backend="naive")
        cli["sweep"][f"sweep {name} --up-to {up_to}"] = {
            "exit": exit_code(result.all_self_stabilizing),
            "verdict": {"all_self_stabilizing": result.all_self_stabilizing,
                        "failing_sizes": list(result.failing_sizes),
                        "sizes": list(result.sizes)}}
    for k in API_COLORINGS:
        api["synthesize"][f"coloring({k})"] = synthesize_convergence(
            coloring(k), backend="naive", search="flat").outcome.name
    for d, f in API_FORBIDDEN:
        api["synthesize"][f"forbidden_sum({d},{f})"] = synthesize_convergence(
            forbidden_sum(d, f), backend="naive", search="flat").outcome.name

    for (command, name), claim in PAPER_CLAIMS.items():
        verdict = cli[command][name]["verdict"]
        got = next(iter(verdict.values()))
        if got != claim:
            raise SystemExit(f"naive {command} {name} gives {got!r}, the "
                             f"paper claims {claim!r}")
    return {"generated_by": GENERATED_BY,
            "paper_claims": [f"{c} {n}: {v}"
                             for (c, n), v in PAPER_CLAIMS.items()],
            "cli": cli, "api": api}
