"""Long-lived library client for the ``api-local`` workload.

    python benchmarks/e2e/api_driver.py SPEC.json

Imports ``repro`` once, runs the warm-up ops from SPEC and prints one
JSON line ``{"ready": ...}``.  It then reads one command from stdin:
``exit``, or ``{"measure": SECONDS, "min_passes": N, "trace": 0|1}``.  A
measurement runs whole passes over the ops until SECONDS have passed
and at least N untraced passes ran, with passes
alternately untraced and traced when tracing.  It prints one JSON line
with the results, confirms every random protocol's ``converges`` verdict
with the naive global checker (untimed), prints that as a last JSON
line, and exits.  Each op builds a fresh protocol object, so the
analysis memos, which are keyed weakly on protocol objects, never carry
over from one op to the next.
"""

import time

T0 = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from spans import IMPORT_GROUPS, ImportTimer, Recorder, install, now  # noqa: E402,E501


def _stats(stats) -> dict:
    """An EngineStats folded the way the CLI folds it into its ledger."""
    if stats is None:
        return {}
    data = stats.to_dict()
    counters = {name: value for name, value in data.items()
                if isinstance(value, (int, float))
                and not isinstance(value, bool)}
    counters["stage_seconds"] = data.get("stage_seconds") or {}
    return counters


def run_op(op: dict):
    """Build the op's protocol, run its call; returns (verdict, stats)."""
    from repro import serialization
    from repro.core import synthesize_convergence, verify_convergence
    from repro.protocols import registry
    from repro.protocols.coloring import coloring
    from repro.protocols.sum_not_two import forbidden_sum

    if op["call"] == "synthesize":
        factory = coloring if op["factory"] == "coloring" else forbidden_sum
        result = synthesize_convergence(factory(*op["args"]))
        return result.outcome.name, result.stats
    protocol = (serialization.load_protocol(op["file"]) if "file" in op
                else registry.get_protocol(op["protocol"]))
    report = verify_convergence(protocol, max_ring_size=op["bound"])
    return report.verdict.value, report.stats


def run_pass(ops: list, rng: random.Random, traced: bool,
             recorder: Recorder) -> dict:
    order = list(ops)
    rng.shuffle(order)
    undo = install(recorder) if traced else None
    results = []
    start = now()
    try:
        for op in order:
            begin = now()
            verdict, stats = run_op(op)
            results.append({"key": op["key"], "seconds": now() - begin,
                            "verdict": verdict,
                            "stats": _stats(stats) if traced else None})
    finally:
        wall = now() - start
        if undo is not None:
            undo()
    return {"traced": traced, "start": start, "wall": wall, "ops": results,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def naive_confirm(ops: list, verdicts: dict, sizes: list) -> list:
    """Re-check each random ``converges`` verdict at every K in *sizes*
    with the naive interpreter."""
    from repro.checker import check_instance
    from repro.serialization import load_protocol

    failures = []
    for op in ops:
        if "file" not in op or verdicts.get(op["key"]) != "converges":
            continue
        protocol = load_protocol(op["file"])
        for size in sizes:
            report = check_instance(protocol.instantiate(size),
                                    backend="naive")
            if not report.self_stabilizing:
                failures.append(f"{op['key']} at K={size}")
    return failures


def main() -> int:
    spec = json.loads(open(sys.argv[1]).read())
    recorder = Recorder()
    if spec["trace"]:
        sys.meta_path.insert(0, ImportTimer(recorder))
    start = now()
    for group in IMPORT_GROUPS:
        if group != "cli":
            importlib.import_module("repro." + group)
    importlib.import_module("repro.serialization")
    importlib.import_module("repro.protocols")
    recorder.add("startup.import", start, now())
    ops = spec["ops"]
    warm = {op["key"]: run_op(op)[0] for op in spec["warmup"]}
    print(json.dumps({"ready": True, "t0": T0, "warmup": warm,
                      "events": recorder.events}), flush=True)

    line = sys.stdin.readline()
    request = json.loads(line) if line.strip() else "exit"
    if request == "exit":
        return 0
    rng = random.Random(spec["seed"])
    passes = []
    begin = now()
    while True:
        traced = bool(request["trace"]) and len(passes) % 2 == 1
        pass_recorder = Recorder()
        passes.append(run_pass(ops, rng, traced, pass_recorder))
        passes[-1]["events"] = pass_recorder.events
        untraced = sum(not p["traced"] for p in passes)
        if now() - begin >= request["measure"] \
                and untraced >= request["min_passes"] \
                and (not request["trace"] or len(passes) % 2 == 0):
            break
    print(json.dumps({"passes": passes}), flush=True)

    verdicts = {r["key"]: r["verdict"] for r in passes[0]["ops"]}
    failures = naive_confirm(ops, verdicts, spec["oracle_sizes"])
    print(json.dumps({"oracle": failures}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
