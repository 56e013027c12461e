"""Cross-run ledger: append-only run records (`repro runs`).

The ledger answers "how does this run compare to the last one", and
with a ``--trace`` file it is the whole record of a run: nothing
reports on a command while it runs.  At run finish the CLI (and the
benchmark harness) folds one JSON record
— final counters, flags, protocol fingerprint, a verdict digest, and
wall-clock — into ``.repro-cache/ledger.jsonl``.  The file is
append-only JSONL and loads corruption-tolerantly: a torn tail or a
flipped bit costs the damaged line, never the ledger.

``repro runs list|show|diff`` read it back.  ``diff`` compares a
candidate run against an explicit baseline or the latest earlier record
with the same (fingerprint, flags) identity, and flags:

* **verdict drift** — digests differ (always a finding, never gated by
  the threshold);
* **timing regressions** — wall clock or a per-stage time grew by more
  than ``threshold`` (default 25%) over a noise floor;
* **health regressions** — fault counters (timeouts, retries,
  degradations, pool fallbacks, requeues) strictly increased;
* **work drift** — workload counters (tasks run, states packed, trails
  searched) changed in *either* direction, which on a matched identity
  means the computation itself changed shape;
* **cache effectiveness drops** — a hit-rate fell by more than the
  threshold (as an absolute rate delta).

Records are version-stamped; unknown versions are listed but excluded
from diffs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

#: Ledger file name, directly under the engine cache directory.
LEDGER_NAME = "ledger.jsonl"

#: Record format version.
LEDGER_VERSION = 1

#: Relative growth beyond which a timing counts as a regression.
DEFAULT_THRESHOLD = 0.25

#: Timings below this floor are noise — never flagged.
TIME_FLOOR_SECONDS = 0.05

#: Counters whose *increase* signals degraded run health (flat
#: :class:`repro.engine.EngineStats` names, as recorded by the CLI).
HEALTH_COUNTERS = (
    "supervisor_timeouts", "supervisor_retries", "supervisor_degraded",
    "pool_fallbacks", "scheduler_requeued",
)

#: Counters measuring the amount of work done: any drift on a matched
#: identity means the two runs did not compute the same thing.  Only
#: counters independent of how work was dispatched belong here
#: (``scheduler_batches``, for example, follows ``--jobs`` and the
#: faults a run met, and must not).
WORK_COUNTERS = (
    "work_items", "states_explored",
    # Lattice-search split: both are intrinsic to the candidate set
    # (judged against the inherited witness chain, never against the
    # blocked-mask index), so any drift on a matched identity is a
    # pruning regression.
    "combos_pruned", "full_evaluations",
)

#: (hits, misses) counter pairs folded into hit rates.
CACHE_RATES = {
    "results": ("cache_hits", "cache_misses"),
}


def ledger_path(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / LEDGER_NAME


def verdict_digest(verdict: dict[str, Any]) -> str:
    """A stable digest of a small, canonical verdict dict."""
    canonical = json.dumps(verdict, sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def make_record(run_id: str, command: str, *,
                protocol: str | None = None,
                fingerprint: str | None = None,
                flags: dict[str, Any] | None = None,
                verdict: dict[str, Any] | None = None,
                exit_status: int | None = None,
                wall_seconds: float | None = None,
                started: float | None = None,
                counters: dict[str, Any] | None = None,
                stage_seconds: dict[str, float] | None = None,
                **extra: Any) -> dict[str, Any]:
    """Assemble one ledger record (JSON-ready)."""
    record: dict[str, Any] = {
        "v": LEDGER_VERSION,
        "run_id": run_id,
        "command": command,
        "protocol": protocol,
        "fingerprint": fingerprint,
        "flags": dict(flags or {}),
        "verdict": dict(verdict or {}),
        "verdict_digest": verdict_digest(verdict or {}),
        "exit_status": exit_status,
        "wall_seconds": wall_seconds,
        "started": started,
        "counters": dict(counters or {}),
        "stage_seconds": dict(stage_seconds or {}),
    }
    record.update(extra)
    return record


def append(path: str | Path, record: dict[str, Any]) -> None:
    """Append *record* as one line (O_APPEND, so concurrent writers
    from parallel benchmark processes interleave whole lines)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, default=str) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def load(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """All parseable records plus the count of damaged lines skipped."""
    path = Path(path)
    records: list[dict[str, Any]] = []
    skipped = 0
    try:
        text = path.read_text()
    except OSError:
        return records, skipped
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            skipped += 1
            continue
        if not isinstance(record, dict) or "run_id" not in record:
            skipped += 1
            continue
        records.append(record)
    return records, skipped


def find_run(records: list[dict[str, Any]],
             run_id: str) -> dict[str, Any] | None:
    """The last record for *run_id* (re-runs shadow earlier entries)."""
    for record in reversed(records):
        if record.get("run_id") == run_id:
            return record
    return None


#: Flags the CLI no longer has.  Records written while they existed
#: still carry them (``schedule``, ``backend`` and ``artifacts``
#: defaulted to ``auto``; ``symmetry`` is there when it was set), so
#: they are left out of the identity whatever their value: a run must
#: keep matching its baseline across the release that removed them.
RETIRED_FLAGS = frozenset({"schedule", "batch_size", "search",
                           "backend", "artifacts", "symmetry"})


def identity(record: dict[str, Any]) -> tuple:
    """The comparison identity: what must match for a fair diff."""
    flags = {key: value
             for key, value in (record.get("flags") or {}).items()
             if key not in RETIRED_FLAGS}
    return (record.get("command"), record.get("fingerprint"),
            json.dumps(flags, sort_keys=True, default=str))


def latest_matching(records: list[dict[str, Any]],
                    candidate: dict[str, Any]) -> dict[str, Any] | None:
    """The newest record before *candidate* with the same identity.

    Records appended after the candidate never qualify — "compare my
    run against the previous one" must not silently pick up a run that
    happened later.
    """
    want = identity(candidate)
    cutoff = len(records)
    for i in reversed(range(len(records))):
        if records[i] is candidate or (
                cutoff == len(records)
                and records[i].get("run_id") == candidate.get("run_id")):
            cutoff = i
            break
    for record in reversed(records[:cutoff]):
        if record.get("run_id") == candidate.get("run_id"):
            continue
        if record.get("v") != LEDGER_VERSION:
            continue
        if identity(record) == want:
            return record
    return None


def _rate(counters: dict[str, Any], hits_key: str,
          misses_key: str) -> float | None:
    hits = counters.get(hits_key) or 0
    misses = counters.get(misses_key) or 0
    if hits + misses == 0:
        return None
    return hits / (hits + misses)


def diff(candidate: dict[str, Any], baseline: dict[str, Any],
         threshold: float = DEFAULT_THRESHOLD) -> dict[str, Any]:
    """Compare *candidate* against *baseline*.

    Returns ``{"baseline", "candidate", "regressions", "notes"}`` where
    ``regressions`` is a list of ``{"kind", "name", "baseline",
    "candidate", "detail"}`` findings, worst kinds first.
    """
    regressions: list[dict[str, Any]] = []
    notes: list[str] = []

    if identity(candidate) != identity(baseline):
        notes.append("identities differ (command/fingerprint/flags): "
                     "timing comparison may not be apples-to-apples")

    if candidate.get("verdict_digest") != baseline.get("verdict_digest"):
        regressions.append({
            "kind": "verdict", "name": "verdict_digest",
            "baseline": baseline.get("verdict_digest"),
            "candidate": candidate.get("verdict_digest"),
            "detail": f"verdicts differ: {baseline.get('verdict')!r} "
                      f"-> {candidate.get('verdict')!r}",
        })

    def timing(name: str, base: Any, cand: Any) -> None:
        if not isinstance(base, (int, float)) \
                or not isinstance(cand, (int, float)):
            return
        if cand <= max(base, TIME_FLOOR_SECONDS) * (1.0 + threshold):
            return
        ratio = cand / base if base > 0 else float("inf")
        regressions.append({
            "kind": "timing", "name": name,
            "baseline": base, "candidate": cand,
            "detail": f"{name}: {base:.3f}s -> {cand:.3f}s "
                      f"({ratio:.2f}x)",
        })

    timing("wall_seconds", baseline.get("wall_seconds"),
           candidate.get("wall_seconds"))
    base_stages = baseline.get("stage_seconds") or {}
    cand_stages = candidate.get("stage_seconds") or {}
    for stage in sorted(set(base_stages) & set(cand_stages)):
        timing(f"stage:{stage}", base_stages[stage], cand_stages[stage])

    base_counters = baseline.get("counters") or {}
    cand_counters = candidate.get("counters") or {}
    for name in HEALTH_COUNTERS:
        base, cand = base_counters.get(name, 0), cand_counters.get(name, 0)
        if isinstance(cand, (int, float)) \
                and isinstance(base, (int, float)) and cand > base:
            regressions.append({
                "kind": "health", "name": name,
                "baseline": base, "candidate": cand,
                "detail": f"{name}: {base} -> {cand}",
            })
    # Work drift is only meaningful when both runs reused the cache
    # equally: a run that hits the result cache legitimately computes
    # less than the run that populated it.
    comparable_work = (base_counters.get("cache_hits", 0)
                       == cand_counters.get("cache_hits", 0))
    for name in WORK_COUNTERS:
        base, cand = base_counters.get(name, 0), cand_counters.get(name, 0)
        if base != cand:
            if comparable_work:
                regressions.append({
                    "kind": "work", "name": name,
                    "baseline": base, "candidate": cand,
                    "detail": f"{name}: {base} -> {cand} "
                              "(work drift on matched identity)",
                })
            else:
                notes.append(f"{name} differs ({base} -> {cand}) but so "
                             "do cache hits — not counted as drift")
    for layer, (hits_key, misses_key) in CACHE_RATES.items():
        base = _rate(base_counters, hits_key, misses_key)
        cand = _rate(cand_counters, hits_key, misses_key)
        if base is not None and cand is not None \
                and base - cand > threshold:
            regressions.append({
                "kind": "cache", "name": layer,
                "baseline": base, "candidate": cand,
                "detail": f"{layer} hit rate: {base:.0%} -> {cand:.0%}",
            })

    order = {"verdict": 0, "timing": 1, "health": 2, "work": 3,
             "cache": 4}
    regressions.sort(key=lambda r: order.get(r["kind"], 9))
    return {
        "baseline": baseline.get("run_id"),
        "candidate": candidate.get("run_id"),
        "threshold": threshold,
        "regressions": regressions,
        "notes": notes,
    }


# ----------------------------------------------------------------------
# Terminal rendering (repro runs list / show / diff)
# ----------------------------------------------------------------------
def render_list(records: list[dict[str, Any]],
                skipped: int = 0) -> str:
    header = (f"{'RUN-ID':24s} {'COMMAND':11s} {'PROTOCOL':20s} "
              f"{'VERDICT':16s} {'WALL':>8s} {'EXIT':>4s}")
    lines = [header]
    for record in reversed(records):  # newest first
        wall = record.get("wall_seconds")
        lines.append(
            f"{str(record.get('run_id', '?')):24s} "
            f"{str(record.get('command') or '-'):11s} "
            f"{str(record.get('protocol') or '-'):20s} "
            f"{str(record.get('verdict_digest') or '-'):16s} "
            f"{(f'{wall:.2f}s' if isinstance(wall, (int, float)) else '-'):>8s} "
            f"{str(record.get('exit_status', '-')):>4s}")
    if len(lines) == 1:
        lines.append("(ledger is empty)")
    if skipped:
        lines.append(f"({skipped} damaged line(s) skipped)")
    return "\n".join(lines)


def render_diff(result: dict[str, Any]) -> str:
    lines = [f"diff {result['candidate']} vs baseline "
             f"{result['baseline']} "
             f"(threshold {result['threshold']:.0%})"]
    for note in result["notes"]:
        lines.append(f"  note: {note}")
    if not result["regressions"]:
        lines.append("  no regressions")
    for finding in result["regressions"]:
        lines.append(f"  [{finding['kind']}] {finding['detail']}")
    return "\n".join(lines)
