"""Schema validation for exported observability artifacts.

Used by the test suite and the CI smoke job (as
``python -m repro.obs.validate trace.json run.jsonl``) to check that a
``--trace`` file is valid Chrome Trace Event Format, a ``--log-json``
file is a well-formed JSONL run log, a live-plane ``status.json`` is a
well-formed snapshot and ``ledger.jsonl`` holds well-formed run
records, without pulling in a JSON-schema dependency.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.obs.export import RUN_LOG_VERSION, load_run_log
from repro.obs.ledger import LEDGER_VERSION
from repro.obs.live import STATUS_VERSION


class ValidationError(ValueError):
    """An artifact does not match the expected schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# ----------------------------------------------------------------------
# Chrome trace files
# ----------------------------------------------------------------------
def validate_chrome_trace_data(data: Any) -> dict[str, int]:
    """Validate a parsed Chrome trace document; returns event counts."""
    _require(isinstance(data, dict), "trace root must be a JSON object")
    events = data.get("traceEvents")
    _require(isinstance(events, list), "traceEvents must be a list")
    counts = {"X": 0, "M": 0}
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        _require(isinstance(event, dict), f"{where} must be an object")
        phase = event.get("ph")
        _require(phase in ("X", "M"), f"{where}.ph must be 'X' or 'M'")
        _require(isinstance(event.get("name"), str),
                 f"{where}.name must be a string")
        _require(isinstance(event.get("pid"), int),
                 f"{where}.pid must be an int")
        _require(isinstance(event.get("tid"), int),
                 f"{where}.tid must be an int")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                _require(isinstance(value, (int, float)) and value >= 0,
                         f"{where}.{key} must be a non-negative number")
            args = event.get("args")
            _require(isinstance(args, dict), f"{where}.args must be an object")
        counts[phase] += 1
    _require(counts["X"] > 0, "trace contains no complete ('X') span events")
    return counts


def validate_chrome_trace(path) -> dict[str, int]:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return validate_chrome_trace_data(data)


# ----------------------------------------------------------------------
# JSONL run logs
# ----------------------------------------------------------------------
_SPAN_KEYS = ("name", "depth", "start", "pid", "attrs")

#: Required fields per known structured-event kind.  Unknown kinds are
#: allowed (forward compatibility); known kinds missing their payload
#: are a validation failure — this is what keeps ``repro report
#: --validate`` honest about the event vocabulary the supervision and
#: artifact layers added after the original exporter.
_EVENT_REQUIRED_FIELDS = {
    "pool-fallback": ("reason", "items"),
    "supervisor-serial": ("reason", "items"),
    "task-timeout": ("index", "attempt", "timeout_seconds"),
    "task-retry": ("index", "attempt", "reason"),
    "task-degraded": ("index", "attempts", "reason"),
    "batch-requeued": ("worker", "items"),
    "artifact-corrupt": ("artifact", "path", "reason"),
    # Retired with the run journal; kept so older run logs validate.
    "task-resumed": ("index", "key"),
    "checkpoint": ("run_id", "key", "seq"),
    "prune-broadcast": ("entries", "source"),
}

_EVENT_LEVELS = ("info", "warning", "error")


def _validate_event(record: dict[str, Any], where: str) -> None:
    kind = record.get("kind")
    _require(isinstance(kind, str) and kind,
             f"{where} lacks a non-empty 'kind'")
    _require(record.get("level") in _EVENT_LEVELS,
             f"{where} level must be one of {_EVENT_LEVELS}")
    _require(isinstance(record.get("ts"), (int, float)),
             f"{where} lacks a numeric 'ts'")
    for field in _EVENT_REQUIRED_FIELDS.get(kind, ()):
        _require(field in record,
                 f"{where} ({kind!r} event) lacks {field!r}")


def validate_run_log_records(records: list[dict[str, Any]]) -> dict[str, int]:
    """Validate parsed run-log records; returns per-type counts."""
    _require(bool(records), "run log is empty")
    head, tail = records[0], records[-1]
    _require(head.get("type") == "run", "first record must have type 'run'")
    _require(head.get("version") == RUN_LOG_VERSION,
             f"run log version must be {RUN_LOG_VERSION}")
    _require(isinstance(head.get("name"), str), "run name must be a string")
    _require(tail.get("type") == "end", "last record must have type 'end'")
    counts: dict[str, int] = {}
    previous_depth = -1
    for i, record in enumerate(records):
        kind = record.get("type")
        _require(isinstance(kind, str), f"record {i} lacks a 'type'")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "span":
            for key in _SPAN_KEYS:
                _require(key in record, f"span record {i} lacks {key!r}")
            depth = record["depth"]
            _require(isinstance(depth, int) and depth >= 0,
                     f"span record {i} depth must be a non-negative int")
            _require(depth <= previous_depth + 1,
                     f"span record {i} depth {depth} breaks pre-order "
                     f"(previous depth {previous_depth})")
            previous_depth = depth
        elif kind == "metrics":
            values = record.get("values")
            _require(isinstance(values, dict),
                     f"metrics record {i} lacks a 'values' object")
            for key, value in values.items():
                if isinstance(key, str) and key.startswith("synthsearch."):
                    _require(isinstance(value, (int, float))
                             and not isinstance(value, bool),
                             f"metrics record {i} key {key!r} must be "
                             f"numeric")
        elif kind == "event":
            _validate_event(record, f"event record {i}")
    _require(counts.get("run", 0) == 1, "expected exactly one 'run' record")
    _require(counts.get("end", 0) == 1, "expected exactly one 'end' record")
    _require(counts.get("metrics", 0) == 1,
             "expected exactly one 'metrics' record")
    _require(counts.get("span", 0) > 0, "run log contains no span records")
    return counts


def validate_run_log(path) -> dict[str, int]:
    try:
        records = load_run_log(path)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSONL: {exc}") from exc
    return validate_run_log_records(records)


# ----------------------------------------------------------------------
# Live-plane status snapshots
# ----------------------------------------------------------------------
def validate_status_data(data: Any) -> dict[str, int]:
    """Validate a parsed ``status.json`` snapshot; returns counts."""
    _require(isinstance(data, dict), "status must be a JSON object")
    _require(data.get("version") == STATUS_VERSION,
             f"status version must be {STATUS_VERSION}")
    _require(isinstance(data.get("run_id"), str) and data["run_id"],
             "status lacks a run_id")
    _require(isinstance(data.get("pid"), int), "status pid must be an int")
    _require(isinstance(data.get("state"), str), "status lacks a state")
    for key in ("started", "updated"):
        _require(isinstance(data.get(key), (int, float)),
                 f"status {key} must be a number")
    tasks = data.get("tasks")
    _require(isinstance(tasks, dict), "status lacks a 'tasks' object")
    for name, value in tasks.items():
        _require(isinstance(value, int) and value >= 0,
                 f"status tasks[{name!r}] must be a non-negative int")
    workers = data.get("workers", [])
    _require(isinstance(workers, list), "status workers must be a list")
    for i, worker in enumerate(workers):
        _require(isinstance(worker, dict) and "ident" in worker
                 and isinstance(worker.get("busy"), bool),
                 f"status workers[{i}] lacks ident/busy")
    events = data.get("events", [])
    _require(isinstance(events, list), "status events must be a list")
    for i, record in enumerate(events):
        _validate_event(record, f"status events[{i}]")
    return {"workers": len(workers), "events": len(events),
            "snapshots": int(data.get("snapshots", 0))}


def validate_status(path) -> dict[str, int]:
    with open(path) as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    return validate_status_data(data)


# ----------------------------------------------------------------------
# Cross-run ledger
# ----------------------------------------------------------------------
def validate_ledger_records(
        records: list[dict[str, Any]]) -> dict[str, int]:
    """Validate parsed ledger records; returns record counts."""
    _require(bool(records), "ledger is empty")
    for i, record in enumerate(records):
        where = f"ledger record {i}"
        _require(isinstance(record, dict), f"{where} must be an object")
        _require(record.get("v") == LEDGER_VERSION,
                 f"{where} version must be {LEDGER_VERSION}")
        _require(isinstance(record.get("run_id"), str) and record["run_id"],
                 f"{where} lacks a run_id")
        _require(isinstance(record.get("command"), str),
                 f"{where} lacks a command")
        for key in ("flags", "verdict", "counters", "stage_seconds"):
            _require(isinstance(record.get(key), dict),
                     f"{where} {key!r} must be an object")
        digest = record.get("verdict_digest")
        _require(isinstance(digest, str) and len(digest) == 16,
                 f"{where} verdict_digest must be a 16-char digest")
    return {"records": len(records)}


def validate_ledger(path) -> dict[str, int]:
    from repro.obs import ledger as ledger_mod

    records, skipped = ledger_mod.load(path)
    _require(skipped == 0,
             f"{path}: {skipped} unparseable ledger line(s)")
    return validate_ledger_records(records)


def _validator_for(path: str):
    name = str(path)
    base = name.rsplit("/", 1)[-1]
    if base == "status.json" or base.endswith(".status.json"):
        return validate_status
    if base.endswith("ledger.jsonl"):
        return validate_ledger
    if name.endswith(".jsonl"):
        return validate_run_log
    return validate_chrome_trace


def main(argv: list[str] | None = None) -> int:
    """Validate each path by name: ``status.json`` = live snapshot,
    ``*ledger.jsonl`` = ledger, other ``.jsonl`` = run log, else trace."""
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.validate ARTIFACT...",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            counts = _validator_for(path)(path)
        except (OSError, ValidationError) as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            status = 1
        else:
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            print(f"ok {path}: {summary}")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
