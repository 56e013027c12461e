"""Schema validation for exported observability artifacts.

Used by the test suite and the CI smoke job (as
``python -m repro.obs.validate trace.json ledger.jsonl``) to check that
a ``--trace`` file is a valid Chrome trace holding a well-formed run
(span tree, events, metrics, wall time) and ``ledger.jsonl`` holds
well-formed run records, without pulling in a JSON-schema dependency.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from repro.obs.ledger import LEDGER_VERSION


class ValidationError(ValueError):
    """An artifact does not match the expected schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def load_json(path) -> Any:
    """Parse one JSON artifact; a :class:`ValidationError` if it is
    not JSON."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except ValueError as exc:  # undecodable text, too
            raise ValidationError(f"not valid JSON: {exc}") from exc


# ----------------------------------------------------------------------
# Structured events (trace markers)
# ----------------------------------------------------------------------
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
    # Retired with the run journal; kept so older traces validate.
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


# ----------------------------------------------------------------------
# Chrome trace files
# ----------------------------------------------------------------------
_NUMBER = (int, float)

#: ``otherData`` keys a ``repro`` trace writes, with their types.  Each
#: is checked where present: other writers' traces (the e2e harness's)
#: carry none of them.
_RUN_KEYS = {"run": (str, "a string"),
             "attrs": (dict, "an object"),
             "started": (_NUMBER, "a number"),
             "wall_seconds": ((*_NUMBER, type(None)), "a number or null"),
             "metrics": (dict, "an object")}


def _validate_run_data(other: Any) -> None:
    _require(isinstance(other, dict), "otherData must be an object")
    for key, (kind, expected) in _RUN_KEYS.items():
        if key in other:
            _require(isinstance(other[key], kind),
                     f"otherData.{key} must be {expected}")
    for key, value in (other.get("metrics") or {}).items():
        if key.startswith("synthsearch."):
            _require(isinstance(value, _NUMBER)
                     and not isinstance(value, bool),
                     f"otherData.metrics key {key!r} must be numeric")


def validate_chrome_trace_data(data: Any) -> dict[str, int]:
    """Validate a parsed Chrome trace document; returns event counts
    per phase: ``X`` spans, ``i`` structured events, ``M`` metadata."""
    _require(isinstance(data, dict), "trace root must be a JSON object")
    events = data.get("traceEvents")
    _require(isinstance(events, list), "traceEvents must be a list")
    counts = {"X": 0, "i": 0, "M": 0}
    previous_depth = -1
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        _require(isinstance(event, dict), f"{where} must be an object")
        phase = event.get("ph")
        _require(phase in ("X", "i", "M"),
                 f"{where}.ph must be 'X', 'i' or 'M'")
        _require(isinstance(event.get("name"), str),
                 f"{where}.name must be a string")
        _require(isinstance(event.get("pid"), int),
                 f"{where}.pid must be an int")
        _require(isinstance(event.get("tid"), int),
                 f"{where}.tid must be an int")
        if phase != "M":
            _require(isinstance(event.get("args"), dict),
                     f"{where}.args must be an object")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                _require(isinstance(value, _NUMBER) and value >= 0,
                         f"{where}.{key} must be a non-negative number")
            if "depth" in event:
                depth = event["depth"]
                _require(isinstance(depth, int) and depth >= 0,
                         f"{where}.depth must be a non-negative int")
                _require(depth <= previous_depth + 1,
                         f"{where}.depth {depth} breaks pre-order "
                         f"(previous depth {previous_depth})")
                previous_depth = depth
        elif phase == "i":
            _validate_event({**event["args"], "kind": event["name"],
                             "ts": event.get("ts")}, where)
        counts[phase] += 1
    _require(counts["X"] > 0, "trace contains no complete ('X') span events")
    if "otherData" in data:
        _validate_run_data(data["otherData"])
    return counts


def validate_chrome_trace(path) -> dict[str, int]:
    return validate_chrome_trace_data(load_json(path))


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
    if str(path).endswith("ledger.jsonl"):
        return validate_ledger
    return validate_chrome_trace


def main(argv: list[str] | None = None) -> int:
    """Validate each path by name: ``*ledger.jsonl`` = ledger, anything
    else = Chrome trace."""
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
