"""Exporters: Chrome trace files, JSONL run logs, human tree reports.

Three renderings of one :class:`repro.obs.runtime.ObsRun`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Trace Event
  Format consumed by ``chrome://tracing`` and Perfetto: one complete
  (``"ph": "X"``) event per span, timestamps in microseconds relative
  to the run start, worker spans under their own ``pid`` rows.
* :func:`run_log_records` / :func:`write_run_log` — a JSONL event log:
  a ``run`` header, every span in pre-order with its depth and path,
  every structured event, one ``metrics`` record, and an ``end``
  footer with the wall time.  This is the machine-readable run report
  the CLI's ``--log-json`` writes and ``repro report`` renders.
* :func:`render_report` — the human tree view (span hierarchy with
  durations and attributes, then events and metrics).
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from repro.obs.runtime import ObsRun
from repro.obs.trace import Span

RUN_LOG_VERSION = 1


def _jsonify(value: Any) -> Any:
    """A JSON-safe rendering of one attribute value."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    return str(value)


# ----------------------------------------------------------------------
# Chrome trace format
# ----------------------------------------------------------------------
def chrome_trace(run: ObsRun) -> dict[str, Any]:
    """The run as a Trace Event Format document (JSON-ready dict)."""
    events: list[dict[str, Any]] = []
    base = min((span.start for _depth, span in run.walk()),
               default=run.started)
    pids: set[int] = set()
    for _depth, span in run.walk():
        pids.add(span.pid)
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((span.start - base) * 1e6, 3),
            "dur": round((span.duration or 0.0) * 1e6, 3),
            "pid": span.pid,
            "tid": 1,
            "args": _jsonify(span.attrs),
        })
    for pid in sorted(pids):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 1,
            "args": {"name": f"{run.name} [pid {pid}]"},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run": run.name,
            "attrs": _jsonify(run.attrs),
            "metrics": _jsonify(run.metrics.as_dict()),
        },
    }


def write_chrome_trace(path, run: ObsRun) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(run), handle, indent=1)
        handle.write("\n")


# ----------------------------------------------------------------------
# JSONL run log
# ----------------------------------------------------------------------
def run_log_records(run: ObsRun) -> Iterator[dict[str, Any]]:
    """The run as a flat record stream (one JSON object per line)."""
    yield {"type": "run", "version": RUN_LOG_VERSION, "name": run.name,
           "started": run.started, "attrs": _jsonify(run.attrs)}
    for depth, span in run.walk():
        yield {"type": "span", "name": span.name, "depth": depth,
               "start": span.start, "duration": span.duration,
               "pid": span.pid, "attrs": _jsonify(span.attrs)}
    for event in run.events:
        yield {"type": "event", **_jsonify(event)}
    yield {"type": "metrics", "values": _jsonify(run.metrics.as_dict())}
    yield {"type": "end", "wall_seconds": run.wall_seconds}


def write_run_log(path, run: ObsRun) -> None:
    with open(path, "w") as handle:
        for record in run_log_records(run):
            handle.write(json.dumps(record) + "\n")


def load_run_log(path) -> list[dict[str, Any]]:
    """Parse a JSONL run log back into its records.  A line that is not
    a JSON object raises :class:`ValueError` naming the line."""
    records = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"line {number} is not a JSON object")
            records.append(record)
    return records


# ----------------------------------------------------------------------
# Cross-run ledger records
# ----------------------------------------------------------------------
def ledger_record_from_run(run: ObsRun, run_id: str, *,
                           command: str,
                           verdict: dict[str, Any] | None = None,
                           **extra: Any) -> dict[str, Any]:
    """Fold a finished :class:`ObsRun` into one cross-run ledger record.

    The benchmark harness uses this to feed ``benchmarks/out/``'s
    ledger the same way the CLI feeds ``.repro-cache/ledger.jsonl``.
    Counter names are the registry's dotted metric names; ``stage.*``
    counters become the record's ``stage_seconds``.
    """
    from repro.obs import ledger

    counters: dict[str, Any] = {}
    stage_seconds: dict[str, float] = {}
    for name, value in run.metrics.as_dict().items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name.startswith("stage."):
            stage_seconds[name[len("stage."):]] = round(value, 6)
        else:
            counters[name] = value
    return ledger.make_record(
        run_id, command,
        protocol=run.attrs.get("protocol"),
        fingerprint=run.attrs.get("fingerprint"),
        verdict=verdict,
        wall_seconds=run.wall_seconds,
        started=run.started,
        counters=counters,
        stage_seconds=stage_seconds,
        **extra)


# ----------------------------------------------------------------------
# Human tree report
# ----------------------------------------------------------------------
def _format_attrs(attrs: dict[str, Any]) -> str:
    if not attrs:
        return ""
    inner = ", ".join(f"{key}={value}" for key, value in attrs.items())
    return f"  [{inner}]"


def _span_line(name: str, duration: float | None, depth: int,
               attrs: dict[str, Any]) -> str:
    ms = "?" if duration is None else f"{duration * 1e3:9.1f} ms"
    return f"{ms}  {'  ' * depth}{name}{_format_attrs(attrs)}"


def _cache_effectiveness_lines(metrics: dict[str, Any]) -> list[str]:
    """Hit/miss summaries of the two warm-start layers, from their
    dotted counters (empty when neither layer saw any traffic)."""
    lines: list[str] = []
    for label, prefix, hit_word, store_word in (
            ("results", "cache.", "hits", "stores"),
            ("artifacts", "artifacts.", "attached", "stored")):
        hits = metrics.get(f"{prefix}hits", 0)
        misses = metrics.get(f"{prefix}misses", 0)
        if not hits and not misses:
            continue
        rate = hits / (hits + misses)
        line = (f"  {label}: {hits} {hit_word} / {misses} misses "
                f"({rate:.0%} hit rate), "
                f"{metrics.get(f'{prefix}stores', 0)} {store_word}")
        corrupt = (metrics.get(f"{prefix}corrupt", 0)
                   or metrics.get(f"{prefix}corrupt_entries", 0))
        if corrupt:
            line += f", {corrupt} corrupt discarded"
        evictions = metrics.get(f"{prefix}evictions", 0)
        if evictions:
            line += f", {evictions} evicted"
        lines.append(line)
    if lines:
        lines.insert(0, "cache effectiveness:")
    return lines


def render_report(records: list[dict[str, Any]]) -> str:
    """Render run-log *records* (see :func:`run_log_records`) as text."""
    lines: list[str] = []
    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    wall = None
    for record in records:
        kind = record.get("type")
        if kind == "run":
            lines.append(f"== run: {record['name']} ==")
            for key, value in (record.get("attrs") or {}).items():
                lines.append(f"   {key}: {value}")
        elif kind == "span":
            lines.append(_span_line(record["name"], record.get("duration"),
                                    record.get("depth", 0),
                                    record.get("attrs") or {}))
        elif kind == "event":
            events.append(record)
        elif kind == "metrics":
            metrics = record.get("values") or {}
        elif kind == "end":
            wall = record.get("wall_seconds")
    if events:
        lines.append("events:")
        for record in events:
            detail = {k: v for k, v in record.items()
                      if k not in ("type", "ts", "kind", "level", "pid")}
            lines.append(f"  [{record.get('level', 'info')}] "
                         f"{record.get('kind')}"
                         + (f" {detail}" if detail else ""))
    lines.extend(_cache_effectiveness_lines(metrics))
    if metrics:
        lines.append("metrics:")
        for name in sorted(metrics):
            lines.append(f"  {name} = {metrics[name]}")
    if wall is not None:
        lines.append(f"wall time: {wall * 1e3:.1f} ms")
    return "\n".join(lines)


def render_run(run: ObsRun) -> str:
    """Render a live :class:`ObsRun` (finishing its wall clock)."""
    run.finish()
    return render_report(list(run_log_records(run)))
