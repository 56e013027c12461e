"""Exporters: the Chrome trace file and its human report.

A run's one file is its Chrome trace: :func:`chrome_trace` /
:func:`write_chrome_trace` render a :class:`repro.obs.runtime.ObsRun`
in the Trace Event Format that ``chrome://tracing`` and Perfetto open,
and :func:`render_trace` turns any such document back into the human
report ``repro report`` prints.  The document holds:

* one complete (``"ph": "X"``) event per span, in :meth:`ObsRun.walk`
  order, timestamps in microseconds relative to the run start, worker
  spans under their own ``pid`` rows.  ``args`` are the span's
  attributes; a top-level ``depth`` is its depth in the tracer's tree
  (a key of its own: other writers, like the e2e harness, put their own
  ``depth`` in ``args``);
* one instant (``"ph": "i"``) event per structured event, named by its
  kind, with its level and fields as ``args`` (a marker in Perfetto);
* one ``process_name`` metadata (``"ph": "M"``) event per pid;
* ``otherData``: the run's name, attributes, ``started`` epoch,
  ``wall_seconds`` and final metrics.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.runtime import ObsRun


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
    for depth, span in run.walk():
        pids.add(span.pid)
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "ts": round((span.start - base) * 1e6, 3),
            "dur": round((span.duration or 0.0) * 1e6, 3),
            "pid": span.pid,
            "tid": 1,
            "depth": depth,
            "args": _jsonify(span.attrs),
        })
    for record in run.events:
        pids.add(record["pid"])
        events.append({
            "name": record["kind"],
            "cat": "repro",
            "ph": "i",
            "ts": round((record["ts"] - base) * 1e6, 3),
            "pid": record["pid"],
            "tid": 1,
            "args": _jsonify({key: value for key, value in record.items()
                              if key not in ("ts", "kind", "pid")}),
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
            "started": run.started,
            "wall_seconds": run.wall_seconds,
            "metrics": _jsonify(run.metrics.as_dict()),
        },
    }


def write_chrome_trace(path, run: ObsRun) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(run), handle, indent=1)
        handle.write("\n")


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


def _span_tree(events: list[dict[str, Any]]) -> list[tuple[int, dict]]:
    """``(depth, event)`` for every ``X`` event, in tree pre-order.

    A trace whose spans all carry a tree ``depth`` is already in that
    order.  Any other trace is nested by time on each pid row: a span
    lies under every earlier span on its row that is still open when it
    starts.
    """
    spans = [event for event in events if event["ph"] == "X"]
    if all("depth" in event for event in spans):
        return [(event["depth"], event) for event in spans]
    tree: list[tuple[int, dict]] = []
    open_ends: list[float] = []
    row = None
    for event in sorted(spans, key=lambda e: (e["pid"], e["ts"], -e["dur"])):
        if event["pid"] != row:
            row, open_ends = event["pid"], []
        while open_ends and event["ts"] >= open_ends[-1]:
            open_ends.pop()
        tree.append((len(open_ends), event))
        open_ends.append(event["ts"] + event["dur"])
    return tree


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


def render_trace(data: dict[str, Any], source: str = "trace") -> str:
    """Render a (validated) Chrome trace document as text: the span
    tree, then events, cache effectiveness, metrics and wall time.  A
    trace without ``otherData`` is titled by *source*."""
    other = data.get("otherData") or {}
    events = data["traceEvents"]
    lines = [f"== run: {other.get('run', source)} =="]
    for key, value in (other.get("attrs") or {}).items():
        lines.append(f"   {key}: {value}")
    for depth, event in _span_tree(events):
        lines.append(_span_line(event["name"], event["dur"] / 1e6, depth,
                                event.get("args") or {}))
    markers = [event for event in events if event["ph"] == "i"]
    if markers:
        lines.append("events:")
        for marker in markers:
            detail = dict(marker["args"])
            level = detail.pop("level")
            lines.append(f"  [{level}] {marker['name']}"
                         + (f" {detail}" if detail else ""))
    metrics = other.get("metrics") or {}
    lines.extend(_cache_effectiveness_lines(metrics))
    if metrics:
        lines.append("metrics:")
        for name in sorted(metrics):
            lines.append(f"  {name} = {metrics[name]}")
    wall = other.get("wall_seconds")
    if wall is not None:
        lines.append(f"wall time: {wall * 1e3:.1f} ms")
    return "\n".join(lines)
