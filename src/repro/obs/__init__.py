"""`repro.obs` — zero-dependency observability for the repro engine.

Hierarchical span tracing, a metrics registry with one associative
merge path, structured events, and exporters (Chrome trace format,
JSONL run logs, human tree reports).  Instrumented code uses the
ambient-run helpers re-exported here (``obs.span``, ``obs.metric``,
...); they are near-free no-ops unless a run was activated, which the
CLI's ``--trace`` / ``--log-json`` flags and the benchmark harness do.

Depends only on the standard library, by design: `repro.engine` (and
through it nearly every module) imports this package, so it must sit at
the bottom of the dependency graph.
"""

from repro import _lazy

__all__ = _lazy.exports(globals(), {
    "ledger": ("ledger",),
    "live": ("live", "LiveRun"),
    "export": (
        "chrome_trace",
        "ledger_record_from_run",
        "load_run_log",
        "render_report",
        "render_run",
        "run_log_records",
        "write_chrome_trace",
        "write_run_log",
    ),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "runtime": (
        "ChildCapture",
        "ObsRun",
        "active",
        "adopt_child",
        "annotate",
        "event",
        "finish",
        "fork_capture_begin",
        "fork_capture_end",
        "gauge",
        "metric",
        "run",
        "span",
        "start",
    ),
    "trace": ("Span", "Tracer"),
    "validate": (
        "ValidationError",
        "validate_chrome_trace",
        "validate_ledger",
        "validate_run_log",
        "validate_status",
    ),
})
