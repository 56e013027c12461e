"""Exporter formats: the Chrome trace run file and its tree report."""

import json

import pytest

from repro.obs import export, runtime as obs, validate


@pytest.fixture()
def sample_run():
    with obs.run("sample", protocol="sum-not-two") as run_ctx:
        with obs.span("sweep", jobs=2):
            with obs.span("check", K=3):
                obs.metric("engine.work_items")
            obs.event("pool-fallback", level="warning", reason="no-fork",
                      items=1)
    return run_ctx


def test_chrome_trace_schema(sample_run, tmp_path):
    path = tmp_path / "trace.json"
    export.write_chrome_trace(path, sample_run)
    counts = validate.validate_chrome_trace(path)
    assert counts["X"] == 3  # sample + sweep + check
    assert counts["M"] >= 1  # process_name metadata

    data = json.loads(path.read_text())
    spans = {e["name"]: e for e in data["traceEvents"] if e["ph"] == "X"}
    # Children nest inside their parent on the timeline.
    # Starts are wall clock, durations are perf_counter deltas — the
    # two clocks can disagree by a few microseconds at this scale.
    assert spans["check"]["ts"] >= spans["sweep"]["ts"] - 10
    assert (spans["check"]["ts"] + spans["check"]["dur"]
            <= spans["sweep"]["ts"] + spans["sweep"]["dur"] + 10)
    assert spans["check"]["args"] == {"K": 3}
    assert data["otherData"]["metrics"]["engine.work_items"] == 1


def test_chrome_trace_holds_events_depths_and_wall_time(sample_run):
    data = export.chrome_trace(sample_run)
    assert validate.validate_chrome_trace_data(data) == {
        "X": 3, "i": 1, "M": 1}
    assert {e["ph"] for e in data["traceEvents"]} == {"X", "i", "M"}
    spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
    assert [(e["name"], e["depth"]) for e in spans] == [
        ("sample", 0), ("sweep", 1), ("check", 2)]
    [marker] = [e for e in data["traceEvents"] if e["ph"] == "i"]
    assert marker["name"] == "pool-fallback"
    assert marker["args"] == {"level": "warning", "reason": "no-fork",
                              "items": 1}
    assert marker["ts"] >= 0
    other = data["otherData"]
    assert other["run"] == "sample"
    assert other["started"] == sample_run.started
    assert other["wall_seconds"] == sample_run.wall_seconds > 0


def test_render_report_tree(sample_run):
    text = export.render_trace(export.chrome_trace(sample_run))
    assert "== run: sample ==" in text
    assert "sweep" in text and "check" in text
    assert "[warning] pool-fallback {'reason': 'no-fork', 'items': 1}" \
        in text
    assert "engine.work_items = 1" in text
    assert "wall time:" in text
    # Depth shows as indentation: check is deeper than sweep.
    sweep_line = next(l for l in text.splitlines() if "sweep" in l)
    check_line = next(l for l in text.splitlines() if "check" in l)
    indent = lambda line: len(line) - len(line.lstrip())  # noqa: E731
    assert indent(check_line) == indent(sweep_line)  # same ms column
    assert check_line.index("check") > sweep_line.index("sweep")


def test_cache_effectiveness_renders_the_result_cache_only():
    # Traces written while the artifact plane existed carry artifacts.*
    # counters: they stay listed under metrics, but no artifacts row
    # reads as a live warm-start layer.
    with obs.run("cached") as run_ctx:
        obs.metric("cache.hits", 3)
        obs.metric("cache.misses")
        obs.metric("cache.stores")
        obs.metric("artifacts.hits", 2)
        obs.metric("artifacts.misses")
    lines = export.render_trace(export.chrome_trace(run_ctx)).splitlines()
    start = lines.index("cache effectiveness:")
    assert lines[start + 1] == \
        "  results: 3 hits / 1 misses (75% hit rate), 1 stores"
    assert lines[start + 2] == "metrics:"
    assert "  artifacts.hits = 2" in lines


def test_rendered_spans_follow_the_walk_at_its_depths():
    # A serial traced analysis: the report's span lines are the run's
    # walk, line for line, each indented by its tree depth.
    from repro.core.convergence import verify_convergence
    from repro.protocols import stabilizing_sum_not_two

    with obs.run("verify") as run_ctx:
        verify_convergence(stabilizing_sum_not_two())
    walk = [(depth, span.name) for depth, span in run_ctx.walk()]
    assert len(walk) > 3 and max(depth for depth, _ in walk) >= 2
    lines = export.render_trace(export.chrome_trace(run_ctx)).splitlines()
    assert lines[0] == "== run: verify =="
    span_lines = lines[1:1 + len(walk)]
    ms_column = len("      0.0 ms  ")
    assert [line[ms_column:].split("  [")[0] for line in span_lines] \
        == ["  " * depth + name for depth, name in walk]
    assert lines[1 + len(walk)] in ("events:", "metrics:")


def test_validator_rejects_malformed_artifacts(tmp_path):
    bad_trace = tmp_path / "bad.json"
    bad_trace.write_text(json.dumps({"traceEvents": [{"ph": "X"}]}))
    with pytest.raises(validate.ValidationError):
        validate.validate_chrome_trace(bad_trace)

    span = {"ph": "X", "name": "s", "pid": 1, "tid": 1, "ts": 0, "dur": 1,
            "args": {}}
    for events, complaint in [
        ([dict(span, depth=1)], "breaks pre-order"),
        ([dict(span, depth=-1)], "non-negative int"),
        ([span, {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0,
                 "args": {"level": "loud"}}], "level"),
        ([span, {"ph": "i", "name": "task-retry", "pid": 1, "tid": 1,
                 "ts": 0, "args": {"level": "warning"}}], "'index'"),
        ([span, {"ph": "i", "name": "x", "pid": 1, "tid": 1,
                 "args": {"level": "info"}}], "ts"),
        ([span, {"ph": "B", "name": "x", "pid": 1, "tid": 1}], "ph"),
        ([span, {"ph": ["X"], "name": "x", "pid": 1, "tid": 1}], "ph"),
    ]:
        with pytest.raises(validate.ValidationError, match=complaint):
            validate.validate_chrome_trace_data({"traceEvents": events})
    for other, complaint in [
        ({"run": 7}, "otherData.run"),
        ({"wall_seconds": "1"}, "otherData.wall_seconds"),
        ({"metrics": {"synthsearch.combos_pruned": "4"}}, "numeric"),
    ]:
        with pytest.raises(validate.ValidationError, match=complaint):
            validate.validate_chrome_trace_data(
                {"traceEvents": [span], "otherData": other})

    bad_log = tmp_path / "bad.jsonl"
    bad_log.write_text(json.dumps({"type": "span", "name": "x"}) + "\n")
    with pytest.raises(validate.ValidationError):
        validate.validate_chrome_trace(bad_log)

    assert validate.main([str(bad_trace), str(bad_log)]) == 1


def test_validator_main_accepts_good_artifacts(sample_run, tmp_path):
    trace = tmp_path / "t.json"
    export.write_chrome_trace(trace, sample_run)
    assert validate.main([str(trace)]) == 0


# ----------------------------------------------------------------------
# event-kind vocabulary
# ----------------------------------------------------------------------
def _event(kind, **fields):
    return {"type": "event", "ts": 1.0, "kind": kind, "level": "warning",
            **fields}


@pytest.mark.parametrize("kind,fields", [
    ("task-timeout", {"index": 0, "attempt": 1, "timeout_seconds": 5}),
    # Older logs carry the retired backoff field; they still validate.
    ("task-retry", {"index": 0, "attempt": 1, "reason": "crash",
                    "delay_seconds": 0.1}),
    ("task-degraded", {"index": 0, "attempts": 3, "reason": "timeout"}),
    ("task-resumed", {"index": 0, "key": "k"}),
    ("checkpoint", {"run_id": "r", "key": "k", "seq": 0}),
    ("batch-requeued", {"worker": 1, "items": 2}),
    ("artifact-corrupt", {"artifact": "kernel", "path": "/x",
                          "reason": "truncated"}),
    ("supervisor-serial", {"reason": "jobs<=1", "items": 4}),
    ("some-future-kind", {}),  # unknown kinds pass (forward compat)
])
def test_event_vocabulary_accepts_complete_events(kind, fields):
    validate._validate_event(_event(kind, **fields), "event")


def test_task_retry_needs_no_delay_seconds():
    # A retry goes straight back on the queue: there is no delay to log.
    validate._validate_event(
        _event("task-retry", index=0, attempt=1, reason="worker-died"),
        "event")


@pytest.mark.parametrize("record,complaint", [
    (_event("task-timeout", index=0, attempt=1), "timeout_seconds"),
    (_event("checkpoint", run_id="r", key="k"), "seq"),
    (_event("batch-requeued", worker=1), "items"),
    ({"type": "event", "ts": 1.0, "kind": "x", "level": "loud"},
     "level"),
    ({"type": "event", "kind": "x", "level": "info"}, "ts"),
    ({"type": "event", "ts": 1.0, "level": "info"}, "kind"),
])
def test_event_vocabulary_rejects_incomplete_events(record, complaint):
    with pytest.raises(validate.ValidationError, match=complaint):
        validate._validate_event(record, "event")


def test_validator_main_dispatches_by_artifact_name(tmp_path):
    # status.json has no validator of its own: like any other name
    # but a ledger's, it is read as a trace.
    assert validate._validator_for("a/b/status.json") \
        is validate.validate_chrome_trace
    assert validate._validator_for(".repro-cache/ledger.jsonl") \
        is validate.validate_ledger
    assert validate._validator_for("out/bench.ledger.jsonl") \
        is validate.validate_ledger
    assert validate._validator_for("run.jsonl") \
        is validate.validate_chrome_trace
    assert validate._validator_for("trace.json") \
        is validate.validate_chrome_trace
