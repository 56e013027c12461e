"""The --trace/--log-json flags, `repro report`, and --json stats."""

import json

import pytest

from repro.cli import main
from repro.engine.pool import parallelism_available
from repro.engine.supervisor import FAULT_ENV
from repro.obs import runtime as obs, validate


@pytest.fixture(autouse=True)
def _no_leaked_run():
    assert obs.active() is None
    yield
    if obs.active() is not None:  # pragma: no cover - test bug guard
        obs.finish(obs.active())
        pytest.fail("CLI leaked an active observability run")


def test_sweep_trace_and_log_artifacts_validate(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    log = tmp_path / "run.jsonl"
    # sum-not-two (the unstabilized variant) diverges, hence exit 1 —
    # the artifacts must be written regardless of the verdict.
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--jobs", "2",
                 "--trace", str(trace), "--log-json", str(log)]) == 1
    err = capsys.readouterr().err
    assert "wrote Chrome trace" in err and "wrote run log" in err

    trace_counts = validate.validate_chrome_trace(trace)
    assert trace_counts["X"] >= 3  # root + sweep + per-K checks
    log_counts = validate.validate_run_log(log)
    assert log_counts["run"] == 1 and log_counts["end"] == 1
    assert log_counts["span"] == trace_counts["X"]

    data = json.loads(trace.read_text())
    names = [e["name"] for e in data["traceEvents"] if e["ph"] == "X"]
    assert names[0] == "repro sweep"
    assert "sweep" in names and "check" in names
    # The protocol fingerprint rides on the root span and the gauges.
    root = next(e for e in data["traceEvents"]
                if e["ph"] == "X" and e["name"] == "repro sweep")
    assert root["args"]["protocol"] == "sum-not-two"
    assert len(root["args"]["fingerprint"]) == 64  # sha-256 hex
    metrics = data["otherData"]["metrics"]
    assert metrics["protocol.name"] == "sum-not-two"
    assert metrics["protocol.fingerprint"] == root["args"]["fingerprint"]

    # The root span covers (almost) all recorded wall time.
    last_end = max(e["ts"] + e["dur"] for e in data["traceEvents"]
                   if e["ph"] == "X")
    assert root["dur"] >= 0.95 * (last_end - root["ts"])


@pytest.mark.skipif(not parallelism_available(),
                    reason="needs the fork start method")
def test_log_of_a_retried_sweep_validates(tmp_path, capsys, monkeypatch):
    # The first size's worker dies once; its retry goes straight back on
    # the queue, and the run log's task-retry event must validate.
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    log = tmp_path / "run.jsonl"
    assert main(["sweep", "sum-not-two-ss", "--up-to", "4", "--jobs", "2",
                 "--log-json", str(log), "--cache-dir", str(tmp_path),
                 "--no-cache", "--no-ledger"]) == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    retries = [r for r in records if r.get("kind") == "task-retry"]
    assert len(retries) == 1 and "delay_seconds" not in retries[0]
    capsys.readouterr()
    assert main(["report", "--validate", str(log)]) == 0


def test_trace_written_even_when_command_fails(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "matching-gouda-acharya", "-K", "5",
                 "--trace", str(trace)]) == 1
    assert validate.validate_chrome_trace(trace)["X"] >= 2


def test_verify_json_includes_stats(capsys):
    assert main(["verify", "agreement-ss", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    stats = data["stats"]
    assert "closure" in stats["stage_seconds"]
    assert "livelock" in stats["stage_seconds"]
    assert stats["total_seconds"] > 0
    assert stats["metrics"]["engine.work_items"] == stats["work_items"]


def test_check_json_includes_stats(capsys):
    assert main(["check", "agreement-ss", "-K", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["stage_seconds"]["check"] > 0


def test_report_renders_run_log(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--log-json", str(log)]) == 0
    capsys.readouterr()
    assert main(["report", str(log)]) == 0
    out = capsys.readouterr().out
    assert "== run: repro check ==" in out
    assert "check" in out
    assert "wall time:" in out


def test_report_validate_exit_codes(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", "--validate", str(trace)]) == 0
    assert "ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["report", "--validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_report_of_a_missing_run_log_is_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["report", str(missing)]) == 1
    assert f"invalid run log {missing}" in capsys.readouterr().err


def test_report_of_an_unparseable_run_log_is_an_error(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--log-json", str(log)]) == 0
    bad = tmp_path / "bad.jsonl"
    bad.write_text(log.read_text() + "not json\n")
    capsys.readouterr()
    # One bad file does not stop the report of the next.
    assert main(["report", str(bad), str(log)]) == 1
    captured = capsys.readouterr()
    assert f"invalid run log {bad}: line" in captured.err
    assert "== run: repro check ==" in captured.out


def test_report_validate_rejects_a_non_object_record(tmp_path, capsys):
    log = tmp_path / "arr.jsonl"
    log.write_text('[1, 2]\n{"type": "end"}\n')
    assert main(["report", "--validate", str(log)]) == 1
    assert "line 1 is not a JSON object" in capsys.readouterr().err


def test_no_obs_flags_leaves_runtime_untouched(capsys):
    assert main(["check", "agreement-ss", "-K", "3"]) == 0
    assert obs.active() is None
