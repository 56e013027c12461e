"""The --trace flag, `repro report`, and --json stats."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_sweep_trace_validates(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    # sum-not-two (the unstabilized variant) diverges, hence exit 1 —
    # the trace must be written regardless of the verdict.
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--jobs", "2",
                 "--trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "wrote Chrome trace" in err and "run log" not in err

    trace_counts = validate.validate_chrome_trace(trace)
    assert trace_counts["X"] >= 3  # root + sweep + per-K checks

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
    assert data["otherData"]["wall_seconds"] > 0

    # The root span covers (almost) all recorded wall time.
    last_end = max(e["ts"] + e["dur"] for e in data["traceEvents"]
                   if e["ph"] == "X")
    assert root["dur"] >= 0.95 * (last_end - root["ts"])


@pytest.mark.skipif(not parallelism_available(),
                    reason="needs the fork start method")
def test_trace_of_a_retried_sweep_validates(tmp_path, capsys, monkeypatch):
    # The first size's worker dies once; its retry goes straight back on
    # the queue, and the trace's task-retry event must validate.
    monkeypatch.setenv(FAULT_ENV, "crash:0")
    trace = tmp_path / "trace.json"
    assert main(["sweep", "sum-not-two-ss", "--up-to", "4", "--jobs", "2",
                 "--trace", str(trace), "--cache-dir", str(tmp_path),
                 "--no-cache", "--no-ledger"]) == 0
    data = json.loads(trace.read_text())
    retries = [e for e in data["traceEvents"]
               if e["ph"] == "i" and e["name"] == "task-retry"]
    assert len(retries) == 1 and "delay_seconds" not in retries[0]["args"]
    capsys.readouterr()
    assert main(["report", "--validate", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
    assert "[warning] task-retry" in capsys.readouterr().out


@pytest.mark.skipif(not parallelism_available(),
                    reason="needs the fork start method")
def test_trace_counts_the_workers_that_ran(tmp_path, capsys):
    # Shutdown retires every worker; the trace still says two ran.
    trace = tmp_path / "trace.json"
    assert main(["sweep", "sum-not-two-ss", "--up-to", "9", "--jobs", "2",
                 "--trace", str(trace), "--no-cache",
                 "--no-ledger"]) == 0
    assert "8 work items" in capsys.readouterr().out
    metrics = json.loads(trace.read_text())["otherData"]["metrics"]
    assert metrics["scheduler.workers_started"] == 2


def test_report_into_a_closed_pipe_exits_quietly(tmp_path):
    # `repro report TRACE | head -1`: the reader goes away with most of
    # a >64 KiB report unwritten.
    events = [{"ph": "X", "name": f"span-{i:05d}-" + "x" * 40, "pid": 1,
               "tid": 0, "ts": i * 10, "dur": 5, "args": {}}
              for i in range(2000)]
    trace = tmp_path / "big.trace.json"
    trace.write_text(json.dumps({"traceEvents": events}))
    src = Path(__file__).resolve().parents[2] / "src"
    report = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "report", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert report.stdout.readline().startswith(b"== run:")
    report.stdout.close()
    status = report.wait(timeout=120)
    stderr = report.stderr.read().decode()
    report.stderr.close()
    assert status == 141, stderr
    assert "Traceback" not in stderr


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
    # The certificate dispatches nothing.
    assert stats["work_items"] == 0
    assert "engine.work_items" not in stats["metrics"]


def test_check_json_includes_stats(capsys):
    assert main(["check", "agreement-ss", "-K", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["stats"]["stage_seconds"]["check"] > 0


def test_report_renders_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["report", str(trace)]) == 0
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
    assert f"invalid trace {missing}" in capsys.readouterr().err


def _run_log(path):
    """A JSONL run log, the format ``--log-json`` used to write."""
    path.write_text(
        '{"type": "run", "version": 1, "name": "repro check"}\n'
        '{"type": "span", "name": "check", "depth": 0, "start": 0.0, '
        '"duration": 0.1, "pid": 1, "attrs": {}}\n'
        '{"type": "end", "wall_seconds": 0.1}\n')
    return path


def test_report_of_an_unparseable_run_log_is_an_error(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(["check", "agreement-ss", "-K", "4",
                 "--trace", str(trace)]) == 0
    log = _run_log(tmp_path / "run.jsonl")
    capsys.readouterr()
    # One bad file does not stop the report of the next.
    assert main(["report", str(log), str(trace)]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(f"invalid trace {log}: ") and "--trace" in line
    assert "== run: repro check ==" in captured.out


def test_report_validate_rejects_a_non_object_record(tmp_path, capsys):
    trace = tmp_path / "arr.json"
    trace.write_text('{"traceEvents": [[1, 2]]}\n')
    assert main(["report", "--validate", str(trace)]) == 1
    assert "traceEvents[0] must be an object" in capsys.readouterr().err


#: A trace shaped like the e2e harness's: X and M events over several
#: pids, no ``otherData``, and the harness's own wrapped-call
#: ``args.depth`` with spans listed in the order they ended.
HARNESS_TRACE = {"traceEvents": [
    {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
     "args": {"name": "verify sum-not-two-ss"}},
    {"ph": "X", "name": "op", "pid": 1, "tid": 0, "ts": 0, "dur": 1000,
     "args": {"key": "verify sum-not-two-ss"}},
    {"ph": "X", "name": "startup.interp", "pid": 1, "tid": 0, "ts": 0,
     "dur": 100, "args": {}},
    {"ph": "X", "name": "protocol.load", "pid": 1, "tid": 7, "ts": 150,
     "dur": 50, "args": {"depth": 0}},
    {"ph": "X", "name": "kernel.compile", "pid": 1, "tid": 7, "ts": 320,
     "dur": 30, "args": {"depth": 1}},
    {"ph": "X", "name": "core.verify", "pid": 1, "tid": 7, "ts": 300,
     "dur": 400, "args": {"depth": 0}},
    {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
     "args": {"name": "check 2-coloring -K 5"}},
    {"ph": "X", "name": "checker.check", "pid": 2, "tid": 7, "ts": 1300,
     "dur": 200, "args": {"depth": 0}},
    {"ph": "X", "name": "op", "pid": 2, "tid": 0, "ts": 1100, "dur": 900,
     "args": {"key": "check 2-coloring -K 5"}},
]}


def test_report_renders_a_trace_repro_did_not_write(tmp_path, capsys):
    trace = tmp_path / "harness.trace.json"
    trace.write_text(json.dumps(HARNESS_TRACE))
    assert main(["report", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"== run: {trace} =="
    names = [e["name"] for e in HARNESS_TRACE["traceEvents"]
             if e["ph"] == "X"]
    assert len(lines) == 1 + len(names)
    for name in names:
        assert any(f"  {name}" in line for line in lines[1:])

    def depth(name):
        line = next(line for line in lines[1:] if f"  {name}" in line)
        return len(line.split(" ms  ", 1)[1].split(name)[0]) // 2

    # Nested by time on each pid row, whatever the listing order.
    assert [depth(n) for n in ("op", "startup.interp", "core.verify",
                               "kernel.compile", "checker.check")] \
        == [0, 1, 1, 2, 1]
    assert main(["report", "--validate", str(trace)]) == 0


def test_report_rejects_a_truncated_trace_and_a_run_log(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(HARNESS_TRACE)[:200])
    for bad in (truncated, _run_log(tmp_path / "run.jsonl")):
        assert main(["report", str(bad)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"invalid trace {bad}: ")


@pytest.mark.parametrize("argv", [
    ["verify", "sum-not-two-ss"], ["check", "agreement-ss", "-K", "3"],
    ["sweep", "agreement-ss", "--up-to", "3"], ["fuzz", "--samples", "1"],
    ["synthesize", "sum-not-two"],
], ids=lambda argv: argv[0])
def test_log_json_is_gone(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--log-json", str(tmp_path / "run.jsonl")])
    assert exit_info.value.code == 2
    assert "--log-json" in capsys.readouterr().err


def test_no_obs_flags_leaves_runtime_untouched(capsys):
    assert main(["check", "agreement-ss", "-K", "3"]) == 0
    assert obs.active() is None
