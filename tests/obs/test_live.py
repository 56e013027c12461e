"""The live telemetry plane: LiveRun snapshots, repro ps / repro top."""

import json
import os
import time

import pytest

from repro.checker.sweep import sweep_verify
from repro.cli import main
from repro.engine.supervisor import FAULT_ENV
from repro.obs import live, runtime as obs, validate
from repro.protocols import sum_not_two


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    assert live.active() is None
    yield
    if live.active() is not None:  # pragma: no cover - test bug guard
        live.deactivate(live.active())
        pytest.fail("a LiveRun leaked past its test")


# ----------------------------------------------------------------------
# LiveRun publisher
# ----------------------------------------------------------------------
def test_publish_writes_valid_snapshot(tmp_path):
    run = live.LiveRun(tmp_path, "r1", command="sweep")
    run.annotate(protocol="sum-not-two")
    run.begin_stage("sweep", total=5, resumed=2)
    run.note(done=1, retried=1)
    assert run.publish(force=True)
    status = live.load_status(tmp_path)
    assert validate.validate_status_data(status)
    assert status["run_id"] == "r1"
    assert status["command"] == "sweep"
    assert status["protocol"] == "sum-not-two"
    assert status["state"] == "running"
    # begin_stage pre-credits resumed items as done.
    assert status["tasks"] == {"total": 5, "done": 3, "in_flight": 0,
                               "retried": 1, "degraded": 0,
                               "resumed": 2, "requeued": 0}
    assert status["stage"]["name"] == "sweep"


def test_publish_rate_limited_and_forced(tmp_path):
    run = live.LiveRun(tmp_path, "r1", interval=3600.0)
    assert run.publish()          # first one is always due
    assert not run.publish()      # within the interval: suppressed
    assert run.publish(force=True)
    assert run.snapshots == 2


def test_tick_builds_payload_only_when_due(tmp_path):
    run = live.LiveRun(tmp_path, "r1", interval=3600.0)
    live.activate(run)
    try:
        calls = []

        def payload():
            calls.append(1)
            return {"workers": []}

        assert live.tick(payload)       # due: payload built, published
        assert not live.tick(payload)   # not due: payload NOT built
        assert len(calls) == 1
    finally:
        live.deactivate(run)


def test_snapshot_merges_nested_extra_dicts(tmp_path):
    run = live.LiveRun(tmp_path, "r1")
    run.note(total=4, done=1)
    doc = run.snapshot({"tasks": {"in_flight": 2},
                        "workers": [{"ident": 0, "busy": True}]})
    assert doc["tasks"]["done"] == 1          # existing keys kept
    assert doc["tasks"]["in_flight"] == 2     # nested dict merged
    assert doc["workers"] == [{"ident": 0, "busy": True}]


def test_finish_publishes_terminal_state(tmp_path):
    run = live.LiveRun(tmp_path, "r1", interval=3600.0)
    run.publish(force=True)
    run.finish(state="finished", exit_status=1)
    status = live.load_status(tmp_path)
    assert status["state"] == "finished"
    assert status["exit_status"] == 1
    assert live.liveness(status) == "finished"


def test_publish_swallows_io_errors(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("a file where the run directory should be")
    run = live.LiveRun(target / "sub", "r1")
    assert not run.publish(force=True)  # no raise


def test_active_plane_captures_warning_events(tmp_path):
    run = live.LiveRun(tmp_path, "r1")
    live.activate(run)
    try:
        obs.event("task-timeout", level="warning", index=3, attempt=1,
                  timeout_seconds=5)
        obs.event("checkpoint", level="info", run_id="r1", key="k",
                  seq=0)
    finally:
        live.deactivate(run)
    kinds = [e["kind"] for e in run.events]
    assert kinds == ["task-timeout"]  # info events stay out of the ring
    obs.event("task-timeout", level="warning", index=4, attempt=1,
              timeout_seconds=5)
    assert len(run.events) == 1       # sink unsubscribed on deactivate


def test_stall_threshold():
    assert live.stall_threshold(None) == float("inf")
    assert live.stall_threshold(0.01) == live.STALL_MIN_SECONDS
    assert live.stall_threshold(2.0) == 8.0


# ----------------------------------------------------------------------
# Reading the plane from outside
# ----------------------------------------------------------------------
def test_liveness_classification(tmp_path):
    now = time.time()
    running = {"state": "running", "updated": now, "pid": os.getpid()}
    assert live.liveness(running, now) == "live"
    dead_pid = dict(running, pid=2 ** 22 + 12345)
    assert live.liveness(dead_pid, now) == "stale"
    old = dict(running, updated=now - 2 * live.STALE_AFTER_SECONDS)
    assert live.liveness(old, now) == "stale"
    assert live.liveness({"state": "failed"}, now) == "failed"


def test_scan_runs_orders_and_skips_torn(tmp_path):
    for run_id, updated in (("a", 3.0), ("b", 1.0)):
        directory = tmp_path / run_id
        directory.mkdir()
        (directory / live.STATUS_NAME).write_text(json.dumps(
            {"run_id": run_id, "updated": updated}))
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / live.STATUS_NAME).write_text('{"run_id": "to')
    statuses = live.scan_runs(tmp_path)
    assert [s["run_id"] for s in statuses] == ["b", "a"]


def test_render_ps_and_top(tmp_path):
    now = time.time()
    status = {"run_id": "r1", "state": "finished", "command": "sweep",
              "protocol": "sum-not-two", "updated": now, "pid": 1,
              "started": now - 5.0, "snapshots": 3,
              "tasks": {"total": 4, "done": 2, "in_flight": 1,
                        "retried": 0, "degraded": 0},
              "stage": {"name": "sweep", "mean_task_seconds": 0.01,
                        "p95_task_seconds": 0.02, "eta_seconds": 0.5},
              "cache": {"results": {"hits": 3, "misses": 1,
                                    "rate": 0.75}},
              "workers": [
                  {"ident": 0, "pid": 11, "busy": True, "task": 7,
                   "age_seconds": 9.0, "stalled": True},
                  {"ident": 1, "pid": 12, "busy": False},
              ]}
    ps = live.render_ps([status], now)
    assert "RUN-ID" in ps and "r1" in ps and "2/4" in ps
    assert live.render_ps([], now).splitlines()[1] == "(no runs found)"
    top = live.render_top(status, now)
    assert "2/4 done" in top
    assert "10.0 ms/task" in top and "eta ~0.5 s" in top
    assert "results 75% hit (3/4)" in top
    assert "!! stalled" in top and "idle" in top


# ----------------------------------------------------------------------
# CLI: repro ps / repro top and the dispatcher's live plane
# ----------------------------------------------------------------------
def test_cli_sweep_publishes_and_ps_lists(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5",
                 "--cache-dir", str(tmp_path), "--no-cache"]) == 1
    capsys.readouterr()
    assert main(["ps", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "finished" in out and "sweep" in out and "sum-not-two" in out
    (run_dir,) = (tmp_path / "runs").iterdir()
    status = live.load_status(run_dir)
    assert validate.validate_status_data(status)
    assert status["tasks"]["done"] == status["tasks"]["total"] == 4

    assert main(["top", run_dir.name, "--cache-dir", str(tmp_path),
                 "--once"]) == 0
    top_out = capsys.readouterr().out
    assert "4/4 done" in top_out

    assert main(["top", run_dir.name, "--cache-dir", str(tmp_path),
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["run_id"] == run_dir.name


def test_cli_top_unknown_run_exits_2(tmp_path, capsys):
    assert main(["top", "nope", "--cache-dir", str(tmp_path)]) == 2
    assert "no status snapshot" in capsys.readouterr().err


def test_cli_no_live_publishes_nothing(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--no-live",
                 "--no-ledger", "--cache-dir", str(tmp_path),
                 "--no-cache"]) == 1
    assert not (tmp_path / "runs").exists()


def test_cli_checkpoint_run_shares_directory(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--checkpoint",
                 "--run-id", "shared", "--cache-dir", str(tmp_path)]) == 1
    run_dir = tmp_path / "runs" / "shared"
    # The directory holds only the live snapshot; the checkpointed
    # results are ordinary cache entries under the same root.
    assert [p.name for p in run_dir.iterdir()] == ["status.json"]
    assert len(list(tmp_path.glob("*/*.pkl"))) == 4
    status = live.load_status(run_dir)
    assert status["state"] == "finished"


def test_cli_failed_command_publishes_failed_state(tmp_path, capsys,
                                                   monkeypatch):
    # An error raised inside the command (here, a malformed fault plan
    # read by the dispatcher) ends the run in the failed state.
    monkeypatch.setenv(FAULT_ENV, "bogus:1")
    with pytest.raises(ValueError, match="bogus"):
        main(["sweep", "sum-not-two", "--up-to", "3",
              "--cache-dir", str(tmp_path)])
    (run_dir,) = (tmp_path / "runs").iterdir()
    assert live.load_status(run_dir)["state"] == "failed"
    assert live.active() is None


# ----------------------------------------------------------------------
# Differential: the plane observes, it never participates
# ----------------------------------------------------------------------
def _verdict_bytes(result) -> bytes:
    from repro.serialization import global_report_to_dict

    rows = []
    for report in result.reports:
        row = global_report_to_dict(report)
        row.pop("stats", None)
        rows.append(row)
    return json.dumps(rows, sort_keys=True).encode()


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_verdicts_identical_live_on_vs_off(tmp_path, jobs):
    protocol = sum_not_two()
    plain = sweep_verify(protocol, up_to=6, jobs=jobs)
    run = live.LiveRun(tmp_path, "diff", interval=0.0)
    live.activate(run)
    try:
        observed = sweep_verify(protocol, up_to=6, jobs=jobs)
    finally:
        run.finish()
        live.deactivate(run)
    assert _verdict_bytes(observed) == _verdict_bytes(plain)
    assert run.snapshots > 0
    status = live.load_status(tmp_path)
    assert validate.validate_status_data(status)
    assert status["tasks"]["done"] == 5
