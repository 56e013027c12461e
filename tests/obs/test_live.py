"""The standalone ``status.json`` writer no command uses any more."""

import json

from repro.obs import live


def test_publish_writes_valid_snapshot(tmp_path):
    run = live.LiveRun(tmp_path, "r1", command="sweep")
    assert run.publish({"state": "running"})
    assert run.publish({"state": "finished"})
    # Each publish replaces the document whole, through a renamed
    # temporary file: no temporary is left behind.
    assert [p.name for p in tmp_path.iterdir()] == [live.STATUS_NAME]
    status = json.loads((tmp_path / live.STATUS_NAME).read_text())
    assert status["run_id"] == "r1"
    assert status["command"] == "sweep"
    assert status["state"] == "finished"
    assert status["started"] <= status["updated"]


def test_publish_swallows_io_errors(tmp_path):
    target = tmp_path / "not-a-dir"
    target.write_text("a file where the run directory should be")
    run = live.LiveRun(target / "sub", "r1")
    assert not run.publish()  # no raise
