"""Chrome-trace export of a parallel (batch-scheduled) run.

The batch scheduler has no real parent process span per dispatch — the
``scheduler.batch`` spans are synthesized from the worker's idle report
and the ``item[i]`` subtrees are grafted back from worker captures.
The exported trace must still read coherently: every item subtree lands
on its worker's pid row, inside a synthesized batch span.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate


@pytest.fixture(scope="module")
def batch_trace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("batch-trace")
    trace = tmp_path / "trace.json"
    log = tmp_path / "run.jsonl"
    assert main(["sweep", "sum-not-two", "--up-to", "6", "--jobs", "2",
                 "--trace", str(trace),
                 "--log-json", str(log), "--cache-dir", str(tmp_path),
                 "--no-cache", "--no-live", "--no-ledger"]) == 1
    assert validate.validate_chrome_trace(trace)["X"] >= 3
    assert validate.validate_run_log(log)
    return json.loads(trace.read_text())


def _complete_events(data):
    return [e for e in data["traceEvents"] if e["ph"] == "X"]


def test_batch_schedule_emits_batch_spans(batch_trace):
    events = _complete_events(batch_trace)
    dispatch = next(e for e in events if e["name"] == "scheduler.map")
    assert dispatch["args"]["mode"] == "batch"
    batches = [e for e in events if e["name"] == "scheduler.batch"]
    assert batches, "no synthesized scheduler.batch spans in the trace"
    for batch in batches:
        assert batch["args"]["items"] >= 1
        assert "worker" in batch["args"]
    items = [e for e in events if e["name"].startswith("item[")]
    assert len(items) == 5  # K = 2..6
    assert sum(b["args"]["items"] for b in batches) == len(items)


def test_item_subtrees_nest_inside_their_batch(batch_trace):
    events = _complete_events(batch_trace)
    batches = [e for e in events if e["name"] == "scheduler.batch"]
    items = [e for e in events if e["name"].startswith("item[")]
    slack_us = 20_000  # clocks: batch bounds come from the parent
    for item in items:
        same_pid = [b for b in batches if b["pid"] == item["pid"]]
        assert same_pid, (
            f"{item['name']} on pid {item['pid']} has no batch span row")
        assert any(
            b["ts"] - slack_us <= item["ts"]
            and item["ts"] + item["dur"] <= b["ts"] + b["dur"] + slack_us
            for b in same_pid), (
            f"{item['name']} does not nest inside any scheduler.batch "
            f"span on pid {item['pid']}")


def test_worker_rows_are_named(batch_trace):
    meta = [e for e in batch_trace["traceEvents"] if e["ph"] == "M"]
    named_pids = {e["pid"] for e in meta
                  if e["name"] == "process_name"}
    item_pids = {e["pid"] for e in _complete_events(batch_trace)
                 if e["name"].startswith("item[")}
    assert item_pids <= named_pids
