"""Resuming from the result cache, the only durable store.

The dispatcher writes every finished work item through to the cache, so
a rerun answers whatever a killed run finished.  That only works if
every writer stores one value shape per key kind (``repro check``, the
in-order sweep loop and the dispatcher all store bare reports under the
sweep key), and if the CLI turns the cache on, durably, exactly when
``--checkpoint`` / ``--resume`` ask for it — and never for ``--run-id``
alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checker.convergence import GlobalReport
from repro.checker.sweep import _sweep_key
from repro.cli import main
from repro.engine import ResultCache
from repro.obs import ledger
from repro.protocols import stabilizing_sum_not_two

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _no_ambient_fault_injection(monkeypatch):
    monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)


def _quiet(cache_dir) -> list[str]:
    return ["--cache-dir", str(cache_dir), "--no-live", "--no-ledger"]


# ----------------------------------------------------------------------
# one value shape per key kind
# ----------------------------------------------------------------------
def test_check_entry_answers_a_parallel_sweep(tmp_path, capsys):
    assert main(["check", "sum-not-two-ss", "-K", "4"]
                + _quiet(tmp_path)) == 0
    capsys.readouterr()
    assert main(["sweep", "sum-not-two-ss", "--up-to", "4", "--jobs", "2"]
                + _quiet(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "cache 1 hits / 2 misses" in out  # K=4 from the check


def test_parallel_sweep_entries_answer_the_serial_loop_and_check(
        tmp_path, capsys):
    assert main(["sweep", "sum-not-two-ss", "--up-to", "5", "--jobs", "2"]
                + _quiet(tmp_path)) == 0
    parallel = capsys.readouterr().out
    entry = ResultCache(tmp_path).get(
        _sweep_key(stabilizing_sum_not_two(), 5))
    assert isinstance(entry, GlobalReport)  # never (report, elapsed)

    assert main(["sweep", "sum-not-two-ss", "--up-to", "5"]
                + _quiet(tmp_path)) == 0
    serial = capsys.readouterr().out
    assert "cache 4 hits / 0 misses" in serial
    assert parallel.count("ok (") == serial.count("ok (") == 4

    assert main(["check", "sum-not-two-ss", "-K", "5"]
                + _quiet(tmp_path)) == 0
    assert "cache: 1 hits (1 from disk), 0 misses" \
        in capsys.readouterr().out


# ----------------------------------------------------------------------
# --checkpoint, --resume and --run-id
# ----------------------------------------------------------------------
def test_resume_with_another_protocol_gives_its_own_verdicts(
        tmp_path, capsys):
    common = ["--cache-dir", str(tmp_path), "--no-ledger"]
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--checkpoint",
                 "--run-id", "first"] + common) == 1
    capsys.readouterr()
    # Keys are content-addressed: nothing of run 'first' applies.
    assert main(["sweep", "sum-not-two-ss", "--up-to", "5", "--resume",
                 "first"] + common) == 0
    out = capsys.readouterr().out
    assert "self-stabilizing throughout" in out
    assert "cache 0 hits / 4 misses" in out


def test_mismatched_resume_leaves_the_named_run_resumable(tmp_path,
                                                          capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--checkpoint",
                 "--run-id", "first"] + _quiet(tmp_path)) == 1
    assert main(["sweep", "sum-not-two-ss", "--up-to", "5", "--resume",
                 "first"] + _quiet(tmp_path)) == 0
    capsys.readouterr()
    # The other protocol's entries sit beside run 'first''s, not over
    # them: resuming the original analysis still answers every size.
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--resume",
                 "first"] + _quiet(tmp_path)) == 1
    assert "cache 4 hits / 0 misses" in capsys.readouterr().out


def test_run_id_alone_does_not_checkpoint(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the default cache root
    for run_id in ("first", "second"):
        assert main(["sweep", "sum-not-two", "--up-to", "5",
                     "--run-id", run_id]) == 1
        out = capsys.readouterr().out
        assert "4 work items" in out
        assert "cache 0 hits / 0 misses" in out
    assert list(tmp_path.rglob("*.pkl")) == []
    records, _ = ledger.load(ledger.ledger_path(tmp_path / ".repro-cache"))
    assert [r["run_id"] for r in records] == ["first", "second"]


def test_checkpoint_without_live_plane_is_resumable(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--checkpoint",
                 "--run-id", "quiet"] + _quiet(tmp_path)) == 1
    assert (tmp_path / "runs" / "quiet").is_dir()
    assert "--resume quiet" in capsys.readouterr().err
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--resume",
                 "quiet"] + _quiet(tmp_path)) == 1
    assert "cache: 4 hits (4 from disk)" in capsys.readouterr().out


def test_resume_unknown_run_is_refused(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--resume",
                 "missing", "--cache-dir", str(tmp_path)]) == 2
    assert "no run 'missing'" in capsys.readouterr().err
    # Refused before the live plane could create the directory.
    assert not (tmp_path / "runs" / "missing").exists()


@pytest.mark.parametrize("flag", [["--checkpoint"], ["--resume", "x"]])
def test_no_cache_conflicts_with_checkpointing(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as raised:
        main(["sweep", "sum-not-two", "--up-to", "5", "--no-cache",
              "--cache-dir", str(tmp_path)] + flag)
    assert raised.value.code == 2
    assert "--no-cache" in capsys.readouterr().err


def test_only_checkpointed_runs_write_durably(tmp_path, monkeypatch,
                                              capsys):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: synced.append(fd) or real_fsync(fd))
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--cache-dir",
                 str(tmp_path / "plain"), "--no-live"]) == 1
    assert synced == []
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--checkpoint",
                 "--run-id", "ckpt", "--cache-dir", str(tmp_path / "ckpt"),
                 "--no-live"]) == 1
    assert len(synced) >= 4  # at least one per checked size
    # The ledger identity is the command line's, not the cache state's.
    records, _ = ledger.load(ledger.ledger_path(tmp_path / "ckpt"))
    assert "cache" not in records[-1]["flags"]


def test_killed_fuzz_resumes_from_the_cache(tmp_path):
    argv = [sys.executable, "-m", "repro.cli", "fuzz", "--samples", "6",
            "--max-ring-size", "3", "--seed", "3", "--cache-dir",
            str(tmp_path), "--no-live", "--no-ledger"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    dying = subprocess.run(argv, capture_output=True, text=True,
                           timeout=120,
                           env=dict(env, REPRO_INJECT_FAULT="die-after:2"))
    assert dying.returncode == 70
    assert len(list(tmp_path.rglob("*.pkl"))) == 2
    rerun = subprocess.run(argv, capture_output=True, text=True,
                           timeout=120, env=env)
    assert rerun.returncode == 0, rerun.stderr
    assert "4 work items" in rerun.stdout
    assert "cache 2 hits / 4 misses" in rerun.stdout
