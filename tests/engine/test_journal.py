"""Unit tests for :mod:`repro.engine.journal`.

The corruption cases matter most: a journal's normal failure mode is a
half-written last line after a hard kill, and the contract is "skip it
with a warning and re-execute that item", never "crash the resume".
"""

from __future__ import annotations

import re

import pytest

from repro.engine.cache import new_run_id, runs_root
from repro.engine.journal import JournalError, RunJournal, list_runs


def _make_run(tmp_path, run_id="run", entries=3, **meta):
    journal = RunJournal.create(tmp_path, run_id=run_id, **meta)
    for index in range(entries):
        journal.record(f"key-{index}", {"value": index})
    return journal


class TestRoundTrip:
    def test_create_record_resume(self, tmp_path):
        _make_run(tmp_path, entries=3)
        resumed = RunJournal.resume(tmp_path, "run")
        assert resumed.completed == {
            f"key-{i}": {"value": i} for i in range(3)}
        assert resumed.stats.entries_loaded == 3
        assert resumed.stats.corrupt_entries == 0
        assert len(resumed) == 3
        assert "key-1" in resumed
        assert "missing" not in resumed

    def test_duplicate_key_is_recorded_once(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="dupes")
        journal.record("key", 1)
        journal.record("key", 2)  # ignored: first write wins
        assert journal.completed["key"] == 1
        assert journal.stats.entries_recorded == 1
        assert RunJournal.resume(tmp_path, "dupes").completed == {"key": 1}

    def test_unpicklable_value_is_skipped_not_fatal(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="unpicklable")
        journal.record("bad", lambda: None)
        journal.record("good", 42)
        assert "bad" not in journal.completed
        assert RunJournal.resume(tmp_path, "unpicklable").completed == {
            "good": 42}

    def test_meta_is_persisted(self, tmp_path):
        _make_run(tmp_path, run_id="meta", entries=0,
                  command="sweep", fingerprint="abc123")
        resumed = RunJournal.resume(tmp_path, "meta")
        assert resumed.meta["command"] == "sweep"
        assert resumed.meta["fingerprint"] == "abc123"
        assert resumed.meta["format"] == 1


class TestCorruptionTolerance:
    def test_truncated_tail_is_skipped_with_warning(
            self, tmp_path, corrupt_checkpoint):
        journal = _make_run(tmp_path, entries=4)
        corrupt_checkpoint(journal, entry=-1, mode="truncate")
        with pytest.warns(RuntimeWarning, match="corrupt journal entry"):
            resumed = RunJournal.resume(tmp_path, "run")
        assert resumed.stats.entries_loaded == 3
        assert resumed.stats.corrupt_entries == 1
        assert "key-3" not in resumed  # will simply re-execute

    def test_tampered_payload_fails_the_hash_check(
            self, tmp_path, corrupt_checkpoint):
        journal = _make_run(tmp_path, entries=3)
        corrupt_checkpoint(journal, entry=1, mode="tamper")
        with pytest.warns(RuntimeWarning):
            resumed = RunJournal.resume(tmp_path, "run")
        assert resumed.stats.corrupt_entries == 1
        assert set(resumed.completed) == {"key-0", "key-2"}

    def test_garbage_line_is_skipped(self, tmp_path):
        journal = _make_run(tmp_path, entries=2)
        with open(journal.path, "ab") as handle:
            handle.write(b"this is not json\n")
        with pytest.warns(RuntimeWarning):
            resumed = RunJournal.resume(tmp_path, "run")
        assert resumed.stats.entries_loaded == 2
        assert resumed.stats.corrupt_entries == 1

    def test_recording_continues_after_corrupt_resume(
            self, tmp_path, corrupt_checkpoint):
        journal = _make_run(tmp_path, entries=2)
        corrupt_checkpoint(journal, entry=-1, mode="truncate")
        with pytest.warns(RuntimeWarning):
            resumed = RunJournal.resume(tmp_path, "run")
        resumed.record("key-1", {"value": 1})  # the re-executed item
        with pytest.warns(RuntimeWarning):  # the damaged line remains
            final = RunJournal.resume(tmp_path, "run")
        assert set(final.completed) == {"key-0", "key-1"}
        assert final.stats.corrupt_entries == 1


class TestGroupCommit:
    def test_default_interval_fsyncs_every_record(self, tmp_path):
        journal = _make_run(tmp_path, run_id="eager", entries=3)
        assert journal.stats.fsyncs == 3
        assert journal._pending == []

    def test_positive_interval_buffers_in_memory(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="lazy",
                                    flush_interval=60.0)
        for index in range(5):
            journal.record(f"key-{index}", index)
        # Nothing hit the disk yet: the file is still empty and a
        # resume from another process would see zero entries.
        assert journal.path.read_bytes() == b""
        assert journal.stats.fsyncs == 0
        assert len(journal._pending) == 5
        journal.flush()
        assert journal.stats.fsyncs == 1  # one sync for five records
        assert RunJournal.resume(tmp_path, "lazy").completed == {
            f"key-{i}": i for i in range(5)}

    def test_full_buffer_forces_a_commit(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="bounded",
                                    flush_interval=60.0,
                                    flush_max_entries=4)
        for index in range(4):
            journal.record(f"key-{index}", index)
        # The 4th record filled the buffer and committed despite the
        # 60 s interval — the loss window is bounded in entries too.
        assert journal.stats.fsyncs == 1
        assert journal._pending == []

    def test_mid_interval_kill_loses_only_the_uncommitted_window(
            self, tmp_path):
        # Simulate a hard kill: records 0-2 were flushed, records 3-4
        # sat in the buffer when the process died (the buffer is simply
        # never written — exactly what SIGKILL leaves behind).
        journal = RunJournal.create(tmp_path, run_id="killed",
                                    flush_interval=60.0)
        for index in range(3):
            journal.record(f"key-{index}", index)
        journal.flush()
        journal.record("key-3", 3)
        journal.record("key-4", 4)
        del journal  # hard kill: buffered tail abandoned, no flush

        resumed = RunJournal.resume(tmp_path, "killed")
        assert set(resumed.completed) == {"key-0", "key-1", "key-2"}
        assert resumed.stats.corrupt_entries == 0  # clean loss, no tear
        # The resumed run re-executes exactly the lost window.
        for key in ("key-3", "key-4"):
            if key not in resumed:
                resumed.record(key, int(key[-1]))
        assert set(RunJournal.resume(tmp_path, "killed").completed) == {
            f"key-{i}" for i in range(5)}

    def test_group_commit_coalesces_and_restores(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="grouped")
        with journal.group_commit(interval=60.0):
            for index in range(10):
                journal.record(f"key-{index}", index)
        assert journal.flush_interval == 0.0  # per-record mode restored
        assert journal.stats.fsyncs == 1
        assert journal.stats.entries_recorded == 10
        assert len(RunJournal.resume(tmp_path, "grouped")) == 10

    def test_group_commit_flushes_when_the_block_raises(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="raising")
        with pytest.raises(RuntimeError):
            with journal.group_commit(interval=60.0):
                journal.record("done-before-crash", 1)
                raise RuntimeError("worker failure propagating")
        # A parent that can unwind commits everything it recorded.
        assert RunJournal.resume(tmp_path, "raising").completed == {
            "done-before-crash": 1}

    def test_group_commit_respects_an_explicit_interval(self, tmp_path):
        journal = RunJournal.create(tmp_path, run_id="explicit",
                                    flush_interval=30.0)
        with journal.group_commit(interval=60.0):
            assert journal.flush_interval == 30.0  # left alone
            journal.record("key", 1)
        assert journal.flush_interval == 30.0  # and still left alone
        assert journal._pending == []  # but the exit flush still ran


class TestResumeGuards:
    def test_unknown_run_raises(self, tmp_path):
        _make_run(tmp_path, run_id="known")
        with pytest.raises(JournalError, match="known"):
            RunJournal.resume(tmp_path, "missing")

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        _make_run(tmp_path, run_id="pinned",
                  fingerprint="a" * 64)
        with pytest.raises(JournalError, match="different analysis"):
            RunJournal.resume(tmp_path, "pinned",
                              fingerprint="b" * 64)

    def test_matching_fingerprint_resumes(self, tmp_path):
        _make_run(tmp_path, run_id="pinned", fingerprint="a" * 64)
        resumed = RunJournal.resume(tmp_path, "pinned",
                                    fingerprint="a" * 64)
        assert len(resumed) == 3

    def test_unpinned_journal_accepts_any_fingerprint(self, tmp_path):
        _make_run(tmp_path, run_id="legacy")  # no fingerprint in meta
        resumed = RunJournal.resume(tmp_path, "legacy",
                                    fingerprint="c" * 64)
        assert len(resumed) == 3


class TestHelpers:
    def test_new_run_id_is_sortable_and_unique(self):
        first, second = new_run_id(), new_run_id()
        assert re.fullmatch(r"\d{8}-\d{6}-[0-9a-f]{6}", first)
        assert first != second

    def test_list_runs(self, tmp_path):
        assert list_runs(tmp_path) == []
        _make_run(tmp_path, run_id="20240101-000000-aaaaaa")
        _make_run(tmp_path, run_id="20240102-000000-bbbbbb")
        (tmp_path / "not-a-run").mkdir()  # no journal.jsonl: ignored
        assert list_runs(tmp_path) == ["20240101-000000-aaaaaa",
                                       "20240102-000000-bbbbbb"]

    def test_runs_root_defaults_to_cache_dir(self):
        from repro.engine import DEFAULT_CACHE_DIR

        assert runs_root() == runs_root(DEFAULT_CACHE_DIR)
        assert runs_root("/tmp/x").as_posix() == "/tmp/x/runs"
