"""Run journals: durable per-item checkpoints for resumable runs.

A long sweep or synthesis run dies for boring reasons — a machine
reboot, an OOM kill of the whole process tree, a Ctrl-C — and without a
journal every completed per-K check dies with it.  A :class:`RunJournal`
records each completed work item as one appended line under
``.repro-cache/runs/<run-id>/``, flushed and fsynced before the
supervisor moves on, so ``repro sweep --resume <run-id>`` can skip
exactly the items that finished and re-execute only the rest.

The journal mirrors the result cache's trust model
(:mod:`repro.engine.cache`): every entry is self-verifying (the line
stores the SHA-256 of the pickled payload), and a truncated, bit-rotted
or hand-edited line — the expected state after a hard kill mid-append —
is skipped with a :class:`RuntimeWarning` and counted, never raised.
Keys are the same content-addressed digests produced by
:func:`repro.engine.fingerprint.analysis_key`, so a journal can never
resurrect a result for a protocol or parameter set other than the one
that produced it; ``meta.json`` additionally pins the run's analysis
fingerprint and :meth:`RunJournal.resume` refuses a mismatch outright.

Durability is a dial, not a constant.  With the default
``flush_interval = 0`` every :meth:`RunJournal.record` writes and
fsyncs before returning — the PR 5 contract, one disk sync per work
item.  The batch scheduler completes micro-tasks far faster than a
disk can sync, so :meth:`RunJournal.group_commit` raises the interval
for the duration of a batched run: records accumulate in memory and
are committed together (on the interval, on a full buffer, and always
by the explicit :meth:`flush` on run end).  A hard kill mid-interval
loses at most that uncommitted window; resume simply re-executes the
lost items, so verdicts never change — only how much work a crash can
waste.

Layout::

    .repro-cache/runs/<run-id>/
        meta.json        # run identity: command, fingerprint, created
        journal.jsonl    # one completed work item per line
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.engine.cache import new_run_id
from repro.errors import JournalError
from repro.obs import runtime as obs

#: Journal lines carry a format version so a future layout change can
#: keep reading old runs.
_FORMAT_VERSION = 1

#: Fsync coalescing window used by :meth:`RunJournal.group_commit` when
#: the caller does not pick one (~the batch scheduler's target batch
#: duration, so a batch of completions costs about one sync).
DEFAULT_GROUP_COMMIT_SECONDS = 0.05

#: A full buffer forces a commit regardless of the interval, bounding
#: the loss window in entries as well as in seconds.
GROUP_COMMIT_MAX_ENTRIES = 128


@dataclass
class JournalStats:
    """Counters of one journal's lifetime (loading and appending)."""

    entries_loaded: int = 0
    entries_recorded: int = 0
    corrupt_entries: int = 0
    fsyncs: int = 0

    def summary(self) -> str:
        return (f"journal: {self.entries_loaded} entries resumed, "
                f"{self.entries_recorded} recorded, "
                f"{self.corrupt_entries} corrupt entries skipped, "
                f"{self.fsyncs} fsyncs")


def list_runs(root: str | Path,
              require_journal: bool = True) -> list[str]:
    """Run ids found under *root*, newest last (lexicographic order —
    ids start with a timestamp).

    By default only journaled (resumable) runs are listed; with
    ``require_journal=False`` any run directory counts — ad-hoc runs
    publish a live ``status.json`` but no journal, and ``repro ps``
    must see them too.
    """
    directory = Path(root)
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.iterdir()
                  if (p / "journal.jsonl").exists()
                  or (not require_journal and p.is_dir()))


@dataclass
class RunJournal:
    """Append-only checkpoint log of one supervised run.

    Use :meth:`create` for a fresh run and :meth:`resume` to reload a
    prior run's completed items; both return a journal ready for
    :meth:`record` calls.  ``completed`` maps journal keys to their
    recorded values, in completion order.
    """

    directory: Path
    run_id: str
    meta: dict[str, Any] = field(default_factory=dict)
    completed: dict[str, Any] = field(default_factory=dict)
    stats: JournalStats = field(default_factory=JournalStats)
    flush_interval: float = 0.0
    """Seconds between durable commits: ``0`` (the default) fsyncs on
    every :meth:`record`; a positive interval coalesces — see
    :meth:`group_commit` and :meth:`flush`."""
    flush_max_entries: int = GROUP_COMMIT_MAX_ENTRIES
    _pending: list = field(default_factory=list, init=False, repr=False)
    _last_flush: float = field(default_factory=time.monotonic,
                               init=False, repr=False)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, root: str | Path, run_id: str | None = None,
               flush_interval: float = 0.0,
               flush_max_entries: int = GROUP_COMMIT_MAX_ENTRIES,
               **meta: Any) -> "RunJournal":
        """Start a journal for a new run under ``<root>/<run-id>/``."""
        run_id = run_id or new_run_id()
        directory = Path(root) / run_id
        directory.mkdir(parents=True, exist_ok=True)
        meta = {"run_id": run_id, "format": _FORMAT_VERSION,
                "created": time.time(), **meta}
        (directory / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True, default=repr))
        journal = cls(directory=directory, run_id=run_id, meta=meta,
                      flush_interval=flush_interval,
                      flush_max_entries=flush_max_entries)
        journal.path.touch()
        return journal

    @classmethod
    def resume(cls, root: str | Path, run_id: str,
               fingerprint: str | None = None,
               flush_interval: float = 0.0) -> "RunJournal":
        """Reload the journal of a prior run to continue it.

        *fingerprint*, when given, must equal the ``fingerprint`` the
        run was created with — resuming a sweep of protocol A from a
        journal of protocol B is refused, not silently merged.
        Corrupt or truncated lines (the normal tail state after a hard
        kill) are skipped with a warning.
        """
        directory = Path(root) / run_id
        if not directory.is_dir():
            raise JournalError(
                f"no run {run_id!r} under {Path(root)} "
                f"(known runs: {list_runs(root) or 'none'})")
        journal = cls(directory=directory, run_id=run_id)
        try:
            journal.meta = json.loads(
                (directory / "meta.json").read_text())
        except (OSError, ValueError):
            journal.meta = {"run_id": run_id}
        recorded = journal.meta.get("fingerprint")
        if fingerprint is not None and recorded is not None \
                and recorded != fingerprint:
            raise JournalError(
                f"run {run_id!r} was recorded for a different analysis "
                f"(fingerprint {recorded[:12]}… != {fingerprint[:12]}…); "
                f"refusing to resume")
        journal._load()
        return journal

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self.directory / "journal.jsonl"

    def __contains__(self, key: str) -> bool:
        return key in self.completed

    def __len__(self) -> int:
        return len(self.completed)

    def record(self, key: str, value: Any) -> None:
        """Append one completed item (fsynced before returning unless a
        positive ``flush_interval`` is coalescing commits).

        A value that does not pickle is journaled as a miss (the item
        will re-execute on resume) rather than aborting the run —
        checkpointing, like caching, is an optimisation only.
        """
        if key in self.completed:
            return
        try:
            payload = pickle.dumps(value)
        except Exception:
            return
        line = json.dumps({
            "v": _FORMAT_VERSION,
            "seq": len(self.completed),
            "key": key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "data": base64.b64encode(payload).decode("ascii"),
        })
        self._pending.append(line.encode("ascii") + b"\n")
        self.completed[key] = value
        self.stats.entries_recorded += 1
        obs.event("checkpoint", run_id=self.run_id, key=key,
                  seq=len(self.completed) - 1)
        obs.metric("supervisor.checkpoints")
        if (self.flush_interval <= 0
                or len(self._pending) >= self.flush_max_entries
                or time.monotonic() - self._last_flush
                >= self.flush_interval):
            self.flush()

    def flush(self) -> None:
        """Commit every buffered entry in one write + fsync.

        Idempotent and cheap when nothing is pending.  Entries that
        have not been flushed are **not durable**: a hard kill loses
        them, and resume re-executes exactly those items.
        """
        self._last_flush = time.monotonic()
        if not self._pending:
            return
        with open(self.path, "ab") as handle:
            handle.write(b"".join(self._pending))
            handle.flush()
            os.fsync(handle.fileno())
        self._pending.clear()
        self.stats.fsyncs += 1
        obs.metric("journal.fsyncs")

    @contextmanager
    def group_commit(self,
                     interval: float = DEFAULT_GROUP_COMMIT_SECONDS):
        """Coalesce fsyncs for the duration of a batched run.

        Raises ``flush_interval`` to *interval* (only when the journal
        is currently in fsync-per-record mode — an explicitly
        configured interval is left alone), and guarantees a final
        :meth:`flush` on exit, including when the block raises: a
        parent that *can* unwind commits everything it recorded.
        """
        raised = self.flush_interval <= 0
        if raised:
            self.flush_interval = interval
        try:
            yield self
        finally:
            if raised:
                self.flush_interval = 0.0
            self.flush()

    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            raw = self.path.read_bytes()
        except OSError:
            return
        for number, line in enumerate(raw.split(b"\n"), start=1):
            if not line.strip():
                continue
            value = self._decode(line)
            if value is _CORRUPT:
                self.stats.corrupt_entries += 1
                warnings.warn(
                    f"skipping corrupt journal entry at "
                    f"{self.path}:{number} (truncated or damaged; the "
                    f"item will be re-executed)", RuntimeWarning,
                    stacklevel=3)
                continue
            key, payload = value
            self.completed[key] = payload
            self.stats.entries_loaded += 1

    @staticmethod
    def _decode(line: bytes):
        try:
            entry = json.loads(line)
            payload = base64.b64decode(entry["data"],
                                       validate=True)
            if hashlib.sha256(payload).hexdigest() != entry["sha256"]:
                return _CORRUPT
            return entry["key"], pickle.loads(payload)
        except Exception:
            return _CORRUPT


_CORRUPT = object()
