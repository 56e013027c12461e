"""Fault-injection fixtures for the supervision and write-through suites.

Workers built here run inside forked children, so per-attempt state
("crash only on the first try") cannot live in module globals — each
attempt inherits a fresh copy.  The fixtures use marker files under
``tmp_path`` instead: the first attempt at a sabotaged item drops a
marker and misbehaves, the retry sees the marker and runs clean, which
makes every supervised run converge deterministically.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest


def square(context, item):
    """The default well-behaved worker (module-level: fork-friendly)."""
    return item * item


@pytest.fixture
def crashing_worker(tmp_path):
    """Factory for workers that SIGKILL themselves on the *first*
    attempt at each item in ``crash_items`` and succeed afterwards."""
    marks = tmp_path / "crash-marks"
    marks.mkdir()

    def make(crash_items=frozenset(), compute=square):
        def worker(context, item):
            if item in crash_items:
                marker = marks / f"item-{item}"
                if not marker.exists():
                    marker.write_text("sabotaged")
                    os.kill(os.getpid(), signal.SIGKILL)
            return compute(context, item)

        return worker

    return make


@pytest.fixture
def hanging_worker(tmp_path):
    """Factory for workers that sleep far past any timeout on the
    *first* attempt at each item in ``hang_items``."""
    marks = tmp_path / "hang-marks"
    marks.mkdir()

    def make(hang_items=frozenset(), hang_seconds=3600.0, compute=square):
        def worker(context, item):
            if item in hang_items:
                marker = marks / f"item-{item}"
                if not marker.exists():
                    marker.write_text("sabotaged")
                    time.sleep(hang_seconds)
            return compute(context, item)

        return worker

    return make


@pytest.fixture
def corrupt_checkpoint():
    """Damage one on-disk result-cache entry the way hard kills do.

    ``mode="truncate"`` cuts the file in half (a write torn by a crash
    of the filesystem under it); ``mode="tamper"`` keeps the length but
    flips the last payload byte so the stored SHA-256 no longer
    matches; ``mode="garbage"`` replaces the file with bytes that are
    no cache entry at all.  *path* is a ``.pkl`` entry file.
    """

    def corrupt(path, mode: str = "truncate") -> None:
        path = Path(path)
        data = path.read_bytes()
        if mode == "truncate":
            data = data[: max(1, len(data) // 2)]
        elif mode == "tamper":
            data = data[:-1] + bytes([data[-1] ^ 0xFF])
        elif mode == "garbage":
            data = b"this is not a cache entry\n"
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        path.write_bytes(data)

    return corrupt
