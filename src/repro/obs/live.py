"""A standalone ``status.json`` writer that no command uses.

Engine commands used to publish status snapshots of a running command
under ``<cache-dir>/runs/<run-id>/`` for ``repro ps`` and ``repro
top``.  That live plane was built for hour-scale runs; every command
now ends in well under a second and wrote one snapshot at start and one
at finish, so it is gone.  A run is recorded by its ledger line
(:mod:`repro.obs.ledger`) and, with ``--trace``, by its Chrome trace.

No module of the package imports this one.  It is left only because
the e2e benchmark harness (``benchmarks/e2e/spans.py``) wraps
:meth:`LiveRun.publish` by name and fails on a name it cannot resolve.
It is deleted once the harness skips names that no longer exist
(ROADMAP item 5).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

#: File name of the snapshot inside the run directory.
STATUS_NAME = "status.json"


class LiveRun:
    """Writer of one run's ``status.json`` snapshot."""

    def __init__(self, directory: str | Path, run_id: str,
                 command: str | None = None) -> None:
        self.directory = Path(directory)
        self.run_id = run_id
        self.command = command
        self.pid = os.getpid()
        self.started = time.time()

    def publish(self, extra: dict[str, Any] | None = None) -> bool:
        """Replace ``status.json`` with this run's snapshot, plus the
        *extra* fields.

        The document goes to a temporary file in the same directory,
        which is renamed over ``status.json``, so a reader never sees a
        torn file.  Returns whether it was written: an I/O failure is
        swallowed.
        """
        document = {"run_id": self.run_id, "pid": self.pid,
                    "command": self.command, "started": self.started,
                    "updated": time.time(), **(extra or {})}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            scratch = self.directory / f"{STATUS_NAME}.tmp.{self.pid}"
            scratch.write_text(json.dumps(document, default=str) + "\n")
            os.replace(scratch, self.directory / STATUS_NAME)
        except OSError:
            return False
        return True
