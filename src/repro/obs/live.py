"""Live run telemetry: rate-limited status snapshots (`repro ps/top`).

While an hour-scale sweep or fuzz audit executes, the only
window into it used to be post-hoc (a ``--trace`` file, rendered by
``repro report``).  This module gives a running command a *live plane*:
a :class:`LiveRun` publishes a single ``status.json`` under
``.repro-cache/runs/<run-id>/`` — the directory ``--resume`` looks
for — that ``repro ps`` (list runs, liveness via pid + snapshot age) and
``repro top`` (refreshing terminal view) read from the outside.

Design constraints, in order:

* **Bounded write cost.**  Snapshots are rate-limited to one per
  :data:`DEFAULT_INTERVAL` seconds (the :meth:`LiveRun.due` check is a
  single monotonic-clock comparison, so heartbeat call sites in the
  scheduler / supervisor / pool loops pay nothing between publishes),
  and each publish is one small JSON document.
* **Atomic replacement.**  The snapshot is written to a temporary file
  in the same directory and ``os.replace``-d over ``status.json``, so
  an external reader never observes a torn document.
* **No effect on verdicts.**  The plane only *observes*: progress
  counters are bumped from the supervision bookkeeping, worker payloads
  are built by the scheduler at publish time, and nothing reads the
  snapshot back into the computation.  A sweep with the plane on is
  byte-identical to one with it off (the differential test checks).

Stall detection: a worker whose in-flight task age exceeds
``max(STALL_FACTOR * p95, STALL_MIN_SECONDS)`` — p95 taken from the
run's task-duration histogram (:meth:`repro.obs.metrics.Histogram.
quantile`) — is flagged ``stalled`` in its worker entry.  The flag is a
hint for ``repro top``, not an enforcement mechanism; enforcement is
the supervisor's ``--timeout``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

from repro.obs import runtime as obs

#: File name of the snapshot inside the run directory.
STATUS_NAME = "status.json"

#: Snapshot documents carry a format version for forward compatibility.
STATUS_VERSION = 1

#: Default seconds between snapshot publications (~1 Hz).
DEFAULT_INTERVAL = 1.0

#: A worker is flagged stalled when its in-flight task age exceeds
#: ``max(STALL_FACTOR * p95, STALL_MIN_SECONDS)``.
STALL_FACTOR = 4.0
STALL_MIN_SECONDS = 1.0

#: ``repro ps`` calls a "running" snapshot stale once it is older than
#: this many seconds (a live publisher refreshes at ~1 Hz, so a large
#: multiple of the interval means the writer is gone or wedged).
STALE_AFTER_SECONDS = 30.0

#: Warning-and-above events forwarded into the snapshot (ring buffer).
EVENT_BUFFER = 8

_PROGRESS_KEYS = ("total", "done", "in_flight", "retried", "degraded",
                  "resumed", "requeued")


def stall_threshold(p95: float | None) -> float:
    """Seconds of in-flight age beyond which a worker reads as stalled."""
    if p95 is None:
        return float("inf")
    return max(STALL_FACTOR * p95, STALL_MIN_SECONDS)


class LiveRun:
    """Publisher of one run's ``status.json`` snapshot.

    All state lives in the parent process; heartbeat call sites push
    cheap counter increments (:meth:`note`) and hand richer payloads
    (worker tables, per-task cost and ETA) to :meth:`publish` only when
    :meth:`due` says a snapshot is actually owed.
    """

    def __init__(self, directory: str | Path, run_id: str,
                 command: str | None = None,
                 interval: float = DEFAULT_INTERVAL) -> None:
        self.directory = Path(directory)
        self.run_id = run_id
        self.command = command
        self.interval = interval
        self.pid = os.getpid()
        self.started = time.time()
        self.state = "running"
        self.static: dict[str, Any] = {}
        self.counts: dict[str, int] = {key: 0 for key in _PROGRESS_KEYS}
        self.stage: dict[str, Any] = {}
        self.events: deque = deque(maxlen=EVENT_BUFFER)
        self.snapshots = 0
        self._last: float | None = None
        self._sink_token: Any = None

    # -- cheap heartbeat API (called from hot loops) -------------------
    def due(self) -> bool:
        """Whether enough time has passed for the next snapshot."""
        return (self._last is None
                or time.monotonic() - self._last >= self.interval)

    def note(self, **increments: int) -> None:
        """Bump progress counters (``done=1``, ``retried=1``, ...)."""
        for key, amount in increments.items():
            self.counts[key] = self.counts.get(key, 0) + amount

    def annotate(self, **fields: Any) -> None:
        """Attach static identity fields (protocol, fingerprint, ...)."""
        self.static.update(fields)

    def begin_stage(self, name: str, total: int = 0,
                    resumed: int = 0) -> None:
        """A supervised map is starting: account its items up front."""
        self.stage = {"name": name}
        self.note(total=total, resumed=resumed, done=resumed)

    def record_event(self, record: dict[str, Any]) -> None:
        """Sink for warning-level obs events (see :func:`activate`)."""
        if record.get("level") != "info":
            self.events.append(record)

    # -- snapshot construction and publication -------------------------
    def snapshot(self, extra: dict[str, Any] | None = None) -> dict[str, Any]:
        """The full snapshot document (JSON-ready)."""
        counts = dict(self.counts)
        document: dict[str, Any] = {
            "version": STATUS_VERSION,
            "run_id": self.run_id,
            "pid": self.pid,
            "command": self.command,
            "state": self.state,
            "started": self.started,
            "updated": time.time(),
            "tasks": counts,
            "snapshots": self.snapshots,
        }
        document.update(self.static)
        if self.stage:
            document["stage"] = dict(self.stage)
        if self.events:
            document["events"] = list(self.events)
        if extra:
            for key, value in extra.items():
                if isinstance(value, dict) \
                        and isinstance(document.get(key), dict):
                    document[key].update(value)
                else:
                    document[key] = value
        return document

    def publish(self, extra: dict[str, Any] | None = None,
                force: bool = False) -> bool:
        """Atomically replace ``status.json`` (rate-limited).

        Returns whether a snapshot was written.  Any I/O failure is
        swallowed: telemetry must never take a run down.
        """
        if not force and not self.due():
            return False
        self._last = time.monotonic()
        self.snapshots += 1
        document = self.snapshot(extra)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            scratch = self.directory / f"{STATUS_NAME}.tmp.{self.pid}"
            scratch.write_text(
                json.dumps(document, default=str) + "\n")
            os.replace(scratch, self.directory / STATUS_NAME)
        except OSError:
            return False
        obs.metric("live.snapshots")
        return True

    def finish(self, state: str = "finished", **fields: Any) -> None:
        """Publish the final snapshot with a terminal *state*."""
        self.state = state
        self.static.update(fields)
        self.publish(force=True)


# ----------------------------------------------------------------------
# The ambient live plane (mirrors repro.obs.runtime's ambient run)
# ----------------------------------------------------------------------
_ACTIVE: LiveRun | None = None


def active() -> LiveRun | None:
    """The ambient live run, or ``None`` when the plane is off."""
    return _ACTIVE


def activate(live_run: LiveRun) -> LiveRun:
    """Install *live_run* as the ambient live plane (one per process)
    and subscribe it to warning-level observability events."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError(
            f"a live run ({_ACTIVE.run_id!r}) is already active")
    _ACTIVE = live_run
    live_run._sink_token = obs.add_event_sink(live_run.record_event)
    return live_run


def deactivate(live_run: LiveRun) -> None:
    global _ACTIVE
    if live_run._sink_token is not None:
        obs.remove_event_sink(live_run._sink_token)
        live_run._sink_token = None
    if _ACTIVE is live_run:
        _ACTIVE = None


def note(**increments: int) -> None:
    """Ambient-plane counter bump (no-op when the plane is off)."""
    if _ACTIVE is not None:
        _ACTIVE.note(**increments)


def begin_stage(name: str, total: int = 0, resumed: int = 0) -> None:
    """Ambient-plane stage announcement (no-op when the plane is off)."""
    if _ACTIVE is not None:
        _ACTIVE.begin_stage(name, total=total, resumed=resumed)


def cache_payload(stats) -> dict[str, Any]:
    """Hit-rate snapshot fields from an ``EngineStats`` (or ``None``)."""
    if stats is None:
        return {}
    hits, misses = stats.cache_hits, stats.cache_misses
    total = hits + misses
    return {"cache": {"results": {
        "hits": hits, "misses": misses,
        "rate": hits / total if total else 0.0}}}


def tick(payload: Callable[[], dict[str, Any]] | None = None) -> bool:
    """Publish a snapshot if one is due (no-op when the plane is off).

    *payload*, when given, is a zero-argument callable producing the
    extra snapshot fields; it is invoked **only** when a snapshot is
    actually owed, so heartbeat loops never pay payload-construction
    cost between publishes.
    """
    live_run = _ACTIVE
    if live_run is None or not live_run.due():
        return False
    return live_run.publish(payload() if payload is not None else None)


# ----------------------------------------------------------------------
# Reading the plane from the outside (repro ps / repro top)
# ----------------------------------------------------------------------
def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe of another process on this host."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def load_status(directory: str | Path) -> dict[str, Any] | None:
    """Parse one run directory's snapshot (``None`` if absent/torn)."""
    path = Path(directory) / STATUS_NAME
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def liveness(status: dict[str, Any],
             now: float | None = None) -> str:
    """Classify a snapshot: ``live`` / ``stale`` / its terminal state.

    A ``running`` snapshot is live while the publishing pid exists and
    the snapshot is fresh; a dead pid or an old snapshot means the run
    ended without a final publish (killed) — ``stale``.
    """
    state = status.get("state", "unknown")
    if state != "running":
        return state
    now = time.time() if now is None else now
    age = now - float(status.get("updated", 0.0))
    pid = status.get("pid")
    if age <= STALE_AFTER_SECONDS and isinstance(pid, int) \
            and pid_alive(pid):
        return "live"
    return "stale"


def scan_runs(root: str | Path) -> list[dict[str, Any]]:
    """All run snapshots under *root*, newest-updated last."""
    directory = Path(root)
    if not directory.is_dir():
        return []
    statuses = []
    for child in directory.iterdir():
        status = load_status(child)
        if status is not None:
            statuses.append(status)
    statuses.sort(key=lambda s: s.get("updated", 0.0))
    return statuses


def remove_ended(root: str | Path) -> int:
    """Delete every snapshot under *root* whose run has ended
    (finished, failed or stale), and each run directory that leaves
    empty; returns how many snapshots went.  A live run, or a snapshot
    in no known state, keeps both."""
    directory = Path(root)
    removed = 0
    for child in directory.iterdir() if directory.is_dir() else ():
        status = load_status(child)
        if status is None \
                or liveness(status) not in ("finished", "failed", "stale"):
            continue
        with contextlib.suppress(OSError):
            (child / STATUS_NAME).unlink()
            removed += 1
            child.rmdir()
    return removed


# ----------------------------------------------------------------------
# Terminal rendering (repro ps / repro top)
# ----------------------------------------------------------------------
def _age(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def render_ps(statuses: list[dict[str, Any]],
              now: float | None = None) -> str:
    """The ``repro ps`` table over scanned snapshots."""
    now = time.time() if now is None else now
    header = (f"{'RUN-ID':24s} {'STATE':9s} {'COMMAND':11s} "
              f"{'PROTOCOL':20s} {'PROGRESS':>9s} {'AGE':>6s}")
    lines = [header]
    for status in reversed(statuses):  # newest first
        tasks = status.get("tasks") or {}
        progress = f"{tasks.get('done', 0)}/{tasks.get('total', 0)}"
        age = _age(max(0.0, now - float(status.get("updated", now))))
        lines.append(
            f"{str(status.get('run_id', '?')):24s} "
            f"{liveness(status, now):9s} "
            f"{str(status.get('command') or '-'):11s} "
            f"{str(status.get('protocol') or '-'):20s} "
            f"{progress:>9s} {age:>6s}")
    if len(lines) == 1:
        lines.append("(no runs found)")
    return "\n".join(lines)


def _progress_bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done, total) / total))
    return "#" * filled + "." * (width - filled)


def render_top(status: dict[str, Any],
               now: float | None = None) -> str:
    """The ``repro top`` terminal view of one snapshot."""
    now = time.time() if now is None else now
    state = liveness(status, now)
    tasks = status.get("tasks") or {}
    done, total = tasks.get("done", 0), tasks.get("total", 0)
    lines = [
        f"run {status.get('run_id')} — repro "
        f"{status.get('command') or '?'} "
        f"{status.get('protocol') or ''} [{state}]".rstrip(),
        f"  progress  [{_progress_bar(done, total)}] {done}/{total} done"
        f", {tasks.get('in_flight', 0)} in flight"
        f", {tasks.get('retried', 0)} retried"
        f", {tasks.get('degraded', 0)} degraded"
        + (f", {tasks.get('resumed', 0)} resumed"
           if tasks.get("resumed") else ""),
    ]
    stage = status.get("stage") or {}
    if stage:
        detail = f"  stage     {stage.get('name', '?')}"
        mean = stage.get("mean_task_seconds")
        if mean:
            detail += f": {mean * 1e3:.1f} ms/task"
        p95 = stage.get("p95_task_seconds")
        if p95:
            detail += f" (p95 {p95 * 1e3:.1f} ms)"
        eta = stage.get("eta_seconds")
        if eta is not None:
            detail += f", eta ~{eta:.1f} s"
        lines.append(detail)
    rates = (status.get("cache") or {}).get("results")
    if rates and (rates.get("hits") or rates.get("misses")):
        lines.append(
            f"  cache     results {rates.get('rate', 0.0):.0%} hit "
            f"({rates.get('hits', 0)}/"
            f"{rates.get('hits', 0) + rates.get('misses', 0)})")
    workers = status.get("workers") or []
    for i, worker in enumerate(workers):
        prefix = "  workers   " if i == 0 else "            "
        if worker.get("busy"):
            body = (f"#{worker.get('ident')} pid {worker.get('pid')}  "
                    f"busy  item {worker.get('task')}  "
                    f"{worker.get('age_seconds', 0.0):.1f}s")
            if worker.get("stalled"):
                body += "  !! stalled"
        else:
            body = f"#{worker.get('ident')} pid {worker.get('pid')}  idle"
        lines.append(prefix + body)
    for event in status.get("events") or []:
        detail = {k: v for k, v in event.items()
                  if k not in ("ts", "kind", "level", "pid")}
        lines.append(f"  event     [{event.get('level')}] "
                     f"{event.get('kind')}"
                     + (f" {detail}" if detail else ""))
    lines.append(f"  updated   {_age(max(0.0, now - float(status.get('updated', now))))} ago"
                 f" ({status.get('snapshots', 0)} snapshots)")
    return "\n".join(lines)
