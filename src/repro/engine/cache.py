"""Content-addressed result cache: in-memory layer + optional disk layer.

Keys are the hex digests produced by :func:`repro.engine.fingerprint
.analysis_key`; values are whole analysis reports (picklable frozen
dataclasses).  The in-memory layer serves repeats within one process;
the disk layer (``.repro-cache/`` by default) serves repeated CLI and
benchmark invocations.

Disk entries are self-verifying: the file stores the SHA-256 of the
pickled payload ahead of the payload itself, so a truncated, bit-rotted
or hand-edited entry is detected, counted, deleted and treated as a
plain miss — corruption never raises out of :meth:`ResultCache.get`.

The cache is also what makes a killed run resumable: the dispatcher
(:func:`repro.engine.supervisor.supervise_work_items`) looks each work
item up with one :meth:`ResultCache.get` and writes each finished one
through :meth:`ResultCache.put` as soon as it completes, so rerunning
the same command with the same cache answers every item the dead run
finished.  ``durable=True`` (``--checkpoint`` /
``--resume``) fsyncs each entry and its directory before ``put``
returns, so those writes also survive a machine crash.  The LRU size cap
treats a checkpointed run's entries like any other: an evicted entry is
simply recomputed on resume.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.obs import runtime as obs

DEFAULT_CACHE_DIR = ".repro-cache"
DEFAULT_CACHE_LIMIT = 1 << 30  # 1 GiB of result entries
ENTRY_SUFFIX = ".pkl"
RUNS_SUBDIR = "runs"
#: Suffix of the files older versions' artifact plane left under
#: ``<cache-dir>/artifacts/``: ``repro cache`` counts them on its
#: legacy line and ``--clear`` removes them.
ARTIFACT_SUFFIX = ".art"
#: Suffix of in-flight writes (``<name>.<pid>.tmp``, renamed into place
#: when complete); a stray one is what a kill mid-write leaves behind,
#: and ``repro cache --clear`` removes it.
TEMP_SUFFIX = ".tmp"

#: Disk stores between LRU size-cap sweeps once the disk layer is over
#: its cap (a sweep stats every cached file, so enforcing on every put
#: would be quadratic in cache size).
_SWEEP_INTERVAL = 32

_MISS = object()


def runs_root(cache_dir: str | Path | None = None) -> Path:
    """The directory a ``--checkpoint`` run creates its
    ``runs/<run-id>/`` under, where ``--resume`` looks for it
    (``<cache-dir>/runs``)."""
    return Path(cache_dir or DEFAULT_CACHE_DIR) / RUNS_SUBDIR


def new_run_id() -> str:
    """A fresh, collision-resistant, sortable run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-{os.urandom(3).hex()}"


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    corrupt_entries: int = 0
    evictions: int = 0

    def summary(self) -> str:
        return (f"cache: {self.hits} hits ({self.disk_hits} from disk), "
                f"{self.misses} misses, {self.stores} stores, "
                f"{self.corrupt_entries} corrupt entries discarded")


class ResultCache:
    """A two-layer (memory, optional disk) content-addressed cache.

    Parameters
    ----------
    directory:
        Root of the on-disk layer; ``None`` keeps the cache purely
        in-memory.  The directory is created lazily on the first store.
    limit_bytes:
        Size cap of the disk layer (LRU-by-mtime eviction of ``.pkl``
        entries).  The cache walks its directory once to learn the
        size, keeps a running total of what it writes, and walks again
        only to evict once over the cap.  ``None`` leaves the layer
        unbounded.
    durable:
        Fsync every disk entry and its directory before :meth:`put`
        returns (a checkpointed run's writes must survive a crash).
        Off by default: most cached runs can afford to lose a last
        write, and an fsync costs far more than the write itself.
    """

    def __init__(self, directory: str | Path | None = None,
                 limit_bytes: int | None = None,
                 durable: bool = False) -> None:
        self.directory = Path(directory) if directory is not None else None
        self.limit_bytes = limit_bytes
        self.durable = durable
        self._memory: dict[str, Any] = {}
        self._stores_since_sweep = 0
        self._disk_bytes: int | None = None  # unknown until walked
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        """The cached value for *key*, or *default* on a miss."""
        value = self._memory.get(key, _MISS)
        if value is _MISS and self.directory is not None:
            value = self._read_disk(key)
            if value is not _MISS:
                self._memory[key] = value
                self.stats.disk_hits += 1
                obs.metric("cache.disk_hits")
        if value is _MISS:
            self.stats.misses += 1
            obs.metric("cache.misses")
            return default
        self.stats.hits += 1
        obs.metric("cache.hits")
        return value

    def put(self, key: str, value: Any) -> None:
        """Store *value* in both layers (disk failures are non-fatal)."""
        self._memory[key] = value
        self.stats.stores += 1
        obs.metric("cache.stores")
        if self.directory is None:
            return
        try:
            payload = pickle.dumps(value)
        except Exception:
            return  # memory-only for unpicklable values
        entry = hashlib.sha256(payload).hexdigest().encode("ascii") \
            + b"\n" + payload
        path = self._entry_path(key)
        # Per-writer temporary: two processes storing one key must not
        # truncate each other's half-written file.
        temporary = path.with_name(f"{key}.{os.getpid()}{TEMP_SUFFIX}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(temporary, "wb") as handle:
                handle.write(entry)
                if self.durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            temporary.replace(path)  # atomic within a filesystem
            if self.durable:
                _fsync_directory(path.parent)
        except OSError:
            try:
                temporary.unlink()
            except OSError:
                pass
            return
        self._count_disk_store(len(entry))

    def clear_memory(self) -> None:
        """Drop the in-memory layer (the disk layer stays intact)."""
        self._memory.clear()

    def _count_disk_store(self, nbytes: int) -> None:
        """Add one written entry to the running disk total; sweep the
        cap only once over it, at most every ``_SWEEP_INTERVAL`` stores.

        The first store walks the directory to learn its size (entries
        of earlier runs count against the cap too).  An overwritten
        entry is counted twice, so the total can only overestimate,
        which at worst sweeps early.
        """
        if self.limit_bytes is None:
            return
        self._stores_since_sweep += 1
        if self._disk_bytes is None:
            self._disk_bytes = directory_bytes(self.directory,
                                               suffix=ENTRY_SUFFIX)
        else:
            self._disk_bytes += nbytes
        if (self._disk_bytes > self.limit_bytes
                and self._stores_since_sweep >= _SWEEP_INTERVAL):
            self.enforce_limit()

    # ------------------------------------------------------------------
    def disk_bytes(self) -> int:
        """Total size of the disk layer's entries (0 when memory-only)."""
        if self.directory is None:
            return 0
        return directory_bytes(self.directory, suffix=ENTRY_SUFFIX)

    def enforce_limit(self, limit_bytes: int | None = None) -> int:
        """LRU-by-mtime eviction down to the size cap; returns removals.

        Only ``.pkl`` entries are candidates — run directories, the
        ledger and legacy artifact files under the cache root are never
        touched here.
        """
        limit = self.limit_bytes if limit_bytes is None else limit_bytes
        if self.directory is None or limit is None:
            return 0
        self._stores_since_sweep = 0
        removed = enforce_directory_limit(self.directory, limit,
                                          suffix=ENTRY_SUFFIX)
        # Eviction stops as soon as the total fits, so the cap bounds
        # what is left; with nothing evicted the next store re-learns
        # the size.
        self._disk_bytes = limit if removed else None
        if removed:
            self.stats.evictions += removed
            obs.metric("cache.evictions", removed)
        return removed

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.pkl"

    def _read_disk(self, key: str) -> Any:
        path = self._entry_path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return _MISS
        try:
            digest, _, payload = raw.partition(b"\n")
            if digest.decode("ascii") != hashlib.sha256(payload).hexdigest():
                raise ValueError("checksum mismatch")
            return pickle.loads(payload)
        except Exception:
            # Corrupted entry: count it, drop it, report a miss.
            self.stats.corrupt_entries += 1
            obs.metric("cache.corrupt_entries")
            try:
                path.unlink()
            except OSError:
                pass
            return _MISS


# ----------------------------------------------------------------------
# The LRU-by-mtime size cap (``--cache-limit``, ``repro cache --clear``)
# ----------------------------------------------------------------------

def _iter_files(root: Path,
                suffix: str | tuple[str, ...] | None) -> Iterator[Path]:
    if isinstance(suffix, str):
        suffix = (suffix,)
    if not root.is_dir():
        return
    for path in root.rglob("*"):
        if not path.is_file():
            continue
        if suffix is not None and path.suffix not in suffix:
            continue
        yield path


def directory_bytes(root: Path,
                    suffix: str | tuple[str, ...] | None = None) -> int:
    """Total size in bytes of the (matching) files under *root*."""
    total = 0
    for path in _iter_files(root, suffix):
        with contextlib.suppress(OSError):
            total += path.stat().st_size
    return total


def enforce_directory_limit(root: Path, limit_bytes: int,
                            suffix: str | tuple[str, ...] | None = None,
                            ) -> int:
    """LRU-by-mtime eviction: delete oldest files until under the cap.

    Missing files (raced deletions) are skipped silently; empty
    subdirectories left behind are pruned.  Returns the removal count.
    """
    entries: list[tuple[float, int, Path]] = []
    total = 0
    for path in _iter_files(root, suffix):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((stat.st_mtime, stat.st_size, path))
        total += stat.st_size
    if total <= limit_bytes:
        return 0
    entries.sort()  # oldest mtime first
    removed = 0
    for _, size, path in entries:
        if total <= limit_bytes:
            break
        with contextlib.suppress(OSError):
            path.unlink()
            total -= size
            removed += 1
            parent = path.parent
            if parent != root and not any(parent.iterdir()):
                parent.rmdir()
    return removed


def _fsync_directory(directory: Path) -> None:
    """Make a rename (or a new entry) in *directory* durable."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
