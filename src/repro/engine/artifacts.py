"""A content-addressed store of mmap-attachable binary artifacts.

No engine path uses this module: every kernel, localkernel skeleton and
packed state space is built on the heap of the process that needs it,
and spawn workers compile their own.  It stays, standalone, for one
reason: the end-to-end benchmark harness (``benchmarks/e2e/spans.py``)
imports it and wraps :meth:`ArtifactStore.attach`,
:meth:`ArtifactStore.publish` and :func:`enforce_directory_limit` by
name, and a traced benchmark run fails when one of them is missing.
The module goes once the harness skips absent names.
:func:`enforce_directory_limit` itself lives in
:mod:`repro.engine.cache` (the ``--cache-limit`` LRU) and is imported
here under the name the harness wraps.

An :class:`ArtifactStore` keeps one file per ``(kind, fingerprint,
params)`` key under its root.  Binary layout (all integers
little-endian)::

    offset 0   magic            8 bytes  b"REPROART"
    offset 8   format version   u32
    offset 12  section count    u32
    offset 16  fingerprint      64 bytes (ascii hex, NUL-padded)
    offset 80  section table    48 bytes per entry:
                   name   24 bytes ascii, NUL-padded
                   kind    8 bytes ascii memoryview format ("q", "B"),
                           NUL-padded
                   offset  u64 (from file start, 8-byte aligned)
                   length  u64 (bytes)
    ...        section payloads, each 8-byte aligned
    end - 32   SHA-256 over every preceding byte

Attach validates magic, version, fingerprint and the trailing digest
before exposing a single view; any mismatch is *corruption*, handled by
the store as discard + one ``artifact-corrupt`` event — it never raises
out of :meth:`ArtifactStore.attach`.
"""

from __future__ import annotations

import contextlib
import hashlib
import mmap
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.engine.cache import (
    ARTIFACT_SUFFIX,
    TEMP_SUFFIX,
    directory_bytes,
    enforce_directory_limit,
)
from repro.obs import runtime as obs

MAGIC = b"REPROART"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<8sII64s")
_SECTION = struct.Struct("<24s8sQQ")
_DIGEST_SIZE = 32
_ALIGN = 8


class ArtifactFormatError(Exception):
    """An artifact file failed structural validation."""


def _pad(length: int) -> int:
    return (-length) % _ALIGN


def write_artifact_bytes(fingerprint: str,
                         sections: Mapping[str, tuple[str, bytes]],
                         ) -> bytes:
    """Serialize *sections* into the artifact wire format.

    ``sections`` maps names to ``(kind, payload)`` where *kind* is the
    :class:`memoryview` cast format readers should apply (``"q"`` for
    ``array('q')`` data, ``"B"`` for raw bytes).
    """
    if len(fingerprint) > 64:
        raise ArtifactFormatError("fingerprint longer than 64 bytes")
    names = list(sections)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(names),
                          fingerprint.encode("ascii"))
    table_size = _SECTION.size * len(names)
    cursor = len(header) + table_size
    cursor += _pad(cursor)
    table = bytearray()
    payloads = bytearray()
    base = len(header) + table_size
    payload_cursor = base + _pad(base)
    payloads.extend(b"\x00" * _pad(base))
    for name in names:
        kind, payload = sections[name]
        raw = bytes(payload)
        encoded = name.encode("ascii")
        if len(encoded) > 24:
            raise ArtifactFormatError(f"section name too long: {name!r}")
        table.extend(_SECTION.pack(encoded, kind.encode("ascii"),
                                   payload_cursor, len(raw)))
        payloads.extend(raw)
        payload_cursor += len(raw)
        padding = _pad(len(raw))
        payloads.extend(b"\x00" * padding)
        payload_cursor += padding
    body = header + bytes(table) + bytes(payloads)
    return body + hashlib.sha256(body).digest()


class AttachedArtifact:
    """One mmap'd artifact exposing its sections as typed views.

    Keeps the mapping alive for as long as any handed-out view lives;
    :meth:`close` releases the views and the mapping (and is safe to
    call with views still referenced elsewhere — release then fails
    silently and the mapping dies with the last view).
    """

    def __init__(self, path: Path, fingerprint: str,
                 sections: dict[str, memoryview],
                 mapping: mmap.mmap, nbytes: int) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.sections = sections
        self.nbytes = nbytes
        self._mapping = mapping

    def view(self, name: str, kind: str | None = None) -> memoryview:
        """The typed view of section *name* (validated against *kind*)."""
        try:
            section = self.sections[name]
        except KeyError:
            raise ArtifactFormatError(f"missing section {name!r}") from None
        if kind is not None and section.format != kind:
            raise ArtifactFormatError(
                f"section {name!r} has kind {section.format!r}, "
                f"expected {kind!r}")
        return section

    def ints(self, name: str) -> memoryview:
        return self.view(name, "q")

    def close(self) -> None:
        for view in self.sections.values():
            with contextlib.suppress(BufferError):
                view.release()
        self.sections = {}
        with contextlib.suppress(BufferError, ValueError):
            self._mapping.close()

    def __enter__(self) -> "AttachedArtifact":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def attach_artifact(path: Path,
                    expect_fingerprint: str | None = None,
                    ) -> AttachedArtifact:
    """mmap *path*, validate it end to end and expose typed sections.

    Raises :class:`ArtifactFormatError` (or :class:`OSError` for plain
    I/O failures) on any structural problem: bad magic, stale format
    version, fingerprint mismatch, checksum mismatch, truncation or a
    malformed section table.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        if size < _HEADER.size + _DIGEST_SIZE:
            raise ArtifactFormatError("truncated artifact (no header)")
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        magic, version, count, fingerprint_raw = _HEADER.unpack_from(
            mapping, 0)
        if magic != MAGIC:
            raise ArtifactFormatError("bad magic")
        if version != FORMAT_VERSION:
            raise ArtifactFormatError(
                f"format version {version} != {FORMAT_VERSION}")
        fingerprint = fingerprint_raw.rstrip(b"\x00").decode(
            "ascii", "replace")
        if (expect_fingerprint is not None
                and fingerprint != expect_fingerprint):
            raise ArtifactFormatError("fingerprint mismatch")
        digest = hashlib.sha256(
            memoryview(mapping)[:size - _DIGEST_SIZE]).digest()
        if digest != bytes(mapping[size - _DIGEST_SIZE:size]):
            raise ArtifactFormatError("checksum mismatch")
        table_end = _HEADER.size + _SECTION.size * count
        if table_end > size - _DIGEST_SIZE:
            raise ArtifactFormatError("truncated section table")
        base = memoryview(mapping)
        sections: dict[str, memoryview] = {}
        for index in range(count):
            raw_name, raw_kind, offset, length = _SECTION.unpack_from(
                mapping, _HEADER.size + _SECTION.size * index)
            name = raw_name.rstrip(b"\x00").decode("ascii", "replace")
            kind = raw_kind.rstrip(b"\x00").decode("ascii", "replace")
            if offset % _ALIGN or offset + length > size - _DIGEST_SIZE:
                raise ArtifactFormatError(
                    f"section {name!r} out of bounds")
            view = base[offset:offset + length]
            if kind != "B":
                view = view.cast(kind)
            sections[name] = view
    except Exception:
        with contextlib.suppress(BufferError, ValueError):
            mapping.close()
        raise
    return AttachedArtifact(path, fingerprint, sections, mapping, size)


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------

@dataclass
class ArtifactStats:
    """Lifetime counters of one :class:`ArtifactStore`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    evictions: int = 0
    attach_seconds: float = 0.0
    store_seconds: float = 0.0

    def summary(self) -> str:
        return (f"artifacts: {self.hits} attached, {self.misses} misses, "
                f"{self.stores} stored, {self.corrupt} corrupt discarded")


class ArtifactStore:
    """Content-addressed artifact files under one root directory.

    Keys are derived from an artifact *kind*, the protocol fingerprint
    and any discriminating parameters; the fingerprint is additionally
    embedded in the file header so a key collision or a renamed file
    can never satisfy the wrong protocol.
    """

    def __init__(self, root: str | Path, mode: str = "rw") -> None:
        if mode not in ("rw", "ro"):
            raise ValueError(f"unsupported store mode {mode!r}")
        self.root = Path(root)
        self.mode = mode
        self.stats = ArtifactStats()
        self._attached: list[AttachedArtifact] = []

    # -- identity -------------------------------------------------------
    @staticmethod
    def key(kind: str, fingerprint: str, **params: object) -> str:
        material = [kind, fingerprint]
        for name in sorted(params):
            material.append(f"{name}={params[name]!r}")
        return hashlib.sha256("\x1f".join(material).encode()).hexdigest()

    def path_for(self, kind: str, fingerprint: str,
                 **params: object) -> Path:
        key = self.key(kind, fingerprint, **params)
        return self.root / key[:2] / f"{key}{ARTIFACT_SUFFIX}"

    # -- attach / publish ----------------------------------------------
    def attach(self, kind: str, fingerprint: str,
               **params: object) -> AttachedArtifact | None:
        """Attach the artifact for ``(kind, fingerprint, params)``.

        Returns ``None`` on a plain miss *and* on corruption; corrupt
        files are deleted, counted and reported with exactly one
        ``artifact-corrupt`` event so callers always rebuild cleanly.
        """
        path = self.path_for(kind, fingerprint, **params)
        if not path.exists():
            self.stats.misses += 1
            obs.metric("artifacts.misses")
            return None
        began = time.perf_counter()
        try:
            attached = attach_artifact(path, fingerprint)
        except (ArtifactFormatError, OSError, ValueError) as exc:
            self.stats.corrupt += 1
            obs.metric("artifacts.corrupt")
            obs.event("artifact-corrupt", level="warning", artifact=kind,
                      path=str(path), reason=str(exc))
            with contextlib.suppress(OSError):
                path.unlink()
            self.stats.misses += 1
            obs.metric("artifacts.misses")
            return None
        self.stats.attach_seconds += time.perf_counter() - began
        self.stats.hits += 1
        obs.metric("artifacts.hits")
        self._attached.append(attached)
        return attached

    def publish(self, kind: str, fingerprint: str,
                sections: Mapping[str, tuple[str, bytes]],
                **params: object) -> bool:
        """Write one artifact atomically (no-op in read-only mode).

        Publish failures are non-fatal: the build result is already in
        the caller's hands, persistence is best effort.
        """
        if self.mode == "ro":
            return False
        path = self.path_for(kind, fingerprint, **params)
        # Per-writer temporary: concurrent publishers of one artifact
        # must not truncate each other's half-written file.
        temporary = path.with_name(f"{path.stem}.{os.getpid()}{TEMP_SUFFIX}")
        began = time.perf_counter()
        try:
            blob = write_artifact_bytes(fingerprint, sections)
            path.parent.mkdir(parents=True, exist_ok=True)
            temporary.write_bytes(blob)
            temporary.replace(path)
        except (OSError, ArtifactFormatError):
            with contextlib.suppress(OSError):
                temporary.unlink()
            return False
        self.stats.store_seconds += time.perf_counter() - began
        self.stats.stores += 1
        obs.metric("artifacts.stores")
        obs.metric("artifacts.bytes_stored", len(blob))
        return True

    # -- housekeeping ---------------------------------------------------
    def close(self) -> None:
        for attached in self._attached:
            attached.close()
        self._attached = []

    def disk_bytes(self) -> int:
        return directory_bytes(self.root)

    def enforce_limit(self, limit_bytes: int) -> int:
        """Evict oldest-mtime artifacts until the root fits *limit_bytes*.

        Returns the number of files removed.  Shared with the result
        cache via :func:`repro.engine.cache.enforce_directory_limit` —
        this wrapper only adds the store's eviction counter.
        """
        removed = enforce_directory_limit(self.root, limit_bytes,
                                          suffix=ARTIFACT_SUFFIX)
        self.stats.evictions += removed
        if removed:
            obs.metric("artifacts.evictions", removed)
        return removed
