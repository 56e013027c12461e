"""The standalone artifact store: wire format, store semantics,
corruption, and the LRU size cap it shares with the result cache.

No engine path reads or writes artifacts; the store stays because the
end-to-end benchmark harness wraps ``ArtifactStore.attach``/``publish``
and ``enforce_directory_limit`` by name.  The binary format must
round-trip typed buffers exactly; the store must treat *every*
structural problem — truncation, bit rot, version drift, fingerprint
mismatch — as a miss that deletes the bad file and emits exactly one
``artifact-corrupt`` warning; and the LRU size cap must age out old
files without ever touching journals.
"""

from __future__ import annotations

import os
import struct
from array import array

import pytest

import repro.engine.artifacts as ap
from repro.engine import ResultCache
from repro.engine.cache import enforce_directory_limit
from repro.obs import runtime as obs

SECTIONS = {
    "meta": ("q", array("q", [3, 1, 4, 1, 5]).tobytes()),
    "raw": ("B", b"\x00\x01\xfe\xff"),
}
FP = "ab" * 32


def _corrupt_events(run_ctx) -> list[dict]:
    return [e for e in run_ctx.events if e.get("kind") == "artifact-corrupt"]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
def test_format_roundtrip(tmp_path):
    blob = ap.write_artifact_bytes(FP, SECTIONS)
    path = tmp_path / "x.art"
    path.write_bytes(blob)
    with ap.attach_artifact(path, FP) as attached:
        assert attached.fingerprint == FP
        assert list(attached.ints("meta")) == [3, 1, 4, 1, 5]
        assert bytes(attached.view("raw", "B")) == b"\x00\x01\xfe\xff"


def test_format_rejects_wrong_kind_and_missing_section(tmp_path):
    path = tmp_path / "x.art"
    path.write_bytes(ap.write_artifact_bytes(FP, SECTIONS))
    with ap.attach_artifact(path) as attached:
        with pytest.raises(ap.ArtifactFormatError):
            attached.view("meta", "B")  # stored as "q"
        with pytest.raises(ap.ArtifactFormatError):
            attached.view("nope")


def test_attach_rejects_foreign_fingerprint(tmp_path):
    path = tmp_path / "x.art"
    path.write_bytes(ap.write_artifact_bytes(FP, SECTIONS))
    with pytest.raises(ap.ArtifactFormatError):
        ap.attach_artifact(path, expect_fingerprint="cd" * 32)


# ----------------------------------------------------------------------
# Store semantics
# ----------------------------------------------------------------------
def test_store_publish_then_attach(tmp_path):
    store = ap.ArtifactStore(tmp_path)
    assert store.attach("kernel", FP) is None  # cold miss
    assert store.publish("kernel", FP, SECTIONS)
    attached = store.attach("kernel", FP)
    assert attached is not None
    assert list(attached.ints("meta")) == [3, 1, 4, 1, 5]
    assert (store.stats.hits, store.stats.misses,
            store.stats.stores) == (1, 1, 1)
    store.close()


def test_read_only_store_never_publishes(tmp_path):
    store = ap.ArtifactStore(tmp_path, mode="ro")
    assert not store.publish("kernel", FP, SECTIONS)
    assert not list(tmp_path.rglob("*.art"))
    assert store.stats.stores == 0


# ----------------------------------------------------------------------
# Corruption and version drift: each variant is a discarded file with
# exactly one warning event, and the next publish attaches cleanly.
# ----------------------------------------------------------------------
def _truncate(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


def _flip_payload_byte(path):
    raw = bytearray(path.read_bytes())
    raw[-40] ^= 0xFF  # inside the last section, before the digest
    path.write_bytes(bytes(raw))


def _stale_version(path):
    # Patch the header version and re-seal the checksum, so the *only*
    # defect is format-version drift.
    raw = bytearray(path.read_bytes())[:-32]
    struct.pack_into("<I", raw, 8, 999)
    import hashlib

    path.write_bytes(bytes(raw) + hashlib.sha256(raw).digest())


def _foreign_fingerprint(path):
    # A checksum-valid artifact for some *other* protocol landed under
    # this key (e.g. a renamed file): the embedded fingerprint betrays it.
    path.write_bytes(ap.write_artifact_bytes("cd" * 32, SECTIONS))


@pytest.mark.parametrize("sabotage", [_truncate, _flip_payload_byte,
                                      _stale_version, _foreign_fingerprint],
                         ids=["truncated", "flipped-byte", "stale-version",
                              "foreign-fingerprint"])
def test_corrupt_artifact_discarded_and_rebuilt(tmp_path, sabotage):
    store = ap.ArtifactStore(tmp_path)
    store.publish("kernel", FP, SECTIONS)
    path = store.path_for("kernel", FP)
    sabotage(path)
    with obs.run("corruption") as run_ctx:
        assert store.attach("kernel", FP) is None
    assert store.stats.corrupt == 1
    assert not path.exists()  # bad file deleted
    events = _corrupt_events(run_ctx)
    assert len(events) == 1
    assert events[0]["level"] == "warning"
    # The rebuild path publishes and attaches cleanly.
    assert store.publish("kernel", FP, SECTIONS)
    assert store.attach("kernel", FP) is not None
    store.close()


# ----------------------------------------------------------------------
# The shared LRU-by-mtime size cap
# ----------------------------------------------------------------------
def test_store_limit_evicts_oldest(tmp_path):
    store = ap.ArtifactStore(tmp_path)
    for index in range(3):
        store.publish("kernel", f"{index:02d}" * 32, SECTIONS)
        path = store.path_for("kernel", f"{index:02d}" * 32)
        os.utime(path, (1_000_000 + index, 1_000_000 + index))
    size = store.path_for("kernel", "00" * 32).stat().st_size
    removed = store.enforce_limit(size + 1)  # room for exactly one file
    assert removed == 2
    assert store.stats.evictions == 2
    assert store.attach("kernel", "00" * 32) is None  # oldest gone
    assert store.attach("kernel", "02" * 32) is not None  # newest kept
    store.close()


def test_shared_limit_spares_journals(tmp_path):
    (tmp_path / "ab").mkdir()
    (tmp_path / "ab" / "entry.pkl").write_bytes(b"x" * 100)
    (tmp_path / "artifacts" / "cd").mkdir(parents=True)
    (tmp_path / "artifacts" / "cd" / "blob.art").write_bytes(b"y" * 100)
    (tmp_path / "runs").mkdir()
    journal = tmp_path / "runs" / "journal.jsonl"
    journal.write_bytes(b"z" * 100)
    removed = enforce_directory_limit(tmp_path, 0,
                                      suffix=(".pkl", ".art"))
    assert removed == 2
    assert journal.exists()
    assert not list(tmp_path.rglob("*.pkl"))
    assert not list(tmp_path.rglob("*.art"))


def test_result_cache_disk_cap(tmp_path):
    cache = ResultCache(tmp_path, limit_bytes=1)
    for index in range(40):  # crosses the periodic sweep interval
        cache.put(f"{index:02d}" * 32, list(range(100)))
    assert cache.stats.evictions > 0
    assert len(list(tmp_path.rglob("*.pkl"))) < 40  # swept mid-run
    # The memory layer is unaffected by disk eviction.
    assert cache.get("00" * 32) == list(range(100))
