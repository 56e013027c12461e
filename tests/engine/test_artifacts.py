"""Zero-copy artifact plane: wire format, store semantics, corruption.

The binary format must round-trip typed buffers exactly; the store must
treat *every* structural problem — truncation, bit rot, version drift,
fingerprint mismatch, semantically stale sections — as a miss that
deletes the bad file, emits exactly one ``artifact-corrupt`` warning
and rebuilds from source with byte-identical verdicts; and the shared
LRU size cap must age out old files without ever touching journals.
"""

from __future__ import annotations

import json
import os
import struct
from array import array

import pytest

import repro.engine.artifacts as ap
from repro.checker import check_instance
from repro.engine import ResultCache
from repro.engine.kernel import build_space, compile_protocol
from repro.engine.localkernel import local_kernel_for
from repro.obs import runtime as obs
from repro.protocols import generalizable_matching
from repro.serialization import global_report_to_dict

SECTIONS = {
    "meta": ("q", array("q", [3, 1, 4, 1, 5]).tobytes()),
    "raw": ("B", b"\x00\x01\xfe\xff"),
}
FP = "ab" * 32


def _verdict_bytes(report) -> str:
    data = global_report_to_dict(report)
    data.pop("stats", None)
    return json.dumps(data, sort_keys=True)


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
# Corruption and version drift: each variant is a clean rebuild with
# exactly one warning event and byte-identical verdicts.
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


@pytest.mark.parametrize("sabotage", [_truncate, _flip_payload_byte,
                                      _stale_version, _foreign_fingerprint],
                         ids=["truncated", "flipped-byte", "stale-version",
                              "foreign-fingerprint"])
def test_corrupt_kernel_artifact_keeps_verdicts(tmp_path, sabotage):
    reference = check_instance(generalizable_matching().instantiate(4))
    store = ap.ArtifactStore(tmp_path)
    with ap.plane(store):
        compile_protocol(generalizable_matching())
        sabotage(next(tmp_path.rglob("*.art")))  # the one kernel artifact
        with obs.run("rebuild") as run_ctx:
            report = check_instance(generalizable_matching().instantiate(4))
    assert _verdict_bytes(report) == _verdict_bytes(reference)
    assert len(_corrupt_events(run_ctx)) == 1
    store.close()


def test_semantically_stale_sections_are_corruption(tmp_path):
    """A checksum-valid artifact whose sections contradict the live
    protocol (e.g. stale after a DSL change that kept the key) must be
    discarded like bit rot, not trusted."""
    from repro.engine.fingerprint import protocol_fingerprint

    protocol = generalizable_matching()
    fingerprint = protocol_fingerprint(protocol)
    store = ap.ArtifactStore(tmp_path)
    store.publish("kernel", fingerprint, {
        "meta": ("q", array("q", [9, 9, 9, 9]).tobytes()),
        "legit": ("B", b"\x01"),
        "targets_off": ("q", array("q", [0, 0]).tobytes()),
        "targets_flat": ("q", b""),
    })
    with ap.plane(store), obs.run("stale") as run_ctx:
        compiled = compile_protocol(protocol)
    assert not compiled.attached  # rebuilt from source
    assert store.stats.corrupt == 1
    assert len(_corrupt_events(run_ctx)) == 1
    report = check_instance(generalizable_matching().instantiate(4))
    assert _verdict_bytes(report) == _verdict_bytes(
        check_instance(protocol.instantiate(4)))
    store.close()


# ----------------------------------------------------------------------
# Warm starts: kernel, packed space, localkernel skeleton
# ----------------------------------------------------------------------
def test_kernel_and_space_attach_identically(tmp_path):
    cold_report = check_instance(generalizable_matching().instantiate(5))
    store = ap.ArtifactStore(tmp_path)
    with ap.plane(store):
        cold = compile_protocol(generalizable_matching())
        cold_space = build_space(generalizable_matching().instantiate(5))
        assert not cold.attached and not cold_space.attached
        # Fresh protocol objects: the in-process memo cannot serve them,
        # so this exercises the attach path end to end.
        warm = compile_protocol(generalizable_matching())
        warm_space = build_space(generalizable_matching().instantiate(5))
        assert warm.attached and warm_space.attached
        assert warm.target_rows == cold.target_rows
        assert bytes(warm.legit) == bytes(cold.legit)
        assert list(warm_space.succ_off) == list(cold_space.succ_off)
        assert list(warm_space.succ_flat) == list(cold_space.succ_flat)
        assert bytes(warm_space.invariant) == bytes(cold_space.invariant)
        warm_report = check_instance(generalizable_matching().instantiate(5))
    assert _verdict_bytes(warm_report) == _verdict_bytes(cold_report)
    assert store.stats.hits >= 2
    store.close()


def test_quotient_space_attach(tmp_path):
    store = ap.ArtifactStore(tmp_path)
    with ap.plane(store):
        cold = build_space(generalizable_matching().instantiate(5),
                           symmetry=True)
        warm = build_space(generalizable_matching().instantiate(5),
                           symmetry=True)
    assert not cold.attached and warm.attached
    assert list(warm.codes) == list(cold.codes)
    assert list(warm.succ_off) == list(cold.succ_off)
    assert bytes(warm.invariant) == bytes(cold.invariant)
    store.close()


def test_localkernel_skeleton_attach(tmp_path):
    store = ap.ArtifactStore(tmp_path)
    with ap.plane(store):
        cold = local_kernel_for(generalizable_matching())
        warm = local_kernel_for(generalizable_matching())
    assert not cold.attached and warm.attached
    assert warm.s_masks == cold.s_masks
    assert warm.illegit_mask == cold.illegit_mask
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
    removed = ap.enforce_directory_limit(tmp_path, 0,
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
