"""Cache keys, invalidation, and corruption handling.

The fingerprint must change whenever anything verdict-relevant changes —
an action, the invariant, an analysis parameter — and must *not* change
for presentation details (protocol name, action labels).  The disk layer
must shrug off corrupted entries rather than raising, fsync only when
asked to, and never leave a temporary file that ``repro cache --clear``
cannot remove.
"""

from __future__ import annotations

import os
import re

import repro.engine.artifacts as artifact_plane
import repro.engine.cache as cache_module
from repro.checker.sweep import sweep_verify
from repro.cli import main
from repro.engine import ResultCache, analysis_key, protocol_fingerprint
from repro.engine.cache import CacheStats, new_run_id, runs_root
from repro.protocol.process import ProcessTemplate
from repro.protocol.ring import RingProtocol
from repro.protocol.variables import ranged
from repro.protocols import agreement, stabilizing_agreement


def _protocol(legitimacy="x[0] == x[-1]", actions=(), name="p"):
    x = ranged("x", 2)
    process = ProcessTemplate(variables=(x,))
    protocol = RingProtocol(name, process, legitimacy)
    if actions:
        protocol = protocol.extended_with(actions, name=name)
    return protocol


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_stable_across_rebuilds():
    assert (protocol_fingerprint(stabilizing_agreement())
            == protocol_fingerprint(stabilizing_agreement()))


def test_fingerprint_ignores_presentation():
    assert (protocol_fingerprint(_protocol(name="a"))
            == protocol_fingerprint(_protocol(name="b")))


def test_fingerprint_changes_with_actions():
    # agreement vs its synthesized stabilizing variant differ only in
    # recovery actions — the fingerprint must see that.
    assert (protocol_fingerprint(agreement())
            != protocol_fingerprint(stabilizing_agreement()))


def test_fingerprint_changes_with_invariant():
    assert (protocol_fingerprint(_protocol("x[0] == x[-1]"))
            != protocol_fingerprint(_protocol("x[0] != x[-1]")))


def test_fingerprint_covers_callable_legitimacy():
    dsl = _protocol("x[0] == x[-1]")
    by_callable = RingProtocol(
        "q", ProcessTemplate(variables=(ranged("x", 2),)),
        lambda view: view.state.cell(0) == view.state.cell(-1))
    assert protocol_fingerprint(dsl) == protocol_fingerprint(by_callable)


def test_analysis_key_varies_with_parameters():
    protocol = stabilizing_agreement()
    base = analysis_key("check-instance", protocol, ring_size=5)
    assert base != analysis_key("check-instance", protocol, ring_size=6)
    assert base != analysis_key("livelock", protocol, ring_size=5)
    assert base == analysis_key("check-instance", protocol, ring_size=5)


def test_mutations_force_sweep_recompute(tmp_path):
    """End to end: action/invariant/parameter mutations miss the cache."""
    cache = ResultCache(tmp_path / "cache")
    sweep_verify(agreement(), up_to=4, cache=cache)
    baseline_stores = cache.stats.stores

    mutated_actions = sweep_verify(stabilizing_agreement(), up_to=4,
                                   cache=cache)
    assert mutated_actions.stats.cache_hits == 0
    assert cache.stats.stores > baseline_stores

    mutated_invariant = sweep_verify(
        _protocol("x[0] != x[-1]"), up_to=4, cache=cache)
    assert mutated_invariant.stats.cache_hits == 0

    wider = sweep_verify(agreement(), up_to=5, cache=cache)
    assert wider.stats.cache_hits == 3  # K=2..4 reused, K=5 fresh
    assert wider.stats.cache_misses == 1


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
def test_memory_roundtrip_and_stats():
    cache = ResultCache()
    assert cache.get("missing") is None
    assert cache.get("missing", default=7) == 7
    cache.put("k", {"verdict": "ok"})
    assert cache.get("k") == {"verdict": "ok"}
    assert "k" in cache and "missing" not in cache
    assert cache.stats == CacheStats(hits=1, misses=2, stores=1)


def test_disk_roundtrip_across_instances(tmp_path):
    directory = tmp_path / "cache"
    ResultCache(directory).put("deadbeef" * 8, ("report", 42))
    reloaded = ResultCache(directory)
    assert reloaded.get("deadbeef" * 8) == ("report", 42)
    assert reloaded.stats.disk_hits == 1


def test_corrupted_disk_entry_discarded(tmp_path):
    directory = tmp_path / "cache"
    key = "cafebabe" * 8
    writer = ResultCache(directory)
    writer.put(key, ("precious", "result"))
    entry = directory / key[:2] / f"{key}.pkl"
    assert entry.exists()

    entry.write_bytes(b"this is not a cache entry")
    reader = ResultCache(directory)
    assert reader.get(key) is None  # a miss, not an exception
    assert reader.stats.corrupt_entries == 1
    assert not entry.exists()  # the bad entry is gone
    # A store/load cycle works again afterwards.
    reader.put(key, ("fresh", "result"))
    assert ResultCache(directory).get(key) == ("fresh", "result")


def test_truncated_payload_detected_by_checksum(tmp_path):
    directory = tmp_path / "cache"
    key = "0badf00d" * 8
    ResultCache(directory).put(key, list(range(100)))
    entry = directory / key[:2] / f"{key}.pkl"
    entry.write_bytes(entry.read_bytes()[:-10])

    reader = ResultCache(directory)
    assert reader.get(key, default="fallback") == "fallback"
    assert reader.stats.corrupt_entries == 1


def test_clear_memory_keeps_disk(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("feedface" * 8, "value")
    cache.clear_memory()
    assert cache.get("feedface" * 8) == "value"
    assert cache.stats.disk_hits == 1


def test_unpicklable_value_stays_in_memory(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("bad", lambda: None)  # not fatal: memory-only
    cache.put("good", 42)
    assert callable(cache.get("bad"))
    fresh = ResultCache(tmp_path)
    assert "bad" not in fresh
    assert fresh.get("good") == 42


def test_memory_only_cache_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResultCache()
    cache.put("a" * 64, "value")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Durable writes and temporary files
# ----------------------------------------------------------------------
def _count_fsyncs(monkeypatch) -> list:
    calls: list = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: calls.append(fd) or real_fsync(fd))
    return calls


def test_durable_cache_fsyncs_every_entry(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    cache = ResultCache(tmp_path, durable=True)
    for index in range(3):
        before = len(calls)
        cache.put(f"{index:064x}", index)
        # The entry's bytes before its rename, then its directory.
        assert len(calls) - before == 2
    assert ResultCache(tmp_path).get(f"{2:064x}") == 2


def test_durable_roundtrip_across_instances(tmp_path):
    writer = ResultCache(tmp_path, durable=True)
    for index in range(3):
        writer.put(f"{index:064x}", {"value": index})
    resumed = ResultCache(tmp_path)
    assert [resumed.get(f"{i:064x}") for i in range(3)] == [
        {"value": i} for i in range(3)]
    assert resumed.stats.disk_hits == 3
    assert resumed.stats.corrupt_entries == 0
    assert f"{1:064x}" in resumed
    assert "missing" not in resumed


def test_default_cache_does_not_fsync(tmp_path, monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    cache = ResultCache(tmp_path)
    for index in range(3):
        cache.put(f"{index:064x}", index)
    assert calls == []
    assert ResultCache(tmp_path).get(f"{2:064x}") == 2


def test_failed_rename_removes_its_temporary(tmp_path, monkeypatch):
    def refuse(self, target):
        raise OSError("disk full")

    monkeypatch.setattr(type(tmp_path), "replace", refuse)
    cache = ResultCache(tmp_path)
    cache.put("ab" * 32, "value")  # non-fatal
    monkeypatch.undo()
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
    assert cache.get("ab" * 32) == "value"  # the memory layer kept it


def test_clear_removes_stray_temporaries(tmp_path, capsys):
    key = "cd" * 32
    ResultCache(tmp_path).put(key, "value")
    shard = tmp_path / key[:2]
    # What writers killed between write and rename leave behind: the
    # old fixed name, a per-writer name, and an empty artifact write.
    strays = [shard / f"{key}.tmp", shard / f"{key}.4242.tmp",
              tmp_path / "artifacts" / "kernel" / "x.4242.tmp"]
    strays[-1].parent.mkdir(parents=True)
    for stray in strays[:-1]:
        stray.write_bytes(b"half a pickle")
    strays[-1].write_bytes(b"")
    (tmp_path / "runs" / "r1").mkdir(parents=True)
    (tmp_path / "runs" / "r1" / "status.json").write_text("{}")

    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    assert "3 temporary files" in capsys.readouterr().out
    assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
    assert "cleared 4 entries" in capsys.readouterr().out
    assert not any(stray.exists() for stray in strays)
    assert (tmp_path / "runs" / "r1" / "status.json").exists()


def test_cache_lists_legacy_artifacts_without_attaching(tmp_path, capsys,
                                                        monkeypatch):
    # Older versions left mmap-able artifact files under artifacts/;
    # nothing reads them now, so `repro cache` counts them and --clear
    # removes them.
    legacy = tmp_path / "artifacts" / "ab" / f"{'ab' * 32}.art"
    legacy.parent.mkdir(parents=True)
    legacy.write_bytes(artifact_plane.write_artifact_bytes(
        "cd" * 32, {"meta": ("q", bytes(8))}))

    def refuse(*args, **kwargs):
        raise AssertionError("repro cache attached a legacy artifact")

    monkeypatch.setattr(artifact_plane, "attach_artifact", refuse)
    assert main(["cache", "--cache-dir", str(tmp_path)]) == 0
    assert "legacy artifacts: 1 files" in capsys.readouterr().out
    assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
    assert "cleared 1 entries" in capsys.readouterr().out
    assert not legacy.exists()


def _count_walks(monkeypatch) -> list[str]:
    """Record each directory walk the result cache makes."""
    walks: list[str] = []
    for name in ("directory_bytes", "enforce_directory_limit"):
        def counted(*args, _walk=getattr(cache_module, name), _name=name,
                    **kwargs):
            walks.append(_name)
            return _walk(*args, **kwargs)

        monkeypatch.setattr(cache_module, name, counted)
    return walks


def test_size_cap_walks_the_cache_once_while_under_it(tmp_path,
                                                      monkeypatch):
    filler = ResultCache(tmp_path)
    for index in range(200):
        filler.put(f"{index:064x}", index)
    walks = _count_walks(monkeypatch)
    cache = ResultCache(tmp_path, limit_bytes=1 << 30)
    for index in range(200, 300):
        cache.put(f"{index:064x}", index)
    assert len(walks) <= 1
    assert cache.stats.evictions == 0


def test_size_cap_sweeps_every_interval_once_over_it(tmp_path,
                                                      monkeypatch):
    filler = ResultCache(tmp_path)
    for index in range(200):
        filler.put(f"{index:064x}", index)
    entry = next(tmp_path.rglob("*.pkl")).stat().st_size
    walks = _count_walks(monkeypatch)
    # Earlier runs' entries count against the cap: 64 stores into a
    # cache already over it sweep it back under twice, and walk once
    # more to learn its size.
    cache = ResultCache(tmp_path, limit_bytes=100 * entry)
    for index in range(200, 264):
        cache.put(f"{index:064x}", index)
    assert walks == ["directory_bytes", "enforce_directory_limit",
                     "enforce_directory_limit"]
    assert cache.stats.evictions > 100
    assert len(list(tmp_path.rglob("*.pkl"))) <= 100


# ----------------------------------------------------------------------
# Run identifiers
# ----------------------------------------------------------------------
def test_new_run_id_is_sortable_and_unique():
    first, second = new_run_id(), new_run_id()
    assert re.fullmatch(r"\d{8}-\d{6}-[0-9a-f]{6}", first)
    assert first != second


def test_runs_root_defaults_to_cache_dir():
    from repro.engine import DEFAULT_CACHE_DIR

    assert runs_root() == runs_root(DEFAULT_CACHE_DIR)
    assert runs_root("/tmp/x").as_posix() == "/tmp/x/runs"
