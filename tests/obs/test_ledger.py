"""The cross-run ledger: records, diffing, and `repro runs`."""

import json

import pytest

from repro.cli import main
from repro.obs import ledger, validate


def _record(run_id, *, wall=1.0, counters=None, stages=None,
            verdict=None, flags=None, command="sweep", v=None,
            fingerprint="fp"):
    record = ledger.make_record(
        run_id, command, protocol="p", fingerprint=fingerprint,
        flags=flags or {"up_to": 6}, verdict=verdict or {"ok": True},
        exit_status=0, wall_seconds=wall, started=1000.0,
        counters=counters or {}, stage_seconds=stages or {})
    if v is not None:
        record["v"] = v
    return record


# ----------------------------------------------------------------------
# Append / load round-trip and corruption tolerance
# ----------------------------------------------------------------------
def test_append_load_roundtrip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger.append(path, _record("a"))
    ledger.append(path, _record("b", wall=2.0))
    records, skipped = ledger.load(path)
    assert skipped == 0
    assert [r["run_id"] for r in records] == ["a", "b"]
    assert validate.validate_ledger_records(records)
    assert validate.validate_ledger(path) == {"records": 2}


def test_load_skips_damaged_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger.append(path, _record("a"))
    with open(path, "a") as handle:
        handle.write('{"torn": \n')        # torn tail
        handle.write('"just a string"\n')  # parseable, wrong shape
        handle.write('{"no_run_id": 1}\n')
    ledger.append(path, _record("b"))
    records, skipped = ledger.load(path)
    assert [r["run_id"] for r in records] == ["a", "b"]
    assert skipped == 3
    with pytest.raises(validate.ValidationError):
        validate.validate_ledger(path)  # CI mode refuses damage


def test_load_missing_file(tmp_path):
    assert ledger.load(tmp_path / "absent.jsonl") == ([], 0)


def test_verdict_digest_is_order_insensitive():
    a = ledger.verdict_digest({"x": 1, "y": [2, 3]})
    b = ledger.verdict_digest({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16
    assert ledger.verdict_digest({"x": 2, "y": [2, 3]}) != a


# ----------------------------------------------------------------------
# Baseline selection
# ----------------------------------------------------------------------
def test_find_run_last_record_wins(tmp_path):
    records = [_record("a", wall=1.0), _record("a", wall=9.0)]
    assert ledger.find_run(records, "a")["wall_seconds"] == 9.0
    assert ledger.find_run(records, "zz") is None


def test_latest_matching_respects_identity():
    records = [
        _record("other-cmd", command="verify"),
        _record("other-flags", flags={"up_to": 9}),
        _record("other-fp", fingerprint="zz"),
        _record("old-version", v=99),
        _record("match-1"),
        _record("match-2"),
        _record("candidate"),
    ]
    candidate = records[-1]
    assert ledger.latest_matching(records, candidate)["run_id"] \
        == "match-2"
    assert ledger.latest_matching(records[:1], records[0]) is None
    # Records appended AFTER the candidate are never its baseline.
    assert ledger.latest_matching(records, records[-2])["run_id"] \
        == "match-1"


def test_retired_flags_do_not_split_identity():
    # Records written while --schedule / --batch-size existed carry
    # them; a run recorded after their removal must still match.
    old = _record("old", flags={"up_to": 6, "schedule": "auto"})
    new = _record("new", flags={"up_to": 6})
    assert ledger.identity(old) == ledger.identity(new)
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"
    tuned = _record("tuned", flags={"up_to": 6, "schedule": "batch",
                                    "batch_size": 2})
    assert ledger.latest_matching([tuned, new], new)["run_id"] == "tuned"


def test_sweep_records_match_across_the_symmetry_flag_removal():
    # A sweep recorded with --symmetry carries symmetry=True; one
    # recorded after the flag went carries none and must still match.
    # Its fingerprint is the one a sweep without the flag had.
    from repro.checker.sweep import sweep_fingerprint
    from repro.engine import analysis_key
    from repro.protocols import stabilizing_agreement

    protocol = stabilizing_agreement()
    assert sweep_fingerprint(protocol, 6) == analysis_key(
        "sweep", protocol, start=2, up_to=6, symmetry=False)
    old = _record("old", flags={"up_to": 6, "symmetry": True})
    new = _record("new", flags={"up_to": 6})
    assert ledger.identity(old) == ledger.identity(new)
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_synthesize_records_match_across_the_oracle_flag_removal():
    # synthesize recorded backend=auto and search=lattice while it had
    # --backend/--search; a run recorded after their removal carries
    # neither and must still match, whatever value the old record has.
    old = _record("old", command="synthesize",
                  flags={"artifacts": "auto", "backend": "auto", "jobs": 1,
                         "max_ring_size": 9, "search": "lattice"})
    new = _record("new", command="synthesize",
                  flags={"artifacts": "auto", "jobs": 1,
                         "max_ring_size": 9})
    assert ledger.identity(old) == ledger.identity(new)
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"
    naive = _record("naive", command="synthesize",
                    flags={"artifacts": "auto", "backend": "naive",
                           "jobs": 1, "max_ring_size": 9,
                           "search": "flat"})
    assert ledger.identity(naive) == ledger.identity(new)
    assert ledger.latest_matching([naive, new], new)["run_id"] == "naive"


def test_sweep_records_match_across_the_backend_flag_removal(tmp_path,
                                                             capsys):
    # sweep recorded --backend while it had the flag; a record with an
    # explicit backend is the baseline of a run recorded after its
    # removal.
    assert main(["sweep", "sum-not-two", "--up-to", "4",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 1
    (new,) = ledger.load(ledger.ledger_path(tmp_path))[0]
    old = dict(new, run_id="old",
               flags={**new["flags"], "backend": "kernel"})
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_fuzz_records_match_across_the_artifacts_flag_removal(tmp_path,
                                                              capsys):
    # Every record written while --artifacts existed carries its
    # default, artifacts=auto; a fuzz recorded after its removal must
    # still find such a record as its baseline.
    assert main(["fuzz", "--samples", "5", "--max-ring-size", "3",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 0
    (new,) = ledger.load(ledger.ledger_path(tmp_path))[0]
    assert "artifacts" not in new["flags"]
    old = dict(new, run_id="old",
               flags={**new["flags"], "artifacts": "auto"})
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_check_records_match_across_the_jobs_flag_removal(tmp_path,
                                                          capsys):
    # check took --jobs (and ignored it) until the flag went; its
    # records still carry jobs=1, so older check records stay baselines.
    assert main(["check", "sum-not-two-ss", "-K", "4",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 0
    (new,) = ledger.load(ledger.ledger_path(tmp_path))[0]
    assert new["flags"]["jobs"] == 1
    old = dict(new, run_id="old", flags={"jobs": 1, "ring_size": 4})
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_verify_records_match_across_the_jobs_flag_removal(tmp_path,
                                                           capsys):
    # verify took --jobs, --timeout and --retries until the certificate
    # became one in-process pass; its records still carry jobs=1, so
    # older verify records stay baselines.
    assert main(["verify", "sum-not-two-ss",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 0
    (new,) = ledger.load(ledger.ledger_path(tmp_path))[0]
    assert new["flags"] == {"jobs": 1, "max_ring_size": 9}
    old = dict(new, run_id="old", flags={"jobs": 1, "max_ring_size": 9})
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_synthesize_records_match_across_the_engine_flag_removal(
        tmp_path, capsys):
    # synthesize took --jobs, --cache, --timeout and the other engine
    # flags until each pool became one in-process walk; its records
    # still carry jobs=1, so older synthesize records stay baselines.
    assert main(["synthesize", "sum-not-two",
                 "--cache-dir", str(tmp_path), "--no-live"]) == 0
    (new,) = ledger.load(ledger.ledger_path(tmp_path))[0]
    assert new["flags"] == {"jobs": 1, "max_ring_size": 9}
    old = dict(new, run_id="old", flags={"jobs": 1, "max_ring_size": 9})
    assert ledger.latest_matching([old, new], new)["run_id"] == "old"


def test_latest_matching_ignores_later_records():
    first = _record("first")
    later = _record("later")
    assert ledger.latest_matching([first, later], first) is None
    assert ledger.latest_matching([first, later], later)["run_id"] \
        == "first"


# ----------------------------------------------------------------------
# Diff semantics
# ----------------------------------------------------------------------
def test_diff_flags_verdict_drift():
    base = _record("a", verdict={"ok": True})
    cand = _record("b", verdict={"ok": False})
    result = ledger.diff(cand, base)
    (finding,) = result["regressions"]
    assert finding["kind"] == "verdict"


def test_diff_flags_timing_regressions_over_floor():
    base = _record("a", wall=1.0, stages={"sweep": 1.0, "tiny": 0.001})
    cand = _record("b", wall=1.5,
                   stages={"sweep": 1.04, "tiny": 0.004})
    result = ledger.diff(cand, base, threshold=0.25)
    names = [f["name"] for f in result["regressions"]]
    assert names == ["wall_seconds"]  # sweep +4% under threshold,
    #                                   tiny 4x but under the floor
    slow = ledger.diff(_record("c", wall=1.0,
                               stages={"sweep": 2.0}), base)
    assert [f["name"] for f in slow["regressions"]] == ["stage:sweep"]


def test_diff_flags_health_increase_and_work_drift():
    base = _record("a", counters={"supervisor_timeouts": 0,
                                  "work_items": 5, "cache_hits": 0})
    cand = _record("b", counters={"supervisor_timeouts": 2,
                                  "work_items": 4, "cache_hits": 0})
    kinds = [f["kind"] for f in ledger.diff(cand, base)["regressions"]]
    assert kinds == ["health", "work"]  # sorted worst-kind order


def test_diff_excuses_work_drift_from_cache_hits():
    base = _record("a", counters={"work_items": 5, "cache_hits": 0,
                                  "cache_misses": 5})
    cand = _record("b", counters={"work_items": 0, "cache_hits": 5,
                                  "cache_misses": 0})
    result = ledger.diff(cand, base)
    assert result["regressions"] == []
    assert any("cache hits" in note for note in result["notes"])


def test_diff_flags_cache_rate_drop():
    base = _record("a", counters={"cache_hits": 9, "cache_misses": 1,
                                  "work_items": 1})
    cand = _record("b", counters={"cache_hits": 1, "cache_misses": 9,
                                  "work_items": 1})
    result = ledger.diff(cand, base, threshold=0.25)
    kinds = {f["kind"] for f in result["regressions"]}
    assert "cache" in kinds


def test_diff_identity_mismatch_noted():
    result = ledger.diff(_record("b", flags={"up_to": 9}), _record("a"))
    assert any("identities differ" in note for note in result["notes"])


def test_render_list_and_diff():
    records = [_record("a"), _record("b")]
    listing = ledger.render_list(records, skipped=1)
    assert listing.splitlines()[1].startswith("b")  # newest first
    assert "1 damaged line(s) skipped" in listing
    assert "(ledger is empty)" in ledger.render_list([])
    rendered = ledger.render_diff(
        ledger.diff(_record("b", wall=9.0), _record("a", wall=1.0)))
    assert "[timing]" in rendered and "9.000s" in rendered
    clean = ledger.render_diff(ledger.diff(_record("a"), _record("a")))
    assert "no regressions" in clean


# ----------------------------------------------------------------------
# CLI: ledger recording and repro runs list|show|diff
# ----------------------------------------------------------------------
def test_cli_sweep_records_ledger_entry(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 1
    records, skipped = ledger.load(ledger.ledger_path(tmp_path))
    assert skipped == 0
    (record,) = records
    assert record["command"] == "sweep"
    assert record["protocol"] == "sum-not-two"
    assert record["exit_status"] == 1
    assert record["verdict"]["all_self_stabilizing"] is False
    assert record["verdict"]["failing_sizes"] == [2, 3, 4, 5]
    assert record["flags"]["up_to"] == 5
    assert "run_id" not in record["flags"]
    assert record["counters"]["work_items"] == 4
    assert record["stage_seconds"]["sweep"] > 0
    assert record["wall_seconds"] > 0
    assert validate.validate_ledger_records(records)


def test_cli_warm_check_records_only_its_own_work(tmp_path, capsys):
    # A cache hit answers the check: the run's counters say so, instead
    # of repeating the counters stored with the cached report.
    args = ["check", "agreement-ss", "-K", "6", "--cache-dir",
            str(tmp_path), "--no-live", "--json"]
    assert main(args) == 0
    cold_json = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    warm_json = json.loads(capsys.readouterr().out)
    cold, warm = (record["counters"] for record in
                  ledger.load(ledger.ledger_path(tmp_path))[0])
    assert (cold["cache_hits"], cold["cache_misses"]) == (0, 1)
    # The check decides on the 14 rotation orbits of the 2^6 states.
    assert cold["work_items"] == 1 and cold["states_explored"] == 14
    assert warm["cache_hits"] == 1 and warm["cache_misses"] == 0
    assert warm["work_items"] == 0 and warm["states_explored"] == 0
    assert warm["states_encoded"] == 0
    # A run writes results only, and counts no artifact traffic.
    assert not [key for key in (*cold, *warm) if key.startswith("artifact_")]
    assert not (tmp_path / "artifacts").exists()
    # --json embeds the same counters; the report itself is unchanged.
    assert warm_json["stats"]["cache_hits"] == 1
    assert warm_json["stats"]["states_explored"] == 0
    cold_json.pop("stats"), warm_json.pop("stats")
    assert warm_json == cold_json
    assert warm_json["state_count"] == 64


def test_cli_no_ledger_opts_out(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5",
                 "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-ledger", "--no-live"]) == 1
    assert not ledger.ledger_path(tmp_path).exists()


def test_cli_runs_list_show_diff(tmp_path, capsys):
    common = ["--cache-dir", str(tmp_path), "--no-cache", "--no-live"]
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--run-id",
                 "base"] + common) == 1
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--run-id",
                 "cand"] + common) == 1
    capsys.readouterr()

    assert main(["runs", "list", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "cand" in out

    assert main(["runs", "show", "cand",
                 "--cache-dir", str(tmp_path)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["run_id"] == "cand"

    # Same analysis, same flags: the implicit baseline is 'base' and
    # nothing regressed.
    assert main(["runs", "diff", "cand",
                 "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "baseline base" in out and "no regressions" in out

    # A doctored slow candidate is flagged (exit 1).
    records, _ = ledger.load(ledger.ledger_path(tmp_path))
    slow = dict(ledger.find_run(records, "cand"))
    slow["run_id"] = "slow"
    slow["wall_seconds"] = 1000.0 + (slow["wall_seconds"] or 0.0)
    ledger.append(ledger.ledger_path(tmp_path), slow)
    assert main(["runs", "diff", "slow", "base",
                 "--cache-dir", str(tmp_path)]) == 1
    assert "[timing]" in capsys.readouterr().out

    assert main(["runs", "show", "missing",
                 "--cache-dir", str(tmp_path)]) == 2
    assert main(["runs", "diff", "missing",
                 "--cache-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_runs_diff_no_matching_baseline(tmp_path, capsys):
    assert main(["sweep", "sum-not-two", "--up-to", "5", "--run-id",
                 "only", "--cache-dir", str(tmp_path), "--no-cache",
                 "--no-live"]) == 1
    capsys.readouterr()
    assert main(["runs", "diff", "only",
                 "--cache-dir", str(tmp_path)]) == 2
    assert "no earlier run" in capsys.readouterr().err
