"""The command-line interface end to end."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "matching-ex4.2" in out
    assert "sum-not-two" in out


def test_show(capsys):
    assert main(["show", "agreement-ss"]) == 0
    out = capsys.readouterr().out
    assert "protocol agreement-ss" in out
    assert "t01" in out


def test_verify_converging_protocol(capsys):
    assert main(["verify", "agreement-ss"]) == 0
    out = capsys.readouterr().out
    assert "verdict: converges" in out


def test_verify_diverging_protocol_reports_sizes(capsys):
    assert main(["verify", "matching-ex4.3", "--max-sizes", "8"]) == 1
    out = capsys.readouterr().out
    assert "verdict: diverges" in out
    assert "deadlocked ring sizes" in out
    assert "4" in out and "6" in out


def test_check(capsys):
    assert main(["check", "agreement-ss", "-K", "5"]) == 0
    out = capsys.readouterr().out
    assert "K=5" in out
    assert "strong convergence: True" in out


def test_check_failing_instance(capsys):
    assert main(["check", "matching-gouda-acharya", "-K", "5"]) == 1


def test_hybrid_witness_past_the_bound_exits_1(capsys):
    # Under a bound of 2 the K=3 witness is never checked, so nothing
    # supports a pass (a bound of 3 finds the real livelock).
    assert main(["hybrid", "agreement-livelock", "--check-up-to", "2"]) == 1
    assert "hybrid verdict: witness-past-bound" in capsys.readouterr().out


def test_synthesize_success(capsys):
    assert main(["synthesize", "sum-not-two"]) == 0
    out = capsys.readouterr().out
    assert "success" in out
    assert "protocol sum-not-two_ss" in out


def test_synthesize_failure(capsys):
    assert main(["synthesize", "3-coloring"]) == 1
    out = capsys.readouterr().out
    assert "failure" in out


#: One invocation of each command that once took an oracle flag.
ORACLE_FLAG_COMMANDS = {
    "synthesize": ["sum-not-two"],
    "verify": ["agreement-ss"],
    "check": ["agreement-ss", "-K", "3"],
    "sweep": ["agreement-ss", "--up-to", "3"],
    "hybrid": ["agreement-ss", "--check-up-to", "3"],
}


@pytest.mark.parametrize("flag", [["--search", "flat"],
                                  ["--backend", "naive"]])
def test_synthesize_has_no_oracle_flags(flag, capsys):
    # The naive backend and the flat search are test oracles, reached
    # through the API only: no command takes --backend, and only
    # synthesize ever took --search.
    commands = (["synthesize"] if flag[0] == "--search"
                else list(ORACLE_FLAG_COMMANDS))
    for command in commands:
        with pytest.raises(SystemExit) as raised:
            main([command, *ORACLE_FLAG_COMMANDS[command], *flag])
        assert raised.value.code == 2, command


@pytest.mark.parametrize("command", ["verify", "check", "sweep", "fuzz",
                                     "synthesize"])
def test_no_command_takes_artifacts(command, capsys):
    # The artifact plane is reachable from the API only.
    argv = [command, *ORACLE_FLAG_COMMANDS.get(command, ["--samples", "1"]),
            "--artifacts", "rw"]
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2


def test_cached_runs_write_results_only(tmp_path, capsys):
    for argv in (["sweep", "agreement-ss", "--up-to", "4"],
                 ["fuzz", "--samples", "10", "--max-ring-size", "3"]):
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0
    assert list(tmp_path.rglob("*.pkl"))
    assert not (tmp_path / "artifacts").exists()
    assert not list(tmp_path.rglob("*.art"))


@pytest.mark.parametrize("flag", ["--live", "--no-live"])
@pytest.mark.parametrize("command", ["verify", "check", "sweep", "fuzz",
                                     "synthesize"])
def test_no_command_takes_live(command, flag, capsys):
    # Nothing publishes status snapshots: a run is recorded by its
    # ledger line and, with --trace, its trace.
    argv = [command, *ORACLE_FLAG_COMMANDS.get(command, ["--samples", "1"]),
            flag]
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2


@pytest.mark.parametrize("argv", [["ps"], ["top", "some-run"]])
def test_no_ps_or_top(argv, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2


def test_engine_commands_leave_no_run_directory(tmp_path, capsys):
    # Only --checkpoint creates runs/<run-id>/ (for --resume).
    for argv in (["verify", "sum-not-two-ss"],
                 ["check", "sum-not-two-ss", "-K", "4"],
                 ["synthesize", "sum-not-two"],
                 ["sweep", "sum-not-two-ss", "--up-to", "5", "--jobs", "2"],
                 ["fuzz", "--samples", "10", "--max-ring-size", "3",
                  "--jobs", "2"]):
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 0, argv
    assert (tmp_path / "ledger.jsonl").exists()
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["check", "sweep", "hybrid"])
def test_no_command_takes_symmetry(command, capsys):
    # Every kernel check decides on the rotation quotient and reports
    # the full space, so the quotient is no longer a flag.
    with pytest.raises(SystemExit) as raised:
        main([command, *ORACLE_FLAG_COMMANDS[command], "--symmetry"])
    assert raised.value.code == 2
    assert "--symmetry" in capsys.readouterr().err


def test_simulate(capsys):
    assert main(["simulate", "agreement-ss", "-K", "6",
                 "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "20/20 converged" in out


def test_figures(tmp_path, capsys):
    assert main(["figures", "--out", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert "fig01_rcg_matching.dot" in written
    assert "fig04_ltg_ex42.dot" in written
    for path in tmp_path.iterdir():
        assert path.read_text().startswith("digraph")


def test_unknown_protocol_exit_code(capsys):
    assert main(["verify", "no-such-protocol"]) == 2
    assert "unknown protocol" in capsys.readouterr().err


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


#: Bad input, one row per way it used to end in a traceback or in a
#: silently wrong answer.  Exit 1 is every protocol command's negative
#: verdict, so bad input must exit 2 instead.
BAD_INPUT = {
    "timeout-zero": ["sweep", "sum-not-two-ss", "--timeout", "0"],
    "retries-negative": ["sweep", "sum-not-two-ss", "--retries", "-1"],
    "verify-ring-bound": ["verify", "sum-not-two-ss",
                          "--max-ring-size", "1"],
    "hybrid-ring-bound": ["hybrid", "sum-not-two-ss",
                          "--max-ring-size", "1"],
    "synthesize-ring-bound": ["synthesize", "3-coloring",
                              "--max-ring-size", "1"],
    "fuzz-ring-bound": ["fuzz", "--samples", "3", "--max-ring-size", "1"],
    "fuzz-samples-negative": ["fuzz", "--samples", "-3"],
    "fuzz-cache-limit-negative": ["fuzz", "--samples", "3",
                                  "--cache-limit", "-1"],
    "cache-limit-negative": ["cache", "--cache-limit", "-1"],
    "sweep-empty-range": ["sweep", "sum-not-two-ss", "--up-to", "1"],
    "check-degenerate-ring": ["check", "sum-not-two-ss", "-K", "1"],
    # One instance is one work item: check takes no --jobs.
    "check-jobs": ["check", "sum-not-two-ss", "-K", "4", "--jobs", "2"],
    # The certificate is one in-process pass: verify takes no --jobs.
    "verify-jobs": ["verify", "sum-not-two-ss", "--jobs", "2"],
    # Each Resolve set's pool is one in-process walk: synthesize takes
    # no engine flag.
    "synthesize-jobs": ["synthesize", "sum-not-two", "--jobs", "2"],
    "synthesize-cache": ["synthesize", "sum-not-two", "--cache"],
    "synthesize-cache-limit": ["synthesize", "sum-not-two",
                               "--cache-limit", "8"],
    "synthesize-timeout": ["synthesize", "sum-not-two", "--timeout", "30"],
    "synthesize-retries": ["synthesize", "sum-not-two", "--retries", "1"],
    "synthesize-checkpoint": ["synthesize", "sum-not-two", "--checkpoint"],
    "synthesize-resume": ["synthesize", "sum-not-two", "--resume", "x"],
    # No parser takes an abbreviation of a long option: --cache is not
    # --cache-dir, and --max-ring is not --max-ring-size.
    "synthesize-cache-abbreviated": ["synthesize", "sum-not-two",
                                     "--cache", "{tmp}/probe"],
    "verify-max-ring-abbreviated": ["verify", "sum-not-two-ss",
                                    "--max-ring", "5"],
    "sweep-jobs-zero": ["sweep", "sum-not-two-ss", "--up-to", "4",
                        "--jobs", "0"],
    "fuzz-jobs-negative": ["fuzz", "--samples", "3", "--jobs", "-1"],
    "verify-max-sizes-zero": ["verify", "sum-not-two", "--max-sizes", "0"],
    "hybrid-empty-check-range": ["hybrid", "agreement-livelock",
                                 "--check-up-to", "1"],
    "missing-file": ["verify", "{tmp}/missing.json"],
    "not-json": ["verify", "{tmp}/garbage.json"],
    "no-variables": ["verify", "{tmp}/no-variables.json"],
}


@pytest.mark.parametrize("row", list(BAD_INPUT))
def test_bad_input_exits_2_with_one_error_line(row, tmp_path, capsys):
    (tmp_path / "garbage.json").write_text("not json\n")
    (tmp_path / "no-variables.json").write_text('{"name": "x"}\n')
    argv = [arg.format(tmp=tmp_path) for arg in BAD_INPUT[row]]
    if argv[0] != "hybrid":
        argv += ["--cache-dir", str(tmp_path / "cache")]
    if argv[0] not in ("cache", "hybrid"):
        argv += ["--no-ledger"]
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse rejects the value
        code = exit_.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    if row == "no-variables":
        assert "missing field 'variables'" in line
    assert not (tmp_path / "cache").exists()  # nothing ran
    assert not (tmp_path / "probe").exists()
