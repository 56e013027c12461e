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


@pytest.mark.parametrize("command", ["check", "hybrid"])
def test_symmetry_still_runs(command, capsys):
    argv = [command, *ORACLE_FLAG_COMMANDS[command], "--symmetry"]
    if command == "check":
        argv += ["--no-cache", "--no-live", "--no-ledger"]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err


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
