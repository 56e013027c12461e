"""CLI export / JSON output / file-based protocols."""

import json

import pytest

from repro.cli import main


def test_export_then_verify_from_file(tmp_path, capsys):
    path = tmp_path / "agreement.json"
    assert main(["export", "agreement-ss", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: converges" in out


def test_verify_json_output(capsys):
    assert main(["verify", "agreement-ss", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "converges"
    assert data["deadlock"]["deadlock_free"] is True


def test_verify_json_diverging(capsys):
    assert main(["verify", "matching-ex4.3", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "diverges"
    assert data["deadlock"]["witness_cycles"]


def test_check_json_output(capsys):
    assert main(["check", "agreement-ss", "-K", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["self_stabilizing"] is True
    assert data["state_count"] == 16


def test_check_from_exported_file(tmp_path, capsys):
    path = tmp_path / "snt.json"
    assert main(["export", "sum-not-two-ss", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["check", str(path), "-K", "5"]) == 0
    assert "strong convergence: True" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["synthesize"], ["hybrid", "--check-up-to", "4"], ["show"],
    ["simulate", "-K", "4", "--samples", "5"]])
def test_every_protocol_command_accepts_a_json_file(tmp_path, capsys,
                                                    monkeypatch, command):
    monkeypatch.chdir(tmp_path)  # live status and ledger land here
    path = tmp_path / "snt.json"
    assert main(["export", "sum-not-two", "-o", str(path)]) == 0
    capsys.readouterr()
    by_name = main([command[0], "sum-not-two", *command[1:]])
    named_out = capsys.readouterr().out
    by_file = main([command[0], str(path), *command[1:]])
    assert by_file == by_name
    assert capsys.readouterr().out.splitlines()[:3] \
        == named_out.splitlines()[:3]
