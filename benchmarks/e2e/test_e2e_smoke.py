"""Smoke test of the end-to-end benchmark harness (~30 s).

    python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs ``run.py --smoke`` untraced and traced and checks that every metric
``BENCHMARK.json`` names is printed with its unit, that the result file
carries its provenance, and that a wrong expected verdict fails the run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PROVENANCE = ("utc", "commit", "dirty", "source_sha256", "python",
              "cpu_count", "affinity", "jobs", "seed", "variant", "bounds")


def run(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke",
                           "--seed", "5", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def printed(stdout: str, workloads: list) -> dict:
    """{(workload, metric): unit} from the ``workload metric value unit``
    lines."""
    lines = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in workloads:
            float(parts[2])
            lines[parts[0], parts[1]] = parts[3]
    return lines


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_printed_with_unit_and_provenance(trace, section):
    bench = benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    proc = run("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = printed(proc.stdout, workloads)
    for workload in workloads:
        for metric in bench[section]:
            assert lines[workload, metric["name"]] == metric["unit"]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert len(last["metrics"]) == len(workloads) * len(bench[section])

    result = next(line.split(": ", 1)[1] for line in proc.stdout.splitlines()
                  if line.startswith("result: "))
    record = json.loads((ROOT / result).read_text())
    assert set(PROVENANCE) <= set(record["provenance"])
    assert record["provenance"]["variant"] == "smoke"
    for workload in workloads:
        assert record["workloads"][workload]["samples"]["passes"] >= 1
    if trace == "1":
        for workload in workloads:
            trace_file = record["workloads"][workload]["chrome_trace_file"]
            report = subprocess.run(
                [sys.executable, "-m", "repro.cli", "report",
                 str(ROOT / trace_file)], cwd=ROOT, capture_output=True,
                text=True, env={"PYTHONPATH": str(ROOT / "src")})
            assert report.returncode == 0, report.stderr


def test_wrong_expected_verdict_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    check = expected["cli"]["check"]["sum-not-two-ss"]
    check["exit"] = 1
    check["verdict"]["self_stabilizing"] = False
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    proc = run("--workload", "cli-oneshot", "--expected", str(wrong))
    assert proc.returncode == 1
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False
    assert "check sum-not-two-ss -K 5" in proc.stderr
