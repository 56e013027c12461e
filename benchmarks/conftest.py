"""Shared infrastructure for the figure-reproduction benchmarks.

Every benchmark regenerates the *content* of one paper figure (or an
in-text claim), asserts its shape, times the underlying computation via
pytest-benchmark, and writes a textual artifact under
``benchmarks/out/`` so the figures can be inspected or diffed.  The
perf smokes also write a ``BENCH_<name>.json`` record
(:func:`write_bench_record`).
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
from pathlib import Path

import pytest

from repro.obs import export, runtime as obs

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def artifact_dir() -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture(autouse=True)
def obs_run_report(request, artifact_dir):
    """Benchmarks emit the same structured run reports the CLI does.

    Each benchmark runs under an ambient observability run; the JSONL
    run log (spans, metrics, events — identical schema to the CLI's
    ``--log-json``) lands next to the figure artifacts in
    ``benchmarks/out/`` as ``<test>.runlog.jsonl``, and the run's final
    counters and timings are folded into ``benchmarks/out/ledger.jsonl``
    so ``repro runs diff`` can compare benchmark runs across commits
    the same way it compares CLI runs.
    """
    if obs.active() is not None:  # pragma: no cover - nested runs
        yield
        return
    with obs.run(request.node.name,
                 benchmark=request.node.nodeid) as run_ctx:
        yield
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", request.node.name)
    export.write_run_log(artifact_dir / f"{safe}.runlog.jsonl", run_ctx)
    from repro.engine.cache import new_run_id
    from repro.obs import ledger

    record = export.ledger_record_from_run(
        run_ctx, new_run_id(), command=f"bench:{safe}",
        flags={"benchmark": request.node.nodeid})
    ledger.append(artifact_dir / "ledger.jsonl", record)


@pytest.fixture
def write_artifact(artifact_dir):
    def _write(name: str, content: str) -> Path:
        path = artifact_dir / name
        path.write_text(content if content.endswith("\n")
                        else content + "\n")
        return path

    return _write


def _commit() -> str:
    """The measured source: abbreviated commit, ``-dirty`` when the
    working tree has uncommitted changes."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


@pytest.fixture
def write_bench_record(artifact_dir):
    """Write a perf smoke's ``BENCH_<name>.json`` record.

    Every record is stamped with the commit, Python version, CPU count
    and variant.  A run with every size knob at its default is the
    ``full`` variant and writes the committed record at the repository
    root; any reduced run is the ``ci`` variant and writes under
    ``benchmarks/out/`` (gitignored), so it never replaces a full
    record.
    """
    def _write(name: str, payload: dict, *, full: bool) -> Path:
        record = {
            "commit": _commit(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "variant": "full" if full else "ci",
            **payload,
        }
        path = (REPO_ROOT if full else artifact_dir) / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n")
        return path

    return _write
