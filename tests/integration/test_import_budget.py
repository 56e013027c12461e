"""Import budget: a ``repro`` process loads only what its command runs.

Package ``__init__``s resolve their exports on first access, ``cli.py``
imports each command's analysis inside the command, and the parallel
machinery loads only on its path.  Every check runs in a fresh
interpreter, because this test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PACKAGES = ("repro", "repro.checker", "repro.core", "repro.engine",
            "repro.graphs", "repro.obs", "repro.protocol",
            "repro.protocols", "repro.simulation", "repro.viz")


def _fresh(code: str, cwd: Path) -> dict:
    """Run *code* in a new interpreter; it binds ``result`` to a JSON
    value, which is returned with the final ``sys.modules`` names."""
    script = (code + "\nimport json, sys\n"
              "print(json.dumps({'result': result, "
              "'modules': sorted(sys.modules)}))\n")
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("PYTHON", "REPRO_"))}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules: list[str], names: tuple[str, ...]) -> list[str]:
    """The loaded modules that are one of *names* or inside one."""
    return [module for module in modules
            if any(module == name or module.startswith(name + ".")
                   for name in names)]


def test_importing_the_cli_loads_no_analysis(tmp_path):
    loaded = _fresh("import repro.cli\nresult = None", tmp_path)
    assert _loaded(loaded["modules"], (
        "repro.core", "repro.checker", "repro.simulation", "repro.viz",
        "multiprocessing")) == []


#: No command reads or writes artifact files: none loads the
#: standalone artifact store or the mmap it attaches with.
NO_ARTIFACTS = ("repro.engine.artifacts", "mmap")


#: No command publishes status snapshots: none loads the standalone
#: writer left in ``repro.obs.live``.
NO_LIVE = ("repro.obs.live",)


@pytest.mark.parametrize("argv, absent", [
    (["verify", "sum-not-two-ss"],
     ("multiprocessing", "repro.engine.scheduler", "repro.engine.supervisor",
      "repro.engine.pool", "repro.checker", "repro.core.synthesis",
      "repro.engine.synthsearch", *NO_ARTIFACTS, *NO_LIVE)),
    # A deadlock decides the verdict before any livelock analysis.
    (["verify", "matching-ex4.3"],
     ("repro.engine.localkernel", "repro.engine.supervisor")),
    (["check", "2-coloring", "-K", "5"],
     ("multiprocessing", "repro.core.synthesis",
      "repro.engine.synthsearch", *NO_ARTIFACTS, *NO_LIVE)),
    (["synthesize", "sum-not-two"],
     ("multiprocessing", "repro.engine.scheduler", "repro.engine.supervisor",
      "repro.engine.pool", *NO_ARTIFACTS, *NO_LIVE)),
    (["sweep", "sum-not-two-ss", "--up-to", "6", "--jobs", "2",
      "--cache-dir", "cache"], (*NO_ARTIFACTS, *NO_LIVE)),
    (["fuzz", "--samples", "10", "--max-ring-size", "3", "--jobs", "2"],
     (*NO_ARTIFACTS, *NO_LIVE)),
    (["cache", "--cache-dir", "cache"], NO_ARTIFACTS),
], ids=["verify", "verify-deadlock", "check", "synthesize",
        "cached-sweep-jobs-2", "fuzz-jobs-2", "cache"])
def test_serial_command_loads_only_its_subsystems(tmp_path, argv, absent):
    loaded = _fresh("from repro.cli import main\n"
                    f"result = main({argv!r})", tmp_path)
    assert loaded["result"] in (0, 1)
    assert _loaded(loaded["modules"], absent) == []


def test_every_export_resolves_and_is_listed(tmp_path):
    # A lazily exported name that is also a submodule's name must be
    # that submodule: importing it would rebind the package attribute.
    loaded = _fresh(
        "import importlib, importlib.util\n"
        "result = []\n"
        f"for name in {PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    for export in package.__all__:\n"
        "        if export not in listed:\n"
        "            result.append(f'{name}.{export} not in dir()')\n"
        "        try:\n"
        "            getattr(package, export)\n"
        "        except AttributeError as exc:\n"
        "            result.append(f'{name}.{export}: {exc}')\n"
        "            continue\n"
        "        path = f'{name}.{export}'\n"
        "        if hasattr(package, '__getattr__') \\\n"
        "                and importlib.util.find_spec(path) is not None \\\n"
        "                and package.__getattr__(export) \\\n"
        "                is not importlib.import_module(path):\n"
        "            result.append(f'{path} is shadowed by its submodule')\n",
        tmp_path)
    assert loaded["result"] == []


def test_star_import_binds_every_public_name(tmp_path):
    loaded = _fresh(
        "import repro\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "result = [name for name in repro.__all__ "
        "if name not in namespace]\n", tmp_path)
    assert loaded["result"] == []


def test_lazy_export_is_the_defining_object(tmp_path):
    loaded = _fresh(
        "import sys\n"
        "import repro.obs\n"
        "from repro.engine import ResultCache\n"
        "from repro.engine.cache import ResultCache as defined\n"
        "result = [ResultCache is defined,\n"
        "          repro.obs.ledger is sys.modules['repro.obs.ledger']]\n",
        tmp_path)
    assert loaded["result"] == [True, True]
