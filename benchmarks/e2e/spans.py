"""In-memory span recording around the public calls of each layer.

Shared by ``traced_main.py`` (CLI ops) and ``api_driver.py`` (library
ops).  Nothing inside ``src/`` is edited: the recorder wraps public
functions from the outside after they are imported, and times the
execution of every ``repro`` module through an import hook.  Spans are
kept as Chrome trace ``X`` events in a list and written only when the
process is done.

Timestamps come from ``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux),
which is shared by every process on the host, so the harness can put a
child's spans on its own clock (spawn-to-first-line = interpreter start).
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import os
import sys
import threading
import time

now = time.monotonic

#: Packages whose imports are reported one by one (``startup.import.<g>_ms``),
#: in the order they are imported.  Everything else is ``other``.
IMPORT_GROUPS = ("protocol", "graphs", "obs", "engine", "checker", "core",
                 "cli")

#: (module, attribute, span name) of every wrapped public call.  An
#: attribute ``Class.method`` wraps the method on the class.
LAYER_CALLS = (
    ("repro.protocols.registry", "get_protocol", "protocol.load"),
    ("repro.serialization", "load_protocol", "protocol.load"),
    ("repro.core.convergence", "verify_convergence", "core.verify"),
    ("repro.core.synthesis", "synthesize_convergence", "core.synthesize"),
    ("repro.checker.convergence", "check_instance", "checker.check"),
    ("repro.engine.supervisor", "supervise_work_items", "dispatch.run"),
    ("repro.engine.pool", "run_work_items", "dispatch.run"),
    ("repro.engine.cache", "ResultCache.get", "persist.cache_get"),
    ("repro.engine.cache", "ResultCache.put", "persist.cache_put"),
    ("repro.engine.artifacts", "ArtifactStore.attach",
     "persist.artifact_attach"),
    ("repro.engine.artifacts", "ArtifactStore.publish",
     "persist.artifact_publish"),
    ("repro.engine.artifacts", "enforce_directory_limit",
     "persist.limit_enforce"),
    ("repro.obs.ledger", "append", "persist.ledger_append"),
    ("repro.obs.live", "LiveRun.publish", "persist.live_publish"),
)


def import_group(module: str) -> str:
    """The ``startup.import.<group>`` a ``repro`` module is charged to."""
    parts = module.split(".")
    if len(parts) > 1 and parts[1] in IMPORT_GROUPS:
        return parts[1]
    return "other"


class Recorder:
    """Spans of one process, as Chrome trace ``X`` events (ts/dur in µs)."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._local = threading.local()

    def add(self, name: str, start: float, end: float, **args) -> None:
        self.events.append({
            "ph": "X", "name": name, "pid": os.getpid(),
            "tid": threading.get_native_id(),
            "ts": start * 1e6, "dur": max(0.0, end - start) * 1e6,
            "args": args})

    def wrap(self, name: str, function):
        """*function* with a span named *name* around every call.

        ``args.depth`` counts enclosing wrapped calls on the same thread,
        so a layer's top-level time is the sum over ``depth == 0``.
        """
        local = self._local

        @functools.wraps(function)
        def recorded(*args, **kwargs):
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            result = None
            start = now()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = now()
                local.depth = depth
                extra = {}
                if name == "dispatch.run":
                    # (worker, items, jobs, ...) for both entry points.
                    extra["jobs"] = kwargs.get(
                        "jobs", args[2] if len(args) > 2 else 1)
                    if isinstance(result, list):
                        extra["items"] = len(result)
                self.add(name, start, end, depth=depth, **extra)

        recorded._e2e_original = function
        return recorded


class _TimedLoader(importlib.machinery.SourceFileLoader):
    """A source loader that records how long the module body runs."""

    timer: "ImportTimer"

    def exec_module(self, module) -> None:
        timer = self.timer
        timer.stack.append(0.0)
        start = now()
        try:
            super().exec_module(module)
        finally:
            end = now()
            nested = timer.stack.pop()
            if timer.stack:
                timer.stack[-1] += end - start
            timer.recorder.add(
                "import " + module.__name__, start, end,
                group=import_group(module.__name__),
                self_ms=(end - start - nested) * 1e3)


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times every ``repro`` module's own execution.

    Self time excludes nested ``repro`` imports but includes the
    standard-library modules a ``repro`` module pulls in first, so each
    package is charged for what importing it really costs.
    """

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.stack: list[float] = []

    def find_spec(self, name, path=None, target=None):
        if name != "repro" and not name.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or type(spec.loader) is not \
                importlib.machinery.SourceFileLoader:
            return spec
        loader = _TimedLoader(name, spec.origin)
        loader.timer = self
        spec.loader = loader
        return spec


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def install(recorder: Recorder):
    """Wrap every :data:`LAYER_CALLS` entry; returns an undo function.

    A module-level function is replaced in every loaded ``repro`` module
    that holds it (``from x import f`` copies the reference); modules
    imported later pick the wrapper up from those namespaces.
    """
    originals = []
    for module_name, attribute, span in LAYER_CALLS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = getattr(owner, method)
            setattr(owner, method, recorder.wrap(span, original))
            originals.append((owner, method, original))
            continue
        original = getattr(module, attribute)
        wrapper = recorder.wrap(span, original)
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
        originals.append((None, attribute, original))

    def undo() -> None:
        for owner, attribute, original in originals:
            if owner is not None:
                setattr(owner, attribute, original)
                continue
            for holder in _repro_modules():
                for key, value in list(vars(holder).items()):
                    if getattr(value, "_e2e_original", None) \
                            is original:
                        setattr(holder, key, original)

    return undo
