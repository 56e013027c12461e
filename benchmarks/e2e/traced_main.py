"""Traced stand-in for ``python -m repro.cli`` (per-layer benchmark runs).

    E2E_TRACE_FILE=op.trace.json python benchmarks/e2e/traced_main.py verify sum-not-two-ss

Imports the ``repro`` packages one by one under an import timer, wraps
each layer's public calls with span recorders, runs ``repro.cli.main``
and, once it returns, writes the spans as one Chrome trace.  The first
statement records a timestamp, so the harness's spawn time gives the
interpreter start.
"""

import time

T0 = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from spans import IMPORT_GROUPS, ImportTimer, Recorder, install, now  # noqa: E402,E501


def main() -> int:
    recorder = Recorder()
    sys.meta_path.insert(0, ImportTimer(recorder))
    start = now()
    recorder.add("trace.setup", T0, start)
    for group in IMPORT_GROUPS:
        importlib.import_module("repro." + group)
    end = now()
    recorder.add("startup.import", start, end)
    install(recorder)
    import repro.cli

    start = now()
    recorder.add("trace.setup", end, start)
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        end = now()
        recorder.add("cli.main", start, end)
        # The write itself is the only span not in the file; its end is
        # ``t_written``, after which the interpreter shuts down.
        body = json.dumps(recorder.events)
        with open(os.environ["E2E_TRACE_FILE"], "w") as handle:
            handle.write('{"traceEvents": %s, "otherData": {"t0": %r, '
                         '"write_start": %r, "t_written": %r}}\n'
                         % (body, T0, end, now()))


if __name__ == "__main__":
    sys.exit(main())
