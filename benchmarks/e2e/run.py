"""End-to-end benchmark of the ``repro`` command line and library.

    python benchmarks/e2e/run.py --seed 0                    # all four workloads
    python benchmarks/e2e/run.py --workload cli-oneshot --seed 3 --seconds 20 --trace 0
    python benchmarks/e2e/run.py --seed 0 --trace 1          # per-layer metrics + Chrome traces
    python benchmarks/e2e/run.py --smoke                     # one short pass of each workload
    python benchmarks/e2e/run.py compare A B                 # A, B: result files or directories
    python benchmarks/e2e/run.py oracle > benchmarks/e2e/expected.json

One closed-loop client: the next op starts only after the previous one
has exited.  CLI ops run as ``python -m repro.cli`` subprocesses (or
``traced_main.py`` in traced passes) with ``PYTHONPATH=src`` in a
scratch directory under ``benchmarks/e2e/.work``; ``api-local`` runs in
one long-lived ``api_driver.py`` process.  Every metric is printed as
``workload metric value unit``; the last line is one JSON object with
the metrics ``BENCHMARK.json`` names.  Results go to a new file under
``benchmarks/e2e/out/`` (or ``baseline/<name>/`` with
``--write-baseline``); no existing file is ever rewritten.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import itertools
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads as wl
from spans import IMPORT_GROUPS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline"
WORK = HERE / ".work"
EXPECTED = HERE / "expected.json"
TRACED_MAIN = HERE / "traced_main.py"
API_DRIVER = HERE / "api_driver.py"

WORKLOADS = ("cli-oneshot", "sweep-cold", "sweep-warm", "api-local")
#: Setup repeats at least SETUP_REPS times, and more (up to
#: SETUP_REPS_MAX) until SETUP_SECONDS were spent, so a short setup gets
#: enough samples for a steady median.
SETUP_REPS = 3
SETUP_REPS_MAX = 9
SETUP_SECONDS = 2.0
#: A measurement runs at least this many (untraced) passes, however
#: short ``--seconds``: cli-oneshot then always has more than 100 ops
#: for ``op_p90_ms``, and api-local's peak RSS is read after this pass.
MIN_PASSES = 4
OP_TIMEOUT_S = 120.0
#: Everything of one workload run, setup and oracle included, ends by then.
RUN_BUDGET_S = 170.0
NPROC = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
JOBS = min(2, NPROC)
now = time.monotonic

#: End-to-end timings that are printed, stored and compared, but carry no
#: bound in ``BENCHMARK.json``: their run-to-run spread on a shared host
#: exceeds the 10% bound (README.md, "End-to-end metrics").
UNGATED = ("pass_s", "op_p50_ms", "op_p90_ms", "states_per_s")
#: Units of the printed metrics that ``BENCHMARK.json`` does not list;
#: :func:`units` adds the ones it does.
EXTRA_UNITS = {
    "pass_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "states_per_s": "1/s", "failed_op_share": "ratio",
    "verdict_errors": "count",
    "startup.import.cli_ms": "ms",
    "core.verify_ms": "ms", "core.synthesize_ms": "ms",
    "core.trail_search_ms": "ms", "checker.check_ms": "ms",
    "checker.compile_ms": "ms", "checker.states_per_busy_s": "1/s",
    "dispatch.wall_ms": "ms", "dispatch.parallel_efficiency": "ratio",
    "persist.cache_get_ms": "ms", "persist.cache_put_ms": "ms",
    "persist.artifact_attach_ms": "ms", "persist.artifact_publish_ms": "ms",
    "persist.limit_enforce_ms": "ms", "persist.ledger_append_ms": "ms",
    "persist.live_publish_ms": "ms", "cli.self_ms": "ms",
    "unattributed_ms": "ms",
}


def units(bench: dict) -> dict:
    """Unit of every metric the harness prints."""
    return {**EXTRA_UNITS, **{m["name"]: m["unit"] for section in
                              ("end_to_end", "per_layer")
                              for m in bench[section]}}


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pid, signal.SIGKILL)


@contextlib.contextmanager
def killed_after(seconds: float, pid: int):
    """SIGKILL *pid*'s process group if the block outlasts *seconds*.

    A timer signal rather than a watchdog thread: the blocking wait in
    the main thread is interrupted, the group is killed, and the wait
    then returns the dead child.
    """
    previous = signal.signal(signal.SIGALRM,
                             lambda _signum, _frame: _kill_group(pid))
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for *proc* (killing its group after *timeout*); returns
    ``(exit code or None when killed by a signal, peak RSS in KiB)``."""
    try:
        with killed_after(timeout, proc.pid):
            _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        _kill_group(proc.pid)
        os.waitpid(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if proc.returncode >= 0 else None
    return code, usage.ru_maxrss


def child_env() -> dict:
    """The outer environment minus anything that changes how Python or
    ``repro`` behave (bytecode writing, fault injection, start method)."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")
           and (not key.startswith("PYTHON") or key == "PYTHONHOME")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def tail(path: Path, lines: int = 4) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def tree_bytes(path: Path) -> int:
    total = 0
    for directory, _dirs, files in os.walk(path):
        for name in files:
            with contextlib.suppress(OSError):
                total += os.stat(os.path.join(directory, name)).st_size
    return total


# ----------------------------------------------------------------------
# Provenance and result files
# ----------------------------------------------------------------------
def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> tuple[str, bool | None]:
    """``(commit, dirty)``; ``("nogit", None)`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "nogit", None
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True).stdout.strip()
    commit = git("rev-parse", "HEAD") or "nogit"
    return commit, bool(git("status", "--porcelain", "--untracked-files=no"))


def source_digest(paths) -> str:
    """SHA-256 over files' paths (relative to the root) and contents."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, bench: dict, argv: list[str]) -> dict:
    commit, dirty = git_commit()
    return {
        "utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y%m%dT%H%M%SZ"),
        "commit": commit, "dirty": dirty, "source_sha256": source_digest(SRC.rglob("*.py")),
        "harness_sha256": source_digest([ROOT / "BENCHMARK.json",
                                         *HERE.glob("*.py"),
                                         EXPECTED]),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "cpu_count": os.cpu_count(),
        "affinity": (sorted(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "jobs": JOBS, "seed": args.seed,
        "variant": "smoke" if args.smoke else "full",
        "trace": bool(args.trace), "run_seconds": args.seconds,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "argv": argv,
    }


def write_new(directory: Path, stem: str, suffix: str, text: str) -> Path:
    """Write *text* to a file that did not exist before."""
    directory.mkdir(parents=True, exist_ok=True)
    for n in itertools.count():
        path = directory / f"{stem}{f'-{n}' if n else ''}{suffix}"
        try:
            with open(path, "x") as handle:
                handle.write(text)
            return path
        except FileExistsError:
            continue


# ----------------------------------------------------------------------
# One workload run
# ----------------------------------------------------------------------
class Context:
    """State of one workload run: seeded RNG, scratch dirs, tallies."""

    def __init__(self, name: str, args, expected: dict) -> None:
        self.name = name
        self.args = args
        self.expected = expected
        self.smoke = args.smoke
        self.trace = bool(args.trace)
        self.rng = random.Random(f"{name}:{args.seed}")
        self.started = now()
        self.root = WORK / f"{name}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.verdict_errors = 0
        self.problems: list[str] = []
        self.records: list[dict] = []
        self.counter = 0
        #: sweep-warm: the fixed op list and each op's cold verdict digest.
        self.warm_ops: list[wl.Op] = []
        self.cold_digest: dict[str, str] = {}

    def setup_done(self, times: list[float]) -> bool:
        if self.smoke:
            return len(times) >= 1
        return len(times) >= SETUP_REPS and (
            sum(times) >= SETUP_SECONDS or len(times) >= SETUP_REPS_MAX)

    def remaining(self) -> float:
        return self.started + RUN_BUDGET_S - now()

    def fresh_rep(self, index: int) -> None:
        """An empty scratch tree for one setup repetition.  Before the
        first, ``src/`` is compiled to bytecode beside the sources, so
        every repetition starts as an installed package would."""
        if index:
            shutil.rmtree(self.rep)
        else:
            self.env = child_env()
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            str(SRC)], env=self.env, check=True,
                           stdout=subprocess.DEVNULL,
                           timeout=max(self.remaining(), 1.0))
        self.rep = self.root / f"rep{index}"
        self.cwd = self.rep / "cwd"
        self.cwd.mkdir(parents=True)

    def note(self, key: str, failed: bool, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += failed
        self.verdict_errors += not failed
        self.problems.append(f"{key}: {problem}")


def read_new_record(ledger: Path, offset: int) -> dict | None:
    """The last ledger record appended past *offset*, if any."""
    try:
        with open(ledger, "rb") as handle:
            handle.seek(offset)
            lines = handle.read().decode(errors="replace").splitlines()
    except OSError:
        return None
    for line in reversed(lines):
        with contextlib.suppress(ValueError):
            return json.loads(line)
    return None


def judge(op: wl.Op, code, record, cold_digest=None):
    """``(failed, problem)``: a failed op crashed, hung or exited
    outside {0, 1}; any other problem is a wrong verdict."""
    if code is None:
        return True, "killed (timeout)"
    if code not in (0, 1):
        return True, f"exit status {code}"
    if record is None:
        return True, "no ledger record (crashed)"
    if code != op.expect["exit"]:
        return False, f"exit status {code}, expected {op.expect['exit']}"
    if record.get("verdict") != op.expect["verdict"]:
        return False, (f"verdict {record.get('verdict')}, expected "
                       f"{op.expect['verdict']}")
    if cold_digest is not None and record.get("verdict_digest") != cold_digest:
        return False, "warm verdict digest differs from the cold run's"
    return False, None


def run_cli_op(ctx: Context, op: wl.Op, traced: bool = False,
               cold_digest: str | None = None) -> dict:
    """Run one CLI op to completion and check its verdict."""
    argv = list(op.argv)
    state = ctx.cwd / ".repro-cache"
    if op.cache == "fresh":
        ctx.counter += 1
        state = ctx.rep / "caches" / str(ctx.counter)
    elif op.cache == "warm":
        state = ctx.rep / "warm" / hashlib.sha1(op.key.encode()).hexdigest()
    if op.cache is not None:
        argv += ["--cache-dir", str(state)]
    ledger = state / "ledger.jsonl"
    offset = ledger.stat().st_size if ledger.exists() else 0
    before = tree_bytes(state) if traced else 0
    env, entry = ctx.env, [sys.executable, "-m", "repro.cli"]
    trace_file = ctx.rep / "op.trace.json"
    if traced:
        env = dict(env, E2E_TRACE_FILE=str(trace_file))
        entry = [sys.executable, str(TRACED_MAIN)]
    log = ctx.rep / "op.log"
    with open(log, "w") as out:
        spawn = now()
        proc = subprocess.Popen(entry + argv, cwd=ctx.cwd, env=env,
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        code, rss_kb = reap(proc, min(OP_TIMEOUT_S, ctx.remaining()))
        seconds = now() - spawn
    record = read_new_record(ledger, offset)
    failed, problem = judge(op, code, record, cold_digest)
    if problem is not None and failed:
        problem += f" [{tail(log)}]"
    ctx.note(op.key, failed, problem)
    result = {"key": op.key, "command": op.argv[0], "seconds": seconds,
              "spawn": spawn, "rss_kb": rss_kb, "record": record,
              "counters": (record or {}).get("counters", {}),
              "stages": (record or {}).get("stage_seconds", {})}
    if traced:
        result["bytes_written"] = tree_bytes(state) - before
        with contextlib.suppress(OSError, ValueError):
            result["trace"] = json.loads(trace_file.read_text())
            trace_file.unlink()
            result["process"] = process_times(result)
    if op.cache == "fresh":
        shutil.rmtree(state, ignore_errors=True)
    return result


def cli_pass_ops(ctx: Context, shuffle: bool = True) -> list[wl.Op]:
    """The ops of one pass, in this pass's seeded order."""
    if ctx.name == "cli-oneshot":
        ops = wl.cli_oneshot_ops(ctx.expected, ctx.smoke)
    elif ctx.name == "sweep-cold":
        ops = wl.sweep_ops(ctx.expected, JOBS, ctx.rng.randrange(10**6),
                           "fresh", ctx.smoke)
    else:
        ops = list(ctx.warm_ops)
    if shuffle:
        ctx.rng.shuffle(ops)
    return ops


def run_cli_workload(ctx: Context) -> dict:
    """Setup repetitions, then whole passes until ``--seconds`` ran."""
    if ctx.name == "sweep-warm":
        ctx.warm_ops = wl.sweep_ops(ctx.expected, JOBS,
                                    ctx.rng.randrange(10**6), "warm",
                                    ctx.smoke)
    setup = []
    for index in itertools.count():
        if ctx.setup_done(setup):
            break
        ctx.fresh_rep(index)
        start = now()
        if ctx.name == "sweep-warm":
            # Each op's own cold run fills the cache dir it reads later.
            ctx.cold_digest = {
                op.key: (run_cli_op(ctx, op)["record"] or {})
                .get("verdict_digest") for op in ctx.warm_ops}
        else:
            # Unshuffled, so every repetition and seed warms up with the
            # same commands on the same protocols.
            for op in wl.warmup_ops(cli_pass_ops(ctx, shuffle=False)):
                run_cli_op(ctx, op)
        setup.append(now() - start)

    passes = []
    begin = now()
    while ctx.remaining() > 0:
        traced = ctx.trace and len(passes) % 2 == 1
        # A traced pass repeats its untraced partner's ops, so the pair's
        # difference is the tracing overhead.
        order = passes[-1]["order"] if traced else cli_pass_ops(ctx)
        ops = []
        for op in order:
            ops.append(run_cli_op(
                ctx, op, traced,
                ctx.cold_digest.get(op.key)))
            if ops[-1]["record"] is not None:
                ctx.records.append(dict(ops[-1]["record"], bench={
                    "workload": ctx.name, "seed": ctx.args.seed,
                    "traced": traced}))
        passes.append({"traced": traced, "ops": ops, "order": order,
                       "wall": sum(op["seconds"] for op in ops)})
        paired = not ctx.trace or len(passes) % 2 == 0
        enough = (now() - begin >= ctx.args.seconds
                  and sum(not p["traced"] for p in passes) >= MIN_PASSES)
        if paired and (ctx.smoke or enough):
            break
    startup = [op["process"] for p in passes for op in p["ops"]
               if "process" in op]
    return {"setup": setup, "passes": passes, "startup": startup,
            "peak_rss_kb": max(op["rss_kb"] for p in passes
                               for op in p["ops"] if not p["traced"])}


class Driver:
    """The ``api_driver.py`` process of one setup repetition."""

    def __init__(self, ctx: Context, spec: Path) -> None:
        self.ctx = ctx
        self.log = ctx.rep / "driver.log"
        with open(self.log, "w") as err:
            self.spawn = now()
            self.proc = subprocess.Popen(
                [sys.executable, str(API_DRIVER), str(spec)], cwd=ctx.cwd,
                env=ctx.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=err, text=True, start_new_session=True)

    def read(self) -> dict:
        with killed_after(self.ctx.remaining(), self.proc.pid):
            line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"api driver died: {tail(self.log)}")
        return json.loads(line)

    def send(self, message) -> None:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        if self.proc.returncode is None:
            reap(self.proc, max(self.ctx.remaining(), 1.0))
        self.proc.stdout.close()


def api_warmup(ops: list[dict]) -> list[dict]:
    """One op of each kind: synthesis, bundled verify, file verify."""
    seen: dict[tuple, dict] = {}
    for op in ops:
        seen.setdefault((op["call"], "file" in op), op)
    return list(seen.values())


def run_api_workload(ctx: Context) -> dict:
    # The inputs are written once: setup is the client's own start.
    ops = wl.api_ops(ctx.expected, random.Random(f"api-local:{ctx.args.seed}"),
                     ctx.root / "protocols", ctx.smoke)
    spec = ctx.root / "spec.json"
    spec.write_text(json.dumps({
        "seed": ctx.args.seed, "trace": int(ctx.trace), "ops": ops,
        "warmup": api_warmup(ops), "oracle_sizes": list(wl.ORACLE_SIZES)}))
    setup = []
    driver = None
    try:
        for index in itertools.count():
            if ctx.setup_done(setup):
                break
            if driver is not None:
                driver.send("exit")
                driver.close()
            ctx.fresh_rep(index)
            start = now()
            driver = Driver(ctx, spec)
            ready = driver.read()
            setup.append(now() - start)
        driver.send({"measure": 0 if ctx.smoke else ctx.args.seconds,
                     "min_passes": 1 if ctx.smoke else MIN_PASSES,
                     "trace": int(ctx.trace)})
        result = driver.read()
        oracle = driver.read()["oracle"]
        last_line = now()
        driver.close()
        exit_ms = (now() - last_line) * 1e3
    finally:
        if driver is not None and driver.proc.returncode is None:
            _kill_group(driver.proc.pid)
            driver.proc.wait()
    warm = ready["warmup"]

    expect = {op["key"]: op["expect"] for op in ops}
    seen = dict(warm)
    for op in api_warmup(ops) + [r for p in result["passes"]
                                 for r in p["ops"]]:
        key = op["key"]
        verdict = op["verdict"] if "verdict" in op else warm[key]
        problem = None
        if expect[key] is not None and verdict != expect[key]:
            problem = f"verdict {verdict}, expected {expect[key]}"
        elif seen.setdefault(key, verdict) != verdict:
            problem = f"verdict {verdict} differs from an earlier pass"
        ctx.note(key, False, problem)
    for failure in oracle:
        ctx.verdict_errors += 1
        ctx.problems.append(f"{failure}: converges, but the naive checker "
                            "finds the instance not self-stabilizing")
    passes = []
    for p in result["passes"]:
        for op in p["ops"]:
            stats = op.pop("stats") or {}
            op["stages"] = stats.pop("stage_seconds", {})
            op["counters"] = stats
            op["command"] = op["key"].split()[0]
        passes.append(p)
    events = ready["events"]
    startup = [{"interp": (ready["t0"] - driver.spawn) * 1e3,
                "exit": exit_ms, **import_times(events)}]
    # The library retains compiled trail skeletons across protocol
    # objects, so the driver grows with every pass.  Its peak after a
    # fixed number of passes includes that growth, and does not depend
    # on how many passes fit in the run.
    rss_pass = passes[min(MIN_PASSES, len(passes)) - 1]
    return {"setup": setup, "passes": passes, "startup": startup,
            "import_events": events, "spawn": driver.spawn,
            "peak_rss_kb": rss_pass["maxrss_kb"]}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Span name -> per-layer time metric (sum of outermost spans, per pass).
SPAN_METRICS = {
    "protocol.load": "protocol.load_ms", "core.verify": "core.verify_ms",
    "core.synthesize": "core.synthesize_ms",
    "dispatch.run": "dispatch.wall_ms",
    "persist.cache_get": "persist.cache_get_ms",
    "persist.cache_put": "persist.cache_put_ms",
    "persist.artifact_attach": "persist.artifact_attach_ms",
    "persist.artifact_publish": "persist.artifact_publish_ms",
    "persist.limit_enforce": "persist.limit_enforce_ms",
    "persist.ledger_append": "persist.ledger_append_ms",
    "persist.live_publish": "persist.live_publish_ms",
}
#: The program's own counter (ledger record / report stats) -> metric.
#: These include work done inside forked workers, which no span sees.
COUNTER_METRICS = {
    "mask_evaluations": "core.mask_evaluations",
    "skeleton_compiles": "core.skeleton_compiles",
    "combos_pruned": "core.combos_pruned",
    "full_evaluations": "core.full_evaluations",
    "states_explored": "checker.states_explored",
    "scheduler_batches": "dispatch.batches",
    "scheduler_steals": "dispatch.steals",
    "scheduler_requeued": "dispatch.requeued",
    "supervisor_retries": "dispatch.retries",
    "pool_fallbacks": "dispatch.fallbacks",
    "cache_hits": "persist.cache_hits", "cache_misses": "persist.cache_misses",
    "artifact_hits": "persist.artifact_hits",
    "artifact_stores": "persist.artifact_stores",
}
CHECKER_COMMANDS = ("check", "sweep", "fuzz")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def outermost(events: list, name: str) -> list:
    """Spans named *name* not nested inside another span of that name."""
    kept, end = [], float("-inf")
    for event in sorted((e for e in events if e["name"] == name),
                        key=lambda e: (e["ts"], -e["dur"])):
        if event["ts"] >= end:
            kept.append(event)
            end = event["ts"] + event["dur"]
    return kept


def import_times(events: list) -> dict:
    """``import`` wall time and its split over :data:`IMPORT_GROUPS`, ms."""
    total = sum(e["dur"] for e in events
                if e["name"] == "startup.import") / 1e3
    groups = defaultdict(float)
    for event in events:
        if event["name"].startswith("import "):
            groups[event["args"]["group"]] += event["args"]["self_ms"]
    times = {"import": total, **{g: groups[g] for g in IMPORT_GROUPS}}
    times["other"] = total - sum(groups[g] for g in IMPORT_GROUPS)
    return times


#: The spans that tile a traced CLI process between its first statement
#: and the trace write (``trace.*`` is the harness's own overhead).
PHASES = ("trace.setup", "startup.import", "cli.main")


def process_times(op: dict) -> dict:
    """Where one traced CLI process spent its wall time, in ms.

    Interpreter start (spawn to first statement) and exit (trace written
    to process reaped) are measured by the harness around the process;
    everything between is spans.  ``unattributed`` is what no span
    covers.
    """
    events = op["trace"]["traceEvents"]
    marks = op["trace"]["otherData"]
    main = sum(e["dur"] for e in events if e["name"] == "cli.main") / 1e3
    layers = sum(e["dur"] for e in events
                 if e["args"].get("depth") == 0) / 1e3
    phases = sum(e["dur"] for e in events if e["name"] in PHASES) / 1e3
    spans = phases + (marks["t_written"] - marks["write_start"]) * 1e3
    interp = (marks["t0"] - op["spawn"]) * 1e3
    exit_ = (op["spawn"] + op["seconds"] - marks["t_written"]) * 1e3
    return {"interp": interp, "exit": exit_, **import_times(events),
            "cli_self": main - layers,
            "unattributed": (marks["t_written"] - marks["t0"]) * 1e3 - spans,
            "attributed": interp + spans + exit_,
            "wall": op["seconds"] * 1e3}


def e2e_metrics(ctx: Context, run: dict) -> dict:
    untraced = [p for p in run["passes"] if not p["traced"]]
    times = [op["seconds"] for p in untraced for op in p["ops"]]
    metrics = {
        "setup_s": median(run["setup"]),
        "pass_s": median([p["wall"] for p in untraced]),
        "op_p50_ms": median(times) * 1e3,
        "peak_rss_mb": run["peak_rss_kb"] / 1024,
        "failed_op_share": ctx.failed / max(ctx.attempted, 1),
        "verdict_errors": ctx.verdict_errors,
    }
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        metrics["op_p90_ms"] = statistics.quantiles(times, n=10)[8] * 1e3
    if ctx.name == "sweep-cold":
        metrics["states_per_s"] = median([
            sum(op["counters"].get("states_explored", 0) for op in p["ops"])
            / p["wall"] for p in untraced])
    return metrics


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics: startup per process (median), everything else
    per traced pass (mean), ratios from the totals."""
    traced = [p for p in run["passes"] if p["traced"]]
    total = defaultdict(float)
    for p in traced:
        api = "events" in p
        events = p["events"] if api else [
            e for op in p["ops"] if "process" in op
            for e in op["trace"]["traceEvents"]]
        for span, metric in SPAN_METRICS.items():
            total[metric] += sum(e["dur"] for e in outermost(events, span)) / 1e3
        total["dispatch.items"] += sum(
            e["args"].get("items", 0) for e in outermost(events, "dispatch.run"))
        total["persist.cache_stores"] += len(
            outermost(events, "persist.cache_put"))
        for op in p["ops"]:
            counters, stages = op["counters"], op["stages"]
            for counter, metric in COUNTER_METRICS.items():
                total[metric] += counters.get(counter, 0)
            total["core.trail_search_ms"] += stages.get("trail-search", 0) * 1e3
            total["checker.check_ms"] += stages.get("check", 0) * 1e3
            total["busy_s"] += stages.get("check", 0) + stages.get("audit", 0)
            if op["command"] in CHECKER_COMMANDS:
                total["checker.compile_ms"] += 1e3 * (
                    counters.get("compile_seconds", 0)
                    + counters.get("encode_seconds", 0))
            total["persist.bytes_written"] += op.get("bytes_written", 0)
            if api or "process" not in op:
                continue
            times = op["process"]
            total["cli.self_ms"] += times["cli_self"]
            total["unattributed_ms"] += times["unattributed"]
            total["attributed"] += times["attributed"]
            total["wall"] += times["wall"]
            dispatched = outermost(op["trace"]["traceEvents"], "dispatch.run")
            jobs = max((e["args"].get("jobs", 1) for e in dispatched),
                       default=1)
            if jobs > 1 and stages.get("check"):
                total["worker_busy_s"] += stages["check"]
                total["worker_capacity_s"] += jobs * sum(
                    e["dur"] for e in dispatched) / 1e6
        if api:
            top = sum(e["dur"] for e in events
                      if e["args"].get("depth") == 0) / 1e3
            total["attributed"] += top
            total["unattributed_ms"] += p["wall"] * 1e3 - top
            total["wall"] += p["wall"] * 1e3

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {metric: total[metric] / len(traced)
               for metric in (*SPAN_METRICS.values(), *COUNTER_METRICS.values(),
                              "dispatch.items", "persist.cache_stores",
                              "core.trail_search_ms", "checker.check_ms",
                              "checker.compile_ms", "persist.bytes_written",
                              "cli.self_ms", "unattributed_ms")}
    metrics.update({
        "core.prune_ratio": ratio(total["core.combos_pruned"],
                                  total["core.combos_pruned"]
                                  + total["core.full_evaluations"]),
        "checker.states_per_busy_s": ratio(total["checker.states_explored"],
                                           total["busy_s"]),
        "dispatch.parallel_efficiency": ratio(total["worker_busy_s"],
                                              total["worker_capacity_s"]),
        "persist.hit_ratio": ratio(total["persist.cache_hits"],
                                   total["persist.cache_hits"]
                                   + total["persist.cache_misses"]),
        "trace.coverage": ratio(total["attributed"], total["wall"]),
    })
    for key, metric in (("interp", "startup.interp_ms"),
                        ("exit", "shutdown.exit_ms"),
                        ("import", "startup.import_ms"),
                        *((g, f"startup.import.{g}_ms")
                          for g in (*IMPORT_GROUPS, "other"))):
        metrics[metric] = median([s[key] for s in run["startup"]])
    passes = run["passes"]
    metrics["trace.overhead_ms"] = median([
        (traced_pass["wall"] - plain["wall"]) / len(traced_pass["ops"]) * 1e3
        for plain, traced_pass in zip(passes[::2], passes[1::2])])
    return metrics


def chrome_trace(run: dict) -> dict:
    """One Chrome trace of a workload's traced passes (``repro report``
    accepts it): one process row per CLI op, or the library driver."""
    out = []

    def add(events, pid, base):
        for event in events:
            out.append(dict(event, pid=pid, ts=event["ts"] - base * 1e6))

    if "spawn" in run:  # api-local
        base = run["spawn"]
        out.append({"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
                    "args": {"name": "api_driver"}})
        add(run["import_events"], 1, base)
        for p in run["passes"]:
            if p["traced"]:
                add([{"ph": "X", "name": "pass", "tid": 0, "ts": p["start"] * 1e6,
                      "dur": p["wall"] * 1e6, "args": {"ops": len(p["ops"])}},
                     *p["events"]], 1, base)
        return {"traceEvents": out}
    ops = [op for p in run["passes"] if p["traced"] for op in p["ops"]
           if "process" in op]
    base = min(op["spawn"] for op in ops)
    for pid, op in enumerate(ops, start=1):
        marks = op["trace"]["otherData"]
        t0 = marks["t0"]
        out.append({"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                    "args": {"name": op["key"]}})
        add([{"ph": "X", "name": "op", "tid": 0, "ts": op["spawn"] * 1e6,
              "dur": op["seconds"] * 1e6, "args": {"key": op["key"]}},
             {"ph": "X", "name": "startup.interp", "tid": 0,
              "ts": op["spawn"] * 1e6, "dur": (t0 - op["spawn"]) * 1e6,
              "args": {}},
             {"ph": "X", "name": "trace.write", "tid": 0,
              "ts": marks["write_start"] * 1e6,
              "dur": (marks["t_written"] - marks["write_start"]) * 1e6,
              "args": {}},
             {"ph": "X", "name": "shutdown.exit", "tid": 0,
              "ts": marks["t_written"] * 1e6,
              "dur": (op["spawn"] + op["seconds"] - marks["t_written"]) * 1e6,
              "args": {}},
             *op["trace"]["traceEvents"]], pid, base)
    return {"traceEvents": out}


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run_workload(name: str, args, expected: dict) -> dict:
    ctx = Context(name, args, expected)
    try:
        run = (run_api_workload(ctx) if name == "api-local"
               else run_cli_workload(ctx))
    finally:
        shutil.rmtree(ctx.root, ignore_errors=True)
    metrics = layer_metrics(run) if ctx.trace else e2e_metrics(ctx, run)
    traced = sum(p["traced"] for p in run["passes"])
    return {
        "name": name, "trace": ctx.trace, "metrics": metrics,
        "samples": {"setup_reps": len(run["setup"]),
                    "passes": len(run["passes"]) - traced,
                    "traced_passes": traced,
                    "ops": sum(len(p["ops"]) for p in run["passes"]
                               if not p["traced"])},
        "setup_s": run["setup"],
        "pass_s": [p["wall"] for p in run["passes"] if not p["traced"]],
        "attempted": ctx.attempted, "failed": ctx.failed,
        "verdict_errors": ctx.verdict_errors, "problems": ctx.problems[:50],
        "chrome_trace": chrome_trace(run) if ctx.trace else None,
        "ledger": ctx.records,
    }


def print_metrics(result: dict, unit: dict) -> None:
    samples = result["samples"]
    for metric, value in result["metrics"].items():
        line = f"{result['name']} {metric} {value:.6g} {unit[metric]}"
        if metric == "op_p90_ms":
            line += f" n={samples['ops']}"
        print(line)
    for problem in result["problems"]:
        print(f"{result['name']} problem: {problem}", file=sys.stderr)


def parse_args(argv: list[str], bench: dict):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measured time per workload; whole passes run "
                             "until it has passed (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from alternating "
                             "untraced/traced passes, plus Chrome traces")
    parser.add_argument("--smoke", action="store_true",
                        help="one setup, one pass, trimmed op lists")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="verdict oracle (default: expected.json)")
    parser.add_argument("--write-baseline", metavar="NAME",
                        help="write the result under baseline/NAME/ "
                             "instead of out/")
    return parser.parse_args(argv)


def bench_main(argv: list[str]) -> int:
    if not (SRC / "repro" / "cli.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no repro sources under {SRC} (run from a full "
              "checkout)", file=sys.stderr)
        return 2
    bench = load_benchmark()
    args = parse_args(argv, bench)
    expected = json.loads(args.expected.read_text())
    record = {"provenance": provenance(args, bench, argv), "workloads": {}}
    names = [args.workload] if args.workload else list(WORKLOADS)
    unit = units(bench)
    results = []
    for name in names:
        result = run_workload(name, args, expected)
        print_metrics(result, unit)
        sys.stdout.flush()
        results.append(result)

    prov = record["provenance"]
    stem = f"{prov['utc']}-{prov['commit'][:12]}-{prov['variant']}"
    directory = BASELINE / args.write_baseline if args.write_baseline else OUT
    for result in results:
        trace = result.pop("chrome_trace")
        if trace is not None:
            path = write_new(directory, f"{stem}-{result['name']}",
                             ".trace.json", json.dumps(trace))
            result["chrome_trace_file"] = str(path.relative_to(ROOT))
            print(f"chrome trace: {path.relative_to(ROOT)}")
        ledger = result.pop("ledger")
        if ledger:
            OUT.mkdir(parents=True, exist_ok=True)
            with open(OUT / "ledger.jsonl", "a") as handle:
                for entry in ledger:
                    entry["bench"]["commit"] = prov["commit"]
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
        record["workloads"][result["name"]] = result
    path = write_new(directory, stem, ".json", json.dumps(record, indent=1))
    print(f"result: {path.relative_to(ROOT)}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["name"] + "."
        for spec in bench[section]:
            metrics[prefix + spec["name"]] = {
                "value": result["metrics"][spec["name"]],
                "unit": spec["unit"]}
    errors = sum(r["verdict_errors"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": errors == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0 if errors == 0 and failed == 0 else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def collect(paths: list[Path]) -> dict:
    """{(workload, metric): [value per untraced run]} over result files."""
    files = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    values = defaultdict(list)
    for path in files:
        if path.name.endswith(".trace.json"):
            continue
        for name, result in json.loads(path.read_text())["workloads"].items():
            if not result["trace"]:
                for metric, value in result["metrics"].items():
                    values[name, metric].append(value)
    return values


def verdict(a: list, b: list, bound: float, better: str) -> str:
    """A regression is a median worse by more than the bound; a
    quartile spread of A wider than the bound leaves the pair
    unresolved unless every B run beats every A run."""
    sign = 1 if better == "lower" else -1
    base = median(a)
    q1, _, q3 = quartiles(a)
    spread = (q3 - q1) / base if base else 0.0
    if spread > bound:
        beats = all(sign * y < sign * x for x in a for y in b)
        return "ok" if beats else "unresolved"
    worse = sign * (median(b) - base) / base if base else 0.0
    return "regressed" if worse > bound else "ok"


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare the end-to-end metrics of two sets of runs.")
    parser.add_argument("a", type=Path,
                        help="baseline: a result file or a directory of them")
    parser.add_argument("b", type=Path, help="candidate: the same")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    a, b = collect([args.a]), collect([args.b])
    workloads = sorted({w for w, _ in a} & {w for w, _ in b},
                       key=lambda w: WORKLOADS.index(w)
                       if w in WORKLOADS else len(WORKLOADS))
    status = 0
    print(f"{'workload':12s} {'metric':12s} {'A median [q1, q3] n':>28s} "
          f"{'B median [q1, q3] n':>28s} {'change':>8s}  verdict")

    def cell(values):
        q1, q2, q3 = quartiles(values)
        return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {len(values)}"

    for workload in workloads:
        for spec in [*bench["end_to_end"], *({"name": name} for name in UNGATED)]:
            xs, ys = a.get((workload, spec["name"])), b.get(
                (workload, spec["name"]))
            if not xs or not ys:
                continue
            result = "not gated"
            if "bound" in spec:
                result = verdict(xs, ys, spec["bound"], spec["better"])
                status |= result != "ok"
            change = (median(ys) - median(xs)) / median(xs)
            print(f"{workload:12s} {spec['name']:12s} {cell(xs):>28s} "
                  f"{cell(ys):>28s} {change:+8.1%}  {result}")
    return status


def oracle_main() -> int:
    sys.path.insert(0, str(SRC))
    print(json.dumps(wl.build_expected(), indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Unwind on SIGTERM as on an error: the running op's process group is
    # killed and reaped, and the scratch tree is removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["oracle"]:
        return oracle_main()
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
