"""Command-line interface.

::

    repro list
    repro show matching-ex4.2
    repro verify matching-ex4.3            # Theorem 4.2 + 5.14, all K
    repro hybrid agreement-livelock        # refine UNKNOWN via checking
    repro check agreement-ss -K 6          # global model checking, one K
    repro sweep matching-ex4.3 --up-to 8   # cutoff-style per-K baseline
    repro sweep agreement-ss --up-to 9 --jobs 4 --timeout 30 --checkpoint
    repro sweep agreement-ss --up-to 9 --resume <run-id>
    repro synthesize sum-not-two           # Section 6 methodology
    repro simulate agreement-ss -K 8       # random-daemon convergence study
    repro fuzz --samples 50                # random-protocol theorem audit
    repro figures --out figures/           # DOT files for the paper figures
    repro cache                            # on-disk result cache stats
    repro cache --clear
    repro runs list                        # cross-run ledger
    repro runs diff <run-id> [baseline]    # regression check between runs
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path

from repro.errors import ProtocolDefinitionError
from repro.obs import runtime as obs
from repro.protocols.registry import REGISTRY, get_protocol

# Everything else is imported by the command that runs it, so a process
# loads only the subsystems its command uses.


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than *minimum*."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _positive_seconds(text: str) -> float:
    """An argparse type: a number of seconds greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _resolve_protocol(name: str):
    """A registry name, or a path to a JSON protocol file.  A file that
    cannot be read or parsed raises :class:`ProtocolDefinitionError`."""
    if name.endswith(".json"):
        from repro.serialization import load_protocol

        try:
            protocol = load_protocol(name)
        except OSError as exc:
            reason = exc.strerror or str(exc)
        except json.JSONDecodeError as exc:
            reason = f"not valid JSON ({exc})"
        except KeyError as exc:
            reason = f"missing field {exc}"
        except TypeError as exc:
            reason = f"malformed ({exc})"
        else:
            reason = None
        if reason is not None:
            raise ProtocolDefinitionError(
                f"cannot load protocol file {name}: {reason}")
    else:
        protocol = get_protocol(name)
    _annotate_protocol(protocol)
    return protocol


def _annotate_protocol(protocol) -> None:
    """Stamp the protocol identity onto the ambient obs run."""
    if obs.active() is None:
        return
    from repro.engine.fingerprint import protocol_fingerprint

    fingerprint = protocol_fingerprint(protocol)
    obs.annotate(protocol=protocol.name, fingerprint=fingerprint)
    obs.gauge("protocol.name", protocol.name)
    obs.gauge("protocol.fingerprint", fingerprint)


def _add_engine_options(parser: argparse.ArgumentParser,
                        jobs: bool = True) -> None:
    """The shared ``repro.engine`` flags (``--jobs``, ``--cache``)."""
    if jobs:
        parser.add_argument(
            "--jobs", type=_at_least(1), default=1, metavar="N",
            help="worker processes for independent work items "
                 "(default: 1 = serial)")
    parser.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=None,
        help="reuse results across runs via the on-disk result cache")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (default: .repro-cache/; implies --cache "
             "unless --no-cache is given)")
    parser.add_argument(
        "--cache-limit", type=_at_least(0), default=1024, metavar="MIB",
        help="size cap in MiB for the on-disk result cache, enforced "
             "LRU-by-mtime (default: 1024; 0 = unbounded)")


def _add_supervisor_options(parser: argparse.ArgumentParser,
                            resume: bool = False) -> None:
    """The supervision flags (``--timeout``, ``--retries`` and, for the
    long-running commands, ``--checkpoint`` / ``--run-id`` /
    ``--resume``)."""
    parser.add_argument(
        "--timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="per-work-item wall-clock budget; an over-budget task is "
             "killed and retried (--retries), then run once more "
             "in-process")
    parser.add_argument(
        "--retries", type=_at_least(0), default=None, metavar="N",
        help="extra attempts for a crashed or timed-out work item "
             "before its in-process rerun (default: 2)")
    if resume:
        parser.add_argument(
            "--checkpoint", action="store_true",
            help="turn the on-disk result cache on with durable (fsynced) "
                 "writes, so an interrupted run loses only its in-flight "
                 "work items; prints the run id to --resume with")
        _add_run_id_option(parser)
        parser.add_argument(
            "--resume", default=None, metavar="ID",
            help="continue a prior --checkpoint run under its run id: "
                 "the durable cache answers every item it finished")


def _add_run_id_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--run-id", default=None, metavar="ID",
        help="name this run in its ledger record and, with --checkpoint, "
             "its run directory (default: generated)")


def _supervisor_policy(args: argparse.Namespace):
    """The :class:`SupervisorPolicy` requested by the flags, or ``None``
    (= the dispatcher's default policy)."""
    if args.timeout is None and args.retries is None:
        return None
    from repro.engine.supervisor import SupervisorPolicy

    return SupervisorPolicy(
        timeout=args.timeout,
        retries=args.retries if args.retries is not None else 2)


def _checkpointing(args: argparse.Namespace) -> bool:
    """Whether ``--checkpoint`` or ``--resume`` asks for durable writes."""
    return bool(getattr(args, "checkpoint", False)
                or getattr(args, "resume", None) is not None)


def _open_checkpoint(args: argparse.Namespace) -> bool:
    """Set up ``runs/<run-id>/`` for a checkpointed or resumed run.

    A checkpointed run creates its directory, so ``--resume`` can find
    it later; ``--resume`` of a run id with no directory is refused
    (``False``) before anything runs.
    """
    from repro.engine.cache import runs_root

    root = runs_root(args.cache_dir)
    run_id = args.run_id
    if args.resume is not None:
        if not (root / run_id).is_dir():
            known = sorted(p.name for p in root.iterdir() if p.is_dir()) \
                if root.is_dir() else []
            print(f"error: no run {run_id!r} under {root} "
                  f"(known runs: {', '.join(known) or 'none'})",
                  file=sys.stderr)
            return False
        print(f"resuming run {run_id}: items it finished are answered "
              f"from the cache", file=sys.stderr)
        return True
    (root / run_id).mkdir(parents=True, exist_ok=True)
    print(f"checkpointing to run {run_id} "
          f"(continue with --resume {run_id})", file=sys.stderr)
    return True


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    """The observability flags (``--trace``, ``--ledger``)."""
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write this run's spans, events, metrics and wall time as "
             "one Chrome trace (open it in Perfetto or chrome://tracing; "
             "render it with 'repro report FILE')")
    parser.add_argument(
        "--ledger", action=argparse.BooleanOptionalAction, default=True,
        help="append this run's final record (verdict digest, "
             "counters, timings) to <cache-dir>/ledger.jsonl for "
             "'repro runs list|diff' (default: on)")


def _engine_cache(args: argparse.Namespace):
    """The :class:`ResultCache` requested by the flags, or ``None``.

    An explicit ``--no-cache`` always wins; otherwise ``--cache-dir``
    implies ``--cache``, and ``--checkpoint`` / ``--resume`` turn on a
    durable one.
    """
    durable = _checkpointing(args)
    if args.cache is False or (args.cache is None and args.cache_dir is None
                               and not durable):
        return None
    from repro.engine import DEFAULT_CACHE_DIR, ResultCache

    return ResultCache(args.cache_dir or DEFAULT_CACHE_DIR,
                       limit_bytes=_cache_limit_bytes(args),
                       durable=durable)


def _cache_limit_bytes(args: argparse.Namespace) -> int | None:
    """The ``--cache-limit`` flag in bytes, ``None`` when unbounded."""
    limit = getattr(args, "cache_limit", 0)
    return limit << 20 if limit else None


#: ``args`` attributes recorded as the ledger identity's flags.  The
#: run-identity flags (``--run-id``, ``--resume``, ``--checkpoint``)
#: and output flags are deliberately excluded: two runs of the same
#: analysis must diff as equals however they are named or checkpointed.
_LEDGER_FLAG_KEYS = (
    "jobs",
    "timeout", "retries", "cache",
    "max_ring_size", "up_to", "ring_size", "samples", "seed",
    "stop_on_failure",
)


def _ledger_flags(args: argparse.Namespace) -> dict:
    flags = {}
    for key in _LEDGER_FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            flags[key] = value
    return flags


def _note_ledger(args: argparse.Namespace, *, protocol=None,
                 fingerprint=None, verdict=None, stats=None) -> None:
    """Stash one command's outcome for the ledger record that
    :func:`_dispatch` appends after the command returns."""
    args._ledger_note = {"protocol": protocol, "fingerprint": fingerprint,
                         "verdict": verdict or {}, "stats": stats}


def _record_ledger(args: argparse.Namespace, exit_status: int,
                   wall_seconds: float, started: float) -> None:
    """Append this run's final record to ``<cache-dir>/ledger.jsonl``."""
    if not getattr(args, "ledger", False):
        return
    note = getattr(args, "_ledger_note", None)
    if note is None:  # the command has no ledger-worthy verdict
        return
    from repro.engine import DEFAULT_CACHE_DIR
    from repro.obs import ledger as ledger_mod

    stats = note.get("stats")
    counters: dict = {}
    stage_seconds: dict = {}
    if stats is not None:
        data = stats.to_dict()
        stage_seconds = {name: round(seconds, 6) for name, seconds
                         in (data.pop("stage_seconds", None) or {}).items()}
        data.pop("metrics", None)
        counters = {name: value for name, value in data.items()
                    if isinstance(value, (int, float))
                    and not isinstance(value, bool)}
    record = ledger_mod.make_record(
        getattr(args, "run_id", None) or "adhoc",
        args.command,
        protocol=note.get("protocol"),
        fingerprint=note.get("fingerprint"),
        flags=_ledger_flags(args),
        verdict=note.get("verdict"),
        exit_status=exit_status,
        wall_seconds=round(wall_seconds, 6),
        started=started,
        counters=counters,
        stage_seconds=stage_seconds)
    ledger_mod.append(ledger_mod.ledger_path(
        getattr(args, "cache_dir", None) or DEFAULT_CACHE_DIR), record)


def _print_stats(stats, cache) -> None:
    if stats is not None:
        print(stats.summary())
    if cache is not None:
        print(cache.stats.summary())


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.serialization import save_protocol

    protocol = get_protocol(args.protocol)
    save_protocol(protocol, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(REGISTRY):
        protocol = get_protocol(name)
        kind = ("unidirectional" if protocol.unidirectional
                else "bidirectional")
        print(f"{name:28s} {kind:14s} {protocol.description}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    print(_resolve_protocol(args.protocol).pretty())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.convergence import verify_convergence

    protocol = _resolve_protocol(args.protocol)
    cache = _engine_cache(args)
    report = verify_convergence(protocol,
                                max_ring_size=args.max_ring_size,
                                cache=cache)
    from repro.engine.fingerprint import protocol_fingerprint

    _note_ledger(args, protocol=protocol.name,
                 fingerprint=protocol_fingerprint(protocol),
                 verdict={"verdict": report.verdict.value},
                 stats=report.stats)
    if args.json:
        from repro.serialization import convergence_report_to_dict

        print(json.dumps(convergence_report_to_dict(report), indent=2))
        return 0 if report.verdict.value == "converges" else 1
    print(f"== parameterized verification of {protocol.name} ==")
    print(report.summary())
    if not report.deadlock.deadlock_free:
        from repro.core.deadlock import DeadlockAnalyzer

        analyzer = DeadlockAnalyzer(protocol)
        sizes = sorted(analyzer.deadlocked_ring_sizes(args.max_sizes))
        print(f"deadlocked ring sizes <= {args.max_sizes}: {sizes}")
    _print_stats(report.stats, cache)
    return 0 if report.verdict.value == "converges" else 1


def _cmd_chain(args: argparse.Namespace) -> int:
    from repro.core.chains import (
        synthesize_chain_convergence,
        verify_chain_convergence,
    )
    from repro.protocols.chains import CHAIN_REGISTRY, get_chain_protocol

    if args.protocol == "list":
        for name in sorted(CHAIN_REGISTRY):
            print(f"{name:24s} {get_chain_protocol(name).description}")
        return 0
    protocol = get_chain_protocol(args.protocol)
    if args.synthesize:
        result = synthesize_chain_convergence(protocol)
        print(f"== chain synthesis for {protocol.name} ==")
        print(result.summary())
        if result.succeeded and result.protocol is not None:
            print()
            print(result.protocol.pretty())
        return 0 if result.succeeded else 1
    report = verify_chain_convergence(protocol)
    print(f"== chain verification of {protocol.name} ==")
    print(report.summary())
    return 0 if report.verdict.value == "converges" else 1


def _cmd_hybrid(args: argparse.Namespace) -> int:
    from repro.core.hybrid import HybridVerdict, hybrid_verify

    protocol = _resolve_protocol(args.protocol)
    try:
        report = hybrid_verify(protocol,
                               max_ring_size=args.max_ring_size,
                               check_up_to=args.check_up_to)
    except ValueError as exc:
        print(f"error: --check-up-to {args.check_up_to}: {exc}",
              file=sys.stderr)
        return 2
    print(f"== hybrid verification of {protocol.name} ==")
    print(report.summary())
    return 0 if report.verdict in (HybridVerdict.CONVERGES,
                                   HybridVerdict.BOUNDED) else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.checker.sweep import sweep_fingerprint, sweep_verify

    protocol = _resolve_protocol(args.protocol)
    first = protocol.process.window_width
    if args.up_to < first:
        print(f"error: --up-to {args.up_to} is below the smallest ring "
              f"size of {protocol.name} ({first})", file=sys.stderr)
        return 2
    cache = _engine_cache(args)
    fingerprint = sweep_fingerprint(protocol, args.up_to)
    result = sweep_verify(protocol, up_to=args.up_to,
                          stop_on_failure=args.stop_on_failure,
                          jobs=args.jobs, cache=cache,
                          policy=_supervisor_policy(args))
    _note_ledger(args, protocol=protocol.name, fingerprint=fingerprint,
                 verdict={
                     "all_self_stabilizing": result.all_self_stabilizing,
                     "failing_sizes": list(result.failing_sizes),
                     "sizes": list(result.sizes),
                 },
                 stats=result.stats)
    print(f"== per-size sweep of {protocol.name} ==")
    print(result.summary())
    if cache is not None:
        print(cache.stats.summary())
    return 0 if result.all_self_stabilizing else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.randomgen import audit_theorems

    cache = _engine_cache(args)
    report = audit_theorems(samples=args.samples,
                            max_ring_size=args.max_ring_size,
                            seed=args.seed,
                            jobs=args.jobs, cache=cache,
                            policy=_supervisor_policy(args))
    _note_ledger(args,
                 verdict={"clean": report.clean,
                          "discrepancies": len(report.discrepancies)},
                 stats=report.stats)
    print(report.summary())
    _print_stats(report.stats, cache)
    for discrepancy in report.discrepancies:
        print(f"  {discrepancy.kind} at K={discrepancy.ring_size}:")
        print("    " + discrepancy.protocol_listing.replace("\n",
                                                            "\n    "))
    return 0 if report.clean else 1


def _cmd_check(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.checker.sweep import sweep_verify

    protocol = _resolve_protocol(args.protocol)
    cache = _engine_cache(args)
    # A sweep of one size: the same timeout/retry/degradation ladder
    # and cache entries as a sweep, and stats that count this run's
    # work (a cached report's own stats describe the run that made it).
    result = sweep_verify(protocol, start=args.ring_size,
                          up_to=args.ring_size, cache=cache,
                          policy=_supervisor_policy(args))
    report = dataclasses.replace(result.reports[0], stats=result.stats)
    from repro.engine.fingerprint import protocol_fingerprint

    _note_ledger(args, protocol=protocol.name,
                 fingerprint=protocol_fingerprint(protocol),
                 verdict={"self_stabilizing": report.self_stabilizing,
                          "ring_size": args.ring_size},
                 stats=report.stats)
    if args.json:
        from repro.serialization import global_report_to_dict

        print(json.dumps(global_report_to_dict(report), indent=2))
        return 0 if report.self_stabilizing else 1
    print(f"== global model checking of {protocol.name} ==")
    print(report.summary())
    _print_stats(report.stats, cache)
    return 0 if report.self_stabilizing else 1


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.core.synthesis import (
        synthesis_fingerprint,
        synthesize_convergence,
    )

    protocol = _resolve_protocol(args.protocol)
    fingerprint = synthesis_fingerprint(protocol, args.max_ring_size)
    result = synthesize_convergence(protocol,
                                    max_ring_size=args.max_ring_size)
    _note_ledger(args, protocol=protocol.name, fingerprint=fingerprint,
                 verdict={"succeeded": result.succeeded},
                 stats=result.stats)
    print(f"== synthesis for {protocol.name} ==")
    print(result.summary())
    if result.succeeded and result.protocol is not None:
        print()
        print(result.protocol.pretty())
    _print_stats(result.stats, None)
    return 0 if result.succeeded else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import export, validate

    if args.validate:
        return validate.main(list(args.files))
    status = 0
    for path in args.files:
        try:
            data = validate.load_json(path)
            validate.validate_chrome_trace_data(data)
        except (OSError, validate.ValidationError) as exc:
            print(f"invalid trace {path}: {exc} (repro report reads the "
                  f"Chrome trace a --trace FILE run writes)",
                  file=sys.stderr)
            status = 1
        else:
            print(export.render_trace(data, source=str(path)))
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (or clear) the result cache under the cache root.

    Artifact files (``.art``) are what older versions' artifact plane
    left under ``artifacts/``; no command reads or writes them any
    more, so they are counted, never attached, and ``--clear`` removes
    them with the result entries and the stray temporaries.  ``--clear``
    leaves ``runs/`` and the ledger alone; a ``--resume`` after it
    recomputes every item, because the entries it would answer from
    are gone.
    """
    from repro.engine.cache import (
        ARTIFACT_SUFFIX,
        DEFAULT_CACHE_DIR,
        ENTRY_SUFFIX,
        TEMP_SUFFIX,
        enforce_directory_limit,
    )

    root = Path(args.cache_dir or DEFAULT_CACHE_DIR)
    if args.clear:
        # A limit below zero removes every match, empty files included
        # (a write killed before its first byte leaves one).
        removed = enforce_directory_limit(
            root, -1, suffix=(ENTRY_SUFFIX, ARTIFACT_SUFFIX, TEMP_SUFFIX))
        print(f"cleared {removed} entries under {root}")
        return 0

    files = {suffix: [0, 0]
             for suffix in (ENTRY_SUFFIX, ARTIFACT_SUFFIX, TEMP_SUFFIX)}
    for path in root.rglob("*") if root.is_dir() else ():
        tally = files.get(path.suffix)
        if tally is not None and path.is_file():
            with contextlib.suppress(OSError):
                tally[1] += path.stat().st_size
                tally[0] += 1
    results, result_bytes = files[ENTRY_SUFFIX]
    legacy, legacy_bytes = files[ARTIFACT_SUFFIX]
    strays = files[TEMP_SUFFIX][0]
    limit = _cache_limit_bytes(args)
    print(f"cache root: {root}")
    print(f"  results:   {results} entries, "
          f"{result_bytes / 2**20:.1f} MiB")
    if legacy:
        print(f"  legacy artifacts: {legacy} files, "
              f"{legacy_bytes / 2**20:.1f} MiB, removed by --clear")
    if strays:
        print(f"  stray:     {strays} temporary files left by "
              f"interrupted writes (removed by --clear)")
    budget = ("unbounded" if limit is None
              else f"{result_bytes / limit:.0%} of {limit >> 20} MiB cap")
    print(f"  total:     {result_bytes / 2**20:.1f} MiB ({budget})")
    print("  (hit/miss rates are per-run; see the engine summary each "
          "command prints, or 'repro report' on a --trace file)")
    return 0


def _load_ledger(args: argparse.Namespace):
    from repro.engine import DEFAULT_CACHE_DIR
    from repro.obs import ledger as ledger_mod

    path = ledger_mod.ledger_path(args.cache_dir or DEFAULT_CACHE_DIR)
    records, skipped = ledger_mod.load(path)
    return ledger_mod, records, skipped


def _cmd_runs_list(args: argparse.Namespace) -> int:
    ledger_mod, records, skipped = _load_ledger(args)
    if args.json:
        print(json.dumps(records, indent=2, default=str))
        return 0
    print(ledger_mod.render_list(records, skipped))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    ledger_mod, records, _skipped = _load_ledger(args)
    record = ledger_mod.find_run(records, args.run_id)
    if record is None:
        print(f"error: no ledger record for run {args.run_id!r}",
              file=sys.stderr)
        return 2
    print(json.dumps(record, indent=2, sort_keys=True, default=str))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    """Exit 0 = no regressions, 1 = regressions, 2 = unusable input."""
    ledger_mod, records, _skipped = _load_ledger(args)
    candidate = ledger_mod.find_run(records, args.candidate)
    if candidate is None:
        print(f"error: no ledger record for run {args.candidate!r}",
              file=sys.stderr)
        return 2
    if args.baseline is not None:
        baseline = ledger_mod.find_run(records, args.baseline)
        if baseline is None:
            print(f"error: no ledger record for baseline "
                  f"{args.baseline!r}", file=sys.stderr)
            return 2
    else:
        baseline = ledger_mod.latest_matching(records, candidate)
        if baseline is None:
            print(f"error: no earlier run matches {args.candidate!r}'s "
                  "identity (command + fingerprint + flags); name a "
                  "baseline explicitly", file=sys.stderr)
            return 2
    result = ledger_mod.diff(candidate, baseline,
                             threshold=args.threshold)
    if args.json:
        print(json.dumps(result, indent=2, default=str))
    else:
        print(ledger_mod.render_diff(result))
    return 1 if result["regressions"] else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation import convergence_study

    protocol = _resolve_protocol(args.protocol)
    instance = protocol.instantiate(args.ring_size)
    stats = convergence_study(instance, samples=args.samples,
                              seed=args.seed)
    print(f"== simulation of {protocol.name} ==")
    print(stats.summary())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    from repro.core import (
        DeadlockAnalyzer,
        build_ltg,
        build_rcg,
        synthesize_convergence,
    )
    from repro.protocols import (
        generalizable_matching,
        matching_base,
        nongeneralizable_matching,
        three_coloring,
    )
    from repro.protocols.agreement import agreement
    from repro.protocols.sum_not_two import sum_not_two
    from repro.viz import ltg_to_dot, rcg_to_dot

    jobs = []
    base = matching_base()
    jobs.append(("fig01_rcg_matching.dot", rcg_to_dot(
        build_rcg(base.space), base.legitimate_states(),
        title="Fig. 1: RCG of maximal matching")))
    ex42 = generalizable_matching()
    jobs.append(("fig02_ex42_deadlock_rcg.dot", rcg_to_dot(
        DeadlockAnalyzer(ex42).analyze().induced_rcg,
        ex42.legitimate_states(),
        title="Fig. 2: RCG over local deadlocks of Example 4.2")))
    ex43 = nongeneralizable_matching()
    jobs.append(("fig03_ex43_deadlock_rcg.dot", rcg_to_dot(
        DeadlockAnalyzer(ex43).analyze().induced_rcg,
        ex43.legitimate_states(),
        title="Fig. 3: RCG over local deadlocks of Example 4.3")))
    jobs.append(("fig04_ltg_ex42.dot", ltg_to_dot(
        build_ltg(ex42.space), ex42.legitimate_states(),
        title="Fig. 4: LTG of Example 4.2")))
    for name, protocol in [("fig09_ltg_3coloring.dot", three_coloring()),
                           ("fig10_ltg_agreement.dot", agreement()),
                           ("fig12_ltg_sum_not_two.dot", sum_not_two())]:
        synthesized = synthesize_convergence(protocol)
        target = (synthesized.protocol if synthesized.protocol is not None
                  else protocol)
        jobs.append((name, ltg_to_dot(
            build_ltg(target.space), target.legitimate_states(),
            title=name.removesuffix(".dot"))))
    for filename, dot in jobs:
        (out / filename).write_text(dot)
        print(f"wrote {out / filename}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Every parser refuses abbreviated long options: a removed flag that
    # prefixes a kept one (``--cache`` of ``--cache-dir``) must exit 2,
    # not run as the kept one.
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="repro",
        description="Verification and synthesis of self-stabilizing "
                    "parameterized ring protocols (Farahat & Ebnenasir, "
                    "ICDCS 2012).")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=strict)

    sub.add_parser("list", help="list bundled protocols") \
        .set_defaults(func=_cmd_list)

    show = sub.add_parser("show", help="print a protocol's guarded "
                                       "commands")
    show.add_argument("protocol")
    show.set_defaults(func=_cmd_show)

    verify = sub.add_parser("verify", help="parameterized verification "
                                           "(all ring sizes)")
    verify.add_argument("protocol")
    verify.add_argument("--max-ring-size", type=_at_least(2), default=9,
                        help="largest K at which a livelock witness's "
                             "round pattern is named (the verdict "
                             "covers every K)")
    verify.add_argument("--max-sizes", type=_at_least(2), default=20,
                        help="horizon for deadlocked-size prediction")
    verify.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    _add_engine_options(verify, jobs=False)
    _add_obs_options(verify)
    # The certificate is one in-process pass, so verify takes no --jobs,
    # --timeout or --retries; jobs=1 stays in its ledger identity, which
    # older verify records carry.
    verify.set_defaults(func=_cmd_verify, jobs=1)

    chain = sub.add_parser("chain", help="exact chain-topology "
                                         "verification / synthesis "
                                         "('chain list' to enumerate)")
    chain.add_argument("protocol")
    chain.add_argument("--synthesize", action="store_true")
    chain.set_defaults(func=_cmd_chain)

    hybrid = sub.add_parser("hybrid", help="local certificates refined "
                                           "by bounded global checking")
    hybrid.add_argument("protocol")
    hybrid.add_argument("--max-ring-size", type=_at_least(2), default=9)
    hybrid.add_argument("--check-up-to", type=int, default=7,
                        help="largest ring size to model-check")
    hybrid.set_defaults(func=_cmd_hybrid)

    sweep = sub.add_parser("sweep", help="cutoff-style per-size "
                                         "verification baseline")
    sweep.add_argument("protocol")
    sweep.add_argument("--up-to", type=int, default=7)
    sweep.add_argument("--stop-on-failure", action="store_true")
    _add_engine_options(sweep)
    _add_supervisor_options(sweep, resume=True)
    _add_obs_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    fuzz = sub.add_parser("fuzz", help="random-protocol audit of the "
                                       "theorems against brute force")
    fuzz.add_argument("--samples", type=_at_least(1), default=50)
    fuzz.add_argument("--max-ring-size", type=_at_least(2), default=5)
    fuzz.add_argument("--seed", type=int, default=0)
    _add_engine_options(fuzz)
    _add_supervisor_options(fuzz)
    _add_obs_options(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    check = sub.add_parser("check", help="global model checking at one K")
    check.add_argument("protocol")
    check.add_argument("-K", "--ring-size", type=int, required=True)
    check.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
    _add_engine_options(check, jobs=False)
    _add_supervisor_options(check)
    _add_obs_options(check)
    # One instance is one work item, so check takes no --jobs; jobs=1
    # stays in its ledger identity, which older check records carry.
    check.set_defaults(func=_cmd_check, jobs=1)

    export = sub.add_parser("export", help="save a bundled protocol as "
                                           "a JSON file")
    export.add_argument("protocol")
    export.add_argument("-o", "--out", required=True)
    export.set_defaults(func=_cmd_export)

    synth = sub.add_parser("synthesize", help="Section 6 synthesis "
                                              "methodology")
    synth.add_argument("protocol")
    synth.add_argument("--max-ring-size", type=_at_least(2), default=9)
    synth.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="where the ledger record goes (default: .repro-cache/); "
             "synthesis caches no results")
    _add_run_id_option(synth)
    _add_obs_options(synth)
    # Each Resolve set's pool is one in-process walk, so synthesize
    # takes no --jobs, cache or supervision flags; jobs=1 stays in its
    # ledger identity, which older synthesize records carry.
    synth.set_defaults(func=_cmd_synthesize, jobs=1)

    simulate = sub.add_parser("simulate", help="random-daemon convergence "
                                               "study")
    simulate.add_argument("protocol")
    simulate.add_argument("-K", "--ring-size", type=int, required=True)
    simulate.add_argument("--samples", type=_at_least(1), default=200)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=_cmd_simulate)

    figures = sub.add_parser("figures", help="emit DOT files for the "
                                             "paper's figures")
    figures.add_argument("--out", default="figures")
    figures.set_defaults(func=_cmd_figures)

    cache = sub.add_parser("cache", help="inspect or clear the on-disk "
                                         "result cache")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: .repro-cache/)")
    cache.add_argument("--cache-limit", type=_at_least(0), default=1024,
                       metavar="MIB",
                       help="cap to report utilisation against "
                            "(default: 1024; 0 = unbounded)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every result entry, legacy artifact "
                            "file and stray temporary file under the "
                            "cache root (runs/ and the ledger are kept)")
    cache.set_defaults(func=_cmd_cache)

    runs = sub.add_parser("runs", help="cross-run ledger: list, show "
                                       "and diff finished runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True,
                                   parser_class=strict)
    runs_list = runs_sub.add_parser("list", help="all ledger records, "
                                                 "newest first")
    runs_list.set_defaults(func=_cmd_runs_list)
    runs_show = runs_sub.add_parser("show", help="one run's full "
                                                 "ledger record")
    runs_show.add_argument("run_id", metavar="RUN-ID")
    runs_show.set_defaults(func=_cmd_runs_show)
    runs_diff = runs_sub.add_parser(
        "diff", help="flag verdict/timing/health regressions of a run "
                     "against a baseline (exit 1 when any are found)")
    runs_diff.add_argument("candidate", metavar="RUN-ID")
    runs_diff.add_argument("baseline", nargs="?", default=None,
                           metavar="BASELINE-ID",
                           help="baseline run id (default: the latest "
                                "earlier run with the same command, "
                                "fingerprint and flags)")
    runs_diff.add_argument(
        "--threshold", type=float, default=0.25, metavar="FRACTION",
        help="relative growth beyond which a timing is a regression "
             "(default: 0.25)")
    runs_diff.set_defaults(func=_cmd_runs_diff)
    for runs_parser in (runs_list, runs_show, runs_diff):
        runs_parser.add_argument("--cache-dir", default=None,
                                 metavar="DIR",
                                 help="cache directory (default: "
                                      ".repro-cache/)")
        runs_parser.add_argument("--json", action="store_true",
                                 help="emit JSON instead of the table")

    report = sub.add_parser("report", help="render or validate "
                                           "observability artifacts "
                                           "(--trace files)")
    report.add_argument("files", nargs="+", metavar="FILE",
                        help="Chrome traces, rendered as the span tree, "
                             "events, metrics and wall time")
    report.add_argument("--validate", action="store_true",
                        help="schema-validate the artifacts instead of "
                             "rendering (CI mode; nonzero exit on any "
                             "invalid file)")
    report.set_defaults(func=_cmd_report)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, inside an observability run when the
    ``--trace`` flag asks for one (the trace is written even when the
    command fails).  The final verdict and counters of a
    ledger-worthy command are appended to the cross-run ledger on the
    way out (``--no-ledger`` opts out)."""
    trace = getattr(args, "trace", None)
    if hasattr(args, "ledger"):
        from repro.engine.cache import new_run_id

        # One identity per command invocation, shared by the
        # checkpoint's run directory and the ledger record.
        args.run_id = (getattr(args, "resume", None)
                       or getattr(args, "run_id", None)
                       or new_run_id())
        if _checkpointing(args) and not _open_checkpoint(args):
            return 2
    started = time.time()
    clock = time.perf_counter()
    if not trace:
        code = args.func(args)
    else:
        code = _dispatch_traced(args, trace)
    _record_ledger(args, code, time.perf_counter() - clock, started)
    return code


def _dispatch_traced(args: argparse.Namespace, trace: str) -> int:
    from repro.obs import export

    attrs = {"command": args.command}
    if getattr(args, "run_id", None):
        attrs["run_id"] = args.run_id
    run_ctx = None
    try:
        with obs.run(f"repro {args.command}", **attrs) as run_ctx:
            return args.func(args)
    finally:
        if run_ctx is not None:
            export.write_chrome_trace(trace, run_ctx)
            print(f"wrote Chrome trace: {trace}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "cache", None) is False and _checkpointing(args):
        parser.error("--no-cache cannot be combined with --checkpoint "
                     "or --resume (both need the on-disk cache)")
    try:
        return _dispatch(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except ProtocolDefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head``): exit quietly
        # with the status a shell gives a process SIGPIPE killed
        # (128 + 13).  stdout now points at /dev/null, so the
        # interpreter's final flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
