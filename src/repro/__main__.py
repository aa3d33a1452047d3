"""Command-line entry point: ``python -m repro``.

Subcommands
-----------
``list``
    Registered experiment drivers and scenario specs, plus the shard
    status of any in-flight sharded campaigns found in the store.
``run <id>``
    Run one experiment (paper figure / extension claim) or one scenario
    campaign by id.  Scenario runs honor ``--workers``, the result store
    (``--store DIR`` / ``--no-store`` / ``--no-cache``), optional
    adaptive early stopping (``--adaptive``), and cross-host sharding
    (``--shard K/N``).  Experiment runs accept only ``--seed``; passing
    a scenario-only flag with an experiment id is an error.
``merge <id>``
    Merge an N-shard campaign's published shard entries into the
    canonical full-campaign store entry.
``store <subcommand>``
    Operate on result stores themselves: ``stats`` (backend, entry and
    byte counts), ``ls`` (indexed entry listing), ``gc`` (size-budget
    LRU eviction + orphaned staging-file sweep), ``sync SRC DST``
    (exchange entries between two stores — the cross-host path), and
    ``migrate SRC DST`` (move a store between backends byte-identically).
    Store paths accept both backend forms: a directory is the
    filesystem layout, a ``.sqlite``/``.db`` path the SQLite backend.
``lint [PATHS...]``
    Statically check source against the repo's invariant rules
    (global-RNG use, wall-clock reads, unsorted store walks, and the
    rest of the RPL rules — see ``docs/linting.md``).  With no paths it
    lints the installed ``repro`` package; ``--json`` emits a versioned
    machine-readable report; exit 1 means findings.
``trace <subcommand>``
    Inspect telemetry traces written by ``run --trace PATH`` (or the
    ``REPRO_TRACE`` environment variable): ``summarize`` renders one
    trace's span tree, counters, and scheduler decisions; ``compare``
    diffs two traces' phase times and counters; ``export`` converts a
    trace to Chrome trace-event JSON (loadable in Perfetto /
    ``chrome://tracing`` / speedscope); ``critical-path`` prints the
    slowest root-to-leaf span chain with per-hop self times and CPU
    utilization.  All four tolerate a crashed-writer trace whose final
    line is truncated (the readable records are reported, with a
    warning).  Tracing never changes results — see determinism
    guarantee #8 in ``docs/architecture.md``.
``bench <subcommand>``
    Machine-readable performance tracking (``repro.perf``): ``run``
    executes a registered workload suite store-isolated, takes
    median-of-k timings plus key telemetry counters, and writes a
    versioned ``BENCH_<label>.json`` record embedding the run manifest;
    ``history`` appends records to / lists a perf-history directory;
    ``check`` compares a record against a baseline with noise-aware
    relative thresholds and exits 0 (pass) / 1 (regression) /
    2 (incomparable) for CI.  Benchmarking never perturbs results —
    determinism guarantee #10.

Examples::

    python -m repro list
    python -m repro run fig18 --seed 7
    python -m repro run town-multilateration --workers 4 --trials 32
    python -m repro run uniform-multilateration --adaptive --tolerance 0.1
    python -m repro run town-multilateration --shard 2/3
    python -m repro run fig16 --trace t.jsonl
    python -m repro trace summarize t.jsonl
    python -m repro lint --json
    python -m repro trace compare baseline.jsonl current.jsonl
    python -m repro trace export t.jsonl -o t.chrome.json
    python -m repro trace critical-path t.jsonl
    python -m repro bench run --suite smoke --repeats 3
    python -m repro bench history --add BENCH_smoke.json --dir perf-history
    python -m repro bench check BENCH_smoke.json --baseline old/BENCH_smoke.json
    python -m repro merge town-multilateration --shards 3
    python -m repro store stats
    python -m repro store gc --max-bytes 256M
    python -m repro store sync /mnt/hostB-store ~/.cache/repro/store
    python -m repro store migrate ~/.cache/repro/store /tmp/store.sqlite
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

from . import telemetry
from .errors import ValidationError
from .store.gc import DEFAULT_GRACE_SECONDS

# Each handler imports what it runs: `lint`, `trace`, `bench check`,
# `store` and `--help` load no simulator module.
if TYPE_CHECKING:
    from .engine.campaign import CampaignResult
    from .store import ResultStore

#: Environment variable naming a trace file to write for every
#: ``repro run`` (the ``--trace`` flag takes precedence when both are
#: set; empty/whitespace values mean unset).
TRACE_ENV_VAR = "REPRO_TRACE"

#: Flags only meaningful for scenario campaigns (flag, argparse attr).
#: An experiment run that sets any of them gets a clear usage error
#: instead of a silently ignored flag; defaults are read back from the
#: ``run`` subparser so this table cannot drift from the definitions.
_SCENARIO_ONLY_FLAGS = (
    ("--workers", "workers"),
    ("--trials", "trials"),
    ("--store", "store"),
    ("--no-store", "no_store"),
    ("--no-cache", "no_cache"),
    ("--adaptive", "adaptive"),
    ("--metric", "metric"),
    ("--tolerance", "tolerance"),
    ("--shard", "shard"),
)


def _add_store_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="result store: a directory (filesystem backend) or a "
        ".sqlite/.db file (SQLite backend); default: $REPRO_STORE_DIR "
        "or ~/.cache/repro/store",
    )
    parser.add_argument(
        "--no-store", action="store_true", help="disable the result store entirely"
    )


def _build_parser():
    """The top-level parser and the ``run`` subparser (returned so flag
    validation can read argparse defaults back instead of copying them)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Kwon et al. (ICDCS 2005) reproduction: experiments, "
        "scenario campaigns, and the content-addressed result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list registered experiments, scenarios, and shard status"
    )
    _add_store_arguments(list_parser)

    run = sub.add_parser("run", help="run an experiment or scenario by id")
    run.add_argument("id", help="experiment id (fig18, ext-sweep, ...) or scenario id")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument(
        "--workers", type=int, default=1, help="worker processes (scenarios only)"
    )
    run.add_argument(
        "--trials", type=int, default=None, help="trial budget override (scenarios only)"
    )
    _add_store_arguments(run)
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="skip cache lookups (recompute and republish)",
    )
    run.add_argument(
        "--adaptive",
        action="store_true",
        help="run the scenario through the early-stopping scheduler",
    )
    run.add_argument(
        "--metric",
        default="mean_error_m",
        help="target metric for --adaptive (default: mean_error_m)",
    )
    run.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="CI half-width tolerance for --adaptive (default: 0.1)",
    )
    run.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="run only shard K of an N-way cross-host split (e.g. 2/3); "
        "requires the result store and a fixed trial count",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a JSONL telemetry trace of this run to PATH (also "
        f"via ${TRACE_ENV_VAR}; inspect with `repro trace summarize`)",
    )

    trace = sub.add_parser(
        "trace", help="inspect telemetry traces written by `run --trace`"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="render a trace: span tree, counters, scheduler decisions",
    )
    summarize.add_argument("path", metavar="TRACE", help="JSONL trace file")
    compare = trace_sub.add_parser(
        "compare", help="diff two traces' phase times and counters"
    )
    compare.add_argument("a", metavar="A", help="baseline trace")
    compare.add_argument("b", metavar="B", help="comparison trace")
    export = trace_sub.add_parser(
        "export",
        help="convert a trace to Chrome trace-event JSON "
        "(Perfetto / chrome://tracing / speedscope)",
    )
    export.add_argument("path", metavar="TRACE", help="JSONL trace file")
    export.add_argument(
        "--format",
        default="chrome",
        choices=("chrome",),
        help="output format (only 'chrome' today)",
    )
    export.add_argument(
        "--out",
        "-o",
        default=None,
        metavar="PATH",
        help="output file (default: TRACE with a .chrome.json suffix)",
    )
    crit = trace_sub.add_parser(
        "critical-path",
        help="slowest root-to-leaf span chain: wall/self time, CPU utilization",
    )
    crit.add_argument("path", metavar="TRACE", help="JSONL trace file")

    bench = sub.add_parser(
        "bench",
        help="machine-readable benchmarks: run suites, track history, "
        "gate regressions (run/history/check)",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run",
        help="time a registered suite (store-isolated, median-of-k) and "
        "write a versioned BENCH_<label>.json record",
    )
    bench_run.add_argument(
        "--suite", default="smoke", help="registered suite name (default: smoke)"
    )
    bench_run.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timing repeats per workload (default: 3; median is reported)",
    )
    bench_run.add_argument(
        "--label",
        default=None,
        help="record label (default: the suite name; names the output file)",
    )
    bench_run.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="record path (default: BENCH_<label>.json in the cwd)",
    )
    bench_run.add_argument(
        "--history",
        default=None,
        metavar="DIR",
        help="also append the record to this perf-history directory",
    )
    bench_history = bench_sub.add_parser(
        "history", help="append to / list a directory of bench records"
    )
    bench_history.add_argument(
        "--dir",
        default="bench-history",
        metavar="DIR",
        help="history directory (default: ./bench-history)",
    )
    bench_history.add_argument(
        "--add",
        default=None,
        metavar="RECORD",
        help="append this bench record before listing (idempotent)",
    )
    bench_check = bench_sub.add_parser(
        "check",
        help="compare a bench record against a baseline; exit 0 pass / "
        "1 regression / 2 incomparable",
    )
    bench_check.add_argument(
        "current", metavar="CURRENT", help="bench record to check"
    )
    bench_check.add_argument(
        "--baseline", required=True, metavar="PATH", help="baseline bench record"
    )
    bench_check.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        help="allowed relative slowdown before noise widening (default: 0.25)",
    )
    bench_check.add_argument(
        "--noise-mult",
        type=float,
        default=None,
        help="noise widening: tolerance grows to this many measured "
        "spreads (default: 3.0)",
    )

    merge = sub.add_parser(
        "merge",
        help="merge an N-shard campaign's store entries into the canonical entry",
    )
    merge.add_argument("id", help="scenario id the shards were run under")
    merge.add_argument("--seed", type=int, default=None, help="master seed")
    merge.add_argument(
        "--trials", type=int, default=None, help="trial budget override"
    )
    merge.add_argument(
        "--shards",
        type=int,
        required=True,
        metavar="N",
        help="total shard count of the split being merged",
    )
    _add_store_arguments(merge)

    store = sub.add_parser(
        "store",
        help="inspect and maintain result stores (stats/ls/gc/sync/migrate)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    stats = store_sub.add_parser(
        "stats", help="backend kind, entry count, stored bytes, shard entries"
    )
    _add_store_arguments(stats)

    ls = store_sub.add_parser(
        "ls", help="list entries from the store index (no decompression)"
    )
    _add_store_arguments(ls)
    ls.add_argument(
        "--limit", type=int, default=None, metavar="N", help="show at most N entries"
    )
    ls.add_argument(
        "--shards",
        action="store_true",
        help="list campaign-shard entries (scenario, seed, shard K/N) instead",
    )

    gc = store_sub.add_parser(
        "gc", help="evict to a size budget (LRU) and sweep orphaned staging files"
    )
    _add_store_arguments(gc)
    gc.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="size budget, e.g. 500000, 64K, 256M, 2G (omit to only sweep orphans)",
    )
    gc.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="KEY",
        help="store key that must never be evicted (repeatable)",
    )
    gc.add_argument(
        "--grace",
        type=float,
        default=DEFAULT_GRACE_SECONDS,
        metavar="SECONDS",
        help=f"min age before a .tmp/.quarantine staging file is swept "
        f"(default {DEFAULT_GRACE_SECONDS:.0f}s)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without deleting anything",
    )

    sync = store_sub.add_parser(
        "sync",
        help="copy SRC entries missing from DST (cross-host shard exchange)",
    )
    sync.add_argument("src", metavar="SRC", help="source store (directory or .sqlite)")
    sync.add_argument("dst", metavar="DST", help="destination store")
    sync.add_argument(
        "--two-way",
        action="store_true",
        help="also copy DST entries missing from SRC (full set union)",
    )

    mig = store_sub.add_parser(
        "migrate",
        help="copy every SRC entry into DST (backend migration, byte-identical)",
    )
    mig.add_argument("src", metavar="SRC", help="source store (directory or .sqlite)")
    mig.add_argument("dst", metavar="DST", help="destination store")

    lint = sub.add_parser(
        "lint",
        help="statically check the repro tree against its invariant rules "
        "(RPL rules; see docs/linting.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned JSON report instead of text",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry (code, name, summary) and exit",
    )
    return parser, run


def _parse_size(text: str) -> int:
    """``"500000"``/``"64K"``/``"256M"``/``"2G"`` → bytes."""
    value = str(text).strip()
    scale = 1
    suffixes = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if value and value[-1].upper() in suffixes:
        scale = suffixes[value[-1].upper()]
        value = value[:-1]
    try:
        n = int(value)
        if n < 0:
            raise ValueError(value)
    except ValueError:
        raise ValidationError(
            f"sizes look like 500000, 64K, 256M, or 2G; got {text!r}"
        ) from None
    return n * scale


def _format_bytes(n: int) -> str:
    for unit, scale in (("GiB", 1024**3), ("MiB", 1024**2), ("KiB", 1024)):
        if n >= scale:
            return f"{n / scale:.1f} {unit}"
    return f"{n} B"


def _cmd_store(args) -> int:
    if args.store_command == "sync":
        return _cmd_store_sync(args)
    if args.store_command == "migrate":
        return _cmd_store_migrate(args)
    store = _open_store(args)
    if store is None:
        print(
            "no result store (REPRO_STORE_DIR is off); pass --store PATH",
            file=sys.stderr,
        )
        return 2
    if not store.root.exists():
        # Inspection/maintenance must not conjure an empty store at a
        # typo'd path and report success against it.
        print(f"store {str(store.root)!r} does not exist", file=sys.stderr)
        return 2
    if args.store_command == "stats":
        return _cmd_store_stats(args, store)
    if args.store_command == "ls":
        return _cmd_store_ls(args, store)
    return _cmd_store_gc(args, store)


def _cmd_store_stats(args, store: ResultStore) -> int:
    if store.backend.indexed_shard_meta:
        # Indexed backend: count and bytes are O(1) SQL aggregates.
        count, total = len(store), store.total_bytes()
    else:
        # Filesystem: one directory walk yields both.
        infos = list(store.iter_entry_info())
        count, total = len(infos), sum(info.size for info in infos)
    print(f"store: {store.root} ({store.backend.kind} backend)")
    print(f"entries: {count} ({total} bytes, {_format_bytes(total)})")
    # Shard-entry counts come only from an index; stats stays cheap on
    # backends where counting would mean decompressing every entry.
    if store.backend.indexed_shard_meta:
        print(f"shard entries: {len(store.list_shards())}")
    else:
        print("shard entries: not indexed (`repro store ls --shards` scans)")
    return 0


def _cmd_store_ls(args, store: ResultStore) -> int:
    if args.limit is not None and args.limit < 0:
        # A negative limit would silently drop entries off the *end*
        # via Python slicing — a plausible-looking but wrong listing.
        print("--limit must be >= 0", file=sys.stderr)
        return 2
    if args.shards:
        listed = store.list_shards()
        print(f"shard entries ({len(listed)}):")
        for meta in listed[: args.limit]:
            shard = meta.get("shard", {})
            context = meta.get("context", {})
            k, n = shard.get("index"), shard.get("n_shards")
            cli_form = "?/?" if k is None or n is None else f"{k + 1}/{n}"
            print(
                f"  {str(context.get('scenario_id', '?')):<28s} "
                f"shard {cli_form} seed={meta.get('master_seed')} "
                f"trials={meta.get('campaign_trials')}"
            )
        return 0
    infos = list(store.iter_entry_info())
    total = sum(info.size for info in infos)
    print(f"entries ({len(infos)}, {total} bytes):")
    # Most recently used first — the entries eviction would keep longest.
    infos.sort(key=lambda info: (-info.accessed_at, info.key))
    for info in infos[: args.limit]:
        print(f"  {info.key}  {info.size:>8d} B")
    return 0


def _cmd_store_gc(args, store: ResultStore) -> int:
    from .store.gc import collect

    try:
        max_bytes = None if args.max_bytes is None else _parse_size(args.max_bytes)
        report = collect(
            store,
            max_bytes=max_bytes,
            pinned=args.pin,
            grace_seconds=args.grace,
            dry_run=args.dry_run,
        )
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(f"store: {store.root} ({store.backend.kind} backend)")
    print(f"gc: {report.summary()}")
    if not report.under_budget:
        print(
            f"gc: pinned entries alone exceed the {max_bytes}-byte budget "
            f"({report.bytes_after} bytes remain)",
            file=sys.stderr,
        )
        return 1
    return 0


def _open_source_store(path: str) -> ResultStore:
    """A store at *path* that must already exist: sync/migrate sources
    are read-only, so a typo'd path must fail loudly instead of opening
    an empty store and 'successfully' copying nothing."""
    from pathlib import Path

    from .store import ResultStore

    if not Path(path).exists():
        raise ValidationError(f"source store {path!r} does not exist")
    return ResultStore(path)


def _cmd_store_sync(args) -> int:
    from .store import ResultStore, diff, push

    try:
        src = _open_source_store(args.src)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    dst = ResultStore(args.dst)
    report = push(src, dst)
    print(f"sync {src.root} -> {dst.root}: {report.summary()}")
    corrupt = list(report.skipped_corrupt)
    if args.two_way:
        back = push(dst, src)
        print(f"sync {dst.root} -> {src.root}: {back.summary()}")
        corrupt.extend(back.skipped_corrupt)
    # Name the actual cause before the generic divergence check: corrupt
    # entries are the one thing that legitimately leaves a two-way pass
    # out of sync, and "heal or invalidate them" is the actionable fix.
    if corrupt:
        print(
            f"sync: {len(corrupt)} corrupt source entries were not copied",
            file=sys.stderr,
        )
        return 1
    if args.two_way and not diff(src, dst).in_sync:
        print("sync: stores still differ after two-way pass", file=sys.stderr)
        return 1
    return 0


def _cmd_store_migrate(args) -> int:
    from .store import ResultStore, migrate

    try:
        src = _open_source_store(args.src)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    dst = ResultStore(args.dst)
    try:
        report = migrate(src, dst)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(
        f"migrate {src.root} ({src.backend.kind}) -> "
        f"{dst.root} ({dst.backend.kind}): {report.summary()}"
    )
    return 0


def _shard_status_lines(store: ResultStore) -> list:
    """Group the store's shard entries into campaigns and render one
    status line per campaign (complete campaigns are not listed — their
    canonical entry has been published and they no longer need merging).

    The code version is part of the grouping key: shards published by a
    different repro version live under keys the current merge path can
    never address, so pooling them with current-version shards would
    misreport completeness.  Stale groups are flagged instead.
    """
    from .scenarios import get_scenario, scenario_run_key

    groups = {}
    for meta in store.list_shards():
        shard = meta.get("shard", {})
        context = meta.get("context", {})
        group = (
            str(context.get("scenario_id", "?")),
            str(context.get("spec_hash", ""))[:12],
            str(context.get("code_version", "?")),
            meta.get("master_seed"),
            meta.get("campaign_trials"),
            shard.get("n_shards"),
        )
        groups.setdefault(group, set()).add(shard.get("index"))
    lines = []
    for (scenario_id, spec_hash, code_version, seed, trials, n_shards), present in sorted(
        groups.items(), key=lambda item: item[0]
    ):
        if n_shards is None:
            continue
        missing = sorted(set(range(n_shards)) - present)
        if not missing:
            # All shards present — hidden only once the canonical merged
            # entry actually exists.  A crash between the last shard's
            # publish and the auto-merge, or shard entries copied in from
            # per-host stores, leaves the campaign complete but unmerged
            # — exactly the case the `merge` command recovers.
            if code_version != store.code_version:
                continue  # stale keys the current merge path cannot address
            try:
                spec = get_scenario(scenario_id)
            except KeyError:
                continue
            if spec.spec_hash()[:12] != spec_hash or seed is None or trials is None:
                continue
            canonical = store.key_for(
                scenario_run_key(spec, master_seed=seed, n_trials=trials)
            )
            if store.contains(canonical):
                continue
            lines.append(
                f"  {scenario_id:<28s} [{spec_hash}] seed={seed} trials={trials}: "
                f"all {n_shards} shards present, unmerged (run "
                f"`python -m repro merge {scenario_id} --seed {seed} "
                f"--trials {trials} --shards {n_shards}`)"
            )
            continue
        missing_text = ", ".join(f"{k + 1}/{n_shards}" for k in missing)
        stale = (
            ""
            if code_version == store.code_version
            else f" [stale code version {code_version}]"
        )
        lines.append(
            f"  {scenario_id:<28s} [{spec_hash}] seed={seed} trials={trials}: "
            f"{len(present)}/{n_shards} shards present (missing {missing_text})"
            f"{stale}"
        )
    return lines


def _cmd_list(args) -> int:
    from .experiments import all_experiments
    from .scenarios import all_scenarios

    experiments = all_experiments()
    scenarios = all_scenarios()
    print(f"experiments ({len(experiments)}):")
    for experiment_id in sorted(experiments):
        doc = (experiments[experiment_id].__doc__ or "").strip().splitlines()
        print(f"  {experiment_id:<28s} {doc[0] if doc else ''}")
    print(f"\nscenarios ({len(scenarios)}):")
    for scenario_id in sorted(scenarios):
        spec = scenarios[scenario_id]
        print(
            f"  {scenario_id:<28s} {spec.solver.algorithm}, "
            f"{spec.deployment.kind} n={spec.deployment.n_nodes}, "
            f"{spec.ranging.model} ranging, {spec.n_trials} trials "
            f"[{spec.spec_hash()[:12]}]"
        )
    store = _open_store(args)
    if store is not None:
        lines = _shard_status_lines(store)
        if lines:
            print(f"\nincomplete sharded campaigns ({len(lines)}):")
            for line in lines:
                print(line)
            print("  (run the missing shards, or `python -m repro merge <id>`)")
    return 0


def _open_store(args) -> Optional[ResultStore]:
    from .store import ResultStore, default_store_root

    if args.no_store:
        return None
    if args.store is not None:
        return ResultStore(args.store)
    root = default_store_root()
    return None if root is None else ResultStore(root)


def _print_store_line(store: ResultStore) -> None:
    """Completion line surfacing the run's cache behavior directly
    (previously visible only through `repro store stats`)."""
    stats = store.stats
    print(
        f"store: {store.root} ({store.backend.kind} backend) "
        f"hits={stats.hits} misses={stats.misses} puts={stats.puts}"
    )


def _print_nan_warning(result: CampaignResult) -> None:
    """Flag silently-degraded campaigns: trials whose metrics include a
    non-finite value would otherwise surface only in the per-metric
    ``nan=`` columns (or nowhere, if nobody reads them)."""
    if result.n_nan_trials:
        print(
            f"warning: {result.n_nan_trials} of {result.n_trials} trials "
            f"reported non-finite metrics (see the nan= columns above)"
        )


def _resolve_trace_path(args) -> Optional[str]:
    """``--trace PATH``, else ``$REPRO_TRACE`` (empty means unset)."""
    if getattr(args, "trace", None):
        return args.trace
    configured = os.environ.get(TRACE_ENV_VAR, "").strip()
    return configured or None


def _cmd_run(args, run_parser) -> int:
    trace_path = _resolve_trace_path(args)
    if trace_path is None:
        return _cmd_run_inner(args, run_parser)
    from .store import default_code_version

    with telemetry.recording() as recorder:
        recorder.set_manifest(
            argv=["run", args.id], code_version=default_code_version()
        )
        code = _cmd_run_inner(args, run_parser)
        written = recorder.write(trace_path)
    print(f"trace: {written} records -> {trace_path}")
    return code


def _cmd_run_inner(args, run_parser) -> int:
    from .engine import ConfidenceStop, ScheduledCampaignResult
    from .experiments import DEFAULT_SEED, all_experiments, get_experiment
    from .scenarios import all_scenarios, get_scenario, run_scenario

    experiments = all_experiments()
    scenarios = all_scenarios()
    if args.id in experiments:
        offending = [
            flag
            for flag, attr in _SCENARIO_ONLY_FLAGS
            if getattr(args, attr) != run_parser.get_default(attr)
        ]
        if offending:
            print(
                f"{args.id!r} is an experiment id; {', '.join(offending)} "
                f"only appl{'ies' if len(offending) == 1 else 'y'} to scenario "
                f"campaigns (experiments accept --seed alone)",
                file=sys.stderr,
            )
            return 2
        seed = DEFAULT_SEED if args.seed is None else args.seed
        telemetry.set_manifest(
            kind="experiment", experiment_id=args.id, master_seed=int(seed)
        )
        with telemetry.span("experiment", id=args.id, seed=int(seed)):
            result = get_experiment(args.id)(seed)
        print(result.summary())
        return 0 if result.passed else 1
    if args.id in scenarios:
        spec = get_scenario(args.id)
        store = _open_store(args)
        telemetry.set_manifest(kind="scenario")
        if store is not None:
            telemetry.set_manifest(
                store_backend=store.backend.kind, store_root=str(store.root)
            )
        if args.shard is not None:
            return _run_scenario_shard(args, spec, store)
        stopping = None
        if args.adaptive:
            stopping = ConfidenceStop(metric=args.metric, tolerance=args.tolerance)
        result = run_scenario(
            spec,
            master_seed=0 if args.seed is None else args.seed,
            n_trials=args.trials,
            n_workers=args.workers,
            stopping=stopping,
            store=store,
            use_cache=not args.no_cache,
        )
        print(f"scenario: {spec.scenario_id} [{spec.spec_hash()[:12]}]")
        print(result.summary())
        _print_nan_warning(result)
        if isinstance(result, ScheduledCampaignResult):
            print(
                f"scheduler: {result.stop_reason} (early stop saved "
                f"{result.trials_saved} of {result.max_trials} budgeted trials)"
            )
        if store is not None:
            _print_store_line(store)
        return 0
    print(
        f"unknown id {args.id!r}; run `python -m repro list` for "
        f"{len(experiments)} experiments and {len(scenarios)} scenarios",
        file=sys.stderr,
    )
    return 2


def _read_trace_reporting(path):
    """Lenient trace read for the inspection commands: a crashed-writer
    truncated tail is dropped with a stderr warning instead of failing
    the whole file (strict reading stays the default everywhere a trace
    is consumed programmatically)."""
    manifest, records, warnings = telemetry.read_trace_lenient(path)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return manifest, records


def _cmd_trace(args) -> int:
    from .telemetry.report import compare_traces, summarize_trace

    if args.trace_command == "summarize":
        manifest, records = _read_trace_reporting(args.path)
        print(f"trace: {args.path} ({1 + len(records)} records)")
        print(summarize_trace(manifest, records))
        return 0
    if args.trace_command == "export":
        return _cmd_trace_export(args)
    if args.trace_command == "critical-path":
        from .perf.analytics import critical_path, render_critical_path

        _, records = _read_trace_reporting(args.path)
        print(f"trace: {args.path}")
        print(render_critical_path(critical_path(records)))
        return 0
    trace_a = _read_trace_reporting(args.a)
    trace_b = _read_trace_reporting(args.b)
    print(compare_traces(trace_a, trace_b, label_a=args.a, label_b=args.b))
    return 0


def _cmd_trace_export(args) -> int:
    import json

    from .perf.analytics import chrome_trace

    manifest, records = _read_trace_reporting(args.path)
    converted = chrome_trace(manifest, records)
    out = args.out
    if out is None:
        base = args.path[: -len(".jsonl")] if args.path.endswith(".jsonl") else args.path
        out = f"{base}.chrome.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(converted, fh, sort_keys=True)
        fh.write("\n")
    print(
        f"export: {len(converted['traceEvents'])} trace events -> {out} "
        f"(open in Perfetto, chrome://tracing, or speedscope)"
    )
    return 0


def _cmd_bench(args) -> int:
    if args.bench_command == "run":
        return _cmd_bench_run(args)
    if args.bench_command == "history":
        return _cmd_bench_history(args)
    return _cmd_bench_check(args)


def _cmd_bench_run(args) -> int:
    from .perf import append_record, bench_filename, run_suite, write_bench_record

    if args.repeats < 1:
        print("--repeats must be >= 1", file=sys.stderr)
        return 2
    record = run_suite(args.suite, repeats=args.repeats, label=args.label)
    out = args.out or bench_filename(record["label"])
    write_bench_record(out, record)
    width = max(len(result["id"]) for result in record["results"])
    print(f"bench suite {args.suite!r} (median of {args.repeats}):")
    for result in record["results"]:
        throughput = result["metrics"].get("trials_per_s")
        per_epoch = result["metrics"].get("us_per_epoch")
        suffix = f"  {throughput:>8.1f} trials/s" if throughput else ""
        if per_epoch:
            suffix = f"  {per_epoch:>8.1f} us/epoch"
        print(
            f"  {result['id']:<{width}}  median {result['median_s']:>9.4f} s"
            f"  min {result['min_s']:>9.4f} s{suffix}"
        )
    print(f"bench: {len(record['results'])} workloads -> {out}")
    if args.history is not None:
        path, appended = append_record(args.history, record)
        verb = "appended to" if appended else "already present in"
        print(f"history: {verb} {path}")
    return 0


def _cmd_bench_history(args) -> int:
    from .perf import append_record, list_records, read_bench_record
    from .perf.history import render_history

    if args.add is not None:
        record = read_bench_record(args.add)
        path, appended = append_record(args.dir, record)
        verb = "appended" if appended else "already present:"
        print(f"history: {verb} {path.name}")
    print(render_history(list_records(args.dir)))
    return 0


def _cmd_bench_check(args) -> int:
    from .perf import compare_records, read_bench_record
    from .perf.regression import DEFAULT_NOISE_MULT, DEFAULT_REL_TOL

    baseline = read_bench_record(args.baseline)
    current = read_bench_record(args.current)
    comparison = compare_records(
        baseline,
        current,
        rel_tol=DEFAULT_REL_TOL if args.rel_tol is None else args.rel_tol,
        noise_mult=DEFAULT_NOISE_MULT if args.noise_mult is None else args.noise_mult,
    )
    print(comparison.render())
    return comparison.exit_code


def _run_scenario_shard(args, spec, store: Optional[ResultStore]) -> int:
    from .engine import ShardSpec
    from .scenarios import run_scenario_shard, scenario_shard_status

    if args.adaptive:
        print(
            "--shard cannot combine with --adaptive: the stopping rule "
            "needs the global record prefix no shard can see",
            file=sys.stderr,
        )
        return 2
    if store is None:
        print(
            "--shard requires a result store (the cross-host exchange "
            "point); drop --no-store or pass --store DIR",
            file=sys.stderr,
        )
        return 2
    try:
        shard = ShardSpec.parse(args.shard)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    master_seed = 0 if args.seed is None else args.seed
    try:
        shard_result, merged = run_scenario_shard(
            spec,
            shard,
            master_seed=master_seed,
            n_trials=args.trials,
            n_workers=args.workers,
            store=store,
            use_cache=not args.no_cache,
        )
    except ValidationError as exc:
        # e.g. more shards than trials: no non-empty contiguous split.
        print(str(exc), file=sys.stderr)
        return 2
    print(f"scenario: {spec.scenario_id} [{spec.spec_hash()[:12]}]")
    print(shard_result.describe())
    print(shard_result.summary())
    _print_nan_warning(shard_result)
    if merged is not None:
        print(
            f"merge: all {shard.n_shards} shards present; canonical "
            f"campaign entry published ({merged.n_trials} trials)"
        )
    else:
        status = scenario_shard_status(
            spec,
            master_seed=master_seed,
            n_trials=args.trials,
            n_shards=shard.n_shards,
            store=store,
        )
        missing = [s.cli_form for s, present in status if not present]
        print(f"merge: waiting on shards {', '.join(missing)}")
    _print_store_line(store)
    return 0


def _cmd_merge(args) -> int:
    from .experiments import all_experiments
    from .scenarios import all_scenarios, get_scenario, merge_scenario_shards

    scenarios = all_scenarios()
    if args.id not in scenarios:
        hint = (
            " (an experiment id — only scenario campaigns shard)"
            if args.id in all_experiments()
            else ""
        )
        print(f"unknown scenario id {args.id!r}{hint}", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("--shards must be >= 1", file=sys.stderr)
        return 2
    store = _open_store(args)
    if store is None:
        print("merge requires a result store; pass --store DIR", file=sys.stderr)
        return 2
    spec = get_scenario(args.id)
    try:
        merged = merge_scenario_shards(
            spec,
            master_seed=0 if args.seed is None else args.seed,
            n_trials=args.trials,
            n_shards=args.shards,
            store=store,
        )
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"scenario: {spec.scenario_id} [{spec.spec_hash()[:12]}]")
    print(
        f"merge: {args.shards} shards -> canonical campaign entry published"
    )
    print(merged.summary())
    _print_nan_warning(merged)
    _print_store_line(store)
    return 0


def main(argv=None) -> int:
    import sqlite3

    parser, run_parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "merge":
            return _cmd_merge(args)
        if args.command == "lint":
            from .lint.cli import run_lint

            return run_lint(args)
        if args.command == "store":
            try:
                return _cmd_store(args)
            except OSError as exc:
                # Environmental I/O failures on store maintenance
                # (read-only mount, permission denied, disk full) get a
                # one-line diagnostic.  Scoped to the store group: an
                # OSError elsewhere (e.g. a broken pipe while printing
                # `list`) is not a store error and must not be
                # mislabeled as one.
                print(f"store I/O error: {exc}", file=sys.stderr)
                return 2
        return _cmd_run(args, run_parser)
    except ValidationError as exc:
        # Backstop for usage-level errors raised below argument parsing
        # — e.g. a --store path that exists but is not a store.
        print(str(exc), file=sys.stderr)
        return 2
    except sqlite3.Error as exc:
        # A damaged SQLite store (truncated copy whose magic header
        # survived) fails mid-query, from any command that opens it;
        # sqlite is only ever a store backend, so the label is accurate
        # globally.
        print(f"SQLite store error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
