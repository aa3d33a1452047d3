"""repro.perf — performance history and trace analytics.

This is the repo's one timing system: the ``benchmarks/`` tests assert
speedup floors, while everything that records timings goes through
this package and its machine-readable bench records:

- :mod:`repro.perf.record` — the versioned ``BENCH_<label>.json``
  bench-record schema and its one writer.
- :mod:`repro.perf.suites` — registered workload suites (``smoke``,
  ``full``, ``kernels``, ``paper``) reusing the scenario runner, the
  experiment drivers and the pinned LSS kernel stacks.
- :mod:`repro.perf.bench` — the harness: store-isolated
  median-of-k timings plus key telemetry counters per workload,
  serialized with the run manifest (host, python, code version, spec
  hashes) embedded.
- :mod:`repro.perf.history` — append/list bench records in a history
  directory, with a per-workload trajectory rendering.
- :mod:`repro.perf.regression` — noise-aware baseline comparison with
  CI exit semantics (0 pass / 1 regression / 2 incomparable), gated by
  ``tools/check_perf.py``.
- :mod:`repro.perf.analytics` — trace analytics over the PR-6
  telemetry schema: Chrome trace-event export (Perfetto/speedscope)
  and critical-path extraction.

Design rule (determinism guarantee #10, ``docs/architecture.md``):
benchmarking and trace analytics *observe* runs, they never steer
them — a benched run publishes store payload bytes identical to an
unbenched run, and trace analytics never mutates the trace it reads.
"""

from __future__ import annotations

from .analytics import build_span_forest, chrome_trace, critical_path
from .bench import run_suite, run_workload
from .history import append_record, history_filename, list_records
from .record import (
    BENCH_SCHEMA_VERSION,
    bench_filename,
    make_bench_record,
    make_workload_result,
    read_bench_record,
    validate_bench_record,
    write_bench_record,
)
from .regression import BenchComparison, compare_records
from .suites import Workload, get_suite, register_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_filename",
    "make_bench_record",
    "make_workload_result",
    "read_bench_record",
    "validate_bench_record",
    "write_bench_record",
    "Workload",
    "get_suite",
    "register_suite",
    "run_suite",
    "run_workload",
    "append_record",
    "history_filename",
    "list_records",
    "BenchComparison",
    "compare_records",
    "build_span_forest",
    "chrome_trace",
    "critical_path",
]
