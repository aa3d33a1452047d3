"""The bench harness: median-of-k timings plus telemetry counters.

:func:`run_suite` executes a registered suite
(:mod:`repro.perf.suites`) and assembles one versioned bench record
(:mod:`repro.perf.record`).  Per workload, each of the *k* repeats:

- runs **store-isolated** (the same rule as the test suite's
  ``conftest.py``): a fresh throwaway store root per repeat, so timings
  always measure real simulation work, never a warm hit from the
  user's persistent store — and the user's store is never touched;
- for an ``experiment`` workload, starts from cold experiment caches
  (:func:`repro.experiments.clear_caches`), so no repeat or later
  workload times work an earlier one already memoized in-process;
- runs under its own :func:`repro.telemetry.recording` scope, so the
  run's counters (solves, cache misses/puts, committed trials) ride
  into the record without perturbing any ambient recorder;
- is timed with ``time.perf_counter`` around the whole workload call.

A ``kernel`` workload captures its pinned stack once, untimed, and each
repeat times one descent on it; its record adds ``us_per_epoch``.

The record keeps the raw per-repeat timings (the regression checker
derives its noise floor from their spread), the median and min, the
final repeat's counters (identical across repeats — the work is
deterministic), and derived throughput metrics (``trials_per_s``).

Benchmarking observes, never steers (determinism guarantee #10): a
workload benched into a caller-supplied store publishes entries
byte-identical to an unbenched :func:`repro.scenarios.run_scenario`
of the same ``(spec, seed, budget)`` — pinned by
``tests/test_perf.py``.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..errors import ValidationError
from ..telemetry.recorder import _scrub
from .record import make_bench_record, make_workload_result
from .suites import Workload, get_suite

__all__ = ["run_workload", "run_suite"]


@contextmanager
def _store_env(root: str):
    """Point ``REPRO_STORE_DIR`` at *root* for the scope.

    Experiment drivers memoize through the environment-selected default
    store; scenarios receive their store explicitly.  Both must land in
    the isolation root, so the env var is scoped around every repeat.
    """
    saved = os.environ.get("REPRO_STORE_DIR")
    os.environ["REPRO_STORE_DIR"] = root
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("REPRO_STORE_DIR", None)
        else:
            os.environ["REPRO_STORE_DIR"] = saved


def _execute(workload: Workload, store) -> None:
    """Run one repeat of *workload* against *store* (scenarios) or the
    ambient default store (experiments)."""
    if workload.kind == "scenario":
        from ..scenarios import get_scenario, run_scenario

        run_scenario(
            get_scenario(workload.target_id),
            master_seed=workload.seed,
            n_trials=workload.n_trials,
            store=store,
            # Never consult the cache: a caller-supplied store persists
            # across repeats, and a warm hit would time deserialization
            # instead of simulation.  Publication still happens, which
            # is what the guarantee-#10 byte-identity pin inspects.
            use_cache=False,
        )
    else:
        from ..experiments import get_experiment

        get_experiment(workload.target_id)(workload.seed)


def run_workload(
    workload: Workload,
    *,
    repeats: int = 3,
    store=None,
) -> Dict[str, Any]:
    """Time *workload* ``repeats`` times; return one bench result entry.

    With ``store=None`` (the default) every repeat gets a fresh
    throwaway store root; passing a store benches against it without
    cache hits (``use_cache=False``), which is how the byte-identity
    pin inspects what a benched run publishes.
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1; got {repeats}")
    timings: List[float] = []
    counters: Dict[str, float] = {}
    descend = None
    if workload.kind == "kernel":
        from .kernels import kernel_descent

        descend = kernel_descent(workload.target_id, workload.seed)
    for _ in range(repeats):
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            rep_store = store
            if workload.kind == "scenario" and store is None:
                from ..store import ResultStore

                rep_store = ResultStore(os.path.join(tmp, "store"))
            env_root = str(rep_store.root) if rep_store is not None else tmp
            if workload.kind == "experiment":
                from ..experiments import clear_caches

                clear_caches()
            with _store_env(env_root):
                with telemetry.recording() as recorder:
                    start = perf_counter()
                    if descend is not None:
                        descend()
                    else:
                        _execute(workload, rep_store)
                    timings.append(perf_counter() - start)
        # Last repeat wins: the counters are deterministic functions of
        # (workload, seed), so any repeat reports the same values.
        counters = {name: _scrub(value) for name, value in recorder.counters.items()}
    metrics: Dict[str, float] = {}
    trials = counters.get("engine.campaign.trials")
    median = statistics.median(timings)
    if trials:
        metrics["trials_per_s"] = trials / median
    solves = sum(
        value
        for name, value in counters.items()
        if name.startswith("engine.batch.") and name.endswith("_solves")
    )
    if solves:
        metrics["solves_per_s"] = solves / median
    if workload.kind == "kernel":
        epochs = sum(
            counters.get(name, 0)
            for name in (
                "engine.batch.lss_iterations",
                "engine.batch.lss_padded_iterations",
                "engine.batch.gd_iterations",
            )
        )
        metrics["us_per_epoch"] = median * 1e6 / max(epochs, 1)
    return make_workload_result(
        workload_id=workload.workload_id,
        kind=workload.kind,
        timings_s=timings,
        counters=counters,
        metrics=metrics,
    )


def run_suite(
    suite_name: str,
    *,
    repeats: int = 3,
    label: Optional[str] = None,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Execute a registered suite; return its validated bench record.

    The record label defaults to the suite name.  The embedded manifest
    carries the environment fields (host, python, numpy, repro version,
    code version) plus the suite name, repeat count, and
    the spec hash of every scenario workload — so a regression check
    can tell "the code got slower" apart from "the workload changed".
    """
    workloads = get_suite(suite_name)
    results = [run_workload(w, repeats=repeats) for w in workloads]
    spec_hashes: Dict[str, str] = {}
    for workload in workloads:
        if workload.kind == "scenario":
            from ..scenarios import get_scenario

            spec_hashes[workload.target_id] = get_scenario(
                workload.target_id
            ).spec_hash()
    return make_bench_record(
        label or suite_name,
        results,
        manifest_extra={
            "suite": suite_name,
            "repeats": int(repeats),
            "spec_hashes": spec_hashes,
        },
        now=now,
    )
