"""Measuring process of the campaign benchmark: one workload, one mode.

``run.py`` starts this file in a fresh interpreter with ``src`` on the
path, a throwaway ``REPRO_STORE_DIR`` and ``REPRO_TRACE`` /
``REPRO_ARRAY_BACKEND`` unset.  Human-readable lines go to standard
output; the last line is one JSON object for ``run.py`` to finish.

Modes:

``--setup-only``
    Import, resolve the workload's specs, print the setup split, exit.
untraced (``--trace 0``)
    A ``run_scenario`` campaign per cell into a fresh store (trials per
    second and per-trial latency), an inline rerun to check it, then
    warm recalls of every cell (recall latency).  Telemetry must be off
    throughout.  Every timing is scaled to the reference host speed by
    ``host_speed`` probes between laps; the raw figures are printed too.
traced (``--trace 1``)
    The inline timed campaign untraced (the overhead baseline), then the
    same campaign through ``run_scenario`` with every layer wrapped and
    telemetry recording, plus warm recalls.  Reports per-layer metrics.

Every mode checks outputs: the campaigns of one run must agree record
for record, and at a pinned seed and trial count the accuracy summary
must equal ``reference.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence

import bench_trace
from bench_stats import count_failed, matches_pin, tail_percentile
from host_speed import AdjustedClock

HERE = Path(__file__).resolve().parent

#: Warm recalls per run: RECALL_BLOCKS blocks of RECALL_BLOCK samples,
#: which puts each block's tail at p90.  Each block is one lap.
RECALL_BLOCK = 100
RECALL_BLOCKS = 30
TRACED_RECALLS = 40


class TimedTrial:
    """``scenario_trial`` with its wall time recorded, telemetry off.

    With a *clock*, every trial closes one of its laps and ``times``
    holds reference-speed seconds; ``raw_times`` always holds wall time.
    """

    def __init__(self, clock: AdjustedClock = None) -> None:
        from repro import telemetry
        from repro.scenarios.trial import scenario_trial

        self.times: List[float] = []
        self.raw_times: List[float] = []
        self._clock = clock
        self._telemetry = telemetry
        self._trial = scenario_trial

    def __call__(self, rng, *, spec):
        require_untraced(self._telemetry)
        start = time.perf_counter()
        metrics = self._trial(rng, spec=spec)
        raw = time.perf_counter() - start
        factor = self._clock.lap() if self._clock else 1.0
        self.raw_times.append(raw)
        self.times.append(raw * factor)
        return metrics


def require_untraced(telemetry) -> None:
    if telemetry.current().active:
        raise RuntimeError("telemetry is recording inside an untraced timed region")


def metric_dicts(campaigns) -> List[Dict[str, float]]:
    return [r.metrics for c in campaigns for r in c.records]


def failed_trials(campaigns, references) -> int:
    """Failed trials over all cells (see :func:`bench_stats.count_failed`)."""
    return sum(count_failed(metric_dicts([c]), metric_dicts([r])) for c, r in zip(campaigns, references))


def accuracy(campaigns) -> Dict[str, float]:
    """Accuracy summary over every trial of every cell."""
    records = metric_dicts(campaigns)
    errors = [r["mean_error_m"] for r in records if math.isfinite(r["mean_error_m"])]
    fractions = [
        r["fraction_localized"] for r in records if math.isfinite(r["fraction_localized"])
    ]
    nan_trials = sum(any(not math.isfinite(v) for v in r.values()) for r in records)
    return {
        "n_trials": len(records),
        "mean_error_m": sum(errors) / len(errors) if errors else float("nan"),
        "fraction_localized": sum(fractions) / len(fractions) if fractions else float("nan"),
        "nan_trials": nan_trials,
    }


def check_pin(pins: dict, workload: str, seed: int, summary: Dict[str, float]) -> List[str]:
    """Differences from the pinned reference, or ``[]`` when none is pinned.

    *pins* maps workload -> seed -> the :func:`accuracy` summary of that
    seed at the default run length; other trial counts are not pinned.
    """
    pin = pins.get(workload, {}).get(str(seed))
    if pin is None or pin["n_trials"] != summary["n_trials"]:
        return []
    return [
        f"{key}: got {summary[key]!r}, pinned {pin[key]!r}"
        for key in ("mean_error_m", "fraction_localized", "nan_trials")
        if not matches_pin(float(summary[key]), float(pin[key]))
    ]


def record_problems(workload, campaigns, references, name: str) -> List[str]:
    """One problem per cell whose records differ from the reference campaign."""
    from repro.store import records_equal

    return [
        f"{name} records of {cell.scenario_id} differ record for record"
        for cell, got, want in zip(workload.cells, campaigns, references)
        if not records_equal(got, want)
    ]


def timed_campaigns(workload, seed: int, n: int, clock: AdjustedClock = None):
    """Every cell inline with per-trial timing; returns (campaigns, the trial timer)."""
    from repro.engine import run_monte_carlo

    timer = TimedTrial(clock)
    campaigns = [
        run_monte_carlo(timer, n, master_seed=seed, trial_kwargs={"spec": cell})
        for cell in workload.cells
    ]
    return campaigns, timer


def recall(
    workload, seed: int, n: int, store, blocks: int, block: int, reference,
    clock: AdjustedClock = None,
) -> tuple:
    """Warm ``run_scenario`` recalls cycling over the cells, in blocks.

    Returns (per block, its ms samples; mismatches).  With a *clock*
    every block is one lap and its samples are scaled by that lap's
    factor.  The first recall of each cell is checked against *reference*.
    """
    from repro.scenarios import run_scenario
    from repro.store import records_equal

    cells = list(zip(workload.cells, reference))
    out: List[List[float]] = []
    mismatches = 0
    for block_index in range(blocks):
        samples: List[float] = []
        for index in range(block_index * block, (block_index + 1) * block):
            cell, want = cells[index % len(cells)]
            start = time.perf_counter()
            got = run_scenario(cell, master_seed=seed, n_trials=n, store=store)
            samples.append((time.perf_counter() - start) * 1000.0)
            if index < len(cells):
                mismatches += not records_equal(got, want)
        factor = clock.lap() if clock else 1.0
        out.append([sample * factor for sample in samples])
    return out, mismatches


def blocked_latency(blocks: List[List[float]]) -> tuple:
    """Median over blocks of each block's (p50, tail, tail percentile).

    A burst of load from outside moves one block's figures, not the
    reported medians.
    """
    tails = [tail_percentile(b) for b in blocks]
    return (
        median([median(b) for b in blocks]),
        median([value for _, value in tails]),
        tails[0][0],
    )


@contextmanager
def timed_front_door(timer: TimedTrial):
    """Route ``run_scenario``'s inline trials through *timer*.

    ``run_scenario`` looks ``scenario_trial`` up in its own module, so
    that is the one name to rebind; the timer calls the original.
    """
    import repro.scenarios.runner as runner

    original = runner.scenario_trial
    runner.scenario_trial = timer
    try:
        yield
    finally:
        runner.scenario_trial = original


def run_untraced(workload, seed: int, n: int, tmp: Path) -> dict:
    """The cold campaign through ``run_scenario`` is what is timed.

    Inline workloads time each of its trials, and each trial is a lap
    of the campaign's clock; a pooled workload's laps are its cells.
    The output check reruns the leading trials of every cell inline:
    trial *i* depends only on the seed and *i*, so that prefix must
    equal the cold records record for record.  A pooled workload takes
    its per-trial latency from the rerun, because its cold trials run
    in the workers.
    """
    from repro import telemetry
    from repro.scenarios import run_scenario
    from repro.store import ResultStore

    store = ResultStore(tmp / "untraced")
    inline = workload.n_workers == 1
    require_untraced(telemetry)
    clock = AdjustedClock()
    timer = TimedTrial(clock)
    cold = []
    with timed_front_door(timer) if inline else nullcontext():
        for cell in workload.cells:
            cold.append(
                run_scenario(
                    cell, master_seed=seed, n_trials=n, n_workers=workload.n_workers, store=store
                )
            )
            clock.lap()
    require_untraced(telemetry)
    check, check_timer = timed_campaigns(
        workload, seed, min(n, workload.rerun_trials), None if inline else AdjustedClock()
    )
    trials = timer if inline else check_timer
    recall_clock = AdjustedClock()
    recall_ms, recall_mismatches = recall(
        workload, seed, n, store, RECALL_BLOCKS, RECALL_BLOCK, cold, recall_clock
    )
    require_untraced(telemetry)

    prefixes = [
        dataclasses.replace(c, records=c.records[: ref.n_trials]) for c, ref in zip(cold, check)
    ]
    problems = record_problems(workload, prefixes, check, "cold and rerun")
    if recall_mismatches:
        problems.append(f"{recall_mismatches} warm recall(s) differ from the cold campaign")
    trial_pct, trial_tail = tail_percentile(trials.times)
    recall_p50, recall_tail, recall_pct = blocked_latency(recall_ms)
    n_cold = n * len(workload.cells)
    print(f"trial tail percentile: p{trial_pct} of {len(trials.times)} trials")
    print(
        f"recall latency: median over {len(recall_ms)} blocks of "
        f"{RECALL_BLOCK} recalls of each block's p50; the same for p{recall_pct}: "
        f"{recall_tail:.4g} ms (not bounded)"
    )
    print(
        f"host speed (reference / now): campaign {clock.adjusted_s / clock.raw_s:.3f}, "
        f"recalls {recall_clock.adjusted_s / recall_clock.raw_s:.3f}; unadjusted "
        f"trials_per_s={n_cold / clock.raw_s:.4g} "
        f"trial_p50_ms={median(trials.raw_times) * 1000.0:.4g}"
    )
    return {
        "campaigns": cold,
        "failed": failed_trials(cold, check),
        "problems": problems,
        "metrics": {
            "trials_per_s": n_cold / clock.adjusted_s,
            "trial_p50_ms": median(trials.times) * 1000.0,
            "trial_tail_ms": trial_tail * 1000.0,
            "recall_p50_ms": recall_p50,
        },
    }


def run_traced(workload, seed: int, n: int, tmp: Path) -> dict:
    from repro import telemetry
    from repro.scenarios import run_scenario
    from repro.store import ResultStore

    untraced, untraced_timer = timed_campaigns(workload, seed, n)
    store = ResultStore(tmp / "traced")
    tracer = bench_trace.Tracer()
    traced = []
    with bench_trace.installed(tracer), telemetry.recording() as recorder:
        for cell in workload.cells:
            traced.append(run_scenario(cell, master_seed=seed, n_trials=n, store=store))
        block = max(TRACED_RECALLS, len(workload.cells))
        _, recall_mismatches = recall(workload, seed, n, store, 1, block, traced)
    calls = bench_trace.span_calls(tracer)
    problems = [f"span {span} never fired" for span in workload.spans if not calls.get(span)]
    if recall_mismatches:
        problems.append(f"{recall_mismatches} warm recall(s) differ from the traced campaign")
    problems += record_problems(workload, traced, untraced, "traced and untraced")
    names = [m["name"] for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    metrics = bench_trace.layer_metrics(tracer, recorder.counters, untraced_timer.raw_times, names)
    metrics["mean_error_m"] = accuracy(traced)["mean_error_m"]
    return {
        "campaigns": traced,
        "failed": failed_trials(traced, untraced),
        "problems": problems,
        "metrics": metrics,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (the traced run has no workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import numpy  # noqa: F401  (part of the measured import cost)
    import repro.scenarios  # noqa: F401

    import bench_workloads

    import_s = time.perf_counter() - start
    start = time.perf_counter()
    workload = bench_workloads.resolve(args.workload)
    n = workload.trials_per_cell(args.seconds)
    warmup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"import_s": import_s, "warmup_s": warmup_s}), flush=True)
        return 0

    run = run_traced if args.trace else run_untraced
    result = run(workload, args.seed, n, args.tmp)
    summary = accuracy(result["campaigns"])
    attempted = summary["n_trials"]
    pins = json.loads((HERE / "reference.json").read_text())["pins"]
    pin_diffs = check_pin(pins, workload.name, args.seed, summary)
    problems = result["problems"] + [f"reference mismatch, {diff}" for diff in pin_diffs]
    for problem in problems:
        print(f"FAIL ({workload.name}, seed {args.seed}): {problem}")
    failed = attempted if pin_diffs else result["failed"]
    print(
        f"{workload.name}: {len(workload.cells)} cell(s) x {n} trials, seed {args.seed}; "
        f"mean_error_m={summary['mean_error_m']!r} "
        f"fraction_localized={summary['fraction_localized']!r} "
        f"nan_trials={summary['nan_trials']} failed_frac={failed / attempted:.4f}"
    )
    metrics = result["metrics"]
    if args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
