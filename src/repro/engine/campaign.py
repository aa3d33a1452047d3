"""Seeded Monte-Carlo campaign runner.

The paper's evaluation style — and the ROADMAP's heavy-traffic goal —
is statistics over many independent randomized trials: re-randomize the
deployment, the noise draws, and the anchor choice; run the localizer;
aggregate the error metrics.  :func:`run_monte_carlo` is the engine for
that shape of workload:

* **Seeding.**  One master seed spawns a ``numpy.random.SeedSequence``
  child per trial, so every trial owns a statistically independent
  stream and the whole campaign is reproducible from a single integer.
* **Fan-out.**  Trials are embarrassingly parallel; with
  ``n_workers > 1`` they are dispatched to a ``multiprocessing`` pool.
  Because each trial's randomness is a function of the master seed and
  its trial index alone — never of scheduling — aggregate statistics
  are bit-for-bit identical for any worker count
  (``tests/test_engine_campaign.py`` pins this).
* **Aggregation.**  Trial metrics are collected in trial order into
  per-metric arrays with mean/median/std/min/max summaries.

The seeding and fan-out above live once, in the private trial stream
``_trial_records``: this runner, the adaptive scheduler
(:mod:`repro.engine.scheduler`) and the shard runner
(:mod:`repro.engine.sharding`) all run their trials through it.

Trial functions must be module-level callables (picklable for the
pool) with signature ``trial_fn(rng, **trial_kwargs) -> Mapping[str,
float]``; :func:`repro.scenarios.scenario_trial` is the one every
registered scenario runs through.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing

# multiprocessing imports these when the first pool starts, which is
# inside a timed campaign.  Import them with the runner instead.
import multiprocessing.pool  # repro-lint: disable=RPL009
import multiprocessing.popen_fork  # repro-lint: disable=RPL009
import multiprocessing.queues  # repro-lint: disable=RPL009
import multiprocessing.synchronize  # repro-lint: disable=RPL009
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

# numpy imports these two on first use, and every trial uses both: its
# Generator, and np.median, which reads np.ma on each call.  Import them
# with the runner, so the cost stays in set-up rather than in the first
# timed trial and in every forked worker.
import numpy.ma  # repro-lint: disable=RPL009
import numpy.random  # repro-lint: disable=RPL009

from .. import telemetry
from ..errors import ValidationError

__all__ = ["TrialRecord", "CampaignResult", "run_monte_carlo"]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one Monte-Carlo trial.

    Attributes
    ----------
    index : int
        Trial index in ``[0, n_trials)``; also selects the trial's
        ``SeedSequence`` child.
    metrics : dict
        Metric name -> value as returned by the trial function.
    """

    index: int
    metrics: Dict[str, float]


@dataclass(frozen=True)
class CampaignResult:
    """All trial records of one campaign, with aggregation helpers."""

    master_seed: int
    records: Tuple[TrialRecord, ...]

    @property
    def n_trials(self) -> int:
        return len(self.records)

    @property
    def metric_names(self) -> Tuple[str, ...]:
        names = set()
        for record in self.records:
            names.update(record.metrics)
        return tuple(sorted(names))

    @property
    def n_nan_trials(self) -> int:
        """Trials whose metrics include at least one non-finite or
        missing value — the per-trial view of ``aggregate()``'s
        per-metric ``n_nan`` counts, used by the CLI to flag degraded
        campaigns in the completion output."""
        names = self.metric_names
        if not names:
            return 0
        degraded = 0
        for record in self.records:
            for name in names:
                value = record.metrics.get(name)
                if value is None or not math.isfinite(value):
                    degraded += 1
                    break
        return degraded

    def metric(self, name: str) -> np.ndarray:
        """Per-trial values of one metric, in trial order.

        Trials that did not report the metric contribute nan.
        """
        return np.asarray(
            [record.metrics.get(name, float("nan")) for record in self.records],
            dtype=float,
        )

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """NaN-safe mean/median/std/min/max per metric.

        Degenerate trials (nothing localized, all-anchor draws, missing
        metrics) legitimately report nan; those values must not poison
        the campaign statistics, so every summary is computed over the
        *finite* trial values only.  Each entry reports both ``n`` (how
        many trials produced a finite value) and ``n_nan`` (how many
        were non-finite or missing) — together they always sum to
        ``n_trials``, so degraded campaigns are visible rather than
        silently averaged away.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name in self.metric_names:
            values = self.metric(name)
            finite = values[np.isfinite(values)]
            n_nan = float(values.size - finite.size)
            if finite.size == 0:
                out[name] = {
                    "n": 0.0,
                    "n_nan": n_nan,
                    "mean": float("nan"),
                    "median": float("nan"),
                    "std": float("nan"),
                    "min": float("nan"),
                    "max": float("nan"),
                }
                continue
            out[name] = {
                "n": float(finite.size),
                "n_nan": n_nan,
                "mean": float(finite.mean()),
                "median": float(np.median(finite)),
                "std": float(finite.std()),
                "min": float(finite.min()),
                "max": float(finite.max()),
            }
        return out

    def summary(self) -> str:
        """Human-readable aggregate table."""
        lines = [f"campaign: {self.n_trials} trials, master_seed={self.master_seed}"]
        for name, stats in sorted(self.aggregate().items()):
            nan_note = f" nan={stats['n_nan']:.0f}" if stats["n_nan"] else ""
            lines.append(
                f"  {name:<32s} mean={stats['mean']:.4f} median={stats['median']:.4f} "
                f"std={stats['std']:.4f} n={stats['n']:.0f}{nan_note}"
            )
        return "\n".join(lines)


def _execute_trial(payload) -> TrialRecord:
    """Run one trial from its (fn, index, seed-sequence, kwargs) payload.

    Module-level so the payload round-trips through a multiprocessing
    pool regardless of start method.
    """
    trial_fn, index, seed_seq, kwargs = payload
    rng = np.random.default_rng(seed_seq)
    metrics = trial_fn(rng, **kwargs)
    if not isinstance(metrics, Mapping):
        raise ValidationError(
            f"trial function must return a mapping of metrics; got {type(metrics)!r}"
        )
    return TrialRecord(
        index=index, metrics={str(k): float(v) for k, v in metrics.items()}
    )


def _execute_trial_traced(payload):
    """Run one trial under a worker-local telemetry capture.

    Returns ``(record, worker_data)``: the trial record plus the
    worker recorder's snapshot (kernel counters, solve span, busy
    time).  Module-level for pool picklability, like
    :func:`_execute_trial`.  The explicit :func:`repro.telemetry.capture`
    matters under the ``fork`` start method, where workers inherit a
    copy of the parent's active recorder — writes to that copy would be
    lost; the capture recorder's snapshot travels back instead.
    """
    index = payload[1]
    with telemetry.capture() as cap:
        with cap.span("solve", trial=index):
            record = _execute_trial(payload)
    return record, cap.worker_data()


def _trial_records(
    trial_fn: Callable[..., Mapping[str, float]],
    n_trials: int,
    indices: range,
    *,
    master_seed: int,
    n_workers: int,
    trial_kwargs: Optional[Mapping[str, object]],
    mp_context: Optional[str],
    chunksize: Optional[int] = None,
    under: Optional[str] = None,
) -> Iterator[TrialRecord]:
    """Yield the records of the trials in *indices*, in index order.

    The one execution path of every campaign driver (fixed, adaptive,
    shard).  Trial ``i`` draws from child ``i`` of
    ``SeedSequence(master_seed).spawn(n_trials)``, whichever driver,
    worker or shard runs it.  ``n_workers == 1`` runs the trials inline;
    more stream them through one ``multiprocessing`` pool (``imap``
    with *chunksize*; by default each worker takes about four chunks).

    Under an active recorder each trial runs in a worker-local capture
    whose snapshot is merged beneath *under* as its record is yielded,
    so the trace is worker-count independent.  Closing the generator
    early terminates the pool and any trials it ran ahead.
    """
    if n_workers < 1:
        raise ValidationError("n_workers must be >= 1")
    kwargs = dict(trial_kwargs or {})
    # Spawn the full child list and take *indices* from it: spawn keys
    # children by index alone, so a shard's trial i is seeded exactly
    # like single-host trial i.
    children = np.random.SeedSequence(master_seed).spawn(n_trials)
    payloads = [(trial_fn, i, children[i], kwargs) for i in indices]
    rec = telemetry.current()
    traced = rec.active
    run = _execute_trial_traced if traced else _execute_trial
    with contextlib.ExitStack() as stack:
        if n_workers == 1:
            results = map(run, payloads)
        else:
            if mp_context is None:
                methods = multiprocessing.get_all_start_methods()
                mp_context = "fork" if "fork" in methods else "spawn"
            ctx = multiprocessing.get_context(mp_context)
            pool = stack.enter_context(ctx.Pool(processes=n_workers))
            if chunksize is None:
                chunksize = max(1, len(payloads) // (4 * n_workers))
            results = pool.imap(run, payloads, chunksize=chunksize)
        for result in results:
            if not traced:
                yield result
                continue
            record, data = result
            rec.merge_worker(data, under=under)
            rec.observe("engine.campaign.trial_wall_s", data["busy_s"])
            yield record


def run_monte_carlo(
    trial_fn: Callable[..., Mapping[str, float]],
    n_trials: int,
    *,
    master_seed: int = 0,
    n_workers: int = 1,
    trial_kwargs: Optional[Mapping[str, object]] = None,
    mp_context: Optional[str] = None,
) -> CampaignResult:
    """Run *n_trials* independent seeded trials, optionally in parallel.

    Parameters
    ----------
    trial_fn : callable
        ``trial_fn(rng, **trial_kwargs) -> Mapping[str, float]``; must
        be picklable (a module-level function) when ``n_workers > 1``.
        All randomness inside the trial must come from *rng*.
    n_trials : int
        Number of independent trials.
    master_seed : int
        Root of the ``SeedSequence`` tree; trial ``i`` always receives
        child ``i`` regardless of worker count or scheduling.
    n_workers : int
        1 runs inline (no pool); more fans trials out over a
        ``multiprocessing`` pool.
    mp_context : str, optional
        Start method ("fork", "spawn", "forkserver"); defaults to
        "fork" where available (cheap on Linux), else "spawn".
    """
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    rec = telemetry.current()
    wall0 = time.perf_counter()
    with rec.span(
        "campaign", mode="fixed", n_trials=int(n_trials), n_workers=int(n_workers)
    ):
        records = list(
            _trial_records(
                trial_fn,
                n_trials,
                range(n_trials),
                master_seed=master_seed,
                n_workers=n_workers,
                trial_kwargs=trial_kwargs,
                mp_context=mp_context,
            )
        )
    if rec.active:
        _record_campaign_metrics(rec, len(records), n_workers, wall0)
    return CampaignResult(master_seed=int(master_seed), records=tuple(records))


def _record_campaign_metrics(rec, n_records: int, n_workers: int, wall0: float) -> None:
    """Campaign-level counters: trial count, worker count, utilization.

    Utilization is total worker busy time (summed root-span wall clock,
    shipped back per trial) over ``elapsed * n_workers`` — 1.0 means the
    pool never idled.
    """
    elapsed = time.perf_counter() - wall0
    rec.count("engine.campaign.trials", n_records)
    rec.gauge("engine.campaign.n_workers", n_workers)
    busy = sum(rec.histograms.get("engine.campaign.trial_wall_s", ()))
    if elapsed > 0:
        rec.gauge(
            "engine.campaign.utilization",
            min(1.0, busy / (elapsed * max(1, n_workers))),
        )
