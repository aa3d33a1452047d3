"""Cross-host campaign sharding: partition, run, merge.

A Monte-Carlo campaign's trial-index space ``[0, n_trials)`` is an
embarrassingly parallel unit of work, and PR 1's seed discipline makes
it *shardable without coordination*: trial ``i`` always receives child
``i`` of ``SeedSequence(master_seed)``, a pure function of the master
seed and the index — never of which host, worker, or shard executes it.
This module partitions the index space into contiguous shard ranges so
independent hosts can each run ``python -m repro run <id> --shard K/N``
against their own range and exchange results through the content-
addressed store (:mod:`repro.store`), with a merge step that
reassembles the canonical full campaign.  Hosts need not even share a
store: shard entries are immutable content-addressed values, so
per-host stores reconcile conflict-free via :mod:`repro.store.sync`
(``python -m repro store sync SRC DST``) before the merge — across any
store backend, since entries sync byte-verbatim.

Determinism argument
--------------------
Three facts make an N-shard run equivalent to the single-host run:

1. **Seeding is index-keyed.**  A shard runs the campaign's one trial
   stream (``campaign._trial_records``) over its own range; the stream
   spawns the full ``SeedSequence(master_seed).spawn(n_trials)`` child
   list, so shard-local trial ``i`` draws from exactly the generator
   the single-host trial ``i`` would.
2. **Shard ranges partition the index space.**  :func:`plan_shards`
   produces contiguous, non-overlapping, exhaustive ranges — a pure
   function of ``(n_trials, n_shards)``, identical on every host.
3. **Merging is concatenation in index order.**  :func:`merge_shards`
   validates the partition and concatenates records by shard range, so
   the merged record tuple is element-wise identical to the single-host
   tuple — and therefore serializes to byte-identical store entries
   (``tests/test_sharding.py`` pins this).

Sharding composes with worker fan-out (each shard may use its own
``n_workers``) but not with adaptive early stopping: the stopping rule
is a function of the global in-order record prefix, which no shard can
see.  The scenario layer rejects that combination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..errors import ValidationError
from .campaign import CampaignResult, _trial_records

__all__ = [
    "ShardSpec",
    "ShardCampaignResult",
    "plan_shards",
    "shard_bounds",
    "run_campaign_shard",
    "merge_shards",
]


@dataclass(frozen=True)
class ShardSpec:
    """One shard of an N-way campaign partition.

    Attributes
    ----------
    index : int
        Zero-based shard index in ``[0, n_shards)``.
    n_shards : int
        Total number of shards in the partition.
    """

    index: int
    n_shards: int

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValidationError("n_shards must be >= 1")
        if not 0 <= self.index < self.n_shards:
            raise ValidationError(
                f"shard index must be in [0, {self.n_shards}); got {self.index}"
            )

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI form ``"K/N"`` (one-based K, as in ``--shard 2/3``)."""
        head, sep, tail = str(text).partition("/")
        try:
            if not sep:
                raise ValueError(text)
            k, n = int(head), int(tail)
        except ValueError:
            raise ValidationError(
                f"shard must look like K/N (e.g. 2/3); got {text!r}"
            ) from None
        if not 1 <= k <= n:
            raise ValidationError(f"shard K/N needs 1 <= K <= N; got {text!r}")
        return cls(index=k - 1, n_shards=n)

    @property
    def cli_form(self) -> str:
        """The one-based ``"K/N"`` rendering used by the CLI."""
        return f"{self.index + 1}/{self.n_shards}"

    def describe(self) -> dict:
        """Canonical description (participates in store keys)."""
        return {"index": self.index, "n_shards": self.n_shards}


def plan_shards(n_trials: int, n_shards: int) -> Tuple[Tuple[int, int], ...]:
    """Contiguous near-equal ``(start, stop)`` ranges covering ``[0, n_trials)``.

    The first ``n_trials % n_shards`` shards carry one extra trial, so
    sizes differ by at most one.  A pure function of its arguments —
    every host computes the identical plan.  Requires
    ``n_shards <= n_trials`` so no shard is empty.
    """
    if n_trials < 1:
        raise ValidationError("n_trials must be >= 1")
    if n_shards < 1:
        raise ValidationError("n_shards must be >= 1")
    if n_shards > n_trials:
        raise ValidationError(
            f"cannot split {n_trials} trials into {n_shards} non-empty shards"
        )
    base, extra = divmod(n_trials, n_shards)
    bounds = []
    start = 0
    for k in range(n_shards):
        stop = start + base + (1 if k < extra else 0)
        bounds.append((start, stop))
        start = stop
    return tuple(bounds)


def shard_bounds(n_trials: int, shard: ShardSpec) -> Tuple[int, int]:
    """*shard*'s ``(start, stop)`` trial-index range in an *n_trials* campaign."""
    return plan_shards(n_trials, shard.n_shards)[shard.index]


@dataclass(frozen=True)
class ShardCampaignResult(CampaignResult):
    """The records of one shard of a campaign.

    Inherits :class:`CampaignResult` (records carry their *global* trial
    indices; ``aggregate()``/``summary()`` describe the shard alone) and
    adds the partition coordinates: which shard this is and the full
    campaign's trial budget.
    """

    campaign_trials: int
    shard: ShardSpec

    @property
    def bounds(self) -> Tuple[int, int]:
        """This shard's ``(start, stop)`` trial-index range."""
        return shard_bounds(self.campaign_trials, self.shard)

    def describe(self) -> str:
        start, stop = self.bounds
        return (
            f"shard {self.shard.cli_form}: trials [{start}, {stop}) "
            f"of {self.campaign_trials}"
        )


def run_campaign_shard(
    trial_fn: Callable[..., Mapping[str, float]],
    n_trials: int,
    *,
    shard: ShardSpec,
    master_seed: int = 0,
    n_workers: int = 1,
    trial_kwargs: Optional[Mapping[str, object]] = None,
    mp_context: Optional[str] = None,
) -> ShardCampaignResult:
    """Run one shard of an *n_trials* campaign on this host.

    Executes only the trials in :func:`shard_bounds`'s range, each with
    the same ``SeedSequence`` child stream it would receive from
    :func:`repro.engine.campaign.run_monte_carlo` — so N hosts running
    the N shards produce, together, exactly the single-host record set.
    Parameters match ``run_monte_carlo`` plus ``shard``.
    """
    start, stop = shard_bounds(n_trials, shard)
    rec = telemetry.current()
    with rec.span(
        "shard",
        shard=shard.cli_form,
        start=int(start),
        stop=int(stop),
        n_trials=int(n_trials),
        n_workers=int(n_workers),
    ):
        records = list(
            _trial_records(
                trial_fn,
                n_trials,
                range(start, stop),
                master_seed=master_seed,
                n_workers=n_workers,
                trial_kwargs=trial_kwargs,
                mp_context=mp_context,
            )
        )
    rec.count("engine.shard.trials", len(records))
    return ShardCampaignResult(
        master_seed=int(master_seed),
        records=tuple(records),
        campaign_trials=int(n_trials),
        shard=shard,
    )


def merge_shards(shards: Sequence[ShardCampaignResult]) -> CampaignResult:
    """Reassemble the canonical full campaign from its N shard results.

    Validates that the shards form one complete partition (same master
    seed, same budget, same shard count, every shard index present
    exactly once, record indices matching each shard's planned range)
    and concatenates records in trial-index order.  The result is
    indistinguishable from the single-host :func:`run_monte_carlo`
    output — same type, same records, same serialized bytes.
    """
    if not shards:
        raise ValidationError("merge_shards needs at least one shard result")
    for result in shards:
        if not isinstance(result, ShardCampaignResult):
            raise ValidationError(
                f"merge_shards takes ShardCampaignResult items; got {type(result)!r}"
            )
    first = shards[0]
    n_shards = first.shard.n_shards
    for result in shards:
        if result.master_seed != first.master_seed:
            raise ValidationError(
                f"shards disagree on master_seed: {result.master_seed} "
                f"vs {first.master_seed}"
            )
        if result.campaign_trials != first.campaign_trials:
            raise ValidationError(
                f"shards disagree on campaign_trials: {result.campaign_trials} "
                f"vs {first.campaign_trials}"
            )
        if result.shard.n_shards != n_shards:
            raise ValidationError(
                f"shards disagree on n_shards: {result.shard.n_shards} "
                f"vs {n_shards}"
            )
    present = sorted(result.shard.index for result in shards)
    if present != list(range(n_shards)):
        missing = sorted(set(range(n_shards)) - set(present))
        if missing:
            raise ValidationError(
                f"incomplete shard set: missing shard indices {missing} "
                f"of {n_shards}"
            )
        raise ValidationError(f"duplicate shard indices in {present}")

    rec = telemetry.current()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    ordered = sorted(shards, key=lambda result: result.shard.index)
    records: list = []
    for result in ordered:
        start, stop = result.bounds
        indices = [record.index for record in result.records]
        if indices != list(range(start, stop)):
            raise ValidationError(
                f"shard {result.shard.cli_form} records cover indices "
                f"{indices[:3]}..{indices[-3:] if indices else []} but its "
                f"range is [{start}, {stop})"
            )
        records.extend(result.records)
    rec.add_span(
        "shard-merge",
        time.perf_counter() - wall0,
        time.process_time() - cpu0,
        n_shards=int(n_shards),
        records=len(records),
    )
    rec.count("engine.shard.merges", 1)
    rec.count("engine.shard.merged_records", len(records))
    return CampaignResult(master_seed=first.master_seed, records=tuple(records))
