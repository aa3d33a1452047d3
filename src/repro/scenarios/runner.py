"""Scenario execution: campaigns and sweeps behind the result store.

:func:`run_scenario` is the front door the experiments, the CLI, and the
sweep drivers all use: it turns a :class:`ScenarioSpec` into a campaign
(fixed-count via :func:`repro.engine.run_monte_carlo`, or adaptive via
:func:`repro.engine.scheduler.run_adaptive` when a stopping rule is
given), memoized in a :class:`repro.store.ResultStore` keyed on the
spec's content hash, the master seed, and the scheduling mode.  A cache
hit reconstructs the campaign bit-identically from disk and does zero
simulation work.  Every cached run and merge here goes through the
store's one cache protocol, :func:`repro.store.recall_or_run`: key, get,
decode; else run, encode, put.

Cross-host sharding
-------------------
A fixed-count campaign can be split across hosts:
:func:`run_scenario_shard` (``python -m repro run <id> --shard K/N``)
runs only shard *K*'s contiguous trial range and publishes it under a
shard-addressed key (:func:`scenario_shard_key`).  The store is the
exchange point — once all N shard entries exist, the shards are merged
(automatically by whichever host publishes last, or explicitly via
:func:`merge_scenario_shards` / ``python -m repro merge``) into the
canonical full-campaign entry, byte-identical to the entry a single-host
:func:`run_scenario` would have published (``tests/test_sharding.py``).
Hosts running against physically separate stores reconcile them first
with :mod:`repro.store.sync` (``python -m repro store sync SRC DST``) —
entries cross store and backend boundaries byte-verbatim, so the merge
result is unchanged.  Sharding requires a fixed trial count; it cannot
combine with adaptive early stopping, whose rule needs the global record
prefix.

Everything here talks to the store through its backend-agnostic surface
(``get``/``put``/``missing_keys``), so campaigns memoize identically
whether the store is the filesystem layout or the SQLite-indexed single
file (:mod:`repro.store.backends`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .. import telemetry
from ..engine.campaign import CampaignResult, run_monte_carlo
from ..engine.scheduler import ConfidenceStop, resolve_chunk_size, run_adaptive
from ..engine.sharding import (
    ShardCampaignResult,
    ShardSpec,
    merge_shards,
    plan_shards,
    run_campaign_shard,
)
from ..errors import ValidationError
from ..store import (
    ResultStore,
    campaign_from_payload,
    campaign_to_payload,
    recall_or_run,
    shard_from_payload,
    shard_to_payload,
)
from .spec import ScenarioSpec
from .trial import scenario_trial

__all__ = [
    "run_scenario",
    "scenario_run_key",
    "scenario_shard_key",
    "run_scenario_shard",
    "scenario_shard_status",
    "merge_scenario_shards",
]


def scenario_run_key(
    spec: ScenarioSpec,
    *,
    master_seed: int,
    n_trials: int,
    stopping: Optional[ConfidenceStop] = None,
    chunk_size: Optional[int] = None,
) -> Dict[str, Any]:
    """The canonical description a scenario run is cached under.

    Everything that can change the committed trial records participates:
    the spec's canonical form, the master seed, the trial budget, and —
    for adaptive runs — the stopping rule and evaluation chunk size.
    Worker count is deliberately absent: it cannot change results (the
    engine's determinism contract).
    """
    mode: Dict[str, Any] = {"kind": "fixed", "n_trials": int(n_trials)}
    if stopping is not None:
        mode = {
            "kind": "adaptive",
            "max_trials": int(n_trials),
            "stopping": stopping.describe(),
            "chunk_size": resolve_chunk_size(stopping, chunk_size),
        }
    return {
        "workload": "scenario-campaign",
        "spec": spec.canonical(),
        "master_seed": int(master_seed),
        "mode": mode,
    }


def scenario_shard_key(
    spec: ScenarioSpec,
    *,
    master_seed: int,
    n_trials: int,
    shard: ShardSpec,
) -> Dict[str, Any]:
    """The canonical description one shard's records are cached under.

    The base fixed-count :func:`scenario_run_key` plus the shard
    descriptor — so shard entries can never collide with (or be mistaken
    for) the canonical full-campaign entry, and every host derives the
    same key from the same ``(spec, seed, budget, K/N)``.
    """
    return {
        "workload": "scenario-campaign-shard",
        "base": scenario_run_key(spec, master_seed=master_seed, n_trials=n_trials),
        "shard": shard.describe(),
    }


def _budget(spec: ScenarioSpec, n_trials: Optional[int]) -> int:
    """The trial budget: *n_trials* when given, else the spec's."""
    return int(spec.n_trials if n_trials is None else n_trials)


def _set_manifest(spec: ScenarioSpec, master_seed: int, budget: int, **mode) -> None:
    rec = telemetry.current()
    if rec.active:
        rec.set_manifest(
            scenario_id=spec.scenario_id,
            spec_hash=spec.spec_hash(),
            master_seed=int(master_seed),
            n_trials=budget,
            **mode,
        )


def run_scenario(
    spec: ScenarioSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_workers: int = 1,
    stopping: Optional[ConfidenceStop] = None,
    chunk_size: Optional[int] = None,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> CampaignResult:
    """Run (or recall) one scenario campaign.

    Parameters
    ----------
    spec : ScenarioSpec
        The workload; ``spec.n_trials`` is the default trial budget.
    n_trials : int, optional
        Override the spec's trial budget (the cap, for adaptive runs).
    stopping : ConfidenceStop, optional
        When given, run through the adaptive scheduler and stop early on
        convergence; otherwise run the fixed-count campaign.
    store : ResultStore, optional
        Cache for the campaign payload.  On a hit the stored result is
        returned without simulating; on a miss the fresh result is
        published before returning.
    use_cache : bool
        ``False`` skips the lookup but still publishes (a forced
        recompute that heals the cache).
    """
    budget = _budget(spec, n_trials)
    _set_manifest(
        spec, master_seed, budget, mode="adaptive" if stopping is not None else "fixed"
    )
    common = {
        "master_seed": master_seed,
        "n_workers": n_workers,
        "trial_kwargs": {"spec": spec},
    }

    def run() -> CampaignResult:
        # ``scenario_trial`` is looked up here, at call time: perfbench
        # rebinds this module's global to time inline trials.
        if stopping is None:
            return run_monte_carlo(scenario_trial, budget, **common)
        return run_adaptive(
            scenario_trial, budget, stopping=stopping, chunk_size=chunk_size, **common
        )

    rec = telemetry.current()
    with rec.span("scenario", id=spec.scenario_id, seed=int(master_seed)):
        description = scenario_run_key(
            spec,
            master_seed=master_seed,
            n_trials=budget,
            stopping=stopping,
            chunk_size=chunk_size,
        )
        return recall_or_run(
            store,
            description,
            use_cache=use_cache,
            run=run,
            decode=campaign_from_payload,
            encode=campaign_to_payload,
        )


def _shard_context(spec: ScenarioSpec, store: ResultStore) -> Dict[str, Any]:
    """Display metadata in shard payloads: store scans
    (``ResultStore.list_shards``, the CLI status listing) group shard
    entries into campaigns by it, without knowing any keys.  The code
    version keeps shards of different repro versions, which live under
    different keys and can never merge, out of one campaign."""
    return {
        "scenario_id": spec.scenario_id,
        "spec_hash": spec.spec_hash(),
        "code_version": store.code_version,
    }


def run_scenario_shard(
    spec: ScenarioSpec,
    shard: ShardSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_workers: int = 1,
    store: Optional[ResultStore] = None,
    use_cache: bool = True,
) -> Tuple[ShardCampaignResult, Optional[CampaignResult]]:
    """Run (or recall) one shard of a scenario campaign on this host.

    Executes only *shard*'s contiguous trial range — trial *i* still
    draws child *i* of ``SeedSequence(master_seed)``, so shards need no
    coordination — and publishes the shard payload under
    :func:`scenario_shard_key`.  With a store, the completeness probe
    runs after publication: when this was the last missing shard, the
    canonical full-campaign entry is merged and published immediately.

    Returns ``(shard_result, merged)`` where ``merged`` is the full
    :class:`CampaignResult` if the campaign became (or already was)
    complete, else ``None``.
    """
    budget = _budget(spec, n_trials)
    _set_manifest(spec, master_seed, budget, shard=shard.cli_form)
    shard_result = recall_or_run(
        store,
        scenario_shard_key(spec, master_seed=master_seed, n_trials=budget, shard=shard),
        use_cache=use_cache,
        run=lambda: run_campaign_shard(
            scenario_trial,
            budget,
            shard=shard,
            master_seed=master_seed,
            n_workers=n_workers,
            trial_kwargs={"spec": spec},
        ),
        decode=shard_from_payload,
        encode=lambda result: shard_to_payload(
            result, context=_shard_context(spec, store)
        ),
    )
    if store is None:
        return shard_result, None

    def merge_when_complete() -> Optional[CampaignResult]:
        pairs = _shard_keys(spec, store, master_seed, budget, shard.n_shards)
        if store.missing_keys([key for _, key in pairs]):
            return None
        return _merge_stored(spec, store, pairs, master_seed, budget)

    # A published canonical entry means an earlier run completed the
    # merge: one small get instead of loading all N shard payloads and
    # republishing the same bytes (--no-cache merges again, healing it).
    return shard_result, recall_or_run(
        store,
        scenario_run_key(spec, master_seed=master_seed, n_trials=budget),
        use_cache=use_cache,
        run=merge_when_complete,
        decode=campaign_from_payload,
        encode=campaign_to_payload,
    )


def _shard_keys(
    spec: ScenarioSpec, store: ResultStore, master_seed: int, budget: int, n_shards: int
) -> List[Tuple[ShardSpec, str]]:
    """``[(shard, store key), ...]`` of an N-shard campaign in shard
    order.  A split with an empty shard cannot exist, so it raises
    :func:`plan_shards`'s :class:`ValidationError` before any entry is
    read instead of reporting shards as missing."""
    plan_shards(budget, n_shards)
    pairs = []
    for index in range(n_shards):
        shard = ShardSpec(index=index, n_shards=n_shards)
        description = scenario_shard_key(
            spec, master_seed=master_seed, n_trials=budget, shard=shard
        )
        pairs.append((shard, store.key_for(description)))
    return pairs


def _merge_stored(
    spec: ScenarioSpec, store: ResultStore, pairs: list, master_seed: int, budget: int
) -> CampaignResult:
    """Load and merge the shard entries of *pairs*; raises naming the
    missing shards when the set is incomplete."""
    payloads = [(shard, store.get(key)) for shard, key in pairs]
    missing = [shard.cli_form for shard, payload in payloads if payload is None]
    if missing:
        raise ValidationError(
            f"cannot merge {spec.scenario_id!r} (seed={master_seed}, "
            f"trials={budget}): missing shard entries {', '.join(missing)}"
        )
    return merge_shards([shard_from_payload(payload) for _, payload in payloads])


def scenario_shard_status(
    spec: ScenarioSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_shards: int,
    store: ResultStore,
) -> List[Tuple[ShardSpec, bool]]:
    """Which of an N-shard campaign's entries are published.

    Returns ``[(shard, present), ...]`` in shard order — the completeness
    probe behind the CLI's shard status.  Raises :class:`ValidationError`
    when *n_shards* cannot split the budget into non-empty shards.
    """
    pairs = _shard_keys(spec, store, master_seed, _budget(spec, n_trials), n_shards)
    missing = set(store.missing_keys([key for _, key in pairs]))
    return [(shard, key not in missing) for shard, key in pairs]


def merge_scenario_shards(
    spec: ScenarioSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_shards: int,
    store: ResultStore,
) -> CampaignResult:
    """Merge an N-shard campaign's store entries into the canonical one.

    Loads every shard payload, validates the partition, concatenates
    records in trial-index order, and publishes the merged campaign
    under the same :func:`scenario_run_key` a single-host run uses —
    producing a byte-identical entry.  Raises :class:`ValidationError`
    when *n_shards* cannot split the budget into non-empty shards, or
    naming the missing shards when the set is incomplete.
    """
    budget = _budget(spec, n_trials)
    pairs = _shard_keys(spec, store, master_seed, budget, n_shards)
    return recall_or_run(
        store,
        scenario_run_key(spec, master_seed=master_seed, n_trials=budget),
        use_cache=False,
        run=lambda: _merge_stored(spec, store, pairs, master_seed, budget),
        decode=campaign_from_payload,
        encode=campaign_to_payload,
    )
