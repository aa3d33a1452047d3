"""Scenario execution: campaigns and sweeps behind the result store.

:func:`run_scenario` is the front door the experiments, the CLI, and the
sweep drivers all use: it turns a :class:`ScenarioSpec` into a campaign
(fixed-count via :func:`repro.engine.run_monte_carlo`, or adaptive via
:func:`repro.engine.scheduler.run_adaptive` when a stopping rule is
given), memoized in a :class:`repro.store.ResultStore` keyed on the
spec's content hash, the master seed, and the scheduling mode.  A cache
hit reconstructs the campaign bit-identically from disk and does zero
simulation work.

Cross-host sharding
-------------------
A fixed-count campaign can be split across hosts: ``shard=ShardSpec(k,
N)`` runs only shard *k*'s contiguous trial range and publishes it under
a shard-addressed key (:func:`scenario_shard_key`).  The store is the
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
(``get``/``put``/``contains``/``missing_keys``), so campaigns memoize
identically whether the store is the filesystem layout or the
SQLite-indexed single file (:mod:`repro.store.backends`).
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
    run_campaign_shard,
)
from ..errors import ValidationError
from ..store import (
    ResultStore,
    campaign_from_payload,
    campaign_to_payload,
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
    Worker count and mp context are deliberately absent: they cannot
    change results (the engine's determinism contract).
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
    mp_context: Optional[str] = None,
    shard: Optional[ShardSpec] = None,
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
    shard : ShardSpec, optional
        Run only this shard of the fixed-count campaign (see
        :func:`run_scenario_shard`, which this delegates to); mutually
        exclusive with ``stopping``.
    """
    if shard is not None:
        if stopping is not None:
            raise ValidationError(
                "sharding requires a fixed trial count; it cannot combine "
                "with adaptive early stopping (the stopping rule is a "
                "function of the global record prefix no shard can see)"
            )
        result, _ = run_scenario_shard(
            spec,
            shard,
            master_seed=master_seed,
            n_trials=n_trials,
            n_workers=n_workers,
            store=store,
            use_cache=use_cache,
            mp_context=mp_context,
        )
        return result
    budget = int(spec.n_trials if n_trials is None else n_trials)
    rec = telemetry.current()
    if rec.active:
        rec.set_manifest(
            scenario_id=spec.scenario_id,
            spec_hash=spec.spec_hash(),
            master_seed=int(master_seed),
            n_trials=budget,
            mode="adaptive" if stopping is not None else "fixed",
        )
    with rec.span("scenario", id=spec.scenario_id, seed=int(master_seed)):
        key = None
        if store is not None:
            key = store.key_for(
                scenario_run_key(
                    spec,
                    master_seed=master_seed,
                    n_trials=budget,
                    stopping=stopping,
                    chunk_size=chunk_size,
                )
            )
            if use_cache:
                payload = store.get(key)
                if payload is not None:
                    return campaign_from_payload(payload)

        if stopping is None:
            result: CampaignResult = run_monte_carlo(
                scenario_trial,
                budget,
                master_seed=master_seed,
                n_workers=n_workers,
                trial_kwargs={"spec": spec},
                mp_context=mp_context,
            )
        else:
            result = run_adaptive(
                scenario_trial,
                budget,
                stopping=stopping,
                master_seed=master_seed,
                n_workers=n_workers,
                chunk_size=chunk_size,
                trial_kwargs={"spec": spec},
                mp_context=mp_context,
            )

        if store is not None and key is not None:
            store.put(key, campaign_to_payload(result))
        return result


def _shard_context(spec: ScenarioSpec, store: ResultStore) -> Dict[str, Any]:
    """Display metadata embedded in shard payloads so store scans
    (``ResultStore.list_shards``, the CLI status listing) can group
    shard entries into campaigns without knowing any keys.  The code
    version is included so shards published by different repro versions
    — which live under different keys and can never merge together —
    are never pooled into one campaign by the status listing."""
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
    mp_context: Optional[str] = None,
    auto_merge: bool = True,
) -> Tuple[ShardCampaignResult, Optional[CampaignResult]]:
    """Run (or recall) one shard of a scenario campaign on this host.

    Executes only *shard*'s contiguous trial range — trial *i* still
    draws child *i* of ``SeedSequence(master_seed)``, so shards need no
    coordination — and publishes the shard payload under
    :func:`scenario_shard_key`.  With ``auto_merge`` (the default) and a
    store, the completeness probe runs after publication: when this was
    the last missing shard, the canonical full-campaign entry is merged
    and published immediately.

    Returns ``(shard_result, merged)`` where ``merged`` is the full
    :class:`CampaignResult` if the campaign became (or already was)
    complete, else ``None``.
    """
    budget = int(spec.n_trials if n_trials is None else n_trials)
    rec = telemetry.current()
    if rec.active:
        rec.set_manifest(
            scenario_id=spec.scenario_id,
            spec_hash=spec.spec_hash(),
            master_seed=int(master_seed),
            n_trials=budget,
            shard=shard.cli_form,
        )
    key = None
    shard_result: Optional[ShardCampaignResult] = None
    if store is not None:
        key = store.key_for(
            scenario_shard_key(
                spec, master_seed=master_seed, n_trials=budget, shard=shard
            )
        )
        if use_cache:
            payload = store.get(key)
            if payload is not None:
                shard_result = shard_from_payload(payload)
    if shard_result is None:
        shard_result = run_campaign_shard(
            scenario_trial,
            budget,
            shard=shard,
            master_seed=master_seed,
            n_workers=n_workers,
            trial_kwargs={"spec": spec},
            mp_context=mp_context,
        )
        if store is not None and key is not None:
            store.put(
                key, shard_to_payload(shard_result, context=_shard_context(spec, store))
            )

    merged: Optional[CampaignResult] = None
    if store is not None and auto_merge:
        # An already-published canonical entry means some earlier run
        # completed the merge; re-reading it is one small get instead of
        # loading all N shard payloads and republishing identical bytes.
        # (--no-cache recomputes the merge too, healing a suspect entry.)
        if use_cache:
            canonical = store.get(
                store.key_for(
                    scenario_run_key(spec, master_seed=master_seed, n_trials=budget)
                )
            )
            if canonical is not None:
                merged = campaign_from_payload(canonical)
        if merged is None:
            status = scenario_shard_status(
                spec,
                master_seed=master_seed,
                n_trials=budget,
                n_shards=shard.n_shards,
                store=store,
            )
            if all(present for _, present in status):
                merged = merge_scenario_shards(
                    spec,
                    master_seed=master_seed,
                    n_trials=budget,
                    n_shards=shard.n_shards,
                    store=store,
                )
    return shard_result, merged


def scenario_shard_status(
    spec: ScenarioSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_shards: int,
    store: ResultStore,
) -> List[Tuple[ShardSpec, bool]]:
    """Which of an N-shard campaign's entries are published.

    Returns ``[(shard, present), ...]`` in shard order — the
    completeness probe behind auto-merge and the CLI's shard status.
    """
    budget = int(spec.n_trials if n_trials is None else n_trials)
    shards = [ShardSpec(index=index, n_shards=n_shards) for index in range(n_shards)]
    keys = [
        store.key_for(
            scenario_shard_key(
                spec, master_seed=master_seed, n_trials=budget, shard=shard
            )
        )
        for shard in shards
    ]
    missing = set(store.missing_keys(keys))
    return [(shard, key not in missing) for shard, key in zip(shards, keys)]


def merge_scenario_shards(
    spec: ScenarioSpec,
    *,
    master_seed: int = 0,
    n_trials: Optional[int] = None,
    n_shards: int,
    store: ResultStore,
    publish: bool = True,
) -> CampaignResult:
    """Merge an N-shard campaign's store entries into the canonical one.

    Loads every shard payload, validates the partition, concatenates
    records in trial-index order, and (with ``publish``) publishes the
    merged campaign under the same :func:`scenario_run_key` a
    single-host run uses — producing a byte-identical entry.  Raises
    :class:`ValidationError` naming the missing shards when the set is
    incomplete.
    """
    budget = int(spec.n_trials if n_trials is None else n_trials)
    shards: List[ShardCampaignResult] = []
    missing: List[str] = []
    for index in range(n_shards):
        shard = ShardSpec(index=index, n_shards=n_shards)
        key = store.key_for(
            scenario_shard_key(
                spec, master_seed=master_seed, n_trials=budget, shard=shard
            )
        )
        payload = store.get(key)
        if payload is None:
            missing.append(shard.cli_form)
        else:
            shards.append(shard_from_payload(payload))
    if missing:
        raise ValidationError(
            f"cannot merge {spec.scenario_id!r} (seed={master_seed}, "
            f"trials={budget}): missing shard entries {', '.join(missing)}"
        )
    merged = merge_shards(shards)
    if publish:
        key = store.key_for(
            scenario_run_key(spec, master_seed=master_seed, n_trials=budget)
        )
        store.put(key, campaign_to_payload(merged))
    return merged

