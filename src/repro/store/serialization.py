"""Lossless JSON payloads for campaign results and measurement sets.

The store's bit-identical contract lives here: every float crosses the
JSON boundary via Python's shortest round-trip ``repr`` (including
``NaN``, which degenerate trials legitimately produce), so a payload
read back from disk reconstructs a result whose per-trial metrics and
aggregates are *exactly* equal to the cold-run original — not merely
close (``tests/test_store.py`` pins this).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._canonical import canonical_json
from ..core.measurements import MeasurementSet
from ..engine.campaign import CampaignResult, TrialRecord
from ..engine.scheduler import ScheduledCampaignResult
from ..engine.sharding import ShardCampaignResult, ShardSpec
from ..errors import ValidationError

__all__ = [
    "campaign_to_payload",
    "campaign_from_payload",
    "shard_to_payload",
    "shard_from_payload",
    "measurement_set_to_payload",
    "measurement_set_from_payload",
    "records_equal",
    "aggregates_equal",
]


def records_equal(a: CampaignResult, b: CampaignResult) -> bool:
    """Value equality of two campaigns' trial records, NaN-tolerant.

    ``a.records == b.records`` is the wrong test when degenerate trials
    legitimately report nan metrics (``nan != nan``); comparing the
    canonical JSON rendering treats equal-bit NaNs as equal while
    remaining exact for every other float.
    """
    return canonical_json(campaign_to_payload(a)["records"]) == canonical_json(
        campaign_to_payload(b)["records"]
    )


def aggregates_equal(a: CampaignResult, b: CampaignResult) -> bool:
    """NaN-tolerant exact equality of two campaigns' aggregate tables."""
    return canonical_json(a.aggregate()) == canonical_json(b.aggregate())


def _encode_records(records: Sequence[TrialRecord]) -> List[Dict[str, Any]]:
    """The payload entries of *records*, shared by both campaign codecs."""
    return [
        {"index": record.index, "metrics": dict(record.metrics)} for record in records
    ]


def _decode_records(entries: List[Dict[str, Any]]) -> Tuple[TrialRecord, ...]:
    """The records of payload entries.  JSON object keys are always
    ``str``; values go through ``float`` because a stored entry is input
    from outside the program."""
    return tuple(
        TrialRecord(
            index=int(entry["index"]),
            metrics={k: float(v) for k, v in entry["metrics"].items()},
        )
        for entry in entries
    )


def campaign_to_payload(result: CampaignResult) -> Dict[str, Any]:
    """JSON-safe dict capturing *result* exactly (records in trial order)."""
    payload: Dict[str, Any] = {
        "type": "campaign",
        "master_seed": result.master_seed,
        "records": _encode_records(result.records),
    }
    if isinstance(result, ScheduledCampaignResult):
        payload["scheduler"] = {
            "max_trials": result.max_trials,
            "chunk_size": result.chunk_size,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "half_width_trace": list(result.half_width_trace),
        }
    return payload


def campaign_from_payload(payload: Dict[str, Any]) -> CampaignResult:
    """Rebuild the :class:`CampaignResult` (or scheduled variant) a
    :func:`campaign_to_payload` dict describes."""
    if payload.get("type") != "campaign":
        raise ValidationError(f"not a campaign payload: type={payload.get('type')!r}")
    records = _decode_records(payload["records"])
    master_seed = int(payload["master_seed"])
    scheduler = payload.get("scheduler")
    if scheduler is None:
        return CampaignResult(master_seed=master_seed, records=records)
    return ScheduledCampaignResult(
        master_seed=master_seed,
        records=records,
        max_trials=int(scheduler["max_trials"]),
        chunk_size=int(scheduler["chunk_size"]),
        converged=bool(scheduler["converged"]),
        stop_reason=str(scheduler["stop_reason"]),
        half_width_trace=tuple(float(h) for h in scheduler["half_width_trace"]),
    )


def shard_to_payload(
    result: ShardCampaignResult, *, context: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """JSON-safe dict capturing one shard of a campaign exactly.

    ``context`` carries display metadata (scenario id, spec hash, …) so
    shard entries found in a store are self-describing — the CLI's shard
    status listing groups on it.  Context never participates in store
    keys; shard entries are addressed by the run description + shard
    descriptor instead.
    """
    payload: Dict[str, Any] = {
        "type": "campaign-shard",
        "master_seed": result.master_seed,
        "campaign_trials": result.campaign_trials,
        "shard": result.shard.describe(),
        "records": _encode_records(result.records),
    }
    if context:
        payload["context"] = dict(context)
    return payload


def shard_from_payload(payload: Dict[str, Any]) -> ShardCampaignResult:
    """Rebuild the :class:`ShardCampaignResult` a :func:`shard_to_payload`
    dict describes."""
    if payload.get("type") != "campaign-shard":
        raise ValidationError(
            f"not a campaign-shard payload: type={payload.get('type')!r}"
        )
    shard = payload["shard"]
    return ShardCampaignResult(
        master_seed=int(payload["master_seed"]),
        records=_decode_records(payload["records"]),
        campaign_trials=int(payload["campaign_trials"]),
        shard=ShardSpec(index=int(shard["index"]), n_shards=int(shard["n_shards"])),
    )


def measurement_set_to_payload(measurements: MeasurementSet) -> Dict[str, Any]:
    """JSON-safe dict of directed measurements, in iteration order."""
    return {
        "type": "measurements",
        "measurements": [
            {
                "source": m.source,
                "receiver": m.receiver,
                "distance": m.distance,
                "true_distance": m.true_distance,
                "round_index": m.round_index,
            }
            for m in measurements
        ],
    }


def measurement_set_from_payload(payload: Dict[str, Any]) -> MeasurementSet:
    """Rebuild the :class:`MeasurementSet` a payload describes."""
    if payload.get("type") != "measurements":
        raise ValidationError(
            f"not a measurements payload: type={payload.get('type')!r}"
        )
    out = MeasurementSet()
    for entry in payload["measurements"]:
        truth: Optional[float] = entry.get("true_distance")
        out.add_distance(
            int(entry["source"]),
            int(entry["receiver"]),
            float(entry["distance"]),
            true_distance=None if truth is None else float(truth),
            round_index=int(entry.get("round_index", 0)),
        )
    return out
