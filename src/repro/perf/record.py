"""The versioned bench-record schema: one writer, shared by every emitter.

A bench record is a single JSON object (conventionally stored as
``BENCH_<label>.json``) describing one benchmark session: the run
**manifest** (host, platform, python, numpy, repro version, code
version — the same environment fields a telemetry trace manifest
carries) plus one **result** entry per workload with the raw repeat
timings, their median/min, the key telemetry counters of the run, and
derived throughput metrics.

The ``repro bench run`` harness (:mod:`repro.perf.bench`) builds
records through :func:`make_bench_record` and serializes them through
:func:`write_bench_record`, the one writer of the schema.  Validation is
hand-rolled (no external JSON-schema dependency), mirrors
:mod:`repro.telemetry.schema`, and raises
:class:`repro.errors.ValidationError` with a field-level message;
readers tolerate *extra* keys (forward-compatible minor additions) but
reject records whose ``schema`` version they do not know.
"""

from __future__ import annotations

import json
import os
import re
import statistics
from typing import Any, Dict, Optional, Sequence

from ..errors import ValidationError
from ..telemetry.schema import _NUMBER, _require

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_filename",
    "make_workload_result",
    "make_bench_record",
    "validate_bench_record",
    "read_bench_record",
    "write_bench_record",
    "canonical_record_bytes",
]

#: Bump on any backward-incompatible change to the record shape.
BENCH_SCHEMA_VERSION = 1

#: Labels become file names (``BENCH_<label>.json``), so they are
#: restricted to a filesystem- and shell-safe alphabet.
_LABEL_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def bench_filename(label: str) -> str:
    """The conventional file name for a bench record with *label*."""
    _require_label(label)
    return f"BENCH_{label}.json"


def _require_label(label: Any) -> str:
    if not isinstance(label, str) or not _LABEL_RE.match(label):
        raise ValidationError(
            f"bench label must match {_LABEL_RE.pattern} "
            f"(it becomes a file name); got {label!r}"
        )
    return label


def make_workload_result(
    *,
    workload_id: str,
    kind: str,
    timings_s: Sequence[float],
    counters: Optional[Dict[str, float]] = None,
    metrics: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """One result entry: raw repeat timings plus derived summary stats.

    ``median_s``/``min_s``/``repeats`` are always derived here from the
    raw timings, so no producer can emit an inconsistent summary.
    """
    timings = [float(t) for t in timings_s]
    if not timings or any(t <= 0 for t in timings):
        raise ValidationError(
            f"workload {workload_id!r}: timings must be a non-empty "
            f"sequence of positive seconds; got {timings!r}"
        )
    return {
        "id": str(workload_id),
        "kind": str(kind),
        "repeats": len(timings),
        "timings_s": timings,
        "median_s": statistics.median(timings),
        "min_s": min(timings),
        "counters": dict(counters or {}),
        "metrics": dict(metrics or {}),
    }


def make_bench_record(
    label: str,
    results: Sequence[Dict[str, Any]],
    *,
    manifest_extra: Optional[Dict[str, Any]] = None,
    now: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble and validate a complete bench record.

    The environment manifest comes from
    :func:`repro.telemetry.manifest.base_manifest` (same provenance
    fields as a trace manifest; ``now`` is the test seam for the
    ``created_unix`` stamp) with the store's code version added;
    *manifest_extra* layers run-specific fields (suite name, repeat
    count, spec hashes) on top.
    """
    from ..store.result_store import default_code_version
    from ..telemetry.manifest import base_manifest

    manifest = base_manifest(now=now)
    manifest["code_version"] = default_code_version()
    manifest.update(manifest_extra or {})
    record = {
        "type": "bench",
        "schema": BENCH_SCHEMA_VERSION,
        "label": _require_label(label),
        "manifest": manifest,
        "results": [dict(result) for result in results],
    }
    validate_bench_record(record)
    return record


def _validate_result(entry: Any, where: str) -> None:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: result must be a JSON object")
    workload_id = _require(entry, "id", str, where)
    if not workload_id:
        raise ValidationError(f"{where}: result id must be non-empty")
    _require(entry, "kind", str, where)
    repeats = _require(entry, "repeats", int, where)
    timings = _require(entry, "timings_s", list, where)
    if repeats < 1 or len(timings) != repeats:
        raise ValidationError(
            f"{where}: repeats ({repeats}) must be >= 1 and match "
            f"len(timings_s) ({len(timings)})"
        )
    for timing in timings:
        if isinstance(timing, bool) or not isinstance(timing, _NUMBER) or timing <= 0:
            raise ValidationError(
                f"{where}: timings_s entries must be positive numbers; "
                f"got {timing!r}"
            )
    for field in ("median_s", "min_s"):
        if _require(entry, field, _NUMBER, where) <= 0:
            raise ValidationError(f"{where}: {field} must be > 0")
    for table in ("counters", "metrics"):
        mapping = _require(entry, table, dict, where)
        for name, value in mapping.items():
            if not isinstance(name, str):
                raise ValidationError(f"{where}: {table} keys must be strings")
            if isinstance(value, bool) or not isinstance(value, _NUMBER):
                raise ValidationError(
                    f"{where}: {table}[{name!r}] must be a number; got {value!r}"
                )


def validate_bench_record(record: Any) -> None:
    """Check one parsed bench record; raise ValidationError if invalid."""
    where = "bench record"
    if not isinstance(record, dict):
        raise ValidationError(f"{where}: record must be a JSON object")
    if record.get("type") != "bench":
        raise ValidationError(
            f"{where}: type must be 'bench'; got {record.get('type')!r}"
        )
    schema = _require(record, "schema", int, where)
    if schema != BENCH_SCHEMA_VERSION:
        raise ValidationError(
            f"{where}: schema version {schema} is not supported "
            f"(this build reads version {BENCH_SCHEMA_VERSION})"
        )
    _require_label(record.get("label"))
    manifest = _require(record, "manifest", dict, where)
    for field, types in (
        ("created_unix", _NUMBER),
        ("host", str),
        ("repro_version", str),
        ("code_version", str),
    ):
        _require(manifest, field, types, f"{where} manifest")
    results = _require(record, "results", list, where)
    if not results:
        raise ValidationError(f"{where}: results must be non-empty")
    seen = set()
    for i, entry in enumerate(results):
        _validate_result(entry, f"{where} result {i + 1}")
        if entry["id"] in seen:
            raise ValidationError(
                f"{where}: duplicate result id {entry['id']!r}"
            )
        seen.add(entry["id"])


def read_bench_record(path) -> Dict[str, Any]:
    """Parse and validate a bench-record JSON file."""
    if not os.path.exists(path):
        raise ValidationError(f"bench record not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"bench record {path}: malformed JSON ({exc.msg}, "
                f"line {exc.lineno})"
            ) from exc
    try:
        validate_bench_record(record)
    except ValidationError as exc:
        raise ValidationError(f"bench record {path}: {exc}") from None
    return record


def write_bench_record(path, record: Dict[str, Any]) -> None:
    """Validate and write *record* as stable, diff-friendly JSON."""
    validate_bench_record(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=2)
        fh.write("\n")


def canonical_record_bytes(record: Dict[str, Any]) -> bytes:
    """The record's canonical encoding (history dedup keys hash this)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
