"""repro.store — the content-addressed result cache.

Campaign and sweep results are pure functions of ``(scenario spec,
master seed, scheduling mode, code version)``; this package memoizes
them on disk so repeated campaigns, parameter sweeps, and CI golden runs
hit the cache instead of re-simulating.  See
:mod:`repro.store.result_store` for the keying and atomicity model,
:mod:`repro.store.backends` for the pluggable byte-storage backends
(filesystem layout and SQLite-indexed single file),
:mod:`repro.store.serialization` for the bit-identical payload contract,
:mod:`repro.store.sync` for moving entries between stores on physically
separate hosts, and :mod:`repro.store.gc` for size-budget eviction and
staging-file cleanup.
"""

from itertools import chain

from .._lazy import lazy_surface
from .backends import (
    EntryInfo,
    FilesystemBackend,
    SQLiteBackend,
    StoreBackend,
    open_backend,
)
from .gc import DEFAULT_GRACE_SECONDS, GCReport, collect
from .result_store import (
    STORE_ENV_VAR,
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreStats,
    decode_payload,
    default_code_version,
    default_store_root,
    encode_payload,
    open_default_store,
    recall_or_run,
)
from .sync import StoreDiff, SyncReport, diff, migrate, pull, push

# The payload codecs import the engine's and core's result types, so
# they load on first use: opening, syncing or collecting a store stays
# clear of the simulator.
_EXPORTS = {
    ".serialization": (
        "campaign_to_payload",
        "campaign_from_payload",
        "measurement_set_to_payload",
        "measurement_set_from_payload",
        "records_equal",
        "aggregates_equal",
        "shard_to_payload",
        "shard_from_payload",
    ),
}
__getattr__, __dir__ = lazy_surface(globals(), ("serialization",), _EXPORTS)

__all__ = [
    "ResultStore",
    "StoreStats",
    "STORE_ENV_VAR",
    "STORE_SCHEMA_VERSION",
    "default_code_version",
    "default_store_root",
    "open_default_store",
    "encode_payload",
    "decode_payload",
    "recall_or_run",
    # backends
    "StoreBackend",
    "FilesystemBackend",
    "SQLiteBackend",
    "EntryInfo",
    "open_backend",
    # sync
    "StoreDiff",
    "SyncReport",
    "diff",
    "push",
    "pull",
    "migrate",
    # gc
    "GCReport",
    "collect",
    "DEFAULT_GRACE_SECONDS",
    # serialization
    *chain.from_iterable(_EXPORTS.values()),
]
