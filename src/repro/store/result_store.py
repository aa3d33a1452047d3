"""Content-addressed result store over pluggable byte backends.

Simulation results (campaign trial records, measurement sets) are cached
under a key derived from *what produced them*: the SHA-256 of a
canonical-JSON description of the workload (a scenario spec's canonical
form, a master seed, a scheduling mode) combined with a **code version**
string.  Re-running the same workload on the same code hits the cache
and does zero simulation work; changing any spec field, the seed, or the
code version changes the key and forces a cold run.  There is no
time-based expiry — entries are immutable values addressed by content,
so invalidation is an explicit :meth:`ResultStore.invalidate` /
:meth:`ResultStore.clear`, a key change, or a size-budget eviction by
:mod:`repro.store.gc`.

Durability, concurrency, and backends
-------------------------------------
Payloads are gzip-compressed canonical JSON (sorted keys, ``mtime=0``,
empty embedded filename — a pure function of the payload, so identical
results are identical bytes).  The *encoding* happens here, once;
*where the bytes live* is a :class:`repro.store.backends.StoreBackend`:
the default :class:`~repro.store.backends.FilesystemBackend` keeps the
original one-file-per-entry sharded-directory layout (atomic tmp-file +
``os.replace`` publication), while
:class:`~repro.store.backends.SQLiteBackend` packs entries into one
WAL-mode database whose metadata index answers ``len`` /
``list_shards`` / CLI listings without decompressing anything.  Because
every backend receives the same encoded bytes, entries survive
:mod:`repro.store.sync` and backend migration byte-identically.
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from .._canonical import canonical_json, sha256_hex
from ..errors import ValidationError
from .backends import (
    CORRUPT_ERRORS,
    EntryInfo,
    FilesystemBackend,
    StoreBackend,
    check_key,
    open_backend,
    shard_meta_from_payload,
)

__all__ = [
    "StoreStats",
    "ResultStore",
    "default_code_version",
    "default_store_root",
    "open_default_store",
    "encode_payload",
    "decode_payload",
    "recall_or_run",
]

#: Bump when the *store payload schema* changes (how results are
#: serialized), independently of the library version.
STORE_SCHEMA_VERSION = 1

#: Environment variable overriding the default store location; set to
#: "off" (or "0"/"none") to disable the default store entirely.  A
#: path ending in ``.sqlite``/``.sqlite3``/``.db`` selects the SQLite
#: backend; anything else is a filesystem store root.
STORE_ENV_VAR = "REPRO_STORE_DIR"


def default_code_version() -> str:
    """``"<repro version>+schema<N>"`` — the key component that ties an
    entry to the code that produced it.  Bumping ``repro.__version__``
    invalidates every cached result."""
    from .. import __version__

    return f"{__version__}+schema{STORE_SCHEMA_VERSION}"


def default_store_root() -> Optional[Path]:
    """Default on-disk location: ``$REPRO_STORE_DIR`` if set (``None``
    when set to "off"/"0"/"none"), else ``~/.cache/repro/store``.

    An empty (or whitespace-only) value means *unset* — the conventional
    reading of an empty environment variable — and falls back to the
    default location; only the documented "off"/"0"/"none" values
    disable the store.  Surrounding whitespace is stripped from the
    configured path as well (a padded value must not yield a
    whitespace-padded directory name).
    """
    configured = os.environ.get(STORE_ENV_VAR)
    if configured is not None:
        value = configured.strip()
        if value.lower() in ("off", "0", "none"):
            return None
        if value:
            return Path(value)
    return Path.home() / ".cache" / "repro" / "store"


def open_default_store(*, code_version: Optional[str] = None) -> Optional["ResultStore"]:
    """A :class:`ResultStore` at the default location, or ``None`` when
    the default store is disabled via :data:`STORE_ENV_VAR`."""
    root = default_store_root()
    if root is None:
        return None
    return ResultStore(root, code_version=code_version)


def encode_payload(payload: Dict[str, Any]) -> bytes:
    """*payload* as canonical gzip-JSON bytes — the one store encoding.

    ``mtime=0`` and an empty embedded filename keep the gzip bytes a
    pure function of the payload (no name or timestamp leakage), so
    identical results are identical bytes through **every** backend —
    the backend-invariance guarantee sync and migration rest on.
    """
    buffer = io.BytesIO()
    with gzip.GzipFile(filename="", fileobj=buffer, mode="wb", mtime=0) as fh:
        fh.write(json.dumps(payload, allow_nan=True, sort_keys=True).encode("utf-8"))
    return buffer.getvalue()


def decode_payload(data: bytes) -> Dict[str, Any]:
    """Parse stored entry bytes; raises one of
    :data:`repro.store.backends.CORRUPT_ERRORS` on damage.

    One pass over the whole entry: decompress every gzip member (zero
    padding between members is skipped, as a streaming reader does),
    then decode and parse the text.
    """
    return json.loads(gzip.decompress(data).decode("utf-8"))


@functools.lru_cache(maxsize=None)
def _get_metric_names(kind: str) -> Tuple[str, str, str]:
    """The telemetry names of :meth:`ResultStore.get` for one backend
    kind: hit counter, miss counter, latency histogram."""
    return (f"store.{kind}.hit", f"store.{kind}.miss", f"store.{kind}.get_ms")


@dataclass
class StoreStats:
    """Hit/miss accounting for one :class:`ResultStore` instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
        }


class ResultStore:
    """Content-addressed cache of JSON-serializable result payloads.

    Parameters
    ----------
    root : path-like
        Store location.  A directory (or not-yet-existing extension-less
        path) opens the filesystem backend; a ``.sqlite``/``.sqlite3``/
        ``.db`` path (or existing regular file) opens the SQLite
        backend.
    code_version : str, optional
        Key component tying entries to the producing code; defaults to
        :func:`default_code_version`.
    backend : StoreBackend, optional
        Explicit backend instance (overrides detection from *root*).
    """

    def __init__(
        self,
        root,
        *,
        code_version: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        self.backend = open_backend(root) if backend is None else backend
        self.root = Path(root) if root is not None else self.backend.location
        self.code_version = (
            code_version if code_version is not None else default_code_version()
        )
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    def key_for(self, description: Any) -> str:
        """Content address of *description* under this store's code
        version: ``sha256(canonical_json({key: ..., code_version: ...}))``."""
        return sha256_hex(
            canonical_json({"key": description, "code_version": self.code_version})
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of *key*'s entry (filesystem backend only —
        other backends have no per-entry file; use :meth:`get_bytes`)."""
        if not isinstance(self.backend, FilesystemBackend):
            raise ValidationError(
                f"path_for is filesystem-specific; the {self.backend.kind} "
                f"backend has no per-entry files (use get_bytes)"
            )
        return self.backend.path_for(key)

    @staticmethod
    def _check_key(key: str) -> None:
        check_key(key)

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def contains(self, key: str) -> bool:
        """True when an entry for *key* exists (does not touch stats)."""
        return self.backend.contains(key)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under *key*, or ``None`` on a miss.

        A corrupt entry (interrupted legacy write, disk damage) counts
        as a miss and is removed so the caller's fresh ``put`` heals it.
        Removal is delegated to the backend's guarded
        ``quarantine_corrupt``: a concurrent writer may republish a
        healthy entry between the failed read and the removal, and a
        blind delete would destroy *that* — so the backend re-verifies
        the entry's current bytes and only removes confirmed corruption
        (a grabbed-but-healthy entry is restored and returned as the hit
        it is).
        """
        self._check_key(key)
        t0 = time.perf_counter()
        try:
            raw = self.backend.read_bytes(key)
            if raw is None:
                self.stats.misses += 1
                self._record_get("miss", t0)
                return None
            payload = decode_payload(raw)
        except CORRUPT_ERRORS:
            payload = self.backend.quarantine_corrupt(key, decode_payload)
            if payload is None:
                self.stats.misses += 1
                self._record_get("miss", t0)
                return None
        self.stats.hits += 1
        self._record_get("hit", t0)
        return payload

    def _record_get(self, outcome: str, t0: float) -> None:
        """Per-backend-kind get telemetry (hit/miss counter + latency)."""
        hit, miss, get_ms = _get_metric_names(self.backend.kind)
        telemetry.count(hit if outcome == "hit" else miss, 1)
        telemetry.observe(get_ms, (time.perf_counter() - t0) * 1000.0)

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically publish *payload* under *key*; returns the path
        now holding it (the entry file, or the backend's database file).

        The canonical encoding happens here — backends receive finished
        bytes — and campaign-shard payloads additionally hand the
        backend their listing metadata so indexing backends can answer
        :meth:`list_shards` without decompressing anything.
        """
        self._check_key(key)
        t0 = time.perf_counter()
        path = self.backend.write_bytes(
            key, encode_payload(payload), shard_meta=shard_meta_from_payload(payload)
        )
        self.stats.puts += 1
        kind = self.backend.kind
        telemetry.count(f"store.{kind}.put", 1)
        telemetry.observe(f"store.{kind}.put_ms", (time.perf_counter() - t0) * 1000.0)
        return path

    # ------------------------------------------------------------------
    # Raw byte access (sync / migration)
    # ------------------------------------------------------------------

    def get_bytes(self, key: str) -> Optional[bytes]:
        """*key*'s stored bytes verbatim, or ``None`` — no decode, no
        stats, no access-time touch (this is the sync/migration read,
        not a cache hit)."""
        self._check_key(key)
        return self.backend.read_bytes(key, touch=False)

    def put_bytes(self, key: str, data: bytes) -> Path:
        """Publish already-encoded entry bytes verbatim under *key*.

        The sync/migration write: bytes cross store boundaries
        untouched, preserving byte-identity whatever the source backend
        was.  The payload is decoded once to verify it parses (corrupt
        entries must not propagate between stores) and to extract shard
        metadata for indexing backends; raises
        :class:`~repro.errors.ValidationError` on undecodable bytes.
        """
        self._check_key(key)
        try:
            payload = decode_payload(data)
        except CORRUPT_ERRORS as exc:
            raise ValidationError(
                f"refusing to store undecodable entry bytes for {key[:12]}…: {exc}"
            ) from exc
        path = self.backend.write_bytes(
            key, data, shard_meta=shard_meta_from_payload(payload)
        )
        self.stats.puts += 1
        telemetry.count(f"store.{self.backend.kind}.put_verbatim", 1)
        return path

    # ------------------------------------------------------------------
    # Invalidation / maintenance
    # ------------------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Remove *key*'s entry; True if one existed."""
        self._check_key(key)
        if not self.backend.delete(key):
            return False
        self.stats.invalidations += 1
        return True

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        removed = 0
        for key in list(self.backend.iter_keys()):
            if self.backend.delete(key):
                removed += 1
        self.stats.invalidations += removed
        return removed

    def iter_keys(self) -> Iterator[str]:
        """All published keys, in sorted order (any backend)."""
        return self.backend.iter_keys()

    def iter_entries(self) -> Iterator[Path]:
        """Paths of all published entries (filesystem backend only;
        generic callers use :meth:`iter_keys`)."""
        if not isinstance(self.backend, FilesystemBackend):
            raise ValidationError(
                f"iter_entries is filesystem-specific; the {self.backend.kind} "
                f"backend has no per-entry files (use iter_keys)"
            )
        return self.backend.iter_entry_paths()

    def entry_info(self, key: str) -> Optional[EntryInfo]:
        """Index-level facts (size, timestamps) about *key*'s entry."""
        self._check_key(key)
        return self.backend.entry_info(key)

    def iter_entry_info(self) -> Iterator[EntryInfo]:
        """One :class:`~repro.store.backends.EntryInfo` per entry,
        sorted by key."""
        return self.backend.iter_entry_info()

    def total_bytes(self) -> int:
        """Total stored payload bytes (the GC budget's measure)."""
        return self.backend.total_bytes()

    # ------------------------------------------------------------------
    # Shard probes
    # ------------------------------------------------------------------

    def missing_keys(self, keys) -> list:
        """The subset of *keys* with no published entry (in input order).

        The completeness probe the shard-merge path uses: an N-shard
        campaign is mergeable exactly when ``missing_keys(shard_keys)``
        is empty.
        """
        return [key for key in keys if not self.contains(key)]

    def list_shards(self) -> List[Dict[str, Any]]:
        """Metadata of every ``campaign-shard`` entry in the store.

        Returns, per shard payload, a dict with ``master_seed``,
        ``campaign_trials``, ``shard`` (index / n_shards), and whatever
        display ``context`` the publisher attached (scenario id, spec
        hash) — enough for the CLI to group shard entries into campaigns
        and report which are incomplete, without knowing any keys in
        advance.  The backend answers however it can do so cheapest: the
        filesystem backend scans entries (discarding non-shard payloads
        on a few-byte prefix sniff), the SQLite backend reads the shard
        metadata indexed at ``put`` time without touching payload bytes.
        Unreadable entries are skipped.
        """
        return list(self.backend.iter_shard_meta())

    def __len__(self) -> int:
        return self.backend.count()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore(root={str(self.root)!r}, "
            f"backend={self.backend.kind!r}, "
            f"code_version={self.code_version!r}, entries={len(self)})"
        )


def recall_or_run(
    store: Optional[ResultStore],
    description: Any,
    *,
    run: Callable[[], Any],
    decode: Callable[[Dict[str, Any]], Any],
    encode: Callable[[Any], Dict[str, Any]],
    use_cache: bool = True,
) -> Any:
    """The one cache protocol: key, ``get``, *decode* on a hit; else
    *run*, *encode*, ``put``.  Without a store it only runs;
    ``use_cache=False`` skips the lookup but still publishes; a *run*
    that returns ``None`` publishes nothing.  The codecs are arguments,
    so this module stays clear of the result types they build."""
    if store is None:
        return run()
    key = store.key_for(description)
    if use_cache:
        payload = store.get(key)
        if payload is not None:
            return decode(payload)
    result = run()
    if result is not None:
        store.put(key, encode(result))
    return result
