"""Pluggable byte-storage backends for the result store.

:class:`repro.store.ResultStore` owns the *semantics* of the cache —
content-addressed keys, the canonical gzip-JSON payload encoding, hit/
miss accounting, corrupt-entry healing policy — and delegates all byte
I/O to a backend implementing the small :class:`StoreBackend` protocol
(``read_bytes`` / ``write_bytes`` / ``delete`` / ``contains`` /
``iter_keys`` / ``entry_info`` and a few maintenance hooks).  Because
the store hands every backend the *same already-encoded bytes* (one
deterministic gzip canonicalization, produced above this layer), a
payload stored through any backend is byte-identical to the same
payload stored through any other — the backend-invariance guarantee
that makes :mod:`repro.store.sync` and backend migration lossless.

Two backends ship:

``FilesystemBackend``
    The original one-gzip-file-per-entry layout (256 two-hex-char shard
    subdirectories, atomic tmp-file + ``os.replace`` publication),
    extracted verbatim — existing on-disk stores keep working with zero
    migration.  ``list``-style scans must decompress entries to learn
    anything about them.
``SQLiteBackend``
    A single-file SQLite database in WAL mode.  Entry bytes live in a
    BLOB column next to an indexed metadata table (size, access time,
    and — for campaign-shard payloads — the shard descriptor, captured
    at ``put`` time), so ``len``, ``list_shards``, and the CLI listings
    are answered from the index without decompressing anything.

Backends also track a coarse last-access time per entry (used by
:mod:`repro.store.gc` for LRU eviction) and know how to sweep the
orphaned ``.tmp``/``.quarantine`` staging files crashed writers leave
behind.
"""

from __future__ import annotations

import gzip
import json
import os
import re
import sqlite3
import threading
import time
import uuid
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..errors import ValidationError

__all__ = [
    "CORRUPT_ERRORS",
    "EntryInfo",
    "StoreBackend",
    "FilesystemBackend",
    "SQLiteBackend",
    "open_backend",
    "check_key",
    "shard_meta_from_payload",
]

#: Exceptions that mean "these bytes are not a readable gzip-JSON
#: payload" — the corruption signature shared by the read and heal
#: paths (json.JSONDecodeError subclasses ValueError; gzip raises
#: OSError/EOFError on torn streams, and zlib.error on a damaged
#: deflate body).
CORRUPT_ERRORS = (
    OSError,
    EOFError,
    zlib.error,
    json.JSONDecodeError,
    UnicodeDecodeError,
)

#: Entries younger than this keep their recorded access time on reads —
#: LRU eviction needs second-scale ordering, not a metadata write per
#: cache hit.
ACCESS_GRANULARITY_S = 1.0


#: A store key: 64 lowercase hex characters (a sha256 digest).
_KEY_PATTERN = re.compile(r"[0-9a-f]{64}")


def check_key(key: str) -> None:
    """Reject anything that is not a 64-char sha256 hex key.

    Backends validate keys themselves (not only through
    :class:`ResultStore`) because a malformed key would otherwise become
    a path or SQL parameter.
    """
    if not (isinstance(key, str) and _KEY_PATTERN.fullmatch(key)):
        raise ValidationError(f"store keys are 64-char sha256 hex; got {key!r}")


def shard_meta_from_payload(payload: Any) -> Optional[Dict[str, Any]]:
    """The indexable metadata of a campaign-shard payload, or ``None``.

    This is the exact dict :meth:`ResultStore.list_shards` reports per
    shard entry; deriving it here — once, shared by the SQLite put-time
    indexer and the filesystem full-scan — keeps the two backends'
    listings identical by construction.
    """
    if not (isinstance(payload, dict) and payload.get("type") == "campaign-shard"):
        return None
    return {
        "master_seed": payload.get("master_seed"),
        "campaign_trials": payload.get("campaign_trials"),
        "shard": payload.get("shard", {}),
        "context": payload.get("context", {}),
    }


@dataclass(frozen=True)
class EntryInfo:
    """Index-level facts about one stored entry (no payload access).

    ``accessed_at`` is the coarse LRU stamp backends refresh on reads;
    there is deliberately no creation time — the filesystem backend
    cannot report one truthfully (mtime doubles as the access stamp),
    and a field one backend can honor and another cannot would break
    protocol parity.
    """

    key: str
    size: int
    accessed_at: float


class StoreBackend:
    """Protocol for result-store byte storage (documented base class).

    Implementations store opaque ``bytes`` under validated sha256-hex
    keys.  They never encode, decode, or interpret payloads — with one
    deliberate exception: ``write_bytes`` receives the payload's
    pre-extracted shard metadata so an indexing backend can answer
    :meth:`iter_shard_meta` without touching entry bytes.
    """

    #: Short backend identifier shown by ``repro store stats``.
    kind: str = "abstract"
    #: Where the backend's bytes live (directory or database file).
    location: Path
    #: True when :meth:`iter_shard_meta` is answered from an index
    #: instead of scanning payload bytes — cheap-inspection commands
    #: consult this before asking for a potentially full-store scan.
    indexed_shard_meta: bool = False

    def read_bytes(self, key: str, *, touch: bool = True) -> Optional[bytes]:
        """Entry bytes for *key*, or ``None`` when absent.  With
        *touch*, records a (granularity-throttled) access time for LRU
        eviction."""
        raise NotImplementedError

    def write_bytes(
        self, key: str, data: bytes, *, shard_meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        """Atomically publish *data* under *key*; returns the path that
        now holds it (entry file, or the database file)."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove *key*'s entry; ``True`` if one existed."""
        raise NotImplementedError

    def contains(self, key: str) -> bool:
        raise NotImplementedError

    def iter_keys(self) -> Iterator[str]:
        """All published keys, in sorted order."""
        raise NotImplementedError

    def entry_info(self, key: str) -> Optional[EntryInfo]:
        raise NotImplementedError

    def iter_entry_info(self) -> Iterator[EntryInfo]:
        """One :class:`EntryInfo` per entry, sorted by key (one pass —
        cheaper than ``entry_info`` per ``iter_keys`` key)."""
        raise NotImplementedError

    def count(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def total_bytes(self) -> int:
        return sum(info.size for info in self.iter_entry_info())

    def iter_shard_meta(self) -> Iterator[Dict[str, Any]]:
        """Per campaign-shard entry, the :func:`shard_meta_from_payload`
        dict, sorted by entry key."""
        raise NotImplementedError

    def quarantine_corrupt(
        self, key: str, decode: Callable[[bytes], Any]
    ) -> Optional[Any]:
        """Remove *key* only if its *current* bytes fail *decode*.

        The heal path: a reader that just failed to parse an entry calls
        this instead of deleting blindly, because a concurrent writer
        may have republished healthy bytes in between.  Returns the
        decoded payload when the entry turned out healthy (it is kept),
        else ``None`` (the corrupt entry is gone).
        """
        raise NotImplementedError

    def sweep_orphans(
        self,
        grace_seconds: float,
        *,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[str]:
        """Remove staging debris (``.tmp``/``.quarantine`` files) older
        than *grace_seconds*; returns the names removed.  The grace
        window protects files a live writer is actively staging.  With
        *dry_run*, nothing is deleted — the returned names are the
        preview of what a real sweep would remove."""
        raise NotImplementedError

    def compact(self) -> None:
        """Return deleted entries' space to the operating system.

        Called by GC after evictions: per-file backends free space on
        ``delete`` already (no-op here), but a database backend only
        moves freed pages to an internal freelist — without compaction
        the file never shrinks and a disk-size budget is not actually
        enforced.
        """


class FilesystemBackend(StoreBackend):
    """The original sharded-directory layout: one gzip file per entry.

    ``<root>/<key[:2]>/<key>.json.gz``, published via unique tmp file +
    ``os.replace`` (atomic on POSIX), so readers never observe a half-
    written entry and same-key writers race harmlessly.  Access times
    for LRU eviction ride on the entry file's mtime, refreshed (best
    effort, throttled) on reads.
    """

    kind = "filesystem"

    def __init__(self, root) -> None:
        self.location = Path(root)
        # Entry paths are joined as strings: the pathlib objects a cache
        # hit would otherwise build cost more than the read itself.
        self._root_str = os.fspath(self.location)

    @property
    def root(self) -> Path:
        return self.location

    def path_for(self, key: str) -> Path:
        return Path(self._entry_path(key))

    def _entry_path(self, key: str) -> str:
        check_key(key)
        return os.path.join(self._root_str, key[:2], f"{key}.json.gz")

    def read_bytes(self, key: str, *, touch: bool = True) -> Optional[bytes]:
        path = self._entry_path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return None
        if touch:
            self._touch(path)
        return data

    def _touch(self, path: str) -> None:
        """Refresh *path*'s mtime (the LRU access stamp), throttled to
        :data:`ACCESS_GRANULARITY_S` and best-effort: a vanished or
        read-only entry must never turn a cache hit into an error."""
        now = time.time()
        try:
            if now - os.stat(path).st_mtime > ACCESS_GRANULARITY_S:
                os.utime(path, (now, now))
        except OSError:
            pass

    def write_bytes(
        self, key: str, data: bytes, *, shard_meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    tmp.unlink()
                except OSError:
                    pass
        return path

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True

    def contains(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def iter_entry_paths(self) -> Iterator[Path]:
        """Paths of all published entries, sorted (filesystem-specific;
        generic callers use :meth:`iter_keys`).

        Only files whose name is a valid ``<64-hex>.json.gz`` entry are
        yielded: a stray hand-dropped file in a shard directory must be
        ignored, not surface as a malformed key that aborts
        ``clear``/sync/GC with a :class:`ValidationError`.
        """
        if not self.location.is_dir():
            return
        for shard in sorted(self.location.iterdir()):
            if not (shard.is_dir() and len(shard.name) == 2):
                continue
            for path in sorted(shard.glob("*.json.gz")):
                if _KEY_PATTERN.fullmatch(path.name[: -len(".json.gz")]):
                    yield path

    def iter_keys(self) -> Iterator[str]:
        for path in self.iter_entry_paths():
            yield path.name[: -len(".json.gz")]

    def entry_info(self, key: str) -> Optional[EntryInfo]:
        try:
            stat = self.path_for(key).stat()
        except FileNotFoundError:
            return None
        return EntryInfo(key=key, size=stat.st_size, accessed_at=stat.st_mtime)

    def iter_entry_info(self) -> Iterator[EntryInfo]:
        for path in self.iter_entry_paths():
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            yield EntryInfo(
                key=path.name[: -len(".json.gz")],
                size=stat.st_size,
                accessed_at=stat.st_mtime,
            )

    #: First bytes of every shard payload's canonical serialization:
    #: payloads are rendered with ``sort_keys=True`` and
    #: "campaign_trials" is the shard schema's alphabetically first key
    #: (full-campaign payloads start with "master_seed" instead), so a
    #: few decompressed bytes discard non-shard entries.
    _SHARD_ENTRY_PREFIX = '{"campaign_trials":'

    def iter_shard_meta(self) -> Iterator[Dict[str, Any]]:
        for path in self.iter_entry_paths():
            try:
                with gzip.open(path, "rt", encoding="utf-8") as fh:
                    head = fh.read(len(self._SHARD_ENTRY_PREFIX))
                    if head != self._SHARD_ENTRY_PREFIX:
                        continue
                    payload = json.loads(head + fh.read())
            except CORRUPT_ERRORS:
                continue
            meta = shard_meta_from_payload(payload)
            if meta is not None:
                yield meta

    def quarantine_corrupt(
        self, key: str, decode: Callable[[bytes], Any]
    ) -> Optional[Any]:
        path = self.path_for(key)
        quarantine = (
            path.parent / f".{path.name}.{os.getpid()}.{uuid.uuid4().hex}.quarantine"
        )
        try:
            os.rename(path, quarantine)
        except OSError:
            # Entry vanished (another reader healed it) — nothing to do.
            return None
        try:
            try:
                payload = decode(quarantine.read_bytes())
            except CORRUPT_ERRORS:
                return None
            # Healthy after all: a concurrent writer republished between
            # the failed read and the rename.  Entries are immutable
            # values, so restoring these bytes is always correct (and
            # harmless if yet another writer has already replaced them).
            try:
                os.replace(quarantine, path)
            except OSError:
                pass
            return payload
        finally:
            if quarantine.exists():
                try:
                    quarantine.unlink()
                except OSError:
                    pass

    def sweep_orphans(
        self,
        grace_seconds: float,
        *,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[str]:
        now = time.time() if now is None else float(now)
        removed: List[str] = []
        if not self.location.is_dir():
            return removed
        for pattern in ("*.tmp", "*.quarantine"):
            for path in sorted(self.location.rglob(pattern)):
                try:
                    if now - path.stat().st_mtime <= grace_seconds:
                        continue
                    if not dry_run:
                        path.unlink()
                except OSError:
                    continue
                removed.append(path.name)
        return removed


class SQLiteBackend(StoreBackend):
    """Single-file SQLite store with an indexed metadata table.

    One WAL-mode database holds every entry: the canonical gzip payload
    bytes in a BLOB, with size, created/accessed timestamps, and — for
    campaign-shard payloads — the shard listing metadata captured as a
    JSON column at ``put`` time.  ``count``/``total_bytes``/
    ``iter_shard_meta`` are answered from the index, so store-wide
    listings cost O(entries-in-index) instead of
    O(decompress-every-payload).

    Writes are transactions (atomic under concurrent multi-process
    access; ``busy_timeout`` absorbs lock contention), and a
    ``threading.Lock`` serializes this instance's shared connection
    across threads.
    """

    kind = "sqlite"
    indexed_shard_meta = True

    #: Conventional suffixes :func:`open_backend` routes here.
    SUFFIXES = (".sqlite", ".sqlite3", ".db")

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS entries (
        key         TEXT PRIMARY KEY,
        data        BLOB NOT NULL,
        size        INTEGER NOT NULL,
        created_at  REAL NOT NULL,  -- informational; not in EntryInfo (fs parity)
        accessed_at REAL NOT NULL,
        shard_meta  TEXT
    );
    CREATE INDEX IF NOT EXISTS idx_entries_shard
        ON entries(key) WHERE shard_meta IS NOT NULL;
    """

    def __init__(self, path) -> None:
        self.location = Path(path)
        self._lock = threading.Lock()
        self._connection: Optional[sqlite3.Connection] = None
        self._owner_pid: Optional[int] = None

    def _conn(self) -> sqlite3.Connection:
        """The lazily created instance connection.

        Re-opened after a ``fork``: SQLite connections must not be
        shared across processes, and worker processes inherit this
        object when a store crosses a ``multiprocessing`` boundary.
        """
        pid = os.getpid()
        if self._connection is None or self._owner_pid != pid:
            try:
                self.location.parent.mkdir(parents=True, exist_ok=True)
                conn = sqlite3.connect(
                    self.location,
                    timeout=30.0,
                    check_same_thread=False,
                    isolation_level=None,  # autocommit; explicit BEGIN where needed
                )
                conn.execute("PRAGMA busy_timeout=30000")
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                except sqlite3.OperationalError:
                    pass  # filesystem without WAL support: default journal is fine
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.executescript(self._SCHEMA)
            except (sqlite3.Error, OSError) as exc:
                # E.g. a *directory* named foo.db, or a truncated copy
                # whose header survived — surface the store's own error
                # type, not a raw sqlite3 traceback.
                raise ValidationError(
                    f"cannot open SQLite store {self.location}: {exc}"
                ) from exc
            self._connection = conn
            self._owner_pid = pid
        return self._connection

    def read_bytes(self, key: str, *, touch: bool = True) -> Optional[bytes]:
        check_key(key)
        with self._lock:
            conn = self._conn()
            row = conn.execute(
                "SELECT data, accessed_at FROM entries WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                return None
            data, accessed_at = bytes(row[0]), float(row[1])
            if touch:
                now = time.time()
                if now - accessed_at > ACCESS_GRANULARITY_S:
                    try:
                        conn.execute(
                            "UPDATE entries SET accessed_at = ? WHERE key = ?",
                            (now, key),
                        )
                    except sqlite3.OperationalError:
                        # Best-effort, like the filesystem _touch: a
                        # held write lock (e.g. a concurrent GC VACUUM)
                        # must not turn a pure cache read into an error.
                        pass
            return data

    def write_bytes(
        self, key: str, data: bytes, *, shard_meta: Optional[Dict[str, Any]] = None
    ) -> Path:
        check_key(key)
        meta_json = (
            None
            if shard_meta is None
            else json.dumps(shard_meta, sort_keys=True, allow_nan=True)
        )
        now = time.time()
        with self._lock:
            self._conn().execute(
                """
                INSERT INTO entries (key, data, size, created_at, accessed_at, shard_meta)
                VALUES (?, ?, ?, ?, ?, ?)
                ON CONFLICT(key) DO UPDATE SET
                    data = excluded.data,
                    size = excluded.size,
                    accessed_at = excluded.accessed_at,
                    shard_meta = excluded.shard_meta
                """,
                (key, sqlite3.Binary(data), len(data), now, now, meta_json),
            )
        return self.location

    def delete(self, key: str) -> bool:
        check_key(key)
        with self._lock:
            cursor = self._conn().execute(
                "DELETE FROM entries WHERE key = ?", (key,)
            )
            return cursor.rowcount > 0

    def contains(self, key: str) -> bool:
        check_key(key)
        with self._lock:
            row = self._conn().execute(
                "SELECT 1 FROM entries WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def iter_keys(self) -> Iterator[str]:
        with self._lock:
            keys = [
                row[0]
                for row in self._conn().execute(
                    "SELECT key FROM entries ORDER BY key"
                )
            ]
        return iter(keys)

    def entry_info(self, key: str) -> Optional[EntryInfo]:
        check_key(key)
        with self._lock:
            row = self._conn().execute(
                "SELECT size, accessed_at FROM entries WHERE key = ?",
                (key,),
            ).fetchone()
        if row is None:
            return None
        return EntryInfo(key=key, size=int(row[0]), accessed_at=float(row[1]))

    def iter_entry_info(self) -> Iterator[EntryInfo]:
        with self._lock:
            rows = self._conn().execute(
                "SELECT key, size, accessed_at FROM entries ORDER BY key"
            ).fetchall()
        return iter(
            EntryInfo(key=row[0], size=int(row[1]), accessed_at=float(row[2]))
            for row in rows
        )

    def count(self) -> int:
        with self._lock:
            return int(
                self._conn().execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            )

    def total_bytes(self) -> int:
        with self._lock:
            return int(
                self._conn()
                .execute("SELECT COALESCE(SUM(size), 0) FROM entries")
                .fetchone()[0]
            )

    def iter_shard_meta(self) -> Iterator[Dict[str, Any]]:
        with self._lock:
            rows = self._conn().execute(
                "SELECT shard_meta FROM entries "
                "WHERE shard_meta IS NOT NULL ORDER BY key"
            ).fetchall()
        return iter(json.loads(row[0]) for row in rows)

    def quarantine_corrupt(
        self, key: str, decode: Callable[[bytes], Any]
    ) -> Optional[Any]:
        check_key(key)
        with self._lock:
            conn = self._conn()
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT data FROM entries WHERE key = ?", (key,)
                ).fetchone()
                if row is None:
                    return None
                try:
                    payload = decode(bytes(row[0]))
                except CORRUPT_ERRORS:
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                    return None
                return payload
            finally:
                conn.execute("COMMIT")

    def sweep_orphans(
        self,
        grace_seconds: float,
        *,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[str]:
        # Writes are transactions; SQLite leaves no staging files to
        # orphan (WAL/journal files belong to the live database).
        return []

    def compact(self) -> None:
        # Deleted rows only reach SQLite's freelist; VACUUM rebuilds
        # the file so evicting to a size budget actually shrinks it,
        # and the checkpoint truncates the WAL sidecar.
        with self._lock:
            conn = self._conn()
            try:
                conn.execute("VACUUM")
                conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.OperationalError:
                pass  # concurrent writer holds the lock; next GC retries


#: Every SQLite database begins with this 16-byte header.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def open_backend(root) -> StoreBackend:
    """The backend for *root*: an existing regular file or a path with a
    SQLite suffix opens a :class:`SQLiteBackend`; anything else is a
    :class:`FilesystemBackend` directory root (created on first write).

    Existing regular files are verified against the SQLite magic header
    first (an empty file is fine — SQLite initializes it): pointing a
    store path at some other file must fail with a clear
    :class:`~repro.errors.ValidationError` up front, not a raw
    ``sqlite3.DatabaseError`` out of the first query.
    """
    path = Path(root)
    if path.is_file():
        try:
            with open(path, "rb") as fh:
                header = fh.read(len(_SQLITE_MAGIC))
        except OSError as exc:
            raise ValidationError(f"cannot read store file {path}: {exc}") from exc
        if header and header != _SQLITE_MAGIC:
            raise ValidationError(
                f"{path} is an existing file but not a SQLite store "
                f"(store roots are directories, or .sqlite/.db database files)"
            )
        return SQLiteBackend(path)
    if path.suffix.lower() in SQLiteBackend.SUFFIXES:
        return SQLiteBackend(path)
    return FilesystemBackend(path)
