"""Content-addressed, persistent result cache in one SQLite database.

A cache entry is addressed by the blake2b digest of a canonical-JSON
rendering of its key fields — ``(namespace, evaluator version, backbone key,
platform, seed, gamma, ...)`` — so any change to any field, including a
version bump, yields a different address and naturally invalidates stale
entries without any scanning or TTL machinery.

Every entry is one row of the ``cache.sqlite3`` database in the cache
directory: its digest, namespace, the cache version that wrote it, its codec
and its payload.  Two codecs are used transparently: values that survive
:func:`repro.utils.serialization.to_jsonable` are stored as JSON (static
evaluations are three floats); richer object graphs (inner-engine results
with their Pareto archives) fall back to pickles.  A put is one autocommit
insert in WAL mode, so a killed writer leaves an entry complete or absent,
and concurrent writers of the same key are idempotent because evaluations
are pure.  WAL readers and writers share memory through the ``-shm`` file,
so the directory must be on a local filesystem.

Entry files of the older file-per-entry store (``<digest>.json``/``.pkl``)
are never read: :meth:`ResultCache.disk_stats` counts them as ``unindexed``,
and ``prune(orphans=True)`` and :meth:`ResultCache.clear` delete them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs import trace
from repro.utils.serialization import canonical_json, from_jsonable, to_jsonable

#: Bump to invalidate every entry written by older engine code.
ENGINE_CACHE_VERSION = "1"

#: The database file inside the cache directory.
DATABASE_NAME = "cache.sqlite3"

#: How long a statement waits on another connection's lock.  Puts are
#: single-row inserts, so a wait lasts milliseconds; the margin covers a
#: worker's autocheckpoint of a large WAL on a slow disk.
_BUSY_TIMEOUT_S = 60.0

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS entries ("
    "digest TEXT PRIMARY KEY, namespace TEXT NOT NULL, version TEXT NOT NULL, "
    "codec TEXT NOT NULL, payload BLOB NOT NULL)"
)

#: Entry files and write remnants of the file-per-entry store, and its index.
_LEGACY_PATTERNS = ("*.json", "*.pkl", "*.tmp")
_LEGACY_INDEX = "index.jsonl"


@dataclass(frozen=True)
class CacheKey:
    """Address of one cache entry: namespace (for accounting) + digest."""

    namespace: str
    digest: str


@dataclass
class CacheStats:
    """Hit/miss/write accounting for one namespace (or the whole cache)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


# --------------------------------------------------------------------------
# Process-wide cache-stats registry.  Worker processes build their *own*
# ResultCache instances (the lru_cache'd contexts in engine/tasks.py), so a
# parent asking its cache for stats after an ``--executor process`` run used
# to see only its own traffic.  Every live cache registers here; a worker
# snapshots the registry before a task, diffs it after, and ships the delta
# home through the executor result channel (see obs/collect.py), where it
# merges into the parent cache via :meth:`ResultCache.merge_stats`.
# --------------------------------------------------------------------------
_REGISTRY_LOCK = threading.Lock()
# Keyed by id() because ResultCache (an eq-dataclass) is unhashable; dead
# entries evict themselves, and a recycled id simply replaces its entry.
_LIVE_CACHES: "weakref.WeakValueDictionary[int, ResultCache]" = (
    weakref.WeakValueDictionary()
)
# Traffic of caches that have been garbage-collected: a task-local cache
# usually dies when the task function returns — *before* the worker wrapper
# diffs the registry — so a finalizer folds its accounting in here and the
# snapshot stays monotonic over the process lifetime.
_RETIRED_STATS: dict[str, tuple[int, int, int]] = {}


def _retire_stats(stats: dict[str, CacheStats]) -> None:
    with _REGISTRY_LOCK:
        for namespace, s in stats.items():
            hits, misses, puts = _RETIRED_STATS.get(namespace, (0, 0, 0))
            _RETIRED_STATS[namespace] = (hits + s.hits, misses + s.misses, puts + s.puts)


def _register_cache(cache: "ResultCache") -> None:
    with _REGISTRY_LOCK:
        _LIVE_CACHES[id(cache)] = cache
    # The callback holds the stats dict (not the cache), so it cannot keep
    # the cache itself alive.
    weakref.finalize(cache, _retire_stats, cache._stats)


# While a worker-side call's stats deltas are being captured for the result
# envelope (obs/collect.py), the envelope owns every hit/miss/put this
# thread generates: the parent merges the delta into its cache and flushes
# it to the session sidecar exactly once.  Worker-side services closing
# *inside* the capture window (a shard's in-worker HadasSearch teardown)
# must therefore not also write the sidecar, or each event lands twice.
_CAPTURE_TLS = threading.local()


@contextmanager
def stats_capture() -> Iterator[None]:
    """Mark this thread's cache traffic as envelope-owned (flushes muted)."""
    depth = getattr(_CAPTURE_TLS, "depth", 0)
    _CAPTURE_TLS.depth = depth + 1
    try:
        yield
    finally:
        _CAPTURE_TLS.depth = depth


def _capturing() -> bool:
    return getattr(_CAPTURE_TLS, "depth", 0) > 0


def runtime_stats_snapshot() -> dict[str, tuple[int, int, int]]:
    """Per-namespace ``(hits, misses, puts)``: every live cache + retired ones."""
    with _REGISTRY_LOCK:
        caches = list(_LIVE_CACHES.values())
        totals = dict(_RETIRED_STATS)
    for cache in caches:
        for namespace, stats in list(cache._stats.items()):
            hits, misses, puts = totals.get(namespace, (0, 0, 0))
            totals[namespace] = (
                hits + stats.hits, misses + stats.misses, puts + stats.puts
            )
    return totals


def runtime_stats_delta(
    baseline: dict[str, tuple[int, int, int]],
) -> dict[str, dict[str, int]]:
    """What changed since ``baseline``; all-zero namespaces are dropped.

    Clamped at zero per field as a backstop: retirement keeps the snapshot
    monotonic, but a baseline taken in a parent process and diffed after a
    fork boundary must never produce negative freight.
    """
    deltas: dict[str, dict[str, int]] = {}
    for namespace, (hits, misses, puts) in runtime_stats_snapshot().items():
        base = baseline.get(namespace, (0, 0, 0))
        delta = (
            max(hits - base[0], 0), max(misses - base[1], 0), max(puts - base[2], 0)
        )
        if any(delta):
            deltas[namespace] = {
                "hits": delta[0], "misses": delta[1], "puts": delta[2]
            }
    return deltas


@dataclass
class ResultCache:
    """Persistent evaluation-result store shared by every engine layer.

    Parameters
    ----------
    directory:
        Root directory of the cache; created on construction.  Its database
        is created by the first put, so a cache that is only read leaves
        none.  Entries from different namespaces share the database (the
        digest already incorporates the namespace).
    version:
        Cache-format version folded into every key; bumping it orphans all
        existing entries (they stay on disk but are never addressed again).
    """

    directory: str | Path
    version: str = ENGINE_CACHE_VERSION
    _stats: dict[str, CacheStats] = field(default_factory=dict, repr=False)
    _flushed: dict[str, tuple[int, int, int]] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # (pid, thread id) -> that thread's connection.  A forked child keeps
    # its parent's entries but never looks them up: an SQLite connection
    # must not be used (or closed) in a process other than its opener's.
    _connections: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        _register_cache(self)

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"], state["_connections"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_flushed", {})
        self._lock = threading.Lock()
        self._connections = {}
        _register_cache(self)

    # ------------------------------------------------------------- database
    @property
    def database(self) -> Path:
        """The SQLite file that holds every entry."""
        return self.directory / DATABASE_NAME

    def _connection(self, create: bool = False):
        """This (process, thread)'s connection, opened on first use.

        ``None`` when the database does not exist and ``create`` is false.
        """
        slot = (os.getpid(), threading.get_ident())
        connection = self._connections.get(slot)
        if connection is None:
            if not create and not self.database.exists():
                return None
            import sqlite3  # here, not at module import: keeps start-up light

            connection = sqlite3.connect(
                self.database, timeout=_BUSY_TIMEOUT_S, isolation_level=None
            )
            deadline = time.monotonic() + _BUSY_TIMEOUT_S
            while True:
                try:
                    connection.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    # Two connections converting a new file at once: SQLite
                    # fails the loser's read-to-write upgrade without waiting
                    # (its deadlock guard), so wait here instead.
                    if str(exc) != "database is locked" or time.monotonic() > deadline:
                        raise
                    time.sleep(0.001)
            connection.execute("PRAGMA synchronous=NORMAL")
            # Some SQLite builds default to zeroing every freed page, which
            # writes a deleted entry's whole payload again, through the WAL.
            connection.execute("PRAGMA secure_delete=OFF")
            connection.execute(_SCHEMA)
            self._connections[slot] = connection
        return connection

    def _rows(self, sql: str, params: tuple = ()) -> list[tuple]:
        """The rows of a read query; none while the database does not exist."""
        connection = self._connection()
        return [] if connection is None else connection.execute(sql, params).fetchall()

    def _delete(self, sql: str, params: tuple = ()) -> int:
        """Run a ``DELETE``; how many entries it removed.

        When it removed any, the freed pages go back to the file system:
        ``VACUUM`` rewrites the database without them, and a truncating
        checkpoint copies the rewrite into ``cache.sqlite3`` and empties the
        WAL, so both files end at the size of what is left.
        """
        connection = self._connection()
        if connection is None:
            return 0
        removed = connection.execute(sql, params).rowcount
        if removed:
            connection.execute("VACUUM")
            connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return removed

    # ----------------------------------------------------------------- keys
    def key(self, namespace: str, **fields: Any) -> CacheKey:
        """Content-address a key from named fields (order-insensitive)."""
        payload = canonical_json(
            {"__version__": str(self.version), "__namespace__": namespace, **fields}
        )
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=20).hexdigest()
        return CacheKey(namespace=namespace, digest=digest)

    def stats(self, namespace: str | None = None) -> CacheStats:
        """Accounting for one namespace, or aggregated over all of them."""
        with self._lock:
            if namespace is not None:
                return self._stats.setdefault(namespace, CacheStats())
            total = CacheStats()
            for stats in self._stats.values():
                total.hits += stats.hits
                total.misses += stats.misses
                total.puts += stats.puts
            return total

    def _record(self, namespace: str, *, hit: bool = False, put: bool = False) -> None:
        with self._lock:
            stats = self._stats.setdefault(namespace, CacheStats())
            if put:
                stats.puts += 1
            elif hit:
                stats.hits += 1
            else:
                stats.misses += 1
        if trace.active() is not None:
            kind = "puts" if put else ("hits" if hit else "misses")
            trace.count(f"cache.{namespace}.{kind}")

    def merge_stats(self, deltas: dict[str, dict[str, int]]) -> None:
        """Fold another process's per-namespace hit/miss/put deltas in.

        Called by the collector when a worker-process envelope lands, so the
        parent's :meth:`stats` reflect traffic that happened in worker-built
        cache instances (see ``runtime_stats_snapshot``).
        """
        with self._lock:
            for namespace, delta in deltas.items():
                stats = self._stats.setdefault(namespace, CacheStats())
                stats.hits += int(delta.get("hits", 0))
                stats.misses += int(delta.get("misses", 0))
                stats.puts += int(delta.get("puts", 0))

    # -------------------------------------------------------------- get/put
    def get(self, key: CacheKey, cls: type | None = None, default: Any = None) -> Any:
        """Fetch the entry at ``key``; ``default`` on miss.

        ``cls`` rebuilds JSON-stored dataclasses (ignored for pickles, which
        carry their own types).
        """
        recorder = trace.active()
        if recorder is None:
            return self._get(key, cls, default)
        start = time.perf_counter()
        value = self._get(key, cls, default)
        recorder.observe(f"cache.{key.namespace}.get_s", time.perf_counter() - start)
        return value

    def _get(self, key: CacheKey, cls: type | None, default: Any) -> Any:
        rows = self._rows(
            "SELECT codec, payload FROM entries WHERE digest = ?", (key.digest,)
        )
        if rows:
            codec, payload = rows[0]
            try:
                if codec == "json":
                    data = json.loads(payload)
                    value = from_jsonable(data, cls) if cls is not None else data
                else:
                    value = pickle.loads(payload)
            except (
                ValueError,
                # JSON that does not fit ``cls`` (missing or unknown fields):
                TypeError,
                pickle.UnpicklingError,
                EOFError,
                IndexError,
                # Stale pickles referencing moved/renamed classes:
                AttributeError,
                ImportError,
            ):
                pass  # corrupt/stale entry: treat as a miss, re-evaluation overwrites it
            else:
                self._record(key.namespace, hit=True)  # only after deserialization
                return value
        self._record(key.namespace)
        return default

    def contains(self, key: CacheKey) -> bool:
        """Existence check without touching hit/miss accounting."""
        return bool(self._rows("SELECT 1 FROM entries WHERE digest = ?", (key.digest,)))

    def put(self, key: CacheKey, value: Any) -> None:
        """Store ``value`` at ``key`` (JSON when possible, pickle otherwise)."""
        recorder = trace.active()
        if recorder is None:
            self._put(key, value)
            return
        start = time.perf_counter()
        self._put(key, value)
        recorder.observe(f"cache.{key.namespace}.put_s", time.perf_counter() - start)

    def _put(self, key: CacheKey, value: Any) -> None:
        try:
            codec, payload = "json", json.dumps(to_jsonable(value), sort_keys=True).encode()
        except TypeError:
            codec, payload = "pickle", pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        self._connection(create=True).execute(
            "INSERT OR REPLACE INTO entries VALUES (?, ?, ?, ?, ?)",
            (key.digest, key.namespace, str(self.version), codec, payload),
        )
        self._record(key.namespace, put=True)

    # ------------------------------------------------------- session stats
    # Runtime hit/miss accounting is in-memory and per-process; the sidecar
    # below persists it so `repro cache stats` can report what actually
    # happened across past runs (including process-executor runs, whose
    # worker deltas merge into the parent cache before it flushes).
    @property
    def _session_stats_path(self) -> Path:
        return self.directory / "stats.jsonl"

    def flush_session_stats(self) -> dict[str, dict[str, int]]:
        """Append this cache's unflushed hit/miss/put deltas to the sidecar.

        Idempotent: each call writes only what accumulated since the last
        one, so repeated service teardowns append nothing new.  Returns the
        deltas written (empty dict when there was nothing to flush).  A
        no-op inside a :func:`stats_capture` window — that traffic ships
        home in the result envelope and the *parent* cache flushes it.
        """
        if _capturing():
            return {}
        with self._lock:
            deltas: dict[str, dict[str, int]] = {}
            for namespace, stats in self._stats.items():
                base = self._flushed.get(namespace, (0, 0, 0))
                delta = (
                    stats.hits - base[0], stats.misses - base[1], stats.puts - base[2]
                )
                if any(delta):
                    deltas[namespace] = {
                        "hits": delta[0], "misses": delta[1], "puts": delta[2]
                    }
                    self._flushed[namespace] = (stats.hits, stats.misses, stats.puts)
            if not deltas:
                return {}
            line = json.dumps(
                {"pid": os.getpid(), "ts": time.time(), "namespaces": deltas}
            )
            with self._session_stats_path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
            return deltas

    def session_stats(self) -> dict[str, CacheStats]:
        """Aggregate the sidecar: per-namespace totals over all recorded runs."""
        totals: dict[str, CacheStats] = {}
        try:
            lines = self._session_stats_path.read_text().splitlines()
        except OSError:
            return totals
        for line in lines:
            try:
                record = json.loads(line)
                namespaces = record["namespaces"]
            except (ValueError, TypeError, KeyError):
                continue  # torn concurrent append
            for namespace, delta in namespaces.items():
                stats = totals.setdefault(namespace, CacheStats())
                stats.hits += int(delta.get("hits", 0))
                stats.misses += int(delta.get("misses", 0))
                stats.puts += int(delta.get("puts", 0))
        return totals

    # ------------------------------------------------------------ inventory
    def __len__(self) -> int:
        rows = self._rows("SELECT COUNT(*) FROM entries")
        return rows[0][0] if rows else 0

    def index_entries(self) -> dict[str, dict]:
        """Every entry's ``{digest, namespace, version}``, by digest."""
        return {
            digest: {"digest": digest, "namespace": namespace, "version": version}
            for digest, namespace, version in self._rows(
                "SELECT digest, namespace, version FROM entries"
            )
        }

    def _legacy_files(self) -> list[Path]:
        return [
            path for pattern in _LEGACY_PATTERNS for path in self.directory.glob(pattern)
        ]

    def _remove_legacy(self) -> int:
        """Delete the file-per-entry store's files; how many entry files went."""
        files = self._legacy_files()
        for path in files:
            path.unlink(missing_ok=True)
        (self.directory / _LEGACY_INDEX).unlink(missing_ok=True)
        return len(files)

    def disk_stats(self) -> dict:
        """Inventory: entry and payload-byte totals, per namespace and per
        version.

        ``unindexed`` counts files left by the older file-per-entry store
        (``<digest>.json``/``.pkl`` and torn ``*.tmp`` writes); they are
        never read, and :meth:`prune` removes them only when asked.
        """
        namespaces: dict[str, dict] = {}
        versions: dict[str, int] = {}
        for namespace, version, count, size in self._rows(
            "SELECT namespace, version, COUNT(*), SUM(LENGTH(payload)) "
            "FROM entries GROUP BY namespace, version"
        ):
            space = namespaces.setdefault(namespace, {"entries": 0, "bytes": 0})
            space["entries"] += count
            space["bytes"] += size
            versions[version] = versions.get(version, 0) + count
        return {
            "directory": str(self.directory),
            "entries": sum(versions.values()),
            "bytes": sum(space["bytes"] for space in namespaces.values()),
            "unindexed": len(self._legacy_files()),
            "namespaces": namespaces,
            "versions": versions,
        }

    def prune(
        self,
        keep_version: str | None = None,
        orphans: bool = False,
        namespace: str | None = None,
    ) -> int:
        """Delete entries written under any version other than ``keep_version``.

        Those entries are unreachable — the version is folded into every
        digest — so pruning drops them without affecting hit rates, and
        their space goes back to the file system (see :meth:`_delete`).
        ``orphans=True`` also deletes the older store's files (see
        :meth:`disk_stats`).  ``namespace`` limits the sweep to that
        namespace's entries (the orphan sweep is skipped then: those files
        carry no namespace to match against).  Returns the number of
        entries and files removed.
        """
        keep = str(self.version if keep_version is None else keep_version)
        if namespace is not None:
            return self._delete(
                "DELETE FROM entries WHERE version != ? AND namespace = ?",
                (keep, namespace),
            )
        removed = self._delete("DELETE FROM entries WHERE version != ?", (keep,))
        return removed + (self._remove_legacy() if orphans else 0)

    def clear(self, namespace: str | None = None) -> int:
        """Delete every entry; returns how many entries and files went.

        Also deletes the older store's files (see :meth:`disk_stats`) and
        the session-stats sidecar; the database shrinks to what is left
        (see :meth:`_delete`).  ``namespace`` restricts the wipe to that
        namespace's entries (e.g. drop the ``serving`` grid but keep
        ``static``/``inner``/``spec`` warm); files are left alone then.
        """
        if namespace is not None:
            return self._delete("DELETE FROM entries WHERE namespace = ?", (namespace,))
        removed = self._delete("DELETE FROM entries") + self._remove_legacy()
        self._session_stats_path.unlink(missing_ok=True)
        return removed
