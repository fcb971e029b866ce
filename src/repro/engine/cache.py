"""Content-addressed, persistent on-disk result cache.

A cache entry is addressed by the blake2b digest of a canonical-JSON
rendering of its key fields — ``(namespace, evaluator version, backbone key,
platform, seed, gamma, ...)`` — so any change to any field, including a
version bump, yields a different address and naturally invalidates stale
entries without any scanning or TTL machinery.

Two codecs are used transparently: values that survive
:func:`repro.utils.serialization.to_jsonable` are stored as human-readable
``<digest>.json`` files (static evaluations are three floats); richer object
graphs (inner-engine results with their Pareto archives) fall back to
``<digest>.pkl`` pickles.  Writes are atomic (temp file + rename), so a
killed run never leaves a torn entry behind, and concurrent writers of the
same key are idempotent because evaluations are pure.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
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

_MISS = object()


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
        Root directory of the cache; created on first use.  Entries from
        different namespaces share the directory (the digest already
        incorporates the namespace).
    version:
        Cache-format version folded into every key; bumping it orphans all
        existing entries (they stay on disk but are never addressed again).
    """

    directory: str | Path
    version: str = ENGINE_CACHE_VERSION
    _stats: dict[str, CacheStats] = field(default_factory=dict, repr=False)
    _flushed: dict[str, tuple[int, int, int]] = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        self.directory = Path(self.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        _register_cache(self)

    # ------------------------------------------------------------- pickling
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_flushed", {})
        self._lock = threading.Lock()
        _register_cache(self)

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

    def _paths(self, key: CacheKey) -> tuple[Path, Path]:
        return (
            self.directory / f"{key.digest}.json",
            self.directory / f"{key.digest}.pkl",
        )

    # ---------------------------------------------------------------- index
    # The digest folds the namespace and version in, so entries are
    # unreachable (not just stale) after a version bump.  The index sidecar
    # records (digest -> namespace, version) at write time, which is what
    # lets `prune` find orphaned generations without guessing: filenames
    # alone cannot be mapped back to the version that produced them.
    @property
    def _index_path(self) -> Path:
        return self.directory / "index.jsonl"

    def _index_append(self, key: CacheKey) -> None:
        line = json.dumps(
            {"digest": key.digest, "namespace": key.namespace, "version": str(self.version)}
        )
        with self._lock:
            with self._index_path.open("a+b") as handle:
                # A hard-killed writer can leave a torn line with no trailing
                # newline; start on a fresh line so this record cannot be
                # welded onto the remnant and lost with it.
                if handle.seek(0, os.SEEK_END) > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                handle.write(line.encode("utf-8") + b"\n")

    def index_entries(self) -> dict[str, dict]:
        """Parse the index sidecar: digest -> {namespace, version} (last wins).

        Corrupt lines (torn concurrent appends) are skipped; entries whose
        files are gone are dropped.
        """
        entries: dict[str, dict] = {}
        try:
            lines = self._index_path.read_text().splitlines()
        except OSError:
            return entries
        for line in lines:
            try:
                record = json.loads(line)
                digest = record["digest"]
            except (ValueError, TypeError, KeyError):
                continue
            entries[digest] = record
        return {
            digest: record
            for digest, record in entries.items()
            if (self.directory / f"{digest}.json").exists()
            or (self.directory / f"{digest}.pkl").exists()
        }

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
        json_path, pkl_path = self._paths(key)
        try:
            if json_path.exists():
                data = json.loads(json_path.read_text())
                value = from_jsonable(data, cls) if cls is not None else data
                self._record(key.namespace, hit=True)  # only after deserialization
                return value
            if pkl_path.exists():
                with pkl_path.open("rb") as handle:
                    value = pickle.load(handle)
                self._record(key.namespace, hit=True)
                return value
        except (
            OSError,
            ValueError,
            pickle.UnpicklingError,
            EOFError,
            # Stale pickles referencing moved/renamed classes:
            AttributeError,
            ImportError,
        ):
            pass  # torn/corrupt/stale entry: treat as a miss, re-evaluation overwrites it
        self._record(key.namespace)
        return default

    def contains(self, key: CacheKey) -> bool:
        """Existence check without touching hit/miss accounting."""
        json_path, pkl_path = self._paths(key)
        return json_path.exists() or pkl_path.exists()

    def put(self, key: CacheKey, value: Any) -> Path:
        """Store ``value`` at ``key`` (JSON when possible, pickle otherwise)."""
        recorder = trace.active()
        if recorder is None:
            return self._put(key, value)
        start = time.perf_counter()
        path = self._put(key, value)
        recorder.observe(f"cache.{key.namespace}.put_s", time.perf_counter() - start)
        return path

    def _put(self, key: CacheKey, value: Any) -> Path:
        json_path, pkl_path = self._paths(key)
        try:
            rendered = json.dumps(to_jsonable(value), sort_keys=True)
        except TypeError:
            self._write_atomic(pkl_path, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            self._record(key.namespace, put=True)
            self._index_append(key)
            return pkl_path
        self._write_atomic(json_path, rendered.encode("utf-8"))
        self._record(key.namespace, put=True)
        self._index_append(key)
        return json_path

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

    def memoize(self, key: CacheKey, fn, cls: type | None = None) -> Any:
        """Return the cached value at ``key``, computing and storing on miss."""
        value = self.get(key, cls=cls, default=_MISS)
        if value is not _MISS:
            return value
        value = fn()
        self.put(key, value)
        return value

    def _write_atomic(self, path: Path, payload: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------ inventory
    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json")) + sum(
            1 for _ in self.directory.glob("*.pkl")
        )

    def disk_stats(self) -> dict:
        """On-disk inventory: entry/byte totals plus per-namespace and
        per-version breakdowns from the index sidecar.

        ``unindexed`` counts entry files the index does not know about
        (written by pre-index engine versions); they are left alone by
        :meth:`prune` unless explicitly requested.
        """
        files = {
            path.stem: path
            for pattern in ("*.json", "*.pkl")
            for path in self.directory.glob(pattern)
        }
        entries = self.index_entries()
        namespaces: dict[str, dict] = {}
        versions: dict[str, int] = {}
        for digest, record in entries.items():
            size = files[digest].stat().st_size if digest in files else 0
            space = namespaces.setdefault(
                record.get("namespace", "?"), {"entries": 0, "bytes": 0}
            )
            space["entries"] += 1
            space["bytes"] += size
            version = str(record.get("version", "?"))
            versions[version] = versions.get(version, 0) + 1
        return {
            "directory": str(self.directory),
            "entries": len(files),
            "bytes": sum(path.stat().st_size for path in files.values()),
            "unindexed": len(set(files) - set(entries)),
            "namespaces": namespaces,
            "versions": versions,
        }

    def prune(
        self,
        keep_version: str | None = None,
        orphans: bool = False,
        orphan_min_age_s: float = 60.0,
        namespace: str | None = None,
    ) -> int:
        """Delete entries written under any version other than ``keep_version``.

        Those entries are unreachable — the version is folded into every
        digest — so pruning reclaims disk without affecting hit rates.
        ``orphans=True`` additionally removes unindexed entry files (written
        before the index existed; indistinguishable from stale, so opt-in).
        Files younger than ``orphan_min_age_s`` are never swept as orphans:
        a concurrent writer creates the entry file *before* its index line
        lands, and the age guard keeps that window from looking orphaned.
        ``namespace`` limits the sweep to that namespace's entries (the
        orphan sweep is skipped then: unindexed files carry no namespace to
        match against).  Returns the number of entry files removed and
        rewrites the index to the surviving entries.
        """
        keep = str(self.version if keep_version is None else keep_version)
        entries = self.index_entries()
        removed = 0
        survivors: dict[str, dict] = {}

        def survives(record: dict) -> bool:
            if str(record.get("version")) == keep:
                return True
            return namespace is not None and record.get("namespace") != namespace

        for digest, record in entries.items():
            if survives(record):
                survivors[digest] = record
                continue
            for suffix in (".json", ".pkl"):
                path = self.directory / f"{digest}{suffix}"
                if path.exists():
                    path.unlink(missing_ok=True)
                    removed += 1
        if orphans and namespace is None:
            cutoff = time.time() - orphan_min_age_s
            for pattern in ("*.json", "*.pkl"):
                for path in self.directory.glob(pattern):
                    if path.stem in entries:
                        continue
                    try:
                        if path.stat().st_mtime > cutoff:
                            continue  # too fresh: may be a racing writer's entry
                    except OSError:
                        continue
                    path.unlink(missing_ok=True)
                    removed += 1
        # Re-read instead of trusting the pre-deletion snapshot: index lines
        # appended by concurrent writers while we swept must survive the
        # rewrite, or their (live) entries would look orphaned forever.
        with self._lock:
            latest = self.index_entries()
            survivors.update(
                (digest, record)
                for digest, record in latest.items()
                if digest not in survivors and survives(record)
            )
            rendered = "".join(json.dumps(record) + "\n" for record in survivors.values())
            self._write_atomic(self._index_path, rendered.encode("utf-8"))
        return removed

    def clear(self, namespace: str | None = None) -> int:
        """Delete every entry; returns how many files were removed.

        Also sweeps ``*.tmp`` remnants of writes that were hard-killed
        between ``mkstemp`` and the atomic rename (safe here: a clear is an
        explicit request, not something raced by concurrent writers) and
        the index sidecar.

        ``namespace`` restricts the wipe to that namespace's indexed entries
        (e.g. drop the ``serving`` grid but keep ``static``/``inner``/
        ``spec`` warm); unindexed files and tmp remnants are left alone
        then, and the index is rewritten to the surviving entries.
        """
        removed = 0
        if namespace is not None:
            entries = self.index_entries()
            for digest, record in entries.items():
                if record.get("namespace") != namespace:
                    continue
                for suffix in (".json", ".pkl"):
                    path = self.directory / f"{digest}{suffix}"
                    if path.exists():
                        path.unlink(missing_ok=True)
                        removed += 1
            with self._lock:
                survivors = {
                    digest: record
                    for digest, record in self.index_entries().items()
                    if record.get("namespace") != namespace
                }
                rendered = "".join(
                    json.dumps(record) + "\n" for record in survivors.values()
                )
                self._write_atomic(self._index_path, rendered.encode("utf-8"))
            return removed
        for pattern in ("*.json", "*.pkl", "*.tmp"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
                removed += 1
        self._index_path.unlink(missing_ok=True)
        self._session_stats_path.unlink(missing_ok=True)
        return removed
