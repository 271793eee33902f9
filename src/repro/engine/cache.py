"""Result cache for exhaustive tiling searches.

Every figure in this repository is assembled from the same primitive: the
best :class:`~repro.dataflows.base.DataflowResult` of one dataflow on one
layer under one on-chip capacity.  The cache deduplicates those searches
behind a key built from the *shape* of the problem:

``(dataflow signature, layer signature, capacity_words)``

The layer signature deliberately excludes the layer *name* so that layers
with identical shapes (VGG-16 repeats several) share one search; the engine
re-labels cached results with the requesting layer's name on retrieval.
The dataflow signature is the dataflow's figure name plus its public
constructor state, so a custom-split ``OptimalDataflow`` never aliases the
registry's free-split instance.

Infeasible searches (the dataflow has no tiling that fits) are cached too,
as the :data:`INFEASIBLE` sentinel -- re-proving infeasibility is exactly as
expensive as a successful search.

Without a path the cache lives in memory.  With one it persists to a
single **SQLite** database (:class:`SqliteStore`): entries are written
through as they are stored, so the cache survives crashes without an
explicit save, and WAL journalling makes it safe for several processes
(orchestrator shards, fleet workers, the :mod:`repro.server` daemon) to
read and write the same file concurrently.  A file at that path that is not
such a database -- garbage bytes, a pickle payload, another schema or
package version -- is replaced by a fresh one after one ``starting cold``
warning; a database that another process keeps locked is an error, and is
never replaced.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
import warnings
from dataclasses import dataclass, field

from repro.core.layer import ConvLayer

#: Sentinel cached for (dataflow, layer, capacity) triples with no feasible
#: tiling.  A plain string so that on-disk caches stay portable across runs.
INFEASIBLE = "__infeasible__"

#: Marker in the SQLite ``meta`` table; bump when the table layout itself
#: changes (entry layout changes are guarded by :data:`SCHEMA_VERSION`).
SQLITE_FORMAT = "repro-search-cache-sqlite-v1"

#: Seconds a SQLite writer waits on a locked database before failing.
SQLITE_BUSY_TIMEOUT_S = 30.0

#: Version of the *entry* layout: the :func:`task_key` tuple shape and the
#: ``DataflowResult`` / ``TrafficBreakdown`` dataclasses.  The package
#: version alone cannot guard these (a dev checkout changes the dataclasses
#: without bumping the release number), so the schema is pinned explicitly;
#: bump it whenever the key or result layout changes and every older cache
#: file is discarded with a warning instead of serving stale entries.
SCHEMA_VERSION = 1


def validate_shard(shard_index: int, shard_count: int) -> tuple:
    """Check ``1 <= K <= N`` once for every shard-taking API; returns (K, N)."""
    if shard_count < 1 or not 1 <= shard_index <= shard_count:
        raise ValueError(
            f"shard index must satisfy 1 <= K <= N, got {shard_index}/{shard_count}"
        )
    return shard_index, shard_count


def shard_cache_filename(backend: str, shard_index: int, shard_count: int) -> str:
    """Cache file name for one shard of an orchestrated run.

    The shard coordinates and the backend are baked into the name, so a
    resumed shard finds exactly the entries its own earlier attempt
    persisted, and shards that run on different machines and upload their
    trees independently never share a file.  Co-located shards *may* point
    their engines at one shared file instead -- the store is multi-writer
    safe.
    """
    validate_shard(shard_index, shard_count)
    return f"search-{backend}-shard{shard_index}of{shard_count}.sqlite"


def fleet_cache_filename(backend: str) -> str:
    """Cache file name shared by every worker of a fleet run.

    Fleet workers claim units late, so no worker knows its unit set up
    front and the shard-scoped naming of :func:`shard_cache_filename` does
    not apply.  Every worker attaches to **one** multi-writer file: the
    :class:`SqliteStore` is process-safe and a search any worker finished
    warms all of them.
    """
    return f"search-{backend}-fleet.sqlite"


def _code_version() -> str:
    # Imported lazily: repro/__init__ imports repro.engine, so a top-level
    # import here would be circular.
    from repro import __version__

    return __version__


def _valid_entry(entry) -> bool:
    """Structural check of one stored cache entry.

    A row that unpickles to anything but a result or :data:`INFEASIBLE`
    would silently corrupt every figure that reads it, so it is dropped
    instead of served.
    """
    # Imported lazily to avoid a cycle (dataflows.search routes through the
    # engine package).
    from repro.dataflows.base import DataflowResult

    return entry == INFEASIBLE or isinstance(entry, DataflowResult)


def layer_signature(layer: ConvLayer) -> tuple:
    """Shape-only identity of a layer (the name is presentation, not shape)."""
    return (
        layer.batch,
        layer.in_channels,
        layer.in_height,
        layer.in_width,
        layer.out_channels,
        layer.kernel_height,
        layer.kernel_width,
        layer.stride,
        layer.padding,
    )


def signature_layer(signature: tuple) -> ConvLayer:
    """An unnamed layer of the shape :func:`layer_signature` returned.

    Shape-keyed memos that must compute from the key alone rebuild their
    layer here, next to the signature's field order.
    """
    return ConvLayer("", *signature)


def dataflow_signature(dataflow) -> tuple:
    """Identity of a dataflow: its figure name plus its constructor state.

    Including the instance state distinguishes e.g. a fixed-split
    ``OptimalDataflow(psum_words=...)`` from the registry's free-split one,
    which share a ``name`` but search different tiling spaces.
    """
    state = tuple(
        sorted(
            (key, value)
            for key, value in vars(dataflow).items()
            if not key.startswith("_")
        )
    )
    return (dataflow.name,) + state


def whole_capacity(capacity_words) -> int:
    """``capacity_words`` as an ``int``; ``ValueError`` unless it is whole.

    Silently truncating a fractional capacity would alias distinct searches
    to one cache entry.  (KiB capacities are converted with
    :func:`repro.core.layer.kib_to_words`.)
    """
    capacity = int(capacity_words)
    if capacity != capacity_words:
        raise ValueError(
            f"capacity_words must be a whole word count, got {capacity_words!r}"
        )
    return capacity


def task_key(dataflow, layer: ConvLayer, capacity_words: int) -> tuple:
    """Cache key for one search task (the capacity must be whole)."""
    return (dataflow_signature(dataflow), layer_signature(layer), whole_capacity(capacity_words))


def task_keys(tasks) -> list:
    """:func:`task_key` of every ``(dataflow, layer, capacity_words)`` task.

    A batch names a few dataflow and layer objects many times over, so each
    distinct object is signed once, memoised by identity (``tasks`` keeps
    every object alive while the keys are built).
    """
    dataflows = {}
    layers = {}
    keys = []
    for dataflow, layer, capacity_words in tasks:
        dataflow_key = dataflows.get(id(dataflow))
        if dataflow_key is None:
            dataflow_key = dataflows[id(dataflow)] = dataflow_signature(dataflow)
        layer_key = layers.get(id(layer))
        if layer_key is None:
            layer_key = layers[id(layer)] = layer_signature(layer)
        keys.append((dataflow_key, layer_key, whole_capacity(capacity_words)))
    return keys


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`~repro.engine.engine.SearchEngine`.

    ``hits + misses`` always equals the number of search tasks submitted,
    whatever path submitted them (single ``search`` calls, ``found_minimum``,
    ``search_many`` capacity sweeps or whole-figure task batches): a *miss*
    is a task whose search actually ran, a *hit* is a task served from the
    cache or deduplicated against an identical task in the same batch.

    ``grid_evaluations`` counts the NumPy backend's vectorized
    ``traffic_grid_many`` invocations -- one per engine group, covering
    *every* missed task of that group at once -- so the sweep paths report
    both how many tasks ran (``misses``) and how many backend invocations
    that took (``grid_evaluations``).  A grid dataflow's group is one
    ``(dataflow, layer)`` pair, and its invocation is literally one
    candidate-grid evaluation.  ``Ours`` groups every split on a layer
    (the free split and each fixed one); its invocation evaluates one
    refinement neighbourhood per distinct shrunken seed, shared by every
    task whose capacity and split shrink to it (its candidate set is
    analytic, not a shared dense grid).

    ``coalesced`` and ``batched`` are the serving counters (zero outside
    the daemon of :mod:`repro.server`): a *coalesced* request attached to
    an identical in-flight computation and was never submitted as a task
    at all (so the ``hits + misses == tasks submitted`` invariant above is
    unaffected), while ``batched`` counts tasks that reached the engine in
    a micro-batch flush together with at least one other compatible task
    of the same ``(dataflow, layer)`` group -- the requests one
    ``search_many`` grid evaluation answered at once.
    """

    hits: int = 0
    misses: int = 0
    grid_evaluations: int = 0
    coalesced: int = 0
    batched: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "grid_evaluations": self.grid_evaluations,
            "coalesced": self.coalesced,
            "batched": self.batched,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CacheStats":
        """Rebuild stats from :meth:`as_dict` output (``hit_rate`` is derived)."""
        return cls(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            grid_evaluations=int(data.get("grid_evaluations", 0)),
            coalesced=int(data.get("coalesced", 0)),
            batched=int(data.get("batched", 0)),
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another engine's counters (cross-shard aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.grid_evaluations += other.grid_evaluations
        self.coalesced += other.coalesced
        self.batched += other.batched
        return self

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.grid_evaluations = 0
        self.coalesced = 0
        self.batched = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.1%} hit "
            f"rate), {self.grid_evaluations} grid evaluations"
        )
        if self.coalesced or self.batched:
            text += f", {self.coalesced} coalesced, {self.batched} batched"
        return text


def _key_text(key: tuple) -> str:
    """Deterministic textual identity of a :func:`task_key` tuple.

    SQLite rows are keyed by ``repr(key)`` rather than a key pickle: pickle
    bytes can differ between processes for equal tuples (string memoisation
    depends on object identity), while ``repr`` of the str/int/float tuples
    used here round-trips exactly and compares equal iff the keys do.
    """
    return repr(key)


class CorruptCacheError(ValueError):
    """The file at a cache path is not a usable search-cache database."""


class SqliteStore:
    """Concurrency-safe persistent entry store backed by one SQLite file.

    Rows map :func:`task_key` tuples to pickled ``DataflowResult`` /
    ``INFEASIBLE`` entries, guarded by :data:`SCHEMA_VERSION` and the
    package version in a ``meta`` table.  Entries are written through
    *individually* inside immediate transactions, with WAL journalling and a
    busy timeout, so several processes can read and write one file at the
    same time: readers never block behind a writer, and concurrent writers
    of the same key converge (entries are pure functions of their keys, so
    last-write-wins is correct by construction).

    ``max_entries`` bounds the table with the same LRU semantics as the
    in-memory cache: every store (and, when bounded, every read) refreshes
    the entry's access sequence number, and overflow deletes the stalest
    rows.  A file that is not a database, or whose ``meta`` rows name
    another format, schema or version, raises :class:`CorruptCacheError` at
    construction -- :class:`SearchCache` catches that, warns, and recreates
    the file cold.  A database another process keeps locked past
    :data:`SQLITE_BUSY_TIMEOUT_S` raises a plain ``ValueError`` naming the
    path: it is live, so nothing is discarded.
    """

    def __init__(self, path: str, max_entries: int = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 (or None), got {max_entries}")
        self.path = path
        self.max_entries = max_entries
        self.evictions = 0
        # One connection, serialized behind a lock: the daemon funnels all
        # engine work through one thread anyway, but benchmarks and tests
        # may probe the store from several threads of one process.
        self._lock = threading.RLock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._connection = None
        try:
            self._connection = sqlite3.connect(
                path,
                timeout=SQLITE_BUSY_TIMEOUT_S,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions are explicit
            )
            self._initialise()
        except sqlite3.DatabaseError as error:
            self.close()
            # SQLITE_BUSY and SQLITE_LOCKED arrive as OperationalError
            # "database is locked" / "database table is locked".
            if isinstance(error, sqlite3.OperationalError) and "locked" in str(error):
                raise ValueError(
                    f"search cache at {path!r} is locked by another process: {error}"
                ) from error
            raise CorruptCacheError(f"corrupt search cache at {path!r}: {error}") from error
        except BaseException:
            self.close()
            raise

    def _initialise(self) -> None:
        connection = self._connection
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={int(SQLITE_BUSY_TIMEOUT_S * 1000)}")
        with self._transaction():
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                "  key TEXT PRIMARY KEY,"      # repr() of the task_key tuple
                "  key_blob BLOB NOT NULL,"    # pickle of the tuple, for items()
                "  entry BLOB NOT NULL,"       # pickle of the result / sentinel
                "  seq INTEGER NOT NULL"       # monotone access order (LRU)
                ")"
            )
            connection.execute("CREATE INDEX IF NOT EXISTS entries_seq ON entries(seq)")
            expected = {
                "format": SQLITE_FORMAT,
                "schema": str(SCHEMA_VERSION),
                "version": _code_version(),
            }
            # INSERT OR IGNORE: two processes may initialise an empty file
            # concurrently; whoever loses the race re-reads and validates.
            connection.executemany(
                "INSERT OR IGNORE INTO meta (name, value) VALUES (?, ?)",
                sorted(expected.items()),
            )
            stored = dict(connection.execute("SELECT name, value FROM meta"))
        for name, value in expected.items():
            if stored.get(name) != value:
                raise CorruptCacheError(
                    f"search cache at {self.path!r} has {name} "
                    f"{stored.get(name)!r}, not {value!r}; ignoring it"
                )

    def _transaction(self):
        """Immediate write transaction (the lock spans BEGIN..COMMIT)."""
        return _SqliteTransaction(self._connection, self._lock)

    @staticmethod
    def _next_seq_sql() -> str:
        # Monotone-enough across processes: two concurrent writers may pick
        # the same value, which only blurs their relative LRU order.
        return "(SELECT COALESCE(MAX(seq), 0) + 1 FROM entries)"

    # ------------------------------------------------------------- entry API

    def get(self, key: tuple):
        """Entry for ``key`` or ``None``; refreshes recency when bounded."""
        text = _key_text(key)
        with self._lock:
            row = self._connection.execute(
                "SELECT entry FROM entries WHERE key = ?", (text,)
            ).fetchone()
        if row is None:
            return None
        try:
            entry = pickle.loads(row[0])
            if not _valid_entry(entry):
                raise ValueError(f"malformed entry for key {key!r}")
        except Exception as error:  # noqa: BLE001 - any unpickling failure
            # Self-heal: one bad row (e.g. written by a killed process midway
            # outside a transaction -- should be impossible, but cheap to
            # guard) is dropped and re-searched instead of poisoning reads.
            warnings.warn(f"dropping unreadable cache row: {error}", stacklevel=2)
            with self._transaction():
                self._connection.execute("DELETE FROM entries WHERE key = ?", (text,))
            return None
        if self.max_entries is not None:
            self.touch(key)
        return entry

    def touch(self, key: tuple) -> None:
        """Refresh ``key``'s LRU recency (no-op when the key is absent)."""
        with self._transaction():
            self._connection.execute(
                f"UPDATE entries SET seq = {self._next_seq_sql()} WHERE key = ?",
                (_key_text(key),),
            )

    def store(self, key: tuple, entry) -> list:
        """Write one entry through; returns the key tuples evicted (LRU)."""
        key_blob = pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        evicted = []
        with self._transaction():
            self._connection.execute(
                "INSERT INTO entries (key, key_blob, entry, seq) "
                f"VALUES (?, ?, ?, {self._next_seq_sql()}) "
                "ON CONFLICT(key) DO UPDATE SET "
                "entry = excluded.entry, seq = excluded.seq",
                (_key_text(key), key_blob, payload),
            )
            if self.max_entries is not None:
                count = self._connection.execute(
                    "SELECT COUNT(*) FROM entries"
                ).fetchone()[0]
                overflow = count - self.max_entries
                if overflow > 0:
                    rows = self._connection.execute(
                        "SELECT key, key_blob FROM entries ORDER BY seq, key LIMIT ?",
                        (overflow,),
                    ).fetchall()
                    self._connection.executemany(
                        "DELETE FROM entries WHERE key = ?",
                        [(text,) for text, _ in rows],
                    )
                    evicted = [pickle.loads(blob) for _, blob in rows]
        self.evictions += len(evicted)
        return evicted

    def items(self) -> list:
        """All ``(key, entry)`` pairs (a snapshot list, oldest first)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT key_blob, entry FROM entries ORDER BY seq, key"
            ).fetchall()
        return [(pickle.loads(key_blob), pickle.loads(entry)) for key_blob, entry in rows]

    def clear(self) -> None:
        with self._transaction():
            self._connection.execute("DELETE FROM entries")

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT 1 FROM entries WHERE key = ?", (_key_text(key),)
            ).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            return self._connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    # ------------------------------------------------------------ maintenance

    def checkpoint(self) -> None:
        """Fold the WAL back into the main database file."""
        with self._lock:
            self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        if getattr(self, "_connection", None) is not None:
            self._connection.close()
            self._connection = None


class _SqliteTransaction:
    """``BEGIN IMMEDIATE`` .. ``COMMIT``/``ROLLBACK`` with the store's lock held."""

    def __init__(self, connection, lock):
        self._connection = connection
        self._lock = lock

    def __enter__(self):
        self._lock.acquire()
        try:
            self._connection.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._lock.release()
            raise
        return self._connection

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self._connection.execute("COMMIT")
            else:
                self._connection.execute("ROLLBACK")
        finally:
            self._lock.release()
        return False


@dataclass
class SearchCache:
    """Search-result store: in memory, or persisted to one SQLite file.

    The cache is dumb storage: keys are :func:`task_key` tuples and entries
    are either a :class:`~repro.dataflows.base.DataflowResult` or
    :data:`INFEASIBLE`.  Statistics live on the engine, which also decides
    what counts as a hit.

    ``max_entries`` bounds the store with least-recently-used eviction:
    a hit refreshes the entry's recency, a store beyond the limit evicts
    the stalest entries and counts them in :attr:`evictions`.  Unbounded by
    default -- the limit exists for long-lived persistent caches (the run
    orchestrator's shard caches accrete entries across resumes and would
    otherwise grow without bound).

    With a ``path`` -- whatever its extension -- the cache opens a
    write-through :class:`SqliteStore` there, shared safely between
    processes; the in-memory dict then acts as a look-aside read cache and
    the SQLite file is the authoritative LRU store.  Without one the cache
    lives in memory only.
    """

    path: str = None
    max_entries: int = None
    _entries: dict = field(default_factory=dict, repr=False)

    #: Entries dropped by the LRU limit over this cache's lifetime.
    evictions: int = 0

    def __post_init__(self) -> None:
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 (or None), got {self.max_entries}")
        self._persistent = None
        if not self.path:
            return
        try:
            self._persistent = SqliteStore(self.path, max_entries=self.max_entries)
        except CorruptCacheError as error:
            # A stale, corrupt or foreign file must never take the tool
            # down: warn, and recreate the database cold.
            warnings.warn(f"starting cold: {error}", stacklevel=2)
            for suffix in ("", "-wal", "-shm"):
                stale = self.path + suffix
                if os.path.exists(stale):
                    os.unlink(stale)
            self._persistent = SqliteStore(self.path, max_entries=self.max_entries)

    def get(self, key: tuple):
        """Entry for ``key`` or ``None`` when absent (``INFEASIBLE`` is an entry)."""
        entry = self._entries.get(key)
        if entry is not None:
            if self.max_entries is not None:
                # Refresh recency: dicts iterate in insertion order, so
                # re-inserting makes this the youngest entry.  The
                # persistent store's recency follows so the shared LRU
                # never evicts an entry that is hot in some process.
                del self._entries[key]
                self._entries[key] = entry
                if self._persistent is not None:
                    self._persistent.touch(key)
            return entry
        if self._persistent is not None:
            entry = self._persistent.get(key)
            if entry is not None:
                self._entries[key] = entry
                self._trim_lookaside()
        return entry

    def store(self, key: tuple, entry) -> None:
        if self.max_entries is not None and key in self._entries:
            del self._entries[key]
        self._entries[key] = entry
        if self._persistent is not None:
            # Write-through; the SQLite store decides what the LRU evicts
            # (it sees every process's accesses) and the look-aside dict
            # follows, so a key never outlives its authoritative entry.
            for evicted in self._persistent.store(key, entry):
                self._entries.pop(evicted, None)
                self.evictions += 1
            self._trim_lookaside()
        else:
            self._evict_overflow()

    def _evict_overflow(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]
            self.evictions += 1

    def _trim_lookaside(self) -> None:
        # Bound the look-aside dict without counting evictions: the entry
        # still lives in the SQLite store, so nothing was actually lost.
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            del self._entries[next(iter(self._entries))]

    def clear(self) -> None:
        self._entries.clear()
        if self._persistent is not None:
            self._persistent.clear()

    def items(self) -> list:
        """Snapshot of all ``(key, entry)`` pairs (authoritative store)."""
        if self._persistent is not None:
            return self._persistent.items()
        return list(self._entries.items())

    def close(self) -> None:
        """Release the persistent store's connection (no-op in memory)."""
        if self._persistent is not None:
            self._persistent.close()

    def __contains__(self, key: tuple) -> bool:
        if key in self._entries:
            return True
        return self._persistent is not None and key in self._persistent

    def __len__(self) -> int:
        if self._persistent is not None:
            return len(self._persistent)
        return len(self._entries)

    # ------------------------------------------------------------- persistence

    def save(self) -> int:
        """Fold the SQLite write-ahead log into the database; return the entry count.

        Every entry is already durable once stored, so this is a checkpoint,
        not a write.  An in-memory cache has nothing to save.
        """
        if self._persistent is None:
            raise ValueError("no cache path configured")
        self._persistent.checkpoint()
        return len(self._persistent)
