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

import contextlib
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
    # Imported lazily so that importing the engine package (as
    # repro.workloads and repro.arch do, for the signatures) loads no
    # dataflow model.
    from repro.dataflows.base import DataflowResult

    return entry == INFEASIBLE or isinstance(entry, DataflowResult)


#: Entries of each shape-keyed model memo: the tile model's tiling choice
#: (``shape_tiling``) and walk (``shape_run``), the timing simulator's walk
#: (``shape_timing``) and the Eyeriss tile search (``shape_best_tile``).
#: A key is a configuration and a layer shape (plus the bandwidth and the
#: tiling for the walks); the timing sweep of the most varied registered
#: workload needs a few hundred.
SHAPE_MEMO_SIZE = 4096


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
    analytic, not a shared dense grid), in one array pass per group of
    seeds whose neighbourhoods have the same shape and that serve equally
    many tasks.

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


@contextlib.contextmanager
def _lock_errors(path: str):
    """Raise a locked or a full SQLite database as one line naming ``path``.

    SQLITE_BUSY and SQLITE_LOCKED arrive as ``OperationalError`` "database
    is locked" / "database table is locked" once the busy timeout has run
    out, and SQLITE_FULL as "database or disk is full".  The database is
    live, so each is a plain ``ValueError``, never a
    :class:`CorruptCacheError`: nothing is discarded.
    """
    try:
        yield
    except sqlite3.OperationalError as error:
        if "locked" in str(error):
            raise ValueError(
                f"SQLite database {path!r} is locked by another process: {error}"
            ) from error
        if "full" in str(error):
            raise ValueError(f"SQLite database {path!r} cannot grow: {error}") from error
        raise


def _open_sqlite(path: str, busy_timeout_s: float) -> sqlite3.Connection:
    """Connect to the SQLite file at ``path`` as the store and the queue do.

    Creates the file's directory, connects in autocommit mode (every
    transaction is an explicit :func:`_sqlite_transaction`) for use from
    any thread, then sets WAL journalling, ``synchronous=NORMAL`` and the
    busy timeout.  A failing PRAGMA (a locked database, or a file that is
    not one) closes the connection and propagates.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    connection = sqlite3.connect(
        path, timeout=busy_timeout_s, check_same_thread=False, isolation_level=None
    )
    try:
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={int(busy_timeout_s * 1000)}")
    except BaseException:
        connection.close()
        raise
    return connection


@contextlib.contextmanager
def _sqlite_transaction(path: str, connection, lock):
    """``BEGIN IMMEDIATE`` .. ``COMMIT``/``ROLLBACK`` with ``lock`` held.

    A lock or a full disk at any statement, the body's included, is the
    one-line ``ValueError`` of :func:`_lock_errors`.
    """
    with _lock_errors(path), lock:
        connection.execute("BEGIN IMMEDIATE")
        try:
            yield connection
            connection.execute("COMMIT")
        finally:
            # SQLite rolls some failed transactions back itself (a full
            # database does), and a failed COMMIT may leave one open.
            if connection.in_transaction:
                connection.execute("ROLLBACK")


class SqliteStore:
    """Concurrency-safe persistent entry store backed by one SQLite file.

    Rows map :func:`task_key` tuples to pickled ``DataflowResult`` /
    ``INFEASIBLE`` entries, guarded by :data:`SCHEMA_VERSION` and the
    package version in a ``meta`` table.  Entries are written through, one
    immediate transaction per :meth:`store` batch, with WAL journalling and
    a busy timeout, so several processes can read and write one file at the
    same time: readers never block behind a writer, and concurrent writers
    of the same key converge (entries are pure functions of their keys, so
    last-write-wins is correct by construction).

    ``max_entries`` bounds the table with the same LRU semantics as the
    in-memory cache: every store refreshes the entry's access sequence
    number, so does every :meth:`touch` (the bounded :class:`SearchCache`
    touches what it reads), and overflow deletes the stalest rows.  A file that is not a database, or whose ``meta`` rows name
    another format, schema or version, raises :class:`CorruptCacheError` at
    construction -- :class:`SearchCache` catches that, warns, and recreates
    the file cold.  A database another process keeps locked past
    :data:`SQLITE_BUSY_TIMEOUT_S` -- at construction, at a transaction's
    start or at a read -- raises a plain one-line ``ValueError`` naming the
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
        self._connection = None
        try:
            with _lock_errors(path):
                self._connection = _open_sqlite(path, SQLITE_BUSY_TIMEOUT_S)
                self._initialise()
        except sqlite3.DatabaseError as error:
            self.close()
            raise CorruptCacheError(f"corrupt search cache at {path!r}: {error}") from error
        except BaseException:
            self.close()
            raise

    def _initialise(self) -> None:
        with self._transaction() as connection:
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
        return _sqlite_transaction(self.path, self._connection, self._lock)

    @staticmethod
    def _next_seq_sql() -> str:
        # Monotone-enough across processes: two concurrent writers may pick
        # the same value, which only blurs their relative LRU order.
        return "(SELECT COALESCE(MAX(seq), 0) + 1 FROM entries)"

    # ------------------------------------------------------------- entry API

    def get(self, key: tuple):
        """Entry for ``key`` or ``None``, leaving its recency as it is.

        :meth:`SearchCache.get_many` reads a batch this way and refreshes
        every hit with one :meth:`touch`.
        """
        text = _key_text(key)
        with self._lock, _lock_errors(self.path):
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
        return entry

    def touch(self, keys) -> None:
        """Refresh each key's LRU recency, in order, in one transaction.

        Each key in turn becomes the youngest row, exactly as one
        transaction per key would leave them; absent keys are skipped.
        """
        with self._transaction() as connection:
            connection.executemany(
                f"UPDATE entries SET seq = {self._next_seq_sql()} WHERE key = ?",
                [(_key_text(key),) for key in keys],
            )

    def store(self, pairs) -> list:
        """Write ``(key, entry)`` pairs through in one transaction.

        One ``MAX(seq)`` read numbers the pairs in order, one
        ``executemany`` writes them (each pair is pickled as the generator
        reaches it, so no batch of blobs is built) and one count trims the
        overflow.  The rows and their LRU order end up as if the pairs had
        been stored one at a time.  So does :attr:`evictions` for a batch of
        distinct keys the store does not hold -- what the engine writes, its
        misses.  A held or repeated key is refreshed in place, where storing
        one pair at a time might have evicted and re-inserted it.  Returns
        the key tuples evicted (LRU), which may include keys of this batch.
        """
        evicted = []
        with self._transaction() as connection:
            last = connection.execute("SELECT COALESCE(MAX(seq), 0) FROM entries").fetchone()[0]
            connection.executemany(
                "INSERT INTO entries (key, key_blob, entry, seq) VALUES (?, ?, ?, ?) "
                "ON CONFLICT(key) DO UPDATE SET entry = excluded.entry, seq = excluded.seq",
                (
                    (
                        _key_text(key),
                        pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL),
                        pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL),
                        seq,
                    )
                    for seq, (key, entry) in enumerate(pairs, start=last + 1)
                ),
            )
            if self.max_entries is not None:
                count = connection.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
                overflow = count - self.max_entries
                if overflow > 0:
                    rows = connection.execute(
                        "SELECT key, key_blob FROM entries ORDER BY seq, key LIMIT ?",
                        (overflow,),
                    ).fetchall()
                    connection.executemany(
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
        return self.get_many([key])[0]

    def get_many(self, keys) -> list:
        """Entries for ``keys`` in order, ``None`` for each absent key.

        Each hit becomes the youngest entry in lookup order, as if the keys
        had been read one :meth:`get` at a time.  On a bounded persistent
        cache the SQLite store's recency follows, so the shared LRU never
        evicts an entry that is hot in some process -- for the whole batch
        in one :meth:`SqliteStore.touch` transaction.
        """
        keys = list(keys)
        entries = []
        for key in keys:
            entry = self._entries.get(key)
            if entry is not None:
                if self.max_entries is not None:
                    # Dicts iterate in insertion order, so re-inserting
                    # makes this the youngest entry.
                    del self._entries[key]
                    self._entries[key] = entry
            elif self._persistent is not None:
                entry = self._persistent.get(key)
                if entry is not None:
                    self._entries[key] = entry
                    self._trim_lookaside()
            entries.append(entry)
        if self._persistent is not None and self.max_entries is not None:
            hits = [key for key, entry in zip(keys, entries) if entry is not None]
            if hits:
                self._persistent.touch(hits)
        return entries

    def store(self, key: tuple, entry) -> None:
        self.store_many([(key, entry)])

    def store_many(self, pairs) -> None:
        """Store ``(key, entry)`` pairs in order (one SQLite transaction).

        The write-through comes first, so a store that fails (a database
        locked past the busy timeout) leaves the look-aside dict as it was.
        The SQLite store decides what the LRU evicts (it sees every
        process's accesses) and the look-aside dict follows, so a key never
        outlives its authoritative entry.
        """
        pairs = list(pairs)
        evicted = self._persistent.store(pairs) if self._persistent is not None else ()
        for key, entry in pairs:
            if self.max_entries is not None and key in self._entries:
                del self._entries[key]
            self._entries[key] = entry
            if self._persistent is None:
                self._evict_overflow()
        for key in evicted:
            self._entries.pop(key, None)
            self.evictions += 1
        self._trim_lookaside()

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
