"""Concurrency, recovery and locking tests for the SQLite cache store.

SQLite is the only persistent store, so many processes (orchestrator
shards, fleet workers, the serve daemon, ad-hoc CLIs) can share one search
cache safely.  These tests pin exactly that contract:

* any cache path opens the store, whatever its extension, and holds
  entries byte-identical to the in-memory cache;
* two processes hammering the *same* keys leave a consistent store holding
  results bit-identical to a direct engine run;
* a reader sees a coherent store while a writer is mid-stream;
* a file that is not this package's database (garbage, a pickle payload,
  another schema) degrades to a cold start instead of crashing or serving
  garbage;
* a batch of entries written in one transaction leaves the same rows, LRU
  order and eviction count as storing them one at a time;
* a database another process keeps locked -- when the cache opens, or
  later, at a write or a read -- is *not* corrupt: nothing is discarded,
  and every surface reports the lock in one line;
* a database that cannot grow (SQLITE_FULL) fails the write in one line
  naming the path, rolls the batch back and keeps the store usable;
* a shard cache written by an orchestrated ``run`` is served as *hits* by a
  fresh engine pointed at the same file (the daemon's warm-start path).
"""

import os
import pickle
import sqlite3
import subprocess
import sys
import tempfile
import threading
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.layer import ConvLayer
from repro.dataflows.registry import get_dataflow
from repro.engine import (
    INFEASIBLE,
    SearchCache,
    SearchEngine,
    SqliteStore,
    shard_cache_filename,
    task_key,
)
from repro.engine import cache as cache_module
from repro.engine.cache import SCHEMA_VERSION

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def layer():
    return ConvLayer("l", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1)


@pytest.fixture
def layers():
    return [
        ConvLayer("a", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1),
        ConvLayer("b", 1, 16, 14, 14, 16, 3, 3, stride=1, padding=1),
        ConvLayer("c", 2, 8, 10, 10, 8, 3, 3, stride=2, padding=0),
    ]


class TestPersistenceParity:
    """SQLite must hold exactly what the in-memory cache holds."""

    def _populate(self, cache_path, layers) -> SearchEngine:
        engine = SearchEngine(cache_path=cache_path)
        dataflow = get_dataflow("Ours")
        for layer in layers:
            for capacity in (4096, 16384):
                engine.try_search(dataflow, layer, capacity)
        if cache_path:
            engine.save()
        return engine

    def test_entries_identical_to_in_memory_cache(self, tmp_path, layers):
        sqlite_engine = self._populate(str(tmp_path / "cache.sqlite"), layers)
        memory_engine = self._populate(None, layers)
        sqlite_entries = dict(sqlite_engine.cache.items())
        memory_entries = dict(memory_engine.cache.items())
        assert sqlite_entries == memory_entries
        # Byte-identical, not merely equal: every entry the database hands
        # back serializes exactly like the one the search produced.
        for key, entry in sqlite_entries.items():
            assert pickle.dumps(entry) == pickle.dumps(memory_entries[key])
        sqlite_engine.cache.close()

    @pytest.mark.parametrize("name", ["cache.pkl", "cache", "cache.db"])
    def test_any_path_opens_the_sqlite_store(self, tmp_path, layer, name):
        path = str(tmp_path / name)
        cache = SearchCache(path=path)
        cache.store(task_key(get_dataflow("Ours"), layer, 4096), INFEASIBLE)
        cache.close()
        with sqlite3.connect(path) as connection:
            assert connection.execute("SELECT COUNT(*) FROM entries").fetchone() == (1,)
        connection.close()

    def test_survives_restart_and_serves_hits(self, tmp_path, layers):
        path = str(tmp_path / "cache.sqlite")
        expected = {}
        engine = self._populate(path, layers)
        dataflow = get_dataflow("Ours")
        for layer in layers:
            for capacity in (4096, 16384):
                expected[(layer.name, capacity)] = engine.try_search(
                    dataflow, layer, capacity
                )
        engine.cache.close()

        warm = SearchEngine(cache_path=path)
        for layer in layers:
            for capacity in (4096, 16384):
                assert (
                    warm.try_search(dataflow, layer, capacity)
                    == expected[(layer.name, capacity)]
                )
        assert warm.stats.misses == 0
        assert warm.stats.hits == len(expected)
        warm.cache.close()

    def test_lru_eviction_matches_in_memory_semantics(self, tmp_path, layer):
        dataflow = get_dataflow("Ours")
        caches = [
            SearchCache(path=str(tmp_path / "a.sqlite"), max_entries=2),
            SearchCache(max_entries=2),  # the in-memory reference
        ]
        keys = [task_key(dataflow, layer, capacity) for capacity in (1024, 2048, 4096)]
        for cache in caches:
            for key in keys[:2]:
                cache.store(key, INFEASIBLE)
            cache.get(keys[0])  # refresh key 0; key 1 becomes the LRU victim
            cache.store(keys[2], INFEASIBLE)
            assert cache.evictions == 1
            assert keys[0] in cache and keys[2] in cache
            assert keys[1] not in cache
        caches[0].close()

    @settings(max_examples=40, deadline=None)
    @given(
        bound=st.integers(1, 5),
        stream=st.lists(st.integers(0, 9), min_size=1, max_size=24),
        cuts=st.lists(st.integers(0, 24), max_size=6),
        reads=st.lists(st.integers(0, 9), max_size=7),
    )
    @example(bound=2, stream=[0, 1, 2, 3, 4, 5, 6, 7], cuts=[], reads=[])  # one batch past the bound
    def test_batched_stores_match_one_at_a_time_stores(self, bound, stream, cuts, reads):
        """Batches of what the engine writes -- distinct keys the cache does
        not hold -- end in the same entries, LRU order and eviction count as
        storing their pairs one at a time, with hits between the batches."""
        with tempfile.TemporaryDirectory() as directory:
            batched = SearchCache(path=os.path.join(directory, "cache.sqlite"), max_entries=bound)
            reference = SearchCache(max_entries=bound)
            for index, (start, end) in enumerate(_batch_bounds(len(stream), cuts)):
                batch = {}
                for position in range(start, end):
                    key = ("k", stream[position])
                    if key not in reference and key not in batch:
                        batch[key] = position
                batched.store_many(batch.items())
                for key, entry in batch.items():
                    reference.store(key, entry)
                if index < len(reads):  # a hit refreshes recency
                    key = ("k", reads[index])
                    assert batched.get(key) == reference.get(key)
            assert batched.items() == reference.items()  # entries, oldest first
            assert batched.evictions == batched._persistent.evictions == reference.evictions
            batched.close()

    @settings(max_examples=40, deadline=None)
    @given(
        bound=st.integers(1, 5),
        stream=st.lists(st.integers(0, 9), min_size=1, max_size=24),
        cuts=st.lists(st.integers(0, 24), max_size=6),
    )
    @example(bound=2, stream=[0, 1, 2, 3, 4, 5, 1, 6], cuts=[])  # key 1 evicted, then re-stored
    def test_a_batch_that_restores_held_keys_keeps_entries_and_order(self, bound, stream, cuts):
        """A held or repeated key is refreshed in place: the same entries in
        the same LRU order, and at most the one-at-a-time evictions."""
        with tempfile.TemporaryDirectory() as directory:
            batched = SearchCache(path=os.path.join(directory, "cache.sqlite"), max_entries=bound)
            reference = SearchCache(max_entries=bound)
            for start, end in _batch_bounds(len(stream), cuts):
                batch = [(("k", stream[position]), position) for position in range(start, end)]
                batched.store_many(batch)
                for key, entry in batch:
                    reference.store(key, entry)
            assert batched.items() == reference.items()
            assert batched.evictions <= reference.evictions
            batched.close()


class TestBatchedTouch:
    """A batch's hits refresh their SQLite recency in one transaction."""

    def test_a_batch_of_hits_is_touched_in_one_transaction(self, tmp_path, layers, monkeypatch):
        path = str(tmp_path / "cache.sqlite")
        dataflow = get_dataflow("Ours")
        tasks = [(dataflow, layer, 4096) for layer in layers]
        SearchEngine(cache_path=path, cache_max_entries=16).search_tasks(tasks)
        # A fresh engine: every hit is read from SQLite, not the look-aside.
        engine = SearchEngine(cache_path=path, cache_max_entries=16)
        transactions = []
        touched = []
        real_transaction, real_touch = SqliteStore._transaction, SqliteStore.touch

        def transaction(store):
            transactions.append(store.path)
            return real_transaction(store)

        def touch(store, keys):
            touched.append(list(keys))
            return real_touch(store, keys)

        monkeypatch.setattr(SqliteStore, "_transaction", transaction)
        monkeypatch.setattr(SqliteStore, "touch", touch)
        for attempt in range(2):  # SQLite reads, then look-aside hits
            transactions.clear()
            touched.clear()
            batch = list(reversed(tasks)) + tasks  # three hits, three repeats
            engine.search_tasks(batch)
            assert len(transactions) == 1
            assert touched == [[task_key(*task) for task in reversed(tasks)]]
        assert engine.stats.misses == 0 and engine.stats.hits == 12
        # Lookup order is LRU order, as one touch per hit would leave it.
        assert [key for key, _ in engine.cache.items()] == [
            task_key(*task) for task in reversed(tasks)
        ]
        engine.cache.close()


def _batch_bounds(length: int, cuts: list) -> list:
    """``(start, end)`` of the batches that cutting ``range(length)`` makes."""
    edges = sorted({0, length, *(cut for cut in cuts if cut < length)})
    return list(zip(edges, edges[1:]))


class TestConcurrency:
    def test_two_processes_writing_same_keys(self, tmp_path, layers):
        """Overlapping multi-process writes end consistent and complete."""
        path = str(tmp_path / "shared.sqlite")
        script = (
            "import sys\n"
            "from repro.core.layer import ConvLayer\n"
            "from repro.dataflows.registry import get_dataflow\n"
            "from repro.engine import SearchEngine\n"
            "engine = SearchEngine(cache_path=sys.argv[1])\n"
            "dataflow = get_dataflow('Ours')\n"
            "layers = [\n"
            "    ConvLayer('a', 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1),\n"
            "    ConvLayer('b', 1, 16, 14, 14, 16, 3, 3, stride=1, padding=1),\n"
            "    ConvLayer('c', 2, 8, 10, 10, 8, 3, 3, stride=2, padding=0),\n"
            "]\n"
            "for _ in range(3):\n"
            "    for layer in layers:\n"
            "        for capacity in (4096, 8192, 16384):\n"
            "            engine.try_search(dataflow, layer, capacity)\n"
            "engine.cache.close()\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", script, path],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for process in processes:
            _, stderr = process.communicate(timeout=120)
            assert process.returncode == 0, stderr

        # The survivor must hold every key, each bit-identical to a direct
        # engine answer (last-write-wins is safe: entries are pure functions
        # of their keys).
        reference = SearchEngine()
        dataflow = get_dataflow("Ours")
        cache = SearchCache(path=path)
        assert len(cache) == len(layers) * 3
        for layer in layers:
            for capacity in (4096, 8192, 16384):
                key = task_key(dataflow, layer, capacity)
                cached = cache.get(key)
                expected = reference.try_search(dataflow, layer, capacity)
                if expected is None:
                    assert cached == INFEASIBLE
                else:
                    assert cached == expected
        cache.close()

    def test_reader_sees_coherent_store_during_writes(self, tmp_path, layer):
        """A concurrent reader never errors and never sees garbage."""
        path = str(tmp_path / "shared.sqlite")
        dataflow = get_dataflow("Ours")
        writer_cache = SearchCache(path=path)
        reader_cache = SearchCache(path=path)  # its own connection
        keys = [task_key(dataflow, layer, capacity) for capacity in range(1024, 1324)]
        errors = []
        seen = set()
        stop = threading.Event()

        def read_loop():
            try:
                while not stop.is_set():
                    for key in keys:
                        entry = reader_cache.get(key)
                        # Either not written yet, or the exact stored value;
                        # anything else means a torn read.
                        if entry is not None and entry != INFEASIBLE:
                            errors.append(f"unexpected entry {entry!r}")
                        if entry is not None:
                            seen.add(key)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(f"{type(error).__name__}: {error}")

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            for key in keys:
                writer_cache.store(key, INFEASIBLE)
        finally:
            stop.set()
            reader.join(timeout=60)
        assert not errors
        assert len(reader_cache) == len(keys)
        writer_cache.close()
        reader_cache.close()


class TestRecovery:
    def test_corrupt_database_starts_cold(self, tmp_path, layer):
        """Garbage bytes degrade to an empty, working cache."""
        path = str(tmp_path / "cache.sqlite")
        with open(path, "wb") as handle:
            handle.write(b"this is not a sqlite database at all")
        with pytest.warns(UserWarning, match="starting cold"):
            cache = SearchCache(path=path)
        # ...and the recovered store is fully functional.
        dataflow = get_dataflow("Ours")
        key = task_key(dataflow, layer, 4096)
        cache.store(key, INFEASIBLE)
        assert key in cache
        cache.close()
        reopened = SearchCache(path=path)
        assert key in reopened
        reopened.close()

    def test_schema_mismatch_starts_cold(self, tmp_path, layer):
        path = str(tmp_path / "cache.sqlite")
        store = SqliteStore(path)
        dataflow = get_dataflow("Ours")
        store.store([(task_key(dataflow, layer, 4096), INFEASIBLE)])
        with store._transaction():
            store._connection.execute(
                "UPDATE meta SET value = ? WHERE name = 'schema'",
                (str(SCHEMA_VERSION + 1),),
            )
        store.close()
        with pytest.warns(UserWarning, match="starting cold"):
            cache = SearchCache(path=path)
        assert len(cache) == 0
        cache.close()

    @pytest.mark.parametrize(
        "blob", [b"not a pickle", pickle.dumps({"not": "a DataflowResult"})]
    )
    def test_unreadable_row_is_dropped_not_fatal(self, tmp_path, layer, blob):
        path = str(tmp_path / "cache.sqlite")
        store = SqliteStore(path)
        dataflow = get_dataflow("Ours")
        key = task_key(dataflow, layer, 4096)
        store.store([(key, INFEASIBLE)])
        with store._transaction():
            store._connection.execute("UPDATE entries SET entry = ?", (blob,))
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.get(key) is None
        assert key not in store  # the poisoned row was deleted
        store.close()


    def test_version_mismatch_starts_cold(self, tmp_path, layer):
        """``meta`` written by another package version is never served."""
        path = str(tmp_path / "cache.sqlite")
        store = SqliteStore(path)
        store.store([(task_key(get_dataflow("Ours"), layer, 4096), INFEASIBLE)])
        with store._transaction():
            store._connection.execute("UPDATE meta SET value = '0.0.0' WHERE name = 'version'")
        store.close()
        with pytest.warns(UserWarning, match="starting cold.*version '0.0.0'"):
            cache = SearchCache(path=path)
        assert len(cache) == 0
        cache.close()

    def test_pickle_payload_at_cache_file_starts_cold_once(self, tmp_path, capsys):
        """A pickle left by the removed pickle store is replaced, not imported."""
        from repro.cli import main

        path = tmp_path / "cache.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"format": "repro-search-cache-v1", "entries": {}}, handle)
        argv = ["fig13", "--workload", "tiny", "--capacities", "16", "--cache-file", str(path), "--stats"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        cold = [w for w in caught if "starting cold" in str(w.message)]
        assert len(cold) == 1, [str(w.message) for w in caught]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 0
        assert not [w for w in caught if "starting cold" in str(w.message)]
        assert " 0 misses" in capsys.readouterr().err


@pytest.fixture
def fast_busy_timeout(monkeypatch):
    """Give up on a locked database after 0.2 s instead of 30 s."""
    monkeypatch.setattr(cache_module, "SQLITE_BUSY_TIMEOUT_S", 0.2)


def hold_write_lock(path: str) -> sqlite3.Connection:
    """A second connection holding the write lock until it is closed."""
    connection = sqlite3.connect(path, isolation_level=None)
    connection.execute("BEGIN IMMEDIATE")
    return connection


def lock_before_first_store(monkeypatch, path: str) -> list:
    """Take the write lock after the engine's first searches ran and before
    their results are stored: a lock that arrives after the cache opened.
    Returns the list the holding connection lands in (one lock, once)."""
    holders = []
    execute = SearchEngine._execute

    def locking_execute(engine, pending):
        entries = execute(engine, pending)
        if not holders:
            holders.append(hold_write_lock(path))
        return entries

    monkeypatch.setattr(SearchEngine, "_execute", locking_execute)
    return holders


def assert_one_line_lock_error(message: str, path: str) -> None:
    assert "locked" in message and path in message
    assert "\n" not in message.rstrip("\n") and "Traceback" not in message


@pytest.mark.usefixtures("fast_busy_timeout")
class TestLockedCache:
    """A lock held past the busy timeout is an error, never corruption."""

    def test_locked_database_is_not_discarded(self, tmp_path, layer):
        path = str(tmp_path / "cache.sqlite")
        first = SearchCache(path=path)
        key = task_key(get_dataflow("Ours"), layer, 4096)
        first.store(key, INFEASIBLE)
        holder = hold_write_lock(path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no "starting cold"
                with pytest.raises(ValueError, match="locked") as error:
                    SearchCache(path=path)
            assert not isinstance(error.value, cache_module.CorruptCacheError)
            assert repr(path) in str(error.value)
        finally:
            holder.close()
        # Still the first cache's file: a recreated one would be empty.
        reopened = SearchCache(path=path)
        assert key in reopened and len(reopened) == 1
        reopened.close()
        first.close()

    def test_flat_cli_exits_2_naming_the_path(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cache.sqlite")
        SearchCache(path=path).close()
        holder = hold_write_lock(path)
        try:
            assert main(["table1", "--cache-file", path]) == 2
        finally:
            holder.close()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "locked" in err and path in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_serve_exits_2_naming_the_path(self, tmp_path):
        # A subprocess with a deadline: a daemon that wrongly starts cold
        # would otherwise serve forever.
        script = (
            "import sys\n"
            "from repro.engine import cache\n"
            "cache.SQLITE_BUSY_TIMEOUT_S = 0.2\n"
            "from repro.server.daemon import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        path = str(tmp_path / "cache.sqlite")
        SearchCache(path=path).close()
        holder = hold_write_lock(path)
        try:
            completed = subprocess.run(
                [sys.executable, "-c", script, "--port", "0", "--cache-file", path],
                env=dict(os.environ, PYTHONPATH=SRC_DIR),
                capture_output=True,
                text=True,
                timeout=60,
            )
        finally:
            holder.close()
        assert completed.returncode == 2, completed.stdout
        err = completed.stderr
        assert err.startswith("error:") and "locked" in err and path in err
        assert err.count("\n") == 1

    def test_lock_after_open_fails_store_and_touch_in_one_line(self, tmp_path, layer):
        path = str(tmp_path / "cache.sqlite")
        engine = SearchEngine(cache_path=path, cache_max_entries=16)
        dataflow = get_dataflow("Ours")
        engine.try_search(dataflow, layer, 4096)
        engine.cache._entries.clear()  # the next 4096 hit reads, then touches, SQLite
        holder = hold_write_lock(path)
        try:
            for capacity in (4096, 8192):  # a bounded hit's touch, a miss's store
                with pytest.raises(ValueError) as error:
                    engine.try_search(dataflow, layer, capacity)
                assert not isinstance(error.value, cache_module.CorruptCacheError)
                assert_one_line_lock_error(str(error.value), path)
        finally:
            holder.close()
        reference = SearchEngine()
        for capacity in (4096, 8192):
            assert engine.try_search(dataflow, layer, capacity) == reference.try_search(
                dataflow, layer, capacity
            )
        assert len(engine.cache) == 2
        engine.cache.close()

    def test_lock_at_a_read_is_one_line(self, tmp_path, layer):
        # A WAL read waits only behind recovery or a checkpoint, so the
        # connection is swapped for one that reports the lock.
        path = str(tmp_path / "cache.sqlite")
        store = SqliteStore(path)
        key = task_key(get_dataflow("Ours"), layer, 4096)
        store.store([(key, INFEASIBLE)])

        class LockedConnection:
            def execute(self, *args):
                raise sqlite3.OperationalError("database is locked")

        connection, store._connection = store._connection, LockedConnection()
        try:
            with pytest.raises(ValueError) as error:
                store.get(key)
        finally:
            store._connection = connection
        assert_one_line_lock_error(str(error.value), path)
        assert store.get(key) == INFEASIBLE
        store.close()

    def test_flat_cli_lock_after_open_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        path = str(tmp_path / "cache.sqlite")
        argv = ["fig13", "--workload", "tiny", "--capacities", "16", "--cache-file", path]
        holders = lock_before_first_store(monkeypatch, path)
        try:
            assert main(argv) == 2
        finally:
            holders[0].close()
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert_one_line_lock_error(err, path)
        assert main(argv) == 0

    def test_runner_lock_after_open_fails_the_unit_then_resume_is_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.orchestration.manifest import ManifestSpec, RunManifest
        from repro.orchestration.runner import Runner

        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("table1", "fig13", "fig16"),
                params={"fig13": {"capacities_kib": [16]}},
            )
        )
        reference = str(tmp_path / "reference")
        assert Runner(manifest, reference).run().complete

        out_dir = str(tmp_path / "run")
        path = os.path.join(out_dir, "cache", shard_cache_filename("auto", 1, 1))
        holders = lock_before_first_store(monkeypatch, path)
        try:
            report = Runner(manifest, out_dir).run()
        finally:
            holders[0].close()
        assert report.units_failed == 1 and report.units_completed == 2
        (failure,) = report.failures
        assert_one_line_lock_error(failure["error"], path)

        resumed = Runner(manifest, out_dir).run()
        assert resumed.complete and resumed.units_completed == 1
        units = sorted(os.listdir(os.path.join(reference, "units")))
        assert sorted(os.listdir(os.path.join(out_dir, "units"))) == units
        for name in units:
            with open(os.path.join(reference, "units", name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(out_dir, "units", name), "rb") as handle:
                assert handle.read() == expected, name

    def test_daemon_batch_answers_the_lock_then_recovers(
        self, fast_busy_timeout, daemon, tmp_path, layer
    ):
        from repro.server.client import SearchClient, ServerError

        path = str(tmp_path / "cache.sqlite")
        holder = hold_write_lock(path)
        try:
            with SearchClient(port=daemon.port) as client:
                with pytest.raises(ServerError) as error:
                    client.search("Ours", layer=layer, capacity_words=8192)
        finally:
            holder.close()
        assert error.value.status == 400
        assert_one_line_lock_error(error.value.message, path)
        with SearchClient(port=daemon.port) as client:
            served = client.search("Ours", layer=layer, capacity_words=8192)
        assert served == SearchEngine().try_search(get_dataflow("Ours"), layer, 8192)

    def test_runner_unit_fails_then_resume_completes_identically(self, tmp_path):
        from repro.orchestration.manifest import ManifestSpec, RunManifest
        from repro.orchestration.runner import Runner

        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("table1", "fig13", "fig16"),
                params={"fig13": {"capacities_kib": [16]}},
            )
        )
        reference = str(tmp_path / "reference")
        assert Runner(manifest, reference).run().complete

        out_dir = str(tmp_path / "run")
        path = os.path.join(out_dir, "cache", shard_cache_filename("auto", 1, 1))
        SearchCache(path=path).close()
        holder = hold_write_lock(path)
        try:
            report = Runner(manifest, out_dir).run()
        finally:
            holder.close()
        assert report.units_failed == 1  # fig13, the one search-based unit
        (failure,) = report.failures
        assert "locked" in failure["error"] and path in failure["error"]
        assert report.units_completed == 2  # table1 and fig16 need no engine

        resumed = Runner(manifest, out_dir).run()
        assert resumed.complete and resumed.units_completed == 1
        units = sorted(os.listdir(os.path.join(reference, "units")))
        assert sorted(os.listdir(os.path.join(out_dir, "units"))) == units
        for name in units:
            with open(os.path.join(reference, "units", name), "rb") as handle:
                expected = handle.read()
            with open(os.path.join(out_dir, "units", name), "rb") as handle:
                assert handle.read() == expected, name


def assert_one_line_full_error(message: str, path: str) -> None:
    assert "database or disk is full" in message and path in message
    assert "\n" not in message.rstrip("\n") and "Traceback" not in message


class TestFullDatabase:
    """A database that cannot grow (SQLITE_FULL) is one line naming the
    path, never SQLite's own "cannot rollback" or a traceback, and the
    store stays usable."""

    @staticmethod
    def pairs(layer, capacities) -> list:
        dataflow = get_dataflow("InR-A")
        return [(task_key(dataflow, layer, capacity), INFEASIBLE) for capacity in capacities]

    def test_store_batch_fails_in_one_line_and_rolls_back(self, full_sqlite, tmp_path, layer):
        path = str(tmp_path / "cache.sqlite")
        store = SqliteStore(path)
        kept = self.pairs(layer, [1])
        store.store(kept)  # fits in the pages the file already has
        with pytest.raises(ValueError) as error:
            store.store(self.pairs(layer, range(2, 400)))
        assert not isinstance(error.value, cache_module.CorruptCacheError)
        assert_one_line_full_error(str(error.value), path)
        assert not store._connection.in_transaction
        assert store.items() == kept  # the whole batch rolled back
        store.store(self.pairs(layer, [1]))  # and the store still writes
        assert len(store) == 1
        store.close()

    def test_flat_cli_exits_2_naming_the_path(self, full_sqlite, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        path = str(tmp_path / "cache.sqlite")
        argv = ["fig13", "--workload", "tiny", "--capacities", "16", "--cache-file", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert_one_line_full_error(err, path)
        monkeypatch.undo()  # room again: the same file takes the results
        assert main(argv) == 0

    def test_daemon_answers_the_batch_in_one_line_then_keeps_serving(
        self, full_sqlite, daemon, tmp_path, layer
    ):
        from repro.server.client import SearchClient, ServerError

        path = str(tmp_path / "cache.sqlite")
        reference = SearchEngine()
        with SearchClient(port=daemon.port) as client:
            served = client.search("Ours", layer=layer, capacity_words=8192)
            assert served == reference.try_search(get_dataflow("Ours"), layer, 8192)
            with pytest.raises(ServerError) as error:
                client.search_many("InR-A", layer=layer, capacities_words=list(range(100, 4100, 100)))
            assert error.value.status == 400
            assert_one_line_full_error(error.value.message, path)
            assert client.search("Ours", layer=layer, capacity_words=8192) == served
            assert client.healthz()


class TestShardCacheCrossCheck:
    """A sharded run's SQLite cache must warm the daemon's engine directly."""

    def test_run_shard_cache_is_served_as_hits(self, tmp_path):
        from repro.orchestration.cli import main as orchestration_main

        out_dir = str(tmp_path / "run")
        status = orchestration_main(
            [
                "run",
                "--out-dir",
                out_dir,
                "--workloads",
                "tiny",
                "--experiments",
                "fig13",
                "--capacities",
                "16",
                "64",
            ]
        )
        assert status == 0
        # Shard caches are named by the *spec* backend ("auto"), not the
        # resolved one -- the daemon must look the file up the same way.
        cache_file = os.path.join(out_dir, "cache", shard_cache_filename("auto", 1, 1))
        assert os.path.exists(cache_file)

        warm = SearchEngine(cache_path=cache_file)
        from repro.core.layer import kib_to_words
        from repro.workloads.registry import get_workload_spec

        reference = SearchEngine()
        for layer in get_workload_spec("tiny"):
            for kib in (16, 64):
                dataflow = get_dataflow("Ours")
                assert warm.try_search(
                    dataflow, layer, kib_to_words(kib)
                ) == reference.try_search(dataflow, layer, kib_to_words(kib))
        assert warm.stats.misses == 0, (
            "daemon-side engine missed on keys the sharded run cached -- "
            "key or schema drift between Runner and SearchEngine"
        )
        assert warm.stats.hits > 0
        warm.cache.close()
