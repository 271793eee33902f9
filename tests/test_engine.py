"""Tests for the parallel memoized search engine (repro.engine)."""

import math

import pytest

from repro.analysis.sweep import memory_sweep, words_to_mb
from repro.core.layer import ConvLayer, kib_to_words
from repro.core.lower_bound import practical_lower_bound
from repro.dataflows.grid import numpy_available
from repro.dataflows.ours import OptimalDataflow
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow
from repro.engine import (
    SearchEngine,
    dataflow_signature,
    layer_signature,
    resolve_backend,
    resolve_workers,
    signature_layer,
    task_key,
)

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the vectorized backend requires numpy"
)


@pytest.fixture
def layer():
    return ConvLayer("l", 2, 32, 28, 28, 64, 3, 3, stride=1, padding=1)


@pytest.fixture
def small_layers():
    return [
        ConvLayer("a", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1),
        ConvLayer("b", 1, 16, 14, 14, 16, 3, 3, stride=1, padding=1),
        ConvLayer("c", 2, 8, 10, 10, 8, 3, 3, stride=2, padding=0),
    ]


class TestSignatures:
    def test_layer_signature_ignores_name(self, layer):
        twin = ConvLayer("other-name", 2, 32, 28, 28, 64, 3, 3, stride=1, padding=1)
        assert layer_signature(layer) == layer_signature(twin)

    def test_layer_signature_distinguishes_shapes(self, layer):
        other = ConvLayer("l", 2, 32, 28, 28, 64, 3, 3, stride=2, padding=1)
        assert layer_signature(layer) != layer_signature(other)

    def test_signature_layer_inverts_layer_signature(self, layer):
        tagged = ConvLayer("kv", 2, 32, 28, 14, 64, 3, 1, stride=2, padding=1, weight_kind="kv_cache")
        for original in (layer, tagged):
            rebuilt = signature_layer(layer_signature(original))
            assert layer_signature(rebuilt) == layer_signature(original)
            assert (rebuilt.out_height, rebuilt.out_width) == (original.out_height, original.out_width)

    def test_dataflow_signature_includes_constructor_state(self):
        free = OptimalDataflow()
        pinned = OptimalDataflow(psum_words=4096, input_buffer_words=512, weight_buffer_words=64)
        assert dataflow_signature(free) != dataflow_signature(pinned)
        assert dataflow_signature(free)[0] == "Ours"

    def test_task_key_differs_by_capacity(self, layer):
        ours = get_dataflow("Ours")
        assert task_key(ours, layer, 8192) != task_key(ours, layer, 16384)

    def test_task_key_accepts_integral_floats_only(self, layer):
        ours = get_dataflow("Ours")
        assert task_key(ours, layer, 8192.0) == task_key(ours, layer, 8192)
        with pytest.raises(ValueError):
            task_key(ours, layer, 8192.5)

    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestCacheAccounting:
    def test_hit_miss_accounting_single(self, layer):
        engine = SearchEngine()
        engine.search(get_dataflow("Ours"), layer, 8192)
        assert engine.stats.misses == 1 and engine.stats.hits == 0
        engine.search(get_dataflow("Ours"), layer, 8192)
        assert engine.stats.misses == 1 and engine.stats.hits == 1
        assert engine.stats.hit_rate == pytest.approx(0.5)

    def test_batch_duplicates_count_as_hits(self, layer):
        engine = SearchEngine()
        ours = get_dataflow("Ours")
        results = engine.search_tasks([(ours, layer, 8192)] * 4)
        assert engine.stats.misses == 1 and engine.stats.hits == 3
        assert all(result == results[0] for result in results)

    def test_lookups_invariant(self, small_layers):
        engine = SearchEngine()
        tasks = [(d, l, 16384) for d in ALL_DATAFLOWS[:3] for l in small_layers]
        engine.search_tasks(tasks)
        engine.search_tasks(tasks)
        assert engine.stats.lookups == 2 * len(tasks)
        assert engine.stats.misses == len(tasks)

    def test_shape_equal_layers_share_entries(self, layer):
        engine = SearchEngine()
        twin = ConvLayer("twin", 2, 32, 28, 28, 64, 3, 3, stride=1, padding=1)
        first = engine.search(get_dataflow("InR-C"), layer, 8192)
        second = engine.search(get_dataflow("InR-C"), twin, 8192)
        assert engine.stats.misses == 1 and engine.stats.hits == 1
        assert second.layer_name == "twin"
        assert second.traffic == first.traffic
        assert second.tiling == first.tiling

    def test_no_cache_engine_counts_only_misses(self, layer):
        engine = SearchEngine(cache=False)
        engine.search(get_dataflow("Ours"), layer, 8192)
        engine.search(get_dataflow("Ours"), layer, 8192)
        assert engine.stats.misses == 2 and engine.stats.hits == 0
        assert engine.cache is None

    def test_clear_resets_cache_and_stats(self, layer):
        engine = SearchEngine()
        engine.search(get_dataflow("Ours"), layer, 8192)
        engine.clear()
        assert engine.stats.lookups == 0
        assert len(engine.cache) == 0

    def test_cached_tiling_is_detached(self, layer):
        engine = SearchEngine()
        first = engine.search(get_dataflow("Ours"), layer, 8192)
        first.tiling["b"] = -999
        second = engine.search(get_dataflow("Ours"), layer, 8192)
        assert second.tiling["b"] != -999


class TestInfeasibility:
    def test_try_search_returns_none_and_caches(self):
        engine = SearchEngine()
        layer = ConvLayer("l", 1, 8, 20, 20, 16, 3, 3)
        wtrb = get_dataflow("WtR-B")
        assert engine.try_search(wtrb, layer, 0) is None
        assert engine.try_search(wtrb, layer, 0) is None
        assert engine.stats.misses == 1 and engine.stats.hits == 1

    def test_search_raises_value_error(self):
        engine = SearchEngine()
        layer = ConvLayer("l", 1, 8, 20, 20, 16, 3, 3)
        with pytest.raises(ValueError):
            engine.search(get_dataflow("WtR-B"), layer, 0)

    def test_found_minimum_skips_infeasible_dataflows(self):
        engine = SearchEngine()
        # At 400 words an 11x11 kernel leaves WtR-B with no feasible tiling;
        # the infeasible candidate is skipped rather than raising.
        big_kernel = ConvLayer("big-kernel", 1, 8, 32, 32, 8, 11, 11)
        result = engine.found_minimum(
            big_kernel, 400, dataflows=[get_dataflow("WtR-B"), get_dataflow("Ours")]
        )
        assert result.dataflow == "Ours"

    def test_found_minimum_raises_when_nothing_fits(self):
        engine = SearchEngine()
        layer = ConvLayer("l", 1, 8, 20, 20, 16, 3, 3)
        with pytest.raises(ValueError):
            engine.found_minimum(layer, 0, dataflows=ALL_DATAFLOWS[1:3])


class TestParallelParity:
    def test_parallel_matches_serial(self, small_layers):
        tasks = [(d, l, 16384) for d in ALL_DATAFLOWS for l in small_layers]
        serial = SearchEngine(workers=1).search_tasks(tasks)
        parallel = SearchEngine(workers=2).search_tasks(tasks)
        assert serial == parallel

    def test_parallel_memory_sweep_identical(self, small_layers):
        serial = memory_sweep(
            capacities_kib=[16, 32], layers=small_layers, engine=SearchEngine(workers=1)
        )
        parallel = memory_sweep(
            capacities_kib=[16, 32], layers=small_layers, engine=SearchEngine(workers=2)
        )
        for name, values in serial["series"].items():
            for left, right in zip(values, parallel["series"][name]):
                assert (math.isnan(left) and math.isnan(right)) or left == right

    def test_parallel_engine_still_caches(self, small_layers):
        engine = SearchEngine(workers=2)
        tasks = [(d, l, 16384) for d in ALL_DATAFLOWS[:2] for l in small_layers]
        engine.search_tasks(tasks)
        engine.search_tasks(tasks)
        assert engine.stats.misses == len(tasks)
        assert engine.stats.hits == len(tasks)


class TestPersistence:
    def test_save_and_reload(self, tmp_path, layer):
        path = str(tmp_path / "cache.sqlite")
        cold = SearchEngine(cache_path=path)
        result = cold.search(get_dataflow("Ours"), layer, 8192)
        assert cold.save() == 1

        warm = SearchEngine(cache_path=path)
        reloaded = warm.search(get_dataflow("Ours"), layer, 8192)
        assert warm.stats.misses == 0 and warm.stats.hits == 1
        assert reloaded == result

    def test_save_without_cache_is_noop(self):
        assert SearchEngine(cache=False).save() == 0

    def test_corrupt_cache_file_degrades_to_cold(self, tmp_path, layer):
        path = tmp_path / "cache.sqlite"
        path.write_text("not a database")
        with pytest.warns(UserWarning, match="starting cold"):
            engine = SearchEngine(cache_path=str(path))
        engine.search(get_dataflow("Ours"), layer, 8192)
        assert engine.stats.misses == 1
        # The corrupt file was replaced by a working database.
        engine.save()
        warm = SearchEngine(cache_path=str(path))
        warm.search(get_dataflow("Ours"), layer, 8192)
        assert warm.stats.hits == 1

    def test_version_mismatched_cache_is_rejected(self, tmp_path, layer):
        import sqlite3

        path = str(tmp_path / "cache.sqlite")
        cold = SearchEngine(cache_path=path)
        cold.search(get_dataflow("Ours"), layer, 8192)
        cold.cache.close()
        # Rewrite the meta rows as if an older package version wrote them.
        connection = sqlite3.connect(path)
        with connection:
            connection.execute("UPDATE meta SET value = '0.0.0' WHERE name = 'version'")
        connection.close()

        with pytest.warns(UserWarning, match="has version"):
            stale = SearchEngine(cache_path=path)
        stale.search(get_dataflow("Ours"), layer, 8192)
        assert stale.stats.misses == 1, "stale entries must not be served"

    def test_infeasible_entries_persist(self, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        layer = ConvLayer("l", 1, 8, 20, 20, 16, 3, 3)
        cold = SearchEngine(cache_path=path)
        assert cold.try_search(get_dataflow("WtR-B"), layer, 0) is None
        cold.save()
        warm = SearchEngine(cache_path=path)
        assert warm.try_search(get_dataflow("WtR-B"), layer, 0) is None
        assert warm.stats.misses == 0


class TestBackendResolution:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            SearchEngine(backend="fortran")

    def test_auto_resolves_to_an_executable_backend(self):
        assert resolve_backend("auto") in ("numpy", "python")
        assert resolve_backend(None) == resolve_backend("auto")
        assert SearchEngine().backend == resolve_backend("auto")

    def test_python_backend_always_available(self):
        assert SearchEngine(backend="python").backend == "python"

    @requires_numpy
    def test_numpy_backend_selected_when_available(self):
        assert resolve_backend("auto") == "numpy"
        assert SearchEngine(backend="numpy").backend == "numpy"

    def test_repr_names_the_backend(self):
        assert "backend=python" in repr(SearchEngine(backend="python"))


class TestSearchManyCapacities:
    """The multi-capacity search_many(layer, capacities, dataflow) API."""

    CAPACITIES = [512, 4096, 16384, 0]

    def test_matches_per_capacity_search(self, layer):
        engine = SearchEngine(backend="python")
        dataflow = get_dataflow("InR-A")
        results = engine.search_many(layer, self.CAPACITIES, dataflow)
        assert len(results) == len(self.CAPACITIES)
        for capacity, result in zip(self.CAPACITIES, results):
            assert result == engine.try_search(dataflow, layer, capacity)

    @requires_numpy
    def test_numpy_backend_matches_python_backend(self, layer):
        for dataflow in ALL_DATAFLOWS:
            vectorized = SearchEngine(backend="numpy").search_many(
                layer, self.CAPACITIES, dataflow
            )
            scalar = SearchEngine(backend="python").search_many(
                layer, self.CAPACITIES, dataflow
            )
            assert vectorized == scalar

    def test_counts_one_lookup_per_capacity(self, layer):
        engine = SearchEngine()
        engine.search_many(layer, self.CAPACITIES, get_dataflow("Ours"))
        assert engine.stats.lookups == len(self.CAPACITIES)
        assert engine.stats.misses == len(self.CAPACITIES)
        engine.search_many(layer, self.CAPACITIES, get_dataflow("Ours"))
        assert engine.stats.hits == len(self.CAPACITIES)


class TestGridEvaluationStats:
    """grid_evaluations reports the vectorized work behind sweep paths."""

    @requires_numpy
    def test_search_many_costs_one_grid_evaluation(self, layer):
        engine = SearchEngine(backend="numpy")
        engine.search_many(layer, [512, 4096, 16384], get_dataflow("InR-A"))
        assert engine.stats.grid_evaluations == 1
        assert engine.stats.misses == 3
        # Cached capacities trigger no further grid work.
        engine.search_many(layer, [512, 4096, 16384], get_dataflow("InR-A"))
        assert engine.stats.grid_evaluations == 1
        assert engine.stats.hits == 3

    @requires_numpy
    def test_memory_sweep_costs_one_evaluation_per_pair(self, small_layers):
        engine = SearchEngine(backend="numpy")
        memory_sweep(capacities_kib=[4, 16, 32], layers=small_layers, engine=engine)
        pairs = len(ALL_DATAFLOWS) * len(small_layers)
        assert engine.stats.grid_evaluations == pairs
        assert engine.stats.lookups == pairs * 3
        # A second sweep is served entirely from the cache.
        memory_sweep(capacities_kib=[4, 16, 32], layers=small_layers, engine=engine)
        assert engine.stats.grid_evaluations == pairs
        assert engine.stats.hits == pairs * 3

    @requires_numpy
    def test_ours_splits_share_one_grid_evaluation_per_layer(self, small_layers):
        splits = [
            OptimalDataflow(psum_words=psum, input_buffer_words=igbuf, weight_buffer_words=256)
            for psum in (1024, 2048, 4096)
            for igbuf in (256, 512)
        ]
        tasks = [
            (dataflow, layer, capacity)
            for dataflow in splits + [get_dataflow("Ours")]
            for layer in small_layers
            for capacity in (4096, 8192)
        ]
        engine = SearchEngine(backend="numpy")
        results = engine.search_tasks(tasks)
        assert engine.stats.grid_evaluations == len(small_layers)
        assert engine.stats.misses == len(tasks)
        assert results == SearchEngine(backend="python").search_tasks(tasks)
        assert [result.dataflow for result in results if result] == ["Ours"] * sum(map(bool, results))

    @pytest.mark.parametrize("backend", ["python", pytest.param("numpy", marks=requires_numpy)])
    def test_fractional_capacity_raises_through_search_tasks(self, layer, backend):
        engine = SearchEngine(backend=backend)
        tasks = [(get_dataflow("Ours"), layer, 8192), (get_dataflow("InR-A"), layer, 8192.5)]
        with pytest.raises(ValueError, match="whole word count"):
            engine.search_tasks(tasks)
        assert engine.stats.lookups == 0 and len(engine.cache) == 0

    def test_python_backend_reports_zero_grid_evaluations(self, layer):
        engine = SearchEngine(backend="python")
        engine.search_many(layer, [512, 4096], get_dataflow("InR-A"))
        assert engine.stats.grid_evaluations == 0
        assert engine.stats.misses == 2

    def test_stats_surface_grid_evaluations(self):
        engine = SearchEngine()
        assert "grid_evaluations" in engine.stats.as_dict()
        assert "grid evaluations" in str(engine.stats)
        engine.stats.grid_evaluations = 7
        engine.stats.reset()
        assert engine.stats.grid_evaluations == 0


@requires_numpy
class TestBackendCacheParity:
    """Backends share cache entries: same keys, same SCHEMA_VERSION."""

    CAPACITIES = [512, 4096, 16384]

    def _tasks(self, layers):
        return [
            (dataflow, layer, capacity)
            for dataflow in ALL_DATAFLOWS
            for layer in layers
            for capacity in self.CAPACITIES
        ]

    def test_scalar_populated_cache_serves_vectorized_engine(self, small_layers):
        scalar = SearchEngine(backend="python")
        expected = scalar.search_tasks(self._tasks(small_layers))

        vectorized = SearchEngine(backend="numpy")
        vectorized.cache = scalar.cache  # share the store, not a copy
        results = vectorized.search_tasks(self._tasks(small_layers))
        assert vectorized.stats.misses == 0
        assert vectorized.stats.grid_evaluations == 0
        assert results == expected

    def test_vectorized_populated_cache_serves_scalar_engine(self, small_layers):
        vectorized = SearchEngine(backend="numpy")
        expected = vectorized.search_tasks(self._tasks(small_layers))

        scalar = SearchEngine(backend="python")
        scalar.cache = vectorized.cache
        results = scalar.search_tasks(self._tasks(small_layers))
        assert scalar.stats.misses == 0
        assert results == expected

    def test_cache_parity_across_disk_round_trip(self, tmp_path, small_layers):
        path = str(tmp_path / "cache.sqlite")
        scalar = SearchEngine(backend="python", cache_path=path)
        expected = scalar.search_tasks(self._tasks(small_layers))
        scalar.save()

        vectorized = SearchEngine(backend="numpy", cache_path=path)
        results = vectorized.search_tasks(self._tasks(small_layers))
        assert vectorized.stats.misses == 0 and vectorized.stats.grid_evaluations == 0
        assert results == expected

        # And the reverse direction through a fresh file.
        reverse_path = str(tmp_path / "reverse.sqlite")
        warm_vectorized = SearchEngine(backend="numpy", cache_path=reverse_path)
        warm_vectorized.search_tasks(self._tasks(small_layers))
        warm_vectorized.save()
        warm_scalar = SearchEngine(backend="python", cache_path=reverse_path)
        assert warm_scalar.search_tasks(self._tasks(small_layers)) == expected
        assert warm_scalar.stats.misses == 0

    def test_backends_produce_identical_cache_keys(self, layer):
        scalar = SearchEngine(backend="python")
        vectorized = SearchEngine(backend="numpy")
        tasks = [(dataflow, layer, 8192) for dataflow in ALL_DATAFLOWS]
        scalar.search_tasks(tasks)
        vectorized.search_tasks(tasks)
        assert set(scalar.cache._entries) == set(vectorized.cache._entries)


class TestMemorySweepRegression:
    """The engine-backed sweep must equal the pre-refactor per-layer totals."""

    @pytest.fixture(scope="class")
    def subset_layers(self, vgg_layers):
        return [vgg_layers[1], vgg_layers[7], vgg_layers[11]]

    def test_equals_pre_refactor_totals(self, subset_layers):
        capacities_kib = [32, 66.5, 128]
        sweep = memory_sweep(
            capacities_kib=capacities_kib,
            layers=subset_layers,
            engine=SearchEngine(),
        )
        # Pre-refactor reference: direct dataflow.search calls, accumulated
        # per dataflow in layer order (the seed implementation's loop).
        for index, capacity_kib in enumerate(capacities_kib):
            capacity_words = kib_to_words(capacity_kib)
            bound = sum(
                practical_lower_bound(layer, capacity_words) for layer in subset_layers
            )
            assert sweep["series"]["Lower bound"][index] == words_to_mb(bound) / 1024.0
            per_layer_best = [float("inf")] * len(subset_layers)
            for dataflow in ALL_DATAFLOWS:
                totals = 0.0
                feasible = True
                for layer_index, layer in enumerate(subset_layers):
                    try:
                        layer_total = dataflow.search(layer, capacity_words).total
                    except ValueError:
                        feasible = False
                        continue
                    totals += layer_total
                    per_layer_best[layer_index] = min(
                        per_layer_best[layer_index], layer_total
                    )
                expected = words_to_mb(totals) / 1024.0 if feasible else float("nan")
                actual = sweep["series"][dataflow.name][index]
                if math.isnan(expected):
                    assert math.isnan(actual)
                else:
                    assert actual == expected
            minimum = sum(value for value in per_layer_best if value != float("inf"))
            assert sweep["series"]["Found minimum"][index] == words_to_mb(minimum) / 1024.0

    def test_engine_results_match_direct_search(self, subset_layers):
        engine = SearchEngine()
        capacity_words = kib_to_words(66.5)
        for dataflow in (get_dataflow("Ours"), get_dataflow("InR-C")):
            for layer in subset_layers:
                direct = dataflow.search(layer, capacity_words)
                via_engine = engine.search(dataflow, layer, capacity_words)
                assert via_engine == direct


class TestLruEviction:
    """Bounded caches: LRU eviction with eviction-count statistics.

    The run orchestrator's shard caches persist (and reload) across resumes
    and would otherwise grow without bound; ``max_entries`` caps them.
    """

    def test_store_beyond_limit_evicts_the_oldest(self):
        from repro.engine import SearchCache

        cache = SearchCache(max_entries=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        cache.store(("c",), 3)
        assert len(cache) == 2
        assert ("a",) not in cache
        assert cache.get(("b",)) == 2 and cache.get(("c",)) == 3
        assert cache.evictions == 1

    def test_hits_refresh_recency(self):
        from repro.engine import SearchCache

        cache = SearchCache(max_entries=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        assert cache.get(("a",)) == 1  # "a" is now the youngest entry
        cache.store(("c",), 3)
        assert ("b",) not in cache and ("a",) in cache

    def test_restore_of_existing_key_refreshes_without_evicting(self):
        from repro.engine import SearchCache

        cache = SearchCache(max_entries=2)
        cache.store(("a",), 1)
        cache.store(("b",), 2)
        cache.store(("a",), 10)  # refresh, not insert
        assert len(cache) == 2 and cache.evictions == 0
        cache.store(("c",), 3)
        assert ("b",) not in cache
        assert cache.get(("a",)) == 10

    def test_invalid_limit_rejected(self):
        from repro.engine import SearchCache

        with pytest.raises(ValueError, match="max_entries"):
            SearchCache(max_entries=0)

    def test_reopen_with_a_smaller_limit_trims_at_the_first_store(self, tmp_path):
        from repro.engine import INFEASIBLE, SearchCache

        path = str(tmp_path / "cache.sqlite")
        engine = SearchEngine(cache_path=path)
        layer = ConvLayer("l", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1)
        dataflow = get_dataflow("Ours")
        for capacity in (4096, 8192, 16384):
            engine.search(dataflow, layer, capacity)
        assert engine.save() == 3
        engine.cache.close()
        bounded = SearchCache(path=path, max_entries=2)
        bounded.store(task_key(dataflow, layer, 32768), INFEASIBLE)
        assert len(bounded) == 2
        assert task_key(dataflow, layer, 32768) in bounded  # the youngest stays
        assert bounded.evictions == 2
        bounded.close()

    def test_engine_results_are_bit_identical_under_tiny_limit(self, small_layers):
        """A pathologically small cache changes cost, never results."""
        dataflow = get_dataflow("Ours")
        capacities = [4096, 8192, 16384, 8192, 4096]
        reference = SearchEngine()
        tiny = SearchEngine(cache_max_entries=1)
        for layer in small_layers:
            assert tiny.search_many(layer, capacities, dataflow) == reference.search_many(
                layer, capacities, dataflow
            )
        assert tiny.cache.evictions > 0

    def test_batch_hits_survive_same_batch_eviction(self, small_layers):
        """An entry counted as a hit must be served even if the batch's own
        fresh stores evict it before the results are assembled."""
        dataflow = get_dataflow("Ours")
        layer = small_layers[0]
        engine = SearchEngine(cache_max_entries=1)
        warm = engine.search(dataflow, layer, 4096)
        # One batch: a cache hit (4096) plus enough misses to wipe a
        # single-entry cache several times over.
        results = engine.search_many(layer, [4096, 8192, 16384, 32768], dataflow)
        assert results[0] == warm
        assert engine.stats.hits >= 1
