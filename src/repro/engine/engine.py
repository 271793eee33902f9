"""Parallel, memoized driver for the exhaustive tiling searches.

``SearchEngine`` is the single entry point through which every consumer
(:mod:`repro.analysis.sweep`, the reports, the DSE, the CLI, the daemon and
the benchmarks) runs ``dataflow.search(layer, capacity)``.  There is no
process-wide engine: each caller holds the engine it searches with, and a
driver called without one builds a private engine for that call.  The
engine's ``backend`` is the one backend switch in the package; the tile
model, the Eyeriss tile search, the timing walk and the DSE enumeration
take their NumPy path whenever NumPy imports.  The engine:

* results are memoized behind a :class:`~repro.engine.cache.SearchCache`
  keyed by ``(dataflow signature, layer signature, capacity_words)``, with
  hit/miss statistics and an optional SQLite file that persists them;
* two interchangeable execution backends produce **bit-identical** results:
  the always-available scalar reference (``backend="python"``, the original
  pure-Python candidate loop) and a NumPy-vectorized backend
  (``backend="numpy"``) that materializes each dataflow's whole candidate
  grid as arrays and answers every missed capacity of a ``(dataflow,
  layer)`` pair with a single grid evaluation (see
  :mod:`repro.dataflows.grid`) -- and every missed task of the paper's
  dataflow on a layer, whatever its memory split, with one
  (:meth:`~repro.dataflows.ours.OptimalDataflow.traffic_grid_many`).
  ``backend="auto"`` (the default) picks NumPy when it is importable and
  falls back to the scalar path otherwise;
* independent tasks fan out across a :class:`~concurrent.futures.
  ProcessPoolExecutor` when ``workers > 1``; with ``workers=1`` everything
  runs serially in-process, so tests stay deterministic and debuggable.

Because the backends agree bit-for-bit, they also share cache entries: a
cache populated by the scalar backend serves hits to the vectorized one and
vice versa, on disk and in memory, under the same
:data:`~repro.engine.cache.SCHEMA_VERSION`.

Cached results are bit-identical to direct ``dataflow.search`` calls: the
engine stores the :class:`~repro.dataflows.base.DataflowResult` itself and
only re-labels the layer name when a shape-equal layer with a different name
hits the same entry.  A batch signs each distinct dataflow and layer object
once (:func:`~repro.engine.cache.task_keys`), not once per task.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from repro.core.traffic import TrafficBreakdown, sum_traffic
from repro.engine.cache import INFEASIBLE, CacheStats, SearchCache, task_keys

#: Accepted values of the ``backend`` option.
BACKENDS = ("auto", "numpy", "python")


def _execute_search(dataflow, layer, capacity_words):
    """Run one exhaustive search; map infeasibility to the cache sentinel.

    Module-level so :class:`ProcessPoolExecutor` can pickle it for workers.
    """
    try:
        return dataflow.search(layer, capacity_words)
    except ValueError:
        return INFEASIBLE


def _execute_grid(layer, requests):
    """Vectorized search of one grid group's ``(dataflow, capacity)`` requests.

    Returns one cache entry per request; module-level so a parallel engine
    can fan grid evaluations out across worker processes.
    """
    return [
        INFEASIBLE if result is None else result
        for result in requests[0][0].traffic_grid_many(layer, requests)
    ]


def resolve_workers(workers) -> int:
    """Normalise a worker-count option (``None``/``0`` mean "all cores")."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (or 0/None for all cores), got {workers}")
    return workers


def resolve_backend(backend) -> str:
    """Normalise a backend option to ``"numpy"`` or ``"python"``.

    ``"auto"`` (or ``None``) selects the vectorized backend when NumPy is
    importable and the scalar reference otherwise; asking for ``"numpy"``
    without NumPy installed is an error rather than a silent slowdown.
    """
    # Imported lazily: repro.dataflows.grid loads NumPy, which set-up paths
    # such as reproduce-all's (they import this package) must not.
    from repro.dataflows.grid import numpy_available

    if backend is None:
        backend = "auto"
    if backend not in BACKENDS:
        choices = ", ".join(repr(choice) for choice in BACKENDS)
        raise ValueError(f"backend must be one of {choices}, got {backend!r}")
    if backend == "auto":
        return "numpy" if numpy_available() else "python"
    if backend == "numpy" and not numpy_available():
        raise ValueError(
            "backend 'numpy' requested but numpy is not installed; "
            "use backend 'auto' or 'python'"
        )
    return backend


class SearchEngine:
    """Deduplicating, optionally parallel executor of tiling searches.

    Parameters
    ----------
    workers:
        Process count for batch searches.  ``1`` (the default) runs serially
        in-process; ``None`` or ``0`` use every core.
    cache:
        Set to ``False`` to disable memoization entirely (every task then
        counts as a miss and re-runs the search).
    cache_path:
        Optional SQLite file the cache persists to: a live write-through
        database, safe to share between concurrent processes.
    cache_max_entries:
        Optional LRU bound on the cache (see
        :class:`~repro.engine.cache.SearchCache`); ``None`` (the default)
        keeps the cache unbounded.
    backend:
        ``"auto"`` (default), ``"numpy"`` or ``"python"``.  Selects how
        missed searches execute; results are bit-identical either way, so
        the choice only affects speed (see the module docstring).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: bool = True,
        cache_path: str = None,
        backend: str = "auto",
        cache_max_entries: int = None,
    ):
        self.workers = resolve_workers(workers)
        self.backend = resolve_backend(backend)
        self.cache = (
            SearchCache(path=cache_path, max_entries=cache_max_entries) if cache else None
        )
        self.stats = CacheStats()

    # ----------------------------------------------------------- single tasks

    def try_search(self, dataflow, layer, capacity_words: int):
        """Best result for one task, or ``None`` when no tiling fits."""
        return self.search_tasks([(dataflow, layer, capacity_words)])[0]

    def search(self, dataflow, layer, capacity_words: int):
        """Best result for one task; raises ``ValueError`` when nothing fits."""
        result = self.try_search(dataflow, layer, capacity_words)
        if result is None:
            raise ValueError(
                f"{dataflow.name}: no tiling of layer {layer.name!r} fits in "
                f"{capacity_words} on-chip words"
            )
        return result

    # ------------------------------------------------------------ batch tasks

    def search_many(self, layer, capacities, dataflow) -> list:
        """Best result of ``dataflow`` on ``layer`` for *each* capacity.

        The multi-capacity twin of :meth:`search`: returns one
        :class:`~repro.dataflows.base.DataflowResult` (or ``None`` when no
        tiling fits) per entry of ``capacities``, in order.  Results are
        bit-identical to calling :meth:`search` per capacity and share the
        same cache entries; on the NumPy backend every capacity missed in
        the cache is answered by a *single* vectorized evaluation of the
        dataflow's candidate grid, so a whole Fig. 13 memory sweep costs one
        grid evaluation per (dataflow, layer) pair.
        """
        return self.search_tasks(
            [(dataflow, layer, capacity_words) for capacity_words in capacities]
        )

    def search_tasks(self, tasks) -> list:
        """Run ``(dataflow, layer, capacity_words)`` tasks, order-preserving.

        Duplicate tasks (and tasks already cached) are searched only once;
        infeasible tasks yield ``None`` in the result list.
        """
        # Imported here so that importing the engine (as repro.workloads and
        # repro.arch do, for the signatures) loads no dataflow model.
        from repro.dataflows.base import DataflowResult

        tasks = list(tasks)
        keys = task_keys(tasks)
        # Identical tasks in this batch are looked up once.  Hits are
        # resolved before any store: under an LRU-bounded cache, storing
        # this batch's fresh entries could evict an entry that was counted
        # as a hit before it is read back.  A pending key maps to None until
        # its search fills it in.
        distinct = {}
        for key, task in zip(keys, tasks):
            distinct.setdefault(key, task)
        if self.cache is None:
            entries = dict.fromkeys(distinct)
        else:
            # One lookup call, so a bounded SQLite cache refreshes every
            # hit's recency in one transaction.
            entries = dict(zip(distinct, self.cache.get_many(distinct)))
        pending = {key: distinct[key] for key, entry in entries.items() if entry is None}
        self.stats.misses += len(pending)
        self.stats.hits += len(tasks) - len(pending)

        fresh = self._execute(pending)
        if self.cache is not None and fresh:
            # One SQLite transaction for the whole batch.
            self.cache.store_many(fresh.items())
        entries.update(fresh)

        results = []
        for key, (_, layer, _) in zip(keys, tasks):
            entry = entries[key]
            if entry == INFEASIBLE:
                results.append(None)
            else:
                # Re-label shape-equal layers and detach the mutable tiling
                # dict so callers can never corrupt the cached entry.
                results.append(
                    DataflowResult(
                        entry.dataflow, layer.name, entry.capacity_words, dict(entry.tiling), entry.traffic
                    )
                )
        return results

    def _execute(self, pending: dict) -> dict:
        """Run the deduplicated ``{key: task}`` map through the backend.

        On the NumPy backend, grid-capable tasks are grouped by their
        ``(dataflow, layer)`` signatures so each group costs one vectorized
        grid evaluation regardless of how many capacities it covers; a
        dataflow whose splits share one evaluation (``grid_shares_splits``,
        the constrained ``Ours`` family) groups by its name instead, so the
        tasks of every split on a layer share one.  Everything else (and the
        whole map, on the scalar backend) runs through the per-task
        reference search -- as does a group whose layer is too large for
        the grid's exact ``int64`` arithmetic (:func:`~repro.dataflows.grid.
        int64_safe`).
        """
        # Imported here: repro.dataflows.grid loads NumPy (see resolve_backend).
        from repro.dataflows.grid import int64_safe

        if not pending:
            return {}
        grid_groups = {}
        scalar_items = []
        for key, task in pending.items():
            dataflow = task[0]
            supports_grid = getattr(dataflow, "supports_grid", None)
            if self.backend == "numpy" and supports_grid is not None and supports_grid():
                # key = (dataflow signature, layer signature, capacity); a
                # signature is a tuple that starts with the dataflow's name.
                family = key[0][0] if dataflow.grid_shares_splits else key[0]
                grid_groups.setdefault((family, key[1]), []).append((key, task))
            else:
                scalar_items.append((key, task))
        groups = []
        for group in grid_groups.values():
            if int64_safe(group[0][1][1]):
                groups.append(group)
            else:
                scalar_items.extend(group)
        entries = self._execute_scalar(scalar_items)
        entries.update(self._execute_grids(groups))
        return entries

    def _execute_scalar(self, items: list) -> dict:
        """Per-task reference searches, serially or across the process pool."""
        if not items:
            return {}
        if self.workers == 1 or len(items) == 1:
            return {
                key: _execute_search(dataflow, layer, capacity)
                for key, (dataflow, layer, capacity) in items
            }
        max_workers = min(self.workers, len(items))
        chunksize = max(1, len(items) // (max_workers * 4))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            entries = pool.map(
                _execute_search,
                [task[0] for _, task in items],
                [task[1] for _, task in items],
                [task[2] for _, task in items],
                chunksize=chunksize,
            )
            return {key: entry for (key, _), entry in zip(items, entries)}

    def _execute_grids(self, groups: list) -> dict:
        """Vectorized grid evaluations, one per group of :meth:`_execute`."""
        if not groups:
            return {}
        self.stats.grid_evaluations += len(groups)
        layers = [group[0][1][1] for group in groups]
        requests = [[(task[0], task[2]) for _, task in group] for group in groups]
        if self.workers == 1 or len(groups) == 1:
            batches = list(map(_execute_grid, layers, requests))
        else:
            with ProcessPoolExecutor(max_workers=min(self.workers, len(groups))) as pool:
                batches = list(pool.map(_execute_grid, layers, requests))
        return {
            key: entry
            for group, batch in zip(groups, batches)
            for (key, _), entry in zip(group, batch)
        }

    # -------------------------------------------------- higher-level searches

    def found_minimum(self, layer, capacity_words: int, dataflows=None):
        """Best (dataflow, tiling) pair for one layer under ``capacity_words``.

        Dataflows with no feasible tiling are skipped, not errors; a
        ``ValueError`` is raised only when *every* candidate is infeasible.
        """
        if dataflows is None:
            dataflows = self._all_dataflows()
        results = self.search_tasks(
            [(dataflow, layer, capacity_words) for dataflow in dataflows]
        )
        feasible = [result for result in results if result is not None]
        if not feasible:
            raise ValueError(
                f"no dataflow can execute layer {layer.name!r} within "
                f"{capacity_words} words"
            )
        return min(feasible, key=lambda result: result.total)

    def network_traffic(self, layers, capacity_words: int, dataflow=None) -> TrafficBreakdown:
        """Network-level DRAM traffic (found minimum unless ``dataflow`` given).

        ``layers`` is a layer list or a registered workload name/spec
        (``"vgg16"``, ``"mobilenet_v1:2"``).
        """
        layers = self._resolve_layers(layers)
        if dataflow is not None:
            return sum_traffic(
                [result.traffic for result in self.per_layer_results(layers, capacity_words, dataflow)]
            )
        dataflows = self._all_dataflows()
        # One batch over the whole (layer x dataflow) grid so a parallel
        # engine fans every search out at once.
        results = self.search_tasks(
            [
                (candidate, layer, capacity_words)
                for layer in layers
                for candidate in dataflows
            ]
        )
        per_layer = []
        for index, layer in enumerate(layers):
            window = results[index * len(dataflows) : (index + 1) * len(dataflows)]
            feasible = [result for result in window if result is not None]
            if not feasible:
                raise ValueError(
                    f"no dataflow can execute layer {layer.name!r} within "
                    f"{capacity_words} words"
                )
            per_layer.append(min(feasible, key=lambda result: result.total).traffic)
        return sum_traffic(per_layer)

    def per_layer_results(self, layers, capacity_words: int, dataflow) -> list:
        """Per-layer :class:`DataflowResult` list for one dataflow (all must fit)."""
        layers = self._resolve_layers(layers)
        results = self.search_tasks([(dataflow, layer, capacity_words) for layer in layers])
        for layer, result in zip(layers, results):
            if result is None:
                raise ValueError(
                    f"{dataflow.name}: no tiling of layer {layer.name!r} fits in "
                    f"{capacity_words} on-chip words"
                )
        return results

    @staticmethod
    def _all_dataflows():
        # Imported lazily, like DataflowResult in search_tasks.
        from repro.dataflows.registry import ALL_DATAFLOWS

        return ALL_DATAFLOWS

    @staticmethod
    def _resolve_layers(layers) -> list:
        # Lazy for the same reason: repro.workloads is imported by consumers
        # that already depend on the engine.
        from repro.workloads.registry import resolve_layers

        return resolve_layers(layers)

    # ------------------------------------------------------------ maintenance

    def save(self) -> int:
        """Checkpoint the persistent cache; returns its entry count."""
        if self.cache is None:
            return 0
        return self.cache.save()

    def clear(self) -> None:
        """Drop all cached entries and reset the statistics."""
        if self.cache is not None:
            self.cache.clear()
        self.stats.reset()

    def __repr__(self) -> str:
        cached = len(self.cache) if self.cache is not None else "off"
        return (
            f"<SearchEngine workers={self.workers} backend={self.backend} "
            f"cache={cached} {self.stats}>"
        )
