"""Request coalescing and micro-batching in front of one shared engine.

:class:`SearchService` is the concurrency heart of the daemon.  It owns the
process's single :class:`~repro.engine.SearchEngine` and turns many
concurrent ``search`` awaits into few engine invocations:

* **Coalescing** -- each distinct :func:`~repro.engine.task_key` has at
  most one in-flight future; a request arriving while "its" computation is
  already running (or queued) awaits that same future instead of submitting
  anything.  Such requests count in ``stats.coalesced`` and deliberately do
  *not* touch the hit/miss counters, preserving the engine invariant that
  ``hits + misses`` equals the number of tasks actually submitted.

* **Micro-batching** -- fresh keys queue until the event loop's next turn
  (or until ``max_batch`` of them are pending), so every search that
  arrives in the same turn -- a ``search_many`` gather, or requests read
  together off several connections -- goes to the engine as *one*
  ``search_tasks`` call, whose internal grouping turns
  same-``(dataflow, layer)`` tasks into a single ``search_many``-style grid
  evaluation on the NumPy backend.  Tasks that shared their flush group
  with at least one compatible neighbour count in ``stats.batched``.  No
  timer holds a request back: a warm key costs one engine-thread hop.

The engine itself is synchronous and not thread-safe, so every engine call
funnels through a dedicated single-thread executor; the event loop stays
free to accept and coalesce requests while a batch computes.  Results are
bit-identical to direct engine calls: the service returns exactly what
``search_tasks`` returns, re-labelled per requester the same way the engine
re-labels shape-equal layers.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from repro.engine import SearchEngine, task_key

#: Queue length that flushes at once instead of at the loop's next turn.
DEFAULT_MAX_BATCH = 256


class SearchService:
    """Coalescing, micro-batching async facade over one ``SearchEngine``."""

    def __init__(self, engine: SearchEngine, max_batch: int = DEFAULT_MAX_BATCH):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.max_batch = max_batch
        self._inflight = {}  # task_key -> asyncio.Future resolving to a result
        self._queue = []  # [(key, (dataflow, layer, capacity_words))] awaiting flush
        self._flush_handle = None  # flush scheduled for the loop's next turn, if any
        # One thread: the engine is synchronous and not thread-safe, so all
        # its work serializes here while the event loop keeps coalescing.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="search-engine"
        )

    # --------------------------------------------------------------- serving

    async def search(self, dataflow, layer, capacity_words: int):
        """Best result for one task, or ``None`` when no tiling fits.

        Bit-identical to ``engine.try_search`` -- including the re-label of
        shape-equal layers to *this* request's layer name.
        """
        key = task_key(dataflow, layer, capacity_words)
        future = self._inflight.get(key)
        if future is not None:
            self.engine.stats.coalesced += 1
        else:
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            self._queue.append((key, (dataflow, layer, capacity_words)))
            self._arm_flush()
        # shield: one client dropping its connection must not cancel a
        # computation other clients are awaiting.
        result = await asyncio.shield(future)
        if result is None:
            return None
        return replace(result, layer_name=layer.name, tiling=dict(result.tiling))

    async def search_many(self, dataflow, layer, capacities) -> list:
        """One result (or ``None``) per capacity, like ``engine.search_many``.

        Submitted concurrently, so the capacities queue in the same loop
        turn and execute as a single grid evaluation per ``(dataflow, layer)``.
        """
        return list(
            await asyncio.gather(
                *(self.search(dataflow, layer, capacity) for capacity in capacities)
            )
        )

    async def run_in_engine_thread(self, func, *args):
        """Run ``func(*args)`` on the engine thread (serialized with batches)."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, func, *args
        )

    # -------------------------------------------------------------- batching

    def _arm_flush(self) -> None:
        loop = asyncio.get_running_loop()
        if len(self._queue) >= self.max_batch:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self._flush()
        elif self._flush_handle is None:
            # call_soon runs after every callback already ready this turn,
            # so the searches those callbacks start join the same batch.
            self._flush_handle = loop.call_soon(self._on_next_turn)

    def _on_next_turn(self) -> None:
        self._flush_handle = None
        self._flush()

    def _flush(self) -> None:
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        groups = {}
        for key, _ in batch:
            # key = (dataflow signature, layer signature, capacity); the
            # first two components are the engine's grid-grouping identity.
            groups[key[:2]] = groups.get(key[:2], 0) + 1
        for size in groups.values():
            if size > 1:
                self.engine.stats.batched += size
        asyncio.get_running_loop().create_task(self._run_batch(batch))

    async def _run_batch(self, batch: list) -> None:
        tasks = [task for _, task in batch]
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.engine.search_tasks, tasks
            )
        except BaseException as error:  # noqa: BLE001 - fan the failure out
            for key, _ in batch:
                future = self._inflight.pop(key, None)
                if future is not None and not future.done():
                    future.set_exception(error)
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            return
        for (key, _), result in zip(batch, results):
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(result)

    # ----------------------------------------------------------- maintenance

    async def drain(self) -> None:
        """Wait until every queued and in-flight computation has resolved."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._flush()
        while self._inflight:
            await asyncio.wait(list(self._inflight.values()))

    def close(self) -> None:
        """Stop the engine thread (pending batches finish first)."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        self._executor.shutdown(wait=True)
