"""Parallel memoized search engine.

:class:`SearchEngine` deduplicates and memoizes the exhaustive tiling
searches behind every figure and fans independent tasks out across worker
processes.  Every search runs on the engine its caller passes: the CLI, the
orchestrator and the daemon each build one and hand it down, and a driver
called without one (``engine=None``) builds a private :class:`SearchEngine`
for that call.
"""

from __future__ import annotations

from repro.engine.cache import (
    INFEASIBLE,
    CacheStats,
    SearchCache,
    SqliteStore,
    dataflow_signature,
    fleet_cache_filename,
    layer_signature,
    shard_cache_filename,
    signature_layer,
    task_key,
    validate_shard,
)
from repro.engine.engine import BACKENDS, SearchEngine, resolve_backend, resolve_workers

__all__ = [
    "BACKENDS",
    "CacheStats",
    "INFEASIBLE",
    "SearchCache",
    "SearchEngine",
    "SqliteStore",
    "dataflow_signature",
    "fleet_cache_filename",
    "layer_signature",
    "resolve_backend",
    "resolve_workers",
    "shard_cache_filename",
    "signature_layer",
    "task_key",
    "validate_shard",
]
