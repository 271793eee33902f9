"""Parallel memoized search engine.

:class:`SearchEngine` deduplicates and memoizes the exhaustive tiling
searches behind every figure and fans independent tasks out across worker
processes.  Modules that accept an ``engine=None`` argument fall back to the
process-wide default engine (serial, in-memory cache), so casual callers get
memoization for free while the CLI can swap in a parallel or persistent
engine with :func:`set_default_engine`.
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

_default_engine = None


def get_default_engine() -> SearchEngine:
    """The process-wide engine used when callers pass ``engine=None``."""
    global _default_engine
    if _default_engine is None:
        _default_engine = SearchEngine()
    return _default_engine


def set_default_engine(engine: SearchEngine) -> SearchEngine:
    """Replace the process-wide default engine; returns the previous one."""
    global _default_engine
    previous = _default_engine
    _default_engine = engine
    return previous


__all__ = [
    "BACKENDS",
    "CacheStats",
    "INFEASIBLE",
    "SearchCache",
    "SearchEngine",
    "SqliteStore",
    "dataflow_signature",
    "fleet_cache_filename",
    "get_default_engine",
    "layer_signature",
    "resolve_backend",
    "resolve_workers",
    "set_default_engine",
    "shard_cache_filename",
    "signature_layer",
    "task_key",
    "validate_shard",
]
