"""Search-as-a-service: a long-lived asyncio daemon in front of the engine.

Every flat CLI invocation pays full process startup, cache loading and pool
spin-up, and nothing can serve concurrent clients.  This package keeps one
:class:`~repro.engine.SearchEngine` resident behind a small handwritten
HTTP/1.1 server (stdlib only):

* identical in-flight ``(dataflow, layer, capacity)`` searches from
  concurrent requests **coalesce** into one computation via per-key futures
  (:class:`~repro.server.service.SearchService`);
* compatible pending requests (same ``(dataflow, layer)``, different
  capacities) that arrive in the same event-loop turn **micro-batch** into
  one ``search_many`` grid evaluation;
* the cache persists in a concurrency-safe **SQLite** store
  (:class:`~repro.engine.SqliteStore`) that survives restarts and is shared
  safely with orchestrator shards;
* orchestrated experiments (``run``/``resume``) are exposed as endpoints
  with **streaming** per-unit progress.

Start it with ``repro-experiments serve``; talk to it with
:class:`~repro.server.client.SearchClient`.  Responses are bit-identical to
direct engine calls -- the smoke harness (:mod:`repro.server.smoke`) and the
CI gates prove it under concurrency.
"""

from __future__ import annotations

from repro.server.client import SearchClient, ServerError
from repro.server.daemon import SearchDaemon
from repro.server.service import SearchService

__all__ = [
    "SearchClient",
    "SearchDaemon",
    "SearchService",
    "ServerError",
]
