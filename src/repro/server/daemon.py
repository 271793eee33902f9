"""The asyncio HTTP/1.1 daemon: one shared engine serving concurrent clients.

The server is handwritten over ``asyncio`` streams -- no web framework, no
new runtime dependency -- because the protocol surface is deliberately tiny:
JSON request bodies, JSON responses, and chunked NDJSON for streaming
experiment progress.  Keep-alive is supported (the benchmark client reuses
connections); request parsing enforces small hard limits so a malformed
client cannot balloon memory, and a connection whose next request does not
arrive within :data:`READ_TIMEOUT_S` is closed, so idle and half-open
clients cannot hold sockets forever.

Endpoints
---------

======================  ====  =====================================================
``/healthz``            GET   liveness: version, backend, uptime, cache size
``/stats``              GET   engine counters (hits/misses/coalesced/batched/...)
``/workloads``          GET   registered workload names
``/dataflows``          GET   registered dataflow names
``/search``             POST  one ``(dataflow, layer, capacity)`` search
``/search-many``        POST  one dataflow+layer over many capacities
``/experiments/run``    POST  orchestrated run; streams per-unit NDJSON progress
``/experiments/resume`` POST  resume an orchestrated run; same stream
``/shutdown``           POST  graceful shutdown (same path as SIGTERM)
======================  ====  =====================================================

All searches route through the :class:`~repro.server.service.SearchService`
coalescer/batcher, so responses are bit-identical to direct engine calls
while concurrent duplicates cost one computation.  Searches queued in one
event-loop turn reach the engine together at the next turn; ``serve
--max-batch`` caps how many go in one engine call, and no timer delays a
request.  On SIGTERM/SIGINT (or ``POST /shutdown``) the daemon stops
accepting connections, drains in-flight work, checkpoints the SQLite
cache's write-ahead log (entries are durable as they are stored) and
exits 0.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
import time

from repro import __version__
from repro.engine import SearchEngine
from repro.orchestration.experiments import resolve_experiment_name
from repro.orchestration.manifest import (
    DEFAULT_WORKLOADS,
    ManifestSpec,
    RunManifest,
    parse_shard,
)
from repro.orchestration.runner import Runner, load_run_metadata
from repro.server.protocol import (
    ProtocolError,
    resolve_capacities,
    resolve_capacity,
    resolve_dataflow,
    resolve_layer,
    result_to_wire,
)
from repro.server.service import DEFAULT_MAX_BATCH, SearchService
from repro.workloads.registry import UnknownWorkloadError, get_workload_spec

#: Hard parse limits; a request larger than this is a client bug.
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_LINES = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest batch a workload reference may name.  A workload grows with its
#: batch and is built on the event loop, so one ``llama_decode:256`` (131 296
#: layers) would stall every connection.  32 is the largest default batch in
#: the registry (``llama_decode``, ``mixtral_decode``); the largest build it
#: admits is ``bert_large:32``, 24 720 layers.
MAX_REFERENCE_BATCH = 32

#: Seconds a connection may take to deliver its next request before it is
#: closed; responses, including experiment streams, are not timed.
READ_TIMEOUT_S = 60.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Unparseable HTTP; the connection is answered 400 and closed."""


class _Request:
    def __init__(self, method: str, path: str, headers: dict, body: bytes):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body

    def json(self) -> dict:
        if not self.body:
            return {}
        try:
            document = json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # ValueError: bad UTF-8, bad JSON, an integer past the digit
            # limit; RecursionError: arrays or objects nested too deeply.
            raise ProtocolError(f"request body is not valid JSON: {error}") from error
        if not isinstance(document, dict):
            raise ProtocolError("request body must be a JSON object")
        return document

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed connection."""
    try:
        request_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise _BadRequest("truncated request line") from error
    except asyncio.LimitOverrunError as error:
        raise _BadRequest("request line too long") from error
    if len(request_line) > MAX_REQUEST_LINE:
        raise _BadRequest("request line too long")
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line: {request_line!r}")
    method, target, _version = parts
    path = target.split("?", 1)[0]
    headers = {}
    for _ in range(MAX_HEADER_LINES):
        line = await reader.readuntil(b"\n")
        if line in (b"\r\n", b"\n"):
            break
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise _BadRequest(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest("too many header lines")
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError as error:
        raise _BadRequest("malformed Content-Length") from error
    if length < 0 or length > MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit")
    body = await reader.readexactly(length) if length else b""
    return _Request(method, path, headers, body)


def _json_bytes(document) -> bytes:
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def _response_head(status: int, content_type: str, extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Server: repro-search/{__version__}\r\n"
        f"{extra}\r\n"
    ).encode("latin-1")


class SearchDaemon:
    """One resident engine behind a small asyncio HTTP server."""

    def __init__(
        self,
        engine: SearchEngine = None,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_batch: int = DEFAULT_MAX_BATCH,
        work_dir: str = None,
    ):
        self.engine = engine if engine is not None else SearchEngine()
        self.service = SearchService(self.engine, max_batch=max_batch)
        self.host = host
        self.port = port
        # Experiment trees are confined here; requests address them by
        # relative name so a client can never write outside the sandbox.
        self.work_dir = os.path.abspath(work_dir or os.path.join(os.getcwd(), "serve-runs"))
        self.requests_served = 0
        self._started_monotonic = time.monotonic()
        self._server = None
        self._shutdown = None  # created on start(), inside the loop
        self._connections = set()

    # ------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (signal handlers and POST /shutdown)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Serve until :meth:`request_shutdown`; then drain and persist."""
        await self._shutdown.wait()
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight work, persist the cache."""
        self._server.close()
        await self._server.wait_closed()
        await self.service.drain()
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        # Entries are durable as they are stored; save() checkpoints the WAL.
        if self.engine.cache is not None and self.engine.cache.path:
            await self.service.run_in_engine_thread(self.engine.save)
        self.service.close()
        if self.engine.cache is not None:
            self.engine.cache.close()

    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------ connection

    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        _read_request(reader), READ_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break  # idle or half-open: close without a response
                except _BadRequest as error:
                    body = _json_bytes({"error": str(error)})
                    writer.write(
                        _response_head(
                            400,
                            "application/json",
                            f"Content-Length: {len(body)}\r\nConnection: close\r\n",
                        )
                        + body
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                self.requests_served += 1
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: _Request, writer) -> bool:
        handler = self._ROUTES.get(request.path)
        if handler is None:
            await self._send_json(writer, request, 404, {"error": f"no such endpoint: {request.path}"})
            return request.keep_alive
        method, bound = handler
        if request.method != method:
            await self._send_json(
                writer, request, 405, {"error": f"{request.path} expects {method}"}
            )
            return request.keep_alive
        try:
            if bound in ("_stream_run", "_stream_resume"):
                # Streaming endpoints own the socket until the run finishes;
                # the connection closes afterwards (chunked + close is the
                # simplest correct framing for a long-lived stream).
                await getattr(self, bound)(request, writer)
                return False
            status, document = await getattr(self, bound)(request)
        except (ProtocolError, UnknownWorkloadError) as error:
            status, document = 400, {"error": str(error)}
        except ValueError as error:
            # The package-wide convention: ValueError marks an operator
            # mistake (infeasible capacity, bad spec), not an internal bug.
            status, document = 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - a handler bug must not
            # kill the connection loop, let alone the daemon.
            status, document = 500, {"error": f"{type(error).__name__}: {error}"}
        await self._send_json(writer, request, status, document)
        return request.keep_alive

    async def _send_json(self, writer, request: _Request, status: int, document) -> None:
        body = _json_bytes(document)
        connection = "keep-alive" if request.keep_alive else "close"
        writer.write(
            _response_head(
                status,
                "application/json",
                f"Content-Length: {len(body)}\r\nConnection: {connection}\r\n",
            )
            + body
        )
        await writer.drain()

    # ------------------------------------------------------------- endpoints

    async def _handle_healthz(self, request: _Request):
        cache = self.engine.cache
        return 200, {
            "status": "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "backend": self.engine.backend,
            "workers": self.engine.workers,
            "cache_entries": len(cache) if cache is not None else None,
            "cache_path": cache.path if cache is not None else None,
        }

    async def _handle_stats(self, request: _Request):
        cache = self.engine.cache
        return 200, {
            "engine": self.engine.stats.as_dict(),
            "cache_entries": len(cache) if cache is not None else 0,
            "cache_evictions": cache.evictions if cache is not None else 0,
            "requests_served": self.requests_served,
            "uptime_seconds": round(self.uptime_seconds(), 3),
        }

    async def _handle_workloads(self, request: _Request):
        from repro.workloads.registry import list_workloads

        return 200, {
            "workloads": [
                {
                    "name": workload.name,
                    "default_batch": workload.default_batch,
                    "description": workload.description,
                }
                for workload in list_workloads()
            ]
        }

    async def _handle_dataflows(self, request: _Request):
        from repro.dataflows.registry import dataflow_names

        return 200, {"dataflows": dataflow_names()}

    async def _handle_search(self, request: _Request):
        document = request.json()
        dataflow = resolve_dataflow(document)
        layer = resolve_layer(document)
        capacity = resolve_capacity(document)
        result = await self.service.search(dataflow, layer, capacity)
        if result is None:
            return 200, {"feasible": False, "result": None}
        return 200, {"feasible": True, "result": result_to_wire(result)}

    async def _handle_search_many(self, request: _Request):
        document = request.json()
        dataflow = resolve_dataflow(document)
        layer = resolve_layer(document)
        capacities = resolve_capacities(document)
        results = await self.service.search_many(dataflow, layer, capacities)
        return 200, {
            "results": [
                {"feasible": False, "result": None}
                if result is None
                else {"feasible": True, "result": result_to_wire(result)}
                for result in results
            ]
        }

    async def _handle_shutdown(self, request: _Request):
        # The response is written by the dispatcher before the serve loop
        # reacts to the event, so the client sees the acknowledgement.
        asyncio.get_running_loop().call_soon(self.request_shutdown)
        return 200, {"status": "shutting-down"}

    # ----------------------------------------------------- experiment streams

    def _resolve_out_dir(self, name) -> str:
        if not isinstance(name, str) or not name:
            raise ProtocolError("request needs an 'out_dir' (relative run name)")
        resolved = os.path.abspath(os.path.join(self.work_dir, name))
        if resolved != self.work_dir and not resolved.startswith(
            self.work_dir + os.sep
        ):
            raise ProtocolError(f"out_dir {name!r} escapes the server work dir")
        return resolved

    def _build_run(self, document: dict):
        workloads = document.get("workloads", list(DEFAULT_WORKLOADS))
        experiments = document.get("experiments")
        if not experiments:
            raise ProtocolError("request needs a non-empty 'experiments' list")
        backends = document.get("backends", ["auto"])
        params = document.get("params", {})
        if not isinstance(params, dict):
            raise ProtocolError("'params' must be an object")
        for workload in workloads:
            get_workload_spec(workload)  # fail fast, like the CLI
        resolved = []
        for name in experiments:
            canonical = resolve_experiment_name(name)
            if canonical not in resolved:
                resolved.append(canonical)
        spec = ManifestSpec(
            workloads=tuple(workloads),
            experiments=tuple(resolved),
            backends=tuple(backends),
            params=params,
        )
        manifest = RunManifest.from_spec(spec)
        out_dir = self._resolve_out_dir(document.get("out_dir"))
        workers = int(document.get("workers", 1))
        runner = Runner(manifest, out_dir, workers=workers)
        shard = parse_shard(str(document.get("shard", "1/1")))
        return runner, shard, document.get("max_units")

    async def _stream_run(self, request: _Request, writer) -> None:
        document = request.json()
        runner, shard, max_units = self._build_run(document)
        await self._stream_runner(writer, runner, shard, max_units, resume=True)

    async def _stream_resume(self, request: _Request, writer) -> None:
        document = request.json()
        out_dir = self._resolve_out_dir(document.get("out_dir"))
        metadata = load_run_metadata(out_dir)
        manifest = RunManifest.from_spec(ManifestSpec.from_dict(metadata["spec"]))
        workers = int(document.get("workers", metadata.get("workers", 1)))
        runner = Runner(manifest, out_dir, workers=workers)
        shard = tuple(metadata["shard"])
        await self._stream_runner(
            writer, runner, shard, document.get("max_units"), resume=True
        )

    async def _stream_runner(self, writer, runner, shard, max_units, resume) -> None:
        """Run one shard on a worker thread, streaming NDJSON unit events."""
        loop = asyncio.get_running_loop()
        events = asyncio.Queue()
        _DONE = object()

        def progress(event):
            loop.call_soon_threadsafe(events.put_nowait, event)

        async def pump():
            try:
                report = await asyncio.to_thread(
                    runner.run,
                    shard=shard,
                    resume=resume,
                    max_units=max_units,
                    progress=progress,
                )
                events.put_nowait({"event": "report", "report": report.as_dict()})
            except Exception as error:  # noqa: BLE001 - surfaced to the client
                events.put_nowait(
                    {"event": "error", "error": f"{type(error).__name__}: {error}"}
                )
            finally:
                events.put_nowait(_DONE)

        writer.write(
            _response_head(
                200,
                "application/x-ndjson",
                "Transfer-Encoding: chunked\r\nConnection: close\r\n",
            )
        )
        await writer.drain()
        task = asyncio.create_task(pump())
        try:
            while True:
                event = await events.get()
                if event is _DONE:
                    break
                chunk = _json_bytes(event)
                writer.write(f"{len(chunk):X}\r\n".encode("latin-1") + chunk + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            await task

    _ROUTES = {
        "/healthz": ("GET", "_handle_healthz"),
        "/stats": ("GET", "_handle_stats"),
        "/workloads": ("GET", "_handle_workloads"),
        "/dataflows": ("GET", "_handle_dataflows"),
        "/search": ("POST", "_handle_search"),
        "/search-many": ("POST", "_handle_search_many"),
        "/experiments/run": ("POST", "_stream_run"),
        "/experiments/resume": ("POST", "_stream_resume"),
        "/shutdown": ("POST", "_handle_shutdown"),
    }


# ------------------------------------------------------------------ serve CLI


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Run the search daemon: a long-lived engine serving "
        "concurrent clients with request coalescing, micro-batching and a "
        "persistent shared cache.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks a free one; the chosen port is announced "
        "on stdout as a JSON 'listening' event)",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        help="SQLite file the search cache persists to, shareable with "
        "orchestrated runs and other daemons (default: in memory only)",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="LRU bound on the cache (default: unbounded)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the tiling searches (0 = all cores)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "numpy", "python"],
        default="auto",
        help="search backend (results are bit-identical either way)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=DEFAULT_MAX_BATCH,
        help="most searches one engine call takes (default 256); searches "
        "queued in one event-loop turn go to the engine together at the next",
    )
    parser.add_argument(
        "--work-dir",
        default=None,
        help="directory experiment runs write their artifact trees under "
        "(default: ./serve-runs); clients address runs relative to it",
    )
    return parser


def main(argv: list = None) -> int:
    """``repro-experiments serve``: run the daemon until SIGTERM/SIGINT."""
    args = build_serve_parser().parse_args(argv)
    try:
        engine = SearchEngine(
            workers=args.workers,
            cache_path=args.cache_file,
            backend=args.backend,
            cache_max_entries=args.cache_max_entries,
        )
        daemon = SearchDaemon(
            engine=engine,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            work_dir=args.work_dir,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return asyncio.run(_serve(daemon))


async def _serve(daemon: SearchDaemon) -> int:
    await daemon.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, daemon.request_shutdown)
    # Machine-readable announcement: the smoke harness, the benchmark and
    # the CI jobs parse this line to learn the bound port.
    print(
        json.dumps(
            {
                "event": "listening",
                "host": daemon.host,
                "port": daemon.port,
                "pid": os.getpid(),
                "version": __version__,
            },
            sort_keys=True,
        ),
        flush=True,
    )
    await daemon.serve_until_shutdown()
    print(
        f"served {daemon.requests_served} requests in "
        f"{daemon.uptime_seconds():.1f}s; engine: {daemon.engine.stats}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
