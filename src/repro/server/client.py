"""A small stdlib client for the search daemon.

:class:`SearchClient` wraps ``http.client`` -- no new dependency -- and
mirrors the engine's surface: ``search`` returns a genuine
:class:`~repro.dataflows.base.DataflowResult` (or ``None`` when no tiling
fits), ``search_many`` a list of them, so callers can compare served
results against local engine results with plain ``==`` and expect
bit-identity.  One client holds one keep-alive connection; it is **not**
thread-safe -- give each thread its own client (they may all point at the
same daemon; coalescing happens server-side).

    from repro.server import SearchClient

    with SearchClient(port=8765) as client:
        result = client.search("Ours", workload="vgg16", layer_index=3,
                               capacity_kib=128)
        print(result.traffic.total())

Experiment runs stream: ``run_experiments``/``resume_experiments`` yield
one event dictionary per orchestration unit as the daemon emits them, with
a final ``{"event": "report", ...}``.
"""

from __future__ import annotations

import http.client
import json
import socket

from repro.server.protocol import layer_to_wire, result_from_wire

DEFAULT_TIMEOUT_S = 300.0


class ServerError(RuntimeError):
    """A non-2xx daemon response; carries the HTTP status and message."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class SearchClient:
    """One keep-alive connection to a running search daemon."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ):
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._connection = None

    # ----------------------------------------------------------- plumbing

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._connection

    def _request(self, method: str, path: str, document: dict = None):
        body = None
        headers = {}
        if document is not None:
            body = json.dumps(document).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connect()
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
        except (http.client.HTTPException, OSError):
            # A dropped keep-alive connection (daemon restarted, idle
            # timeout): reconnect once and retry.
            self.close()
            connection = self._connect()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
        return response

    def _json(self, method: str, path: str, document: dict = None) -> dict:
        response = self._request(method, path, document)
        payload = response.read()
        parsed = self._parse(response.status, payload)
        if response.status != 200:
            raise ServerError(response.status, parsed.get("error", payload.decode()))
        return parsed

    @staticmethod
    def _parse(status: int, payload: bytes) -> dict:
        try:
            return json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServerError(status, f"unparseable response: {error}") from error

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- queries

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/stats")

    def workloads(self) -> list:
        return self._json("GET", "/workloads")["workloads"]

    def dataflows(self) -> list:
        return self._json("GET", "/dataflows")["dataflows"]

    # ------------------------------------------------------------ searches

    def search(
        self,
        dataflow: str,
        layer=None,
        workload: str = None,
        layer_index: int = None,
        layer_name: str = None,
        capacity_words: int = None,
        capacity_kib: float = None,
    ):
        """Best served result for one task, or ``None`` when nothing fits."""
        document = self._task_document(
            dataflow, layer, workload, layer_index, layer_name
        )
        if capacity_words is not None:
            document["capacity_words"] = capacity_words
        if capacity_kib is not None:
            document["capacity_kib"] = capacity_kib
        answer = self._json("POST", "/search", document)
        if not answer["feasible"]:
            return None
        return result_from_wire(answer["result"])

    def search_many(
        self,
        dataflow: str,
        layer=None,
        workload: str = None,
        layer_index: int = None,
        layer_name: str = None,
        capacities_words: list = None,
        capacities_kib: list = None,
    ) -> list:
        """One result (or ``None``) per capacity, in request order."""
        document = self._task_document(
            dataflow, layer, workload, layer_index, layer_name
        )
        if capacities_words is not None:
            document["capacities_words"] = list(capacities_words)
        if capacities_kib is not None:
            document["capacities_kib"] = list(capacities_kib)
        answer = self._json("POST", "/search-many", document)
        return [
            result_from_wire(item["result"]) if item["feasible"] else None
            for item in answer["results"]
        ]

    @staticmethod
    def _task_document(dataflow, layer, workload, layer_index, layer_name) -> dict:
        document = {"dataflow": dataflow}
        if layer is not None:
            document["layer"] = layer_to_wire(layer)
        if workload is not None:
            document["workload"] = workload
        if layer_index is not None:
            document["layer_index"] = layer_index
        if layer_name is not None:
            document["layer_name"] = layer_name
        return document

    # --------------------------------------------------------- experiments

    def run_experiments(
        self,
        experiments: list,
        out_dir: str,
        workloads: list = None,
        backends: list = None,
        params: dict = None,
        workers: int = None,
        shard: str = None,
        max_units: int = None,
    ):
        """Start an orchestrated run; yields one event dict per unit.

        ``out_dir`` is relative to the daemon's work dir.  The final event is
        ``{"event": "report", "report": {...}}`` (or ``{"event": "error"}``).
        """
        document = {"experiments": list(experiments), "out_dir": out_dir}
        if workloads is not None:
            document["workloads"] = list(workloads)
        if backends is not None:
            document["backends"] = list(backends)
        if params is not None:
            document["params"] = params
        if workers is not None:
            document["workers"] = workers
        if shard is not None:
            document["shard"] = shard
        if max_units is not None:
            document["max_units"] = max_units
        return self._stream("/experiments/run", document)

    def resume_experiments(
        self,
        out_dir: str,
        workers: int = None,
        max_units: int = None,
    ):
        """Resume a previous run in the daemon's work dir; yields events."""
        document = {"out_dir": out_dir}
        if workers is not None:
            document["workers"] = workers
        if max_units is not None:
            document["max_units"] = max_units
        return self._stream("/experiments/resume", document)

    def _stream(self, path: str, document: dict):
        """Yield NDJSON events from a streaming endpoint.

        Uses a dedicated connection (the stream monopolises the socket until
        the run finishes; ``http.client`` de-chunks transparently).
        """
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(
                "POST",
                path,
                body=json.dumps(document).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            if response.status != 200:
                payload = response.read()
                parsed = self._parse(response.status, payload)
                raise ServerError(
                    response.status, parsed.get("error", payload.decode())
                )
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line.decode("utf-8"))
        finally:
            connection.close()

    # ----------------------------------------------------------- lifecycle

    def shutdown(self) -> dict:
        """Ask the daemon to shut down gracefully (it flushes its cache)."""
        try:
            return self._json("POST", "/shutdown")
        except (http.client.HTTPException, socket.error):
            # The daemon may close the socket right after (or while)
            # acknowledging; that still counts as a successful shutdown.
            return {"status": "shutting-down"}
        finally:
            self.close()
