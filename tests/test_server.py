"""Tests for the search daemon: protocol, coalescing service, HTTP server.

The service tests drive :class:`repro.server.service.SearchService` on a
private event loop and pin the concurrency semantics (coalescing keeps the
``hits + misses == tasks`` engine invariant, batching groups compatible
capacities, failures fan out to every waiter).  The daemon tests run a real
:class:`~repro.server.daemon.SearchDaemon` on an ephemeral port inside a
background thread and talk to it with the stdlib client -- every served
result is compared against a direct engine call for bit-identity.  The
subprocess/SIGTERM path is covered by ``python -m repro.server.smoke``.
"""

import asyncio
import http.client
import json
import os
import socket
import threading
import time

import pytest

from repro.core.layer import ConvLayer, kib_to_words
from repro.dataflows.registry import get_dataflow
from repro.engine import SearchEngine, task_key
from repro.server import daemon as daemon_module
from repro.server import protocol
from repro.server.client import SearchClient, ServerError
from repro.server.protocol import (
    ProtocolError,
    layer_from_wire,
    layer_to_wire,
    resolve_capacities,
    resolve_capacity,
    resolve_layer,
    result_from_wire,
    result_to_wire,
)
from repro.server.service import SearchService
from repro.workloads.registry import Workload, get_workload_spec


@pytest.fixture
def layer():
    return ConvLayer("l", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1)


class TestProtocol:
    def test_layer_round_trip(self, layer):
        assert layer_from_wire(layer_to_wire(layer)) == layer

    def test_layer_defaults_stride_and_padding(self):
        wire = layer_to_wire(ConvLayer("l", 1, 8, 14, 14, 16, 3, 3))
        del wire["stride"], wire["padding"]
        assert layer_from_wire(wire) == ConvLayer("l", 1, 8, 14, 14, 16, 3, 3)

    def test_layer_rejects_unknown_and_missing_fields(self, layer):
        with pytest.raises(ProtocolError, match="unknown layer fields"):
            layer_from_wire(dict(layer_to_wire(layer), bogus=1))
        with pytest.raises(ProtocolError, match="missing"):
            layer_from_wire({"name": "l"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("stride", 1.5),
            ("in_channels", 16.5),
            ("batch", True),
            ("padding", "1"),
            ("kernel_width", None),
            ("name", ["x"]),
            ("name", 7),
        ],
    )
    def test_layer_rejects_non_integer_shapes(self, layer, field, value):
        # ConvLayer only range-checks, so these used to reach the engine.
        with pytest.raises(ProtocolError, match=field):
            layer_from_wire(dict(layer_to_wire(layer), **{field: value}))

    def test_layer_index_must_not_be_a_bool(self):
        assert resolve_layer({"workload": "tiny", "layer_index": 1}) == get_workload_spec("tiny")[1]
        with pytest.raises(ProtocolError, match="layer_index"):
            resolve_layer({"workload": "tiny", "layer_index": True})

    def test_result_round_trip_is_exact(self, layer):
        engine = SearchEngine()
        result = engine.try_search(get_dataflow("Ours"), layer, 8192)
        assert result is not None
        assert result_from_wire(result_to_wire(result)) == result

    def test_capacity_words_and_kib_agree_with_cli_conversion(self):
        assert resolve_capacity({"capacity_words": 8192}) == 8192
        assert resolve_capacity({"capacity_kib": 16}) == kib_to_words(16)
        with pytest.raises(ProtocolError, match="not both"):
            resolve_capacity({"capacity_words": 1, "capacity_kib": 1})
        with pytest.raises(ProtocolError, match="positive"):
            resolve_capacity({"capacity_words": 0})
        with pytest.raises(ProtocolError, match="positive"):
            resolve_capacity({"capacity_words": True})

    @pytest.mark.parametrize("kib", [float("inf"), float("nan"), 10**400])
    def test_non_finite_capacity_kib_is_rejected(self, kib):
        with pytest.raises(ProtocolError, match="finite"):
            resolve_capacity({"capacity_kib": kib})
        with pytest.raises(ProtocolError, match="finite"):
            resolve_capacities({"capacities_kib": [16, kib]})

    @pytest.mark.parametrize("kib", [0.0001, 0.0019, -1])
    def test_capacity_kib_under_one_word_is_rejected(self, kib):
        # capacity_words: 0 is a 400; a KiB value that rounds to 0 words is too.
        with pytest.raises(ProtocolError, match="at least one word"):
            resolve_capacity({"capacity_kib": kib})
        assert resolve_capacity({"capacity_kib": 0.002}) == 1


class TestWorkloadReferenceMemo:
    def test_repeated_references_build_the_workload_once(self, monkeypatch):
        spec = "llama_decode:1"
        expected = get_workload_spec(spec)
        protocol._BUILT.clear()
        builds = []
        build = Workload.build

        def counting_build(workload, *args, **kwargs):
            builds.append(workload.name)
            return build(workload, *args, **kwargs)

        monkeypatch.setattr(Workload, "build", counting_build)
        for index in (0, 20, 22, 0, 735):
            layer = resolve_layer({"workload": spec, "layer_index": index})
            assert layer == expected[index]
        assert builds == ["llama_decode"]

    def test_memo_is_bounded(self):
        # Cycling distinct large references holds at most the layer cap, not
        # one entry per reference (16 of these hold ~300 000 layers).
        protocol._BUILT.clear()
        cap = daemon_module.MAX_BUILT_LAYERS
        for batch in range(17, 33):
            spec = f"bert_large:{batch}"
            layer = resolve_layer({"workload": spec, "layer_index": 0})
            assert layer == get_workload_spec(spec)[0]
            held = sum(len(layers) for layers in protocol._BUILT.values())
            assert held <= cap
        # The newest build always stays: the cap admits the largest reference.
        assert list(protocol._BUILT)[-1][1] == 32
        assert len(get_workload_spec(f"bert_large:{daemon_module.MAX_REFERENCE_BATCH}")) <= cap

    def test_reference_past_the_batch_cap_builds_nothing(self, monkeypatch):
        # serve-zipf's references, and llama_decode's default batch of 32.
        accepted = ("vgg16", "llama_decode:1", "llama_decode")
        expected = {spec: get_workload_spec(spec)[0] for spec in accepted}
        protocol._BUILT.clear()
        builds = []
        build = Workload.build

        def counting_build(workload, *args, **kwargs):
            builds.append(workload.name)
            return build(workload, *args, **kwargs)

        monkeypatch.setattr(Workload, "build", counting_build)
        cap = daemon_module.MAX_REFERENCE_BATCH
        for spec in ("llama_decode:256", f"bert_large:{cap + 1}"):
            with pytest.raises(ProtocolError, match=f"limited to batch {cap}") as error:
                resolve_layer({"workload": spec, "layer_index": 0})
            assert "\n" not in str(error.value)
        assert builds == []
        for spec in accepted:
            layer = resolve_layer({"workload": spec, "layer_index": 0})
            assert layer == expected[spec]
        assert builds == ["vgg16", "llama_decode", "llama_decode"]

    @pytest.mark.parametrize("spec", ["no_such_network", "tiny:0", "tiny:x"])
    def test_unusable_workload_is_a_protocol_error_every_time(self, spec):
        for _ in range(3):
            with pytest.raises(ProtocolError):
                resolve_layer({"workload": spec, "layer_index": 0})


def _record_batches(engine: SearchEngine) -> list:
    """Wrap ``engine.search_tasks`` to log the task count of every call."""
    sizes = []
    search_tasks = engine.search_tasks

    def recording(tasks):
        sizes.append(len(tasks))
        return search_tasks(tasks)

    engine.search_tasks = recording
    return sizes


class TestSearchService:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_cached_key_is_served_without_a_timer(self, layer):
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")
        direct = engine.try_search(dataflow, layer, 8192)  # the one miss
        batches = _record_batches(engine)

        async def scenario():
            def no_timers(*args, **kwargs):
                raise AssertionError("a search armed a timer")

            asyncio.get_running_loop().call_later = no_timers
            service = SearchService(engine)
            try:
                return await service.search(dataflow, layer, 8192)
            finally:
                await service.drain()
                service.close()

        assert self._run(scenario()) == direct
        assert batches == [1]
        assert (engine.stats.hits, engine.stats.misses) == (1, 1)

    def test_duplicate_inflight_requests_coalesce(self, layer):
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")

        async def scenario():
            service = SearchService(engine)
            try:
                return await asyncio.gather(
                    *(service.search(dataflow, layer, 8192) for _ in range(5))
                )
            finally:
                await service.drain()
                service.close()

        results = self._run(scenario())
        direct = SearchEngine().try_search(dataflow, layer, 8192)
        assert all(result == direct for result in results)
        # 5 requests, 1 computation: 4 coalesced, and the engine invariant
        # (hits + misses == tasks actually submitted) holds.
        assert engine.stats.coalesced == 4
        assert engine.stats.hits + engine.stats.misses == 1

    def test_compatible_capacities_batch_into_one_flush(self, layer):
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")
        capacities = [4096, 8192, 16384]

        async def scenario():
            service = SearchService(engine)
            try:
                return await service.search_many(dataflow, layer, capacities)
            finally:
                await service.drain()
                service.close()

        results = self._run(scenario())
        reference = SearchEngine()
        assert results == [
            reference.try_search(dataflow, layer, capacity) for capacity in capacities
        ]
        assert engine.stats.batched == len(capacities)
        assert engine.stats.coalesced == 0

    def test_served_results_relabel_like_the_engine(self, layer):
        """Shape-equal layers with different names get per-request labels."""
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")
        twin = ConvLayer("twin", 1, 8, 14, 14, 16, 3, 3, stride=1, padding=1)

        async def scenario():
            service = SearchService(engine)
            try:
                return await asyncio.gather(
                    service.search(dataflow, layer, 8192),
                    service.search(dataflow, twin, 8192),
                )
            finally:
                await service.drain()
                service.close()

        first, second = self._run(scenario())
        assert first.layer_name == "l"
        assert second.layer_name == "twin"
        assert first.traffic == second.traffic
        # The twins share one cache key, so the second request coalesced.
        assert engine.stats.coalesced == 1

    def test_engine_failure_fans_out_to_every_waiter(self, layer):
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")

        def explode(tasks):
            raise RuntimeError("engine down")

        engine.search_tasks = explode

        async def scenario():
            service = SearchService(engine)
            try:
                return await asyncio.gather(
                    *(service.search(dataflow, layer, 8192) for _ in range(3)),
                    return_exceptions=True,
                )
            finally:
                service.close()

        results = self._run(scenario())
        assert len(results) == 3
        assert all(
            isinstance(result, RuntimeError) and "engine down" in str(result)
            for result in results
        )

    def test_max_batch_flushes_immediately(self, layer):
        engine = SearchEngine()
        dataflow = get_dataflow("Ours")
        capacities = [2048, 4096, 8192, 16384, 32768]
        batch_sizes = _record_batches(engine)

        async def scenario():
            service = SearchService(engine, max_batch=2)
            try:
                return await asyncio.wait_for(
                    service.search_many(dataflow, layer, capacities), timeout=20
                )
            finally:
                await service.drain()
                service.close()

        results = self._run(scenario())
        reference = SearchEngine()
        assert results == [
            reference.try_search(dataflow, layer, capacity) for capacity in capacities
        ]
        assert sum(batch_sizes) == len(capacities)
        assert max(batch_sizes) <= 2

    def test_invalid_tuning_rejected(self):
        engine = SearchEngine()
        with pytest.raises(ValueError, match="max_batch"):
            SearchService(engine, max_batch=0)


class TestServeMain:
    """``serve`` start-up failures are one ``error:`` line and exit 2."""

    def test_unwritable_cache_file(self, tmp_path, capsys):
        # The cache file's parent directory is a regular file.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        assert daemon_module.main(["--port", "0", "--cache-file", str(blocker / "cache.sqlite")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err

    def test_port_already_bound(self, tmp_path, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            argv = ["--host", "127.0.0.1", "--port", str(port), "--cache-file", str(tmp_path / "cache.sqlite")]
            assert daemon_module.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(port) in err and "Traceback" not in err
        # The port is bound before the cache opens: no database, WAL or
        # shared-memory file is left behind.
        assert not [name for name in os.listdir(tmp_path) if name.startswith("cache.sqlite")]


class TestDaemon:
    def test_healthz_reports_identity(self, daemon):
        with SearchClient(port=daemon.port) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["cache_path"].endswith("cache.sqlite")
        assert "cache_store" not in health
        assert health["backend"] in ("numpy", "python")

    def test_served_search_is_bit_identical(self, daemon, layer):
        direct = SearchEngine().try_search(get_dataflow("Ours"), layer, 8192)
        with SearchClient(port=daemon.port) as client:
            served = client.search("Ours", layer=layer, capacity_words=8192)
        assert served == direct

    def test_search_by_workload_reference(self, daemon):
        layers = get_workload_spec("tiny")
        direct = SearchEngine().try_search(
            get_dataflow("Ours"), layers[0], kib_to_words(16)
        )
        with SearchClient(port=daemon.port) as client:
            served = client.search(
                "Ours", workload="tiny", layer_index=0, capacity_kib=16
            )
        assert served == direct

    def test_search_many_matches_engine_search_many(self, daemon, layer):
        capacities = [4096, 8192, 16384]
        reference = SearchEngine()
        direct = reference.search_many(layer, capacities, get_dataflow("Ours"))
        with SearchClient(port=daemon.port) as client:
            served = client.search_many(
                "Ours", layer=layer, capacities_words=capacities
            )
        assert served == direct

    def test_workload_and_dataflow_listings(self, daemon):
        with SearchClient(port=daemon.port) as client:
            workloads = client.workloads()
            dataflows = client.dataflows()
        assert any(entry["name"] == "vgg16" for entry in workloads)
        assert "Ours" in dataflows

    def test_stats_counts_requests_and_cache(self, daemon, layer):
        with SearchClient(port=daemon.port) as client:
            client.search("Ours", layer=layer, capacity_words=8192)
            stats = client.stats()
        assert stats["requests_served"] >= 2
        assert stats["cache_entries"] >= 1
        assert stats["engine"]["misses"] >= 1

    def test_unknown_route_and_bad_requests(self, daemon):
        with SearchClient(port=daemon.port) as client:
            with pytest.raises(ServerError) as missing:
                client._json("GET", "/no-such-endpoint")
            assert missing.value.status == 404
            with pytest.raises(ServerError) as bad:
                client._json("POST", "/search", {"dataflow": "NotADataflow"})
            assert bad.value.status == 400
            with pytest.raises(ServerError) as wrong_method:
                client._json("GET", "/search")
            assert wrong_method.value.status == 405

    @pytest.mark.parametrize("field, value", [("stride", 1.5), ("in_channels", 16.5)])
    def test_malformed_inline_layer_fails_alone(self, daemon, layer, field, value):
        """A bad layer sent with a good one is a 400; the good one is served."""
        bad = dict(layer_to_wire(layer), name="bad", **{field: value})
        direct = SearchEngine().try_search(get_dataflow("Ours"), layer, 8192)
        outcomes = {}
        barrier = threading.Barrier(2)

        def send(slot, document):
            with SearchClient(port=daemon.port) as client:
                barrier.wait(timeout=30)
                try:
                    outcomes[slot] = client._json("POST", "/search", document)
                except ServerError as error:
                    outcomes[slot] = error

        documents = {
            "good": {"dataflow": "Ours", "layer": layer_to_wire(layer), "capacity_words": 8192},
            "bad": {"dataflow": "Ours", "layer": bad, "capacity_words": 8192},
        }
        threads = [
            threading.Thread(target=send, args=item) for item in documents.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert result_from_wire(outcomes["good"]["result"]) == direct
        assert isinstance(outcomes["bad"], ServerError)
        assert outcomes["bad"].status == 400
        cache = daemon.engine.cache
        assert task_key(get_dataflow("Ours"), ConvLayer(**bad), 8192) not in cache
        assert len(cache) == 1

    def test_reference_past_the_batch_cap_is_a_bad_request(self, daemon):
        with SearchClient(port=daemon.port) as client:
            with pytest.raises(ServerError) as error:
                client.search("Ours", workload="llama_decode:256", layer_index=0, capacity_words=8192)
        assert error.value.status == 400
        assert "limited to batch" in error.value.message

    def test_layer_past_int64_is_served_the_scalar_result(self, daemon):
        """Regression: the grid served (and cached) a negative total here."""
        layer = ConvLayer("x", 1, 2**50, 14, 14, 16, 3, 3, 1, 1)
        direct = SearchEngine(backend="python").try_search(get_dataflow("Ours"), layer, 8192)
        with SearchClient(port=daemon.port) as client:
            served = client.search("Ours", layer=layer, capacity_words=8192)
        assert served == direct and served.total > 0

    def test_overflowing_layer_beside_a_good_request_leaves_it_served(self, daemon, layer):
        """Regression: a 2**60 layer's OverflowError used to fan out to the
        whole batch, answering both requests 500."""
        huge = ConvLayer("huge", 1, 2**60, 14, 14, 16, 3, 3, 1, 1)
        documents = {
            "good": {"dataflow": "Ours", "layer": layer_to_wire(layer), "capacity_words": 8192},
            "huge": {"dataflow": "Ours", "layer": layer_to_wire(huge), "capacity_words": 8192},
        }
        outcomes = {}
        barrier = threading.Barrier(2)

        def send(slot, document):
            with SearchClient(port=daemon.port) as client:
                barrier.wait(timeout=30)
                try:
                    outcomes[slot] = client._json("POST", "/search", document)
                except ServerError as error:
                    outcomes[slot] = error

        threads = [threading.Thread(target=send, args=item) for item in documents.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        reference = SearchEngine(backend="python")
        for slot, sent in (("good", layer), ("huge", huge)):
            assert not isinstance(outcomes[slot], ServerError), outcomes[slot]
            expected = reference.try_search(get_dataflow("Ours"), sent, 8192)
            assert result_from_wire(outcomes[slot]["result"]) == expected

    def test_deeply_nested_body_is_a_bad_request(self, daemon):
        connection = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            connection.request("POST", "/search", body=b"[" * 100_000)
            response = connection.getresponse()
            status, document = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 400
        assert "not valid JSON" in document["error"]

    def test_stalled_client_is_disconnected(self, daemon, layer, monkeypatch):
        monkeypatch.setattr(daemon_module, "READ_TIMEOUT_S", 0.2)
        direct = SearchEngine().try_search(get_dataflow("Ours"), layer, 8192)
        with socket.create_connection(("127.0.0.1", daemon.port), timeout=30) as stalled:
            stalled.sendall(b"POST /search HTTP/1.1\r\nContent-Len")  # half a request
            with SearchClient(port=daemon.port) as client:
                assert client.search("Ours", layer=layer, capacity_words=8192) == direct
                # Idle past the timeout: the client reconnects and is served.
                time.sleep(0.5)
                assert client.search("Ours", layer=layer, capacity_words=8192) == direct
            assert stalled.recv(1024) == b""  # closed by the daemon, no response

    @pytest.mark.parametrize("kib", [float("inf"), float("nan"), 0.0001])
    def test_unusable_capacity_kib_is_a_bad_request(self, daemon, layer, kib):
        # json.dumps writes Infinity/NaN, which the daemon's parser accepts.
        document = {"dataflow": "Ours", "layer": layer_to_wire(layer), "capacity_kib": kib}
        with SearchClient(port=daemon.port) as client:
            with pytest.raises(ServerError) as bad:
                client._json("POST", "/search", document)
        assert bad.value.status == 400

    def test_experiment_run_streams_units_then_report(self, daemon):
        with SearchClient(port=daemon.port) as client:
            events = list(
                client.run_experiments(
                    ["table2"], out_dir="stream-run", workloads=["tiny"]
                )
            )
        unit_events = [event for event in events if event["event"] == "unit"]
        assert unit_events, f"no unit events in {events}"
        assert all("unit_id" in event for event in unit_events)
        assert events[-1]["event"] == "report"
        assert events[-1]["report"]["units_failed"] == 0

        # Resume of the same run skips everything, and says so per unit.
        with SearchClient(port=daemon.port) as client:
            events = list(client.resume_experiments("stream-run"))
        assert events[-1]["event"] == "report"
        assert events[-1]["report"]["units_skipped"] >= 1
        assert any(event.get("state") == "skipped" for event in events)

    def test_misspelled_param_key_is_rejected(self, daemon):
        with SearchClient(port=daemon.port) as client:
            with pytest.raises(ServerError) as error:
                list(
                    client.run_experiments(
                        ["fig13"],
                        out_dir="typo-run",
                        workloads=["tiny"],
                        params={"fig13": {"capacites_kib": [16]}},
                    )
                )
        assert error.value.status == 400
        assert "capacites_kib" in error.value.message

    def test_out_dir_escape_is_rejected(self, daemon):
        with SearchClient(port=daemon.port) as client:
            with pytest.raises(ServerError) as error:
                list(
                    client.run_experiments(
                        ["table2"], out_dir="../evil", workloads=["tiny"]
                    )
                )
        assert error.value.status == 400
        assert "escapes" in error.value.message

    def test_concurrent_duplicate_clients_coalesce(self, daemon):
        layers = get_workload_spec("tiny")
        direct = SearchEngine().try_search(
            get_dataflow("OutR-A"), layers[1], kib_to_words(64)
        )
        results = {}
        errors = []
        barrier = threading.Barrier(8)

        def worker(slot):
            try:
                with SearchClient(port=daemon.port) as client:
                    barrier.wait(timeout=30)
                    results[slot] = client.search(
                        "OutR-A", workload="tiny", layer_index=1, capacity_kib=64
                    )
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(results) == 8
        assert all(result == direct for result in results.values())
        assert daemon.engine.stats.coalesced > 0
