"""Load benchmark for the search daemon; the CI serving-perf gate.

Spawns a real daemon subprocess (SQLite-backed cache, default settings),
then drives it with a Zipf-distributed closed-loop load: a few
hundred requests drawn from a small task universe where a handful of hot
tasks dominate -- the shape of real sweep traffic, and the shape request
coalescing and caching exist for.  Reports requests/s, p50/p99 latency and
the cache hit rate, and **gates** on conservative floors so a regression
that serializes the daemon or breaks its cache fails CI rather than
shipping:

* throughput >= ``THROUGHPUT_FLOOR_RPS`` requests/s,
* p99 latency <= ``P99_CEILING_S`` seconds,
* cache-or-coalesce service rate >= ``HIT_RATE_FLOOR`` (on a Zipf load the
  engine should compute each distinct task once and serve the rest warm).

The floors are far below what a healthy daemon delivers (see
EXPERIMENTS.md for reference numbers) so they hold on slow CI runners
while still catching order-of-magnitude regressions.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from conftest import _SRC, run_once  # noqa: F401 - path side effect, helper

from repro.server.client import SearchClient

# Conservative CI gates (a healthy local run clears these by >10x).
THROUGHPUT_FLOOR_RPS = 50.0
P99_CEILING_S = 2.0
HIT_RATE_FLOOR = 0.85

REQUESTS = 400
CLIENT_THREADS = 8
ZIPF_EXPONENT = 1.1
DATAFLOWS = ("Ours", "OutR-A", "InR-B")
CAPACITIES_KIB = (16, 64)
LAYER_INDICES = (0, 1)


def _start_daemon(cache_path: str, work_dir: str):
    # The subprocess needs the package on PYTHONPATH even when pytest found
    # it via conftest's sys.path injection.
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.server.daemon",
            "--port",
            "0",
            "--cache-file",
            cache_path,
            "--work-dir",
            work_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    if not line:
        process.kill()
        pytest.fail(f"daemon died at startup: {process.stderr.read()}")
    announcement = json.loads(line)
    assert announcement["event"] == "listening"
    return process, announcement["port"]


def _zipf_requests(count: int) -> list:
    """A Zipf-distributed request stream over the task universe."""
    universe = [
        (dataflow, index, kib)
        for dataflow in DATAFLOWS
        for index in LAYER_INDICES
        for kib in CAPACITIES_KIB
    ]
    weights = [1.0 / rank**ZIPF_EXPONENT for rank in range(1, len(universe) + 1)]
    generator = random.Random(20260807)
    return generator.choices(universe, weights=weights, k=count)


def test_server_sustains_zipf_load(benchmark):
    tmp = tempfile.mkdtemp(prefix="repro-bench-server-")
    process, port = _start_daemon(
        os.path.join(tmp, "cache.sqlite"), os.path.join(tmp, "runs")
    )
    try:
        requests = _zipf_requests(REQUESTS)
        shards = [requests[index::CLIENT_THREADS] for index in range(CLIENT_THREADS)]
        latencies = []
        errors = []
        lock = threading.Lock()

        def drive(shard: list) -> None:
            try:
                with SearchClient(port=port) as client:
                    local = []
                    for dataflow, index, kib in shard:
                        started = time.perf_counter()
                        client.search(
                            dataflow,
                            workload="tiny",
                            layer_index=index,
                            capacity_kib=kib,
                        )
                        local.append(time.perf_counter() - started)
                with lock:
                    latencies.extend(local)
            except Exception as error:  # noqa: BLE001 - reported below
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")

        def load() -> float:
            threads = [
                threading.Thread(target=drive, args=(shard,)) for shard in shards
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            return time.perf_counter() - started

        elapsed = run_once(benchmark, load)
        assert not errors, errors[:5]
        assert len(latencies) == REQUESTS

        with SearchClient(port=port) as client:
            stats = client.stats()
        engine_stats = stats["engine"]
        served_warm = engine_stats["hits"] + engine_stats["coalesced"]
        total = engine_stats["hits"] + engine_stats["misses"] + engine_stats["coalesced"]
        hit_rate = served_warm / total
        throughput = REQUESTS / elapsed
        ordered = sorted(latencies)
        p50 = statistics.median(ordered)
        p99 = ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]

        print(
            f"\nserver load: {REQUESTS} Zipf requests, {CLIENT_THREADS} clients: "
            f"{throughput:,.0f} req/s, p50 {p50 * 1000:.2f} ms, "
            f"p99 {p99 * 1000:.2f} ms, warm-service rate {hit_rate:.3f} "
            f"(hits {engine_stats['hits']}, coalesced {engine_stats['coalesced']}, "
            f"batched {engine_stats['batched']}, misses {engine_stats['misses']})"
        )

        # --- the CI gates ---------------------------------------------------
        assert throughput >= THROUGHPUT_FLOOR_RPS, (
            f"daemon throughput {throughput:.0f} req/s fell below the "
            f"{THROUGHPUT_FLOOR_RPS} req/s floor"
        )
        assert p99 <= P99_CEILING_S, (
            f"p99 latency {p99:.3f}s exceeds the {P99_CEILING_S}s ceiling"
        )
        assert hit_rate >= HIT_RATE_FLOOR, (
            f"warm-service rate {hit_rate:.3f} fell below {HIT_RATE_FLOOR} -- "
            "the cache or the coalescer is not doing its job under Zipf load"
        )
        # Every distinct task is computed at most once.
        assert engine_stats["misses"] <= len(set(requests))
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


def test_warm_restart_serves_entirely_from_sqlite_cache(benchmark):
    """A daemon restarted on its cache file answers with zero misses."""
    tmp = tempfile.mkdtemp(prefix="repro-bench-server-")
    cache_path = os.path.join(tmp, "cache.sqlite")
    requests = sorted(set(_zipf_requests(REQUESTS)))

    def query_all(port: int) -> None:
        with SearchClient(port=port) as client:
            for dataflow, index, kib in requests:
                client.search(
                    dataflow, workload="tiny", layer_index=index, capacity_kib=kib
                )

    process, port = _start_daemon(cache_path, os.path.join(tmp, "runs-cold"))
    try:
        query_all(port)
        with SearchClient(port=port) as client:
            client.shutdown()
        assert process.wait(timeout=30) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    process, port = _start_daemon(cache_path, os.path.join(tmp, "runs-warm"))
    try:
        elapsed = run_once(benchmark, lambda: query_all(port))
        with SearchClient(port=port) as client:
            stats = client.stats()
        assert stats["engine"]["misses"] == 0, (
            f"warm restart recomputed searches: {stats['engine']}"
        )
        assert stats["engine"]["hits"] == len(requests)
        print(
            f"\nwarm restart: {len(requests)} distinct tasks served from the "
            f"SQLite cache with 0 misses"
        )
        del elapsed
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
