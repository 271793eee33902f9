"""End-to-end smoke for the search daemon; the CI ``server-smoke`` gate.

Run as ``python -m repro.server.smoke``.  It spawns a real daemon
subprocess with a SQLite-backed cache, then proves the service claims that
matter:

1. **bit-identity under concurrency** -- 32 threads fire overlapping
   searches (every distinct task requested several times); every served
   result must equal the direct ``SearchEngine`` answer exactly;
2. **coalescing and batching are active** -- ``/stats`` must report
   ``coalesced > 0`` (duplicate in-flight requests shared computations) and
   ``batched > 0`` (compatible capacities merged into grid evaluations);
3. **experiment streaming works** -- a small orchestrated run streams
   per-unit NDJSON events ending in a report;
4. **SIGTERM is graceful** -- the daemon exits 0, and the SQLite cache it
   leaves behind reopens cleanly with the searched entries present and
   servable as hits.

Exits 0 on success, 1 with a diagnostic on any failure.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

DATAFLOWS = ("Ours", "OutR-A", "InR-B")
CAPACITIES_KIB = (16, 64)
LAYER_INDICES = (0, 1)
REPEATS = 3  # 3 repeats x 12 distinct tasks + 1 warm-up batch = 37 requests

STARTUP_TIMEOUT_S = 30.0
SHUTDOWN_TIMEOUT_S = 30.0


def fail(message: str) -> None:
    print(f"server smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def start_daemon(cache_path: str, work_dir: str) -> tuple:
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
    )
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line:
            break
        if process.poll() is not None:
            fail(f"daemon died at startup: {process.stderr.read()}")
    if not line:
        process.kill()
        fail("daemon produced no listening announcement in time")
    try:
        announcement = json.loads(line)
        assert announcement["event"] == "listening"
    except (json.JSONDecodeError, KeyError, AssertionError):
        process.kill()
        fail(f"unexpected startup line: {line!r}")
    return process, announcement["port"]


def main() -> int:
    from repro.core.layer import kib_to_words
    from repro.dataflows.registry import get_dataflow
    from repro.engine import SearchCache, SearchEngine
    from repro.server.client import SearchClient
    from repro.workloads.registry import get_workload_spec

    tasks = [
        (dataflow, index, kib)
        for dataflow in DATAFLOWS
        for index in LAYER_INDICES
        for kib in CAPACITIES_KIB
    ]
    layers = get_workload_spec("tiny")

    # Ground truth, computed directly (fresh engine, no cache file).
    engine = SearchEngine()
    expected = {
        (name, index, kib): engine.try_search(
            get_dataflow(name), layers[index], kib_to_words(kib)
        )
        for name, index, kib in tasks
    }

    tmp = tempfile.mkdtemp(prefix="repro-server-smoke-")
    cache_path = os.path.join(tmp, "cache.sqlite")
    work_dir = os.path.join(tmp, "runs")
    process, port = start_daemon(cache_path, work_dir)
    try:
        # --- 1. concurrency: every task requested REPEATS times at once ---
        requests = tasks * REPEATS
        served = {}
        errors = []
        lock = threading.Lock()
        barrier = threading.Barrier(len(requests))

        def worker(slot: int, task: tuple) -> None:
            dataflow, index, kib = task
            try:
                with SearchClient(port=port) as client:
                    barrier.wait(timeout=60)
                    result = client.search(
                        dataflow, workload="tiny", layer_index=index, capacity_kib=kib
                    )
                with lock:
                    served[(slot, task)] = result
            except Exception as error:  # noqa: BLE001 - collected and reported
                with lock:
                    errors.append(f"{task}: {type(error).__name__}: {error}")

        threads = [
            threading.Thread(target=worker, args=(slot, task))
            for slot, task in enumerate(requests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        if errors:
            fail("request errors: " + "; ".join(errors[:5]))
        if len(served) != len(requests):
            fail(f"served {len(served)} of {len(requests)} requests")
        for (_slot, task), result in served.items():
            if result != expected[task]:
                fail(
                    f"served result differs from direct engine for {task}:\n"
                    f"  served:   {result}\n  expected: {expected[task]}"
                )

        with SearchClient(port=port) as client:
            # One multi-capacity request exercises the search-many endpoint
            # (and is a guaranteed same-layer batch on top of the stampede).
            many = client.search_many(
                "Ours",
                workload="tiny",
                layer_index=0,
                capacities_kib=list(CAPACITIES_KIB),
            )
            expected_many = [
                expected[("Ours", 0, kib)] for kib in CAPACITIES_KIB
            ]
            if many != expected_many:
                fail("search_many results differ from direct engine")

            # --- 2. coalescing/batching counters ----------------------------
            stats = client.stats()
            engine_stats = stats["engine"]
            if engine_stats.get("coalesced", 0) <= 0:
                fail(f"expected coalesced > 0 under duplicates, got {engine_stats}")
            if engine_stats.get("batched", 0) <= 0:
                fail(f"expected batched > 0 under concurrent load, got {engine_stats}")
            if stats["cache_entries"] < len(tasks):
                fail(
                    f"cache holds {stats['cache_entries']} entries, "
                    f"expected >= {len(tasks)}"
                )

            # --- 3. experiment streaming ------------------------------------
            events = list(
                client.run_experiments(
                    ["table2"], out_dir="smoke-run", workloads=["tiny"]
                )
            )
            if not events or events[-1].get("event") != "report":
                fail(f"experiment stream did not end in a report: {events[-2:]}")
            report = events[-1]["report"]
            if report.get("units_failed", 1) != 0:
                fail(f"streamed run reported failures: {report}")
            if not any(event.get("event") == "unit" for event in events):
                fail(f"no per-unit progress events streamed: {events}")

        # --- 4. graceful SIGTERM -------------------------------------------
        process.send_signal(signal.SIGTERM)
        try:
            code = process.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            fail("daemon did not exit within the SIGTERM grace window")
        if code != 0:
            fail(f"daemon exited {code} on SIGTERM: {process.stderr.read()}")

        # The cache must reopen cleanly and serve the searched entries as
        # hits -- proof the SQLite store was flushed before exit.
        reopened = SearchCache(path=cache_path)
        try:
            if len(reopened) < len(tasks):
                fail(
                    f"reopened cache holds {len(reopened)} entries, "
                    f"expected >= {len(tasks)}"
                )
        finally:
            reopened.close()
        warm = SearchEngine(cache_path=cache_path)
        try:
            for dataflow, index, kib in tasks:
                result = warm.try_search(
                    get_dataflow(dataflow), layers[index], kib_to_words(kib)
                )
                if result != expected[(dataflow, index, kib)]:
                    fail(
                        "restarted cache served a different result for "
                        f"{(dataflow, index, kib)}"
                    )
            if warm.stats.hits != len(tasks) or warm.stats.misses != 0:
                fail(f"restarted cache was not fully warm: {warm.stats}")
        finally:
            warm.cache.close()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()

    print(
        "server smoke: ALL OK "
        f"({len(requests) + 2} requests, coalesced={engine_stats['coalesced']}, "
        f"batched={engine_stats['batched']}, cache_entries={stats['cache_entries']})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
