"""Engine-level benchmark: memoization and fan-out of the tiling searches.

The acceptance bar for the engine is that a cached re-run of a sweep is at
least 5x faster than the cold run that populated the cache, while returning
exactly the same series.  On a multicore box ``SearchEngine(workers=N)``
additionally parallelises the cold run; the parity assertions hold there
too, so this file exercises both axes.
"""

import math
import time

from repro.analysis.report import format_memory_sweep
from repro.analysis.sweep import memory_sweep
from repro.engine import SearchEngine

from conftest import run_once

CAPACITIES_KIB = [16, 66.5, 128, 256]

#: The tentpole's acceptance criterion: warm re-runs >= 5x faster than cold.
MIN_CACHED_SPEEDUP = 5.0


def _series_equal(left: dict, right: dict) -> bool:
    for name, values in left["series"].items():
        for a, b in zip(values, right["series"][name]):
            if not ((math.isnan(a) and math.isnan(b)) or a == b):
                return False
    return True


def test_engine_cached_rerun_speedup(benchmark, vgg_layers):
    engine = SearchEngine(workers=1)
    layers = vgg_layers[:8]

    start = time.perf_counter()
    cold = memory_sweep(capacities_kib=CAPACITIES_KIB, layers=layers, engine=engine)
    cold_seconds = time.perf_counter() - start
    # Shape-equal VGG layers already dedup inside the cold run, so hits may be
    # nonzero here; what matters is that the warm run adds no misses.
    cold_misses = engine.stats.misses
    assert cold_misses > 0

    start = time.perf_counter()
    warm = run_once(
        benchmark,
        memory_sweep,
        capacities_kib=CAPACITIES_KIB,
        layers=layers,
        engine=engine,
    )
    warm_seconds = time.perf_counter() - start

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(f"\ncold: {cold_seconds:.3f}s  warm: {warm_seconds:.3f}s  speedup: {speedup:.1f}x")
    print(f"engine: {engine.stats}")
    print(format_memory_sweep(warm))

    assert _series_equal(cold, warm), "cached re-run changed the series"
    assert engine.stats.misses == cold_misses, "warm run re-executed searches"
    assert len(engine.cache) == cold_misses
    assert speedup >= MIN_CACHED_SPEEDUP, (
        f"cached re-run only {speedup:.1f}x faster (need >= {MIN_CACHED_SPEEDUP}x)"
    )


def test_engine_parallel_parity_with_serial(benchmark, vgg_layers):
    layers = vgg_layers[:4]
    serial = memory_sweep(
        capacities_kib=[16, 66.5], layers=layers, engine=SearchEngine(workers=1)
    )
    parallel = run_once(
        benchmark,
        memory_sweep,
        capacities_kib=[16, 66.5],
        layers=layers,
        engine=SearchEngine(workers=2),
    )
    assert _series_equal(serial, parallel), "parallel engine changed the series"


def test_engine_disk_cache_roundtrip(benchmark, vgg_layers, tmp_path):
    path = str(tmp_path / "engine-cache.sqlite")
    layers = vgg_layers[:4]

    cold_engine = SearchEngine(cache_path=path)
    cold = memory_sweep(capacities_kib=[66.5], layers=layers, engine=cold_engine)
    saved = cold_engine.save()
    assert saved == cold_engine.stats.misses

    warm_engine = SearchEngine(cache_path=path)
    warm = run_once(
        benchmark, memory_sweep, capacities_kib=[66.5], layers=layers, engine=warm_engine
    )
    assert warm_engine.stats.misses == 0, "disk cache did not serve the warm run"
    assert _series_equal(cold, warm)
