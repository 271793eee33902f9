"""Fig. 13: DRAM access volume vs. effective on-chip memory for every dataflow.

The paper sweeps 16-256 KB in 16 KB steps; to keep the harness fast this
bench uses a representative subset of capacities that still covers the whole
range (including 66.5 KB and 173.5 KB, the capacities used in later figures).

The sweep is a shape census: the engine answers one task per (capacity,
dataflow, distinct layer shape), and every searched series must equal the
per-layer, left-to-right float sum it replaced.

The sweep's largest grid, InR-A on ``conv1_2``, is also gated on memory:
its candidate grid is evaluated on broadcast axes, so only the footprint
and the totals span all 215 296 candidates.
"""

import json
import math
import tracemalloc

from repro.analysis.report import format_memory_sweep
from repro.analysis.sweep import FIG13_DEFAULT_CAPACITIES_KIB, memory_sweep
from repro.core.layer import kib_to_words
from repro.dataflows.registry import ALL_DATAFLOWS
from repro.engine import SearchEngine, layer_signature

from conftest import run_once

CAPACITIES_KIB = [16, 32, 66.5, 128, 173.5, 256]

#: tracemalloc ceiling (MiB) of one InR-A grid search on ``conv1_2`` at
#: Fig. 13's seven capacities: ~8.7 MiB on broadcast axes, 23.4 MiB when the
#: grid was a materialised meshgrid.
INRA_GRID_PEAK_MIB = 12


def per_layer_series(capacities_kib, layers, engine) -> dict:
    """The searched series as the per-layer loop summed them: one task per
    layer, totals added left to right, NaN where any layer fits nothing."""
    series = {dataflow.name: [] for dataflow in ALL_DATAFLOWS}
    series["Found minimum"] = []
    for capacity_kib in capacities_kib:
        best = [math.inf] * len(layers)
        for dataflow in ALL_DATAFLOWS:
            results = engine.search_tasks(
                [(dataflow, layer, kib_to_words(capacity_kib)) for layer in layers]
            )
            totals = 0.0
            for index, result in enumerate(results):
                if result is not None:
                    totals += result.total
                    best[index] = min(best[index], result.total)
            feasible = None not in results
            series[dataflow.name].append(totals * 2 / 1024**3 if feasible else math.nan)
        minimum = sum(value for value in best if value != math.inf)
        series["Found minimum"].append(minimum * 2 / 1024**3)
    return series


def test_fig13_memory_sweep(benchmark, vgg_layers):
    engine = SearchEngine()
    sweep = run_once(
        benchmark, memory_sweep, capacities_kib=CAPACITIES_KIB, layers=vgg_layers, engine=engine
    )
    print("\nFig. 13: DRAM access volume (GB) vs effective on-chip memory")
    print(format_memory_sweep(sweep))

    # The census: one task per (capacity, dataflow, shape), not per layer.
    shapes = len({layer_signature(layer) for layer in vgg_layers})
    tasks = engine.stats.hits + engine.stats.misses
    assert tasks == len(CAPACITIES_KIB) * len(ALL_DATAFLOWS) * shapes
    print(f"census: {len(vgg_layers)} layers, {shapes} shapes, {tasks} engine tasks")
    reference = per_layer_series(CAPACITIES_KIB, vgg_layers, engine)
    for name, values in reference.items():
        assert json.dumps(sweep["series"][name]) == json.dumps(values), name

    series = sweep["series"]
    bound = series["Lower bound"]
    ours = series["Ours"]
    found = series["Found minimum"]

    # The bound and our dataflow both shrink monotonically with more memory.
    assert all(bound[i + 1] <= bound[i] + 1e-9 for i in range(len(bound) - 1))
    assert all(ours[i + 1] <= ours[i] * 1.02 for i in range(len(ours) - 1))

    for index in range(len(CAPACITIES_KIB)):
        # Our dataflow sits close to the bound and the found minimum improves
        # on it only marginally (paper: 10% and 4.5% on average).
        assert ours[index] <= 1.45 * bound[index]
        assert found[index] <= ours[index] + 1e-9
        assert found[index] >= 0.80 * ours[index]
        # Every baseline dataflow that fits is at least as expensive as ours.
        for name, values in series.items():
            if name in ("Lower bound", "Ours", "Found minimum"):
                continue
            if not math.isnan(values[index]):
                assert ours[index] <= values[index] * 1.05, (name, CAPACITIES_KIB[index])


def test_inra_grid_peak_memory(vgg_layers):
    """Memory gate: the largest Fig. 13 grid stays within its ceiling.

    ``tracemalloc`` counts NumPy's buffers exactly, so the peak of one
    search is deterministic, unlike a wall-clock or RSS reading.
    """
    from repro.dataflows.registry import get_dataflow

    layer = next(layer for layer in vgg_layers if layer.name == "conv1_2")
    capacities = [kib_to_words(capacity) for capacity in FIG13_DEFAULT_CAPACITIES_KIB]
    inra = get_dataflow("InR-A")
    inra.traffic_grid(layer, capacities)  # imports and first-call set-up
    tracemalloc.start()
    try:
        inra.traffic_grid(layer, capacities)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    print(f"\nInR-A grid on conv1_2: tracemalloc peak {peak / 2**20:.2f} MiB")
    assert peak <= INRA_GRID_PEAK_MIB * 2**20
