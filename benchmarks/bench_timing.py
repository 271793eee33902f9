"""Timing-simulator benchmark: the per-group sum against the tile-by-tile loop.

The tile-level timing simulator sums each tile group's stalls as products
(``_simulate_groups``).  It must return the bit-identical stall accounting
of the scalar reference loop (``_simulate_python``), which advances a clock
through every tile, and cover the same stream at least 100x faster.
VGG-16 on implementation-1 at 3.2 GB/s (a bandwidth-bound point, so every
stall category is exercised) streams ~184k tiles; both walks consume the
same precomputed :func:`repro.timing.tile_groups` streams so the gate
measures the walk itself, not the shared tiling search.
"""

import time

from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import paper_implementation
from repro.timing import TimingSimulator, tile_groups
from repro.timing.simulator import _simulate_groups, _simulate_python

from conftest import run_once

#: The per-group sum must beat the tile-by-tile loop by at least this much.
MIN_GROUP_SUM_SPEEDUP = 100.0

#: A bandwidth-bound operating point (half the paper's 6.4 GB/s interface).
BANDWIDTH_BYTES_PER_S = 3.2e9

ROUNDS = 3


def _tile_streams(config, layers):
    model = AcceleratorModel(config)
    streams = []
    for layer in layers:
        tiling = model.choose_layer_tiling(layer).clip(layer)
        streams.append(tile_groups(layer, tiling, config))
    return streams


def _best_of(rounds, func):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_group_sum_speedup(benchmark, vgg_layers):
    config = paper_implementation(1)
    streams = _tile_streams(config, vgg_layers)
    bytes_per_cycle = TimingSimulator(config, BANDWIDTH_BYTES_PER_S).bytes_per_cycle
    tiles = sum(group.tiles for stream in streams for group in stream)

    scalar = [_simulate_python(stream, bytes_per_cycle) for stream in streams]
    summed = run_once(
        benchmark,
        lambda: [_simulate_groups(stream, bytes_per_cycle) for stream in streams],
    )
    assert summed == scalar, "the per-group sum changed the stall accounting"

    scalar_seconds = _best_of(
        ROUNDS, lambda: [_simulate_python(stream, bytes_per_cycle) for stream in streams]
    )
    summed_seconds = _best_of(
        ROUNDS, lambda: [_simulate_groups(stream, bytes_per_cycle) for stream in streams]
    )
    speedup = scalar_seconds / summed_seconds if summed_seconds > 0 else float("inf")
    print(
        f"\n{tiles} tiles: scalar {scalar_seconds * 1e3:.1f} ms, "
        f"per-group sum {summed_seconds * 1e3:.2f} ms, speedup {speedup:.0f}x"
    )
    assert speedup >= MIN_GROUP_SUM_SPEEDUP, (
        f"per-group sum only {speedup:.1f}x faster "
        f"(need >= {MIN_GROUP_SUM_SPEEDUP}x)"
    )


#: Report field of each stall-accounting entry the walks return.
REPORT_FIELDS = {
    "compute_cycles": "compute_cycles",
    "igbuf_fill": "igbuf_fill_stall_cycles",
    "wgbuf_fill": "wgbuf_fill_stall_cycles",
    "igbuf_steady": "igbuf_steady_stall_cycles",
    "wgbuf_steady": "wgbuf_steady_stall_cycles",
    "drain": "drain_stall_cycles",
}


def test_walks_agree_end_to_end(benchmark, vgg_layers):
    """Full run_network parity at the benchmark's operating point: what the
    timing experiment executes, against the scalar walk of every layer."""
    config = paper_implementation(1)
    streams = _tile_streams(config, vgg_layers)  # also warms the tiling cache
    simulator = TimingSimulator(config, BANDWIDTH_BYTES_PER_S)
    reference = [_simulate_python(stream, simulator.bytes_per_cycle) for stream in streams]

    timed = run_once(benchmark, simulator.run_network, vgg_layers)
    for report, stats in zip(timed.layers, reference):
        assert {key: getattr(report, field) for key, field in REPORT_FIELDS.items()} == stats
    assert timed.total_cycles == sum(sum(stats.values()) for stats in reference)
    print(
        f"\nVGG-16 at 3.2 GB/s: {timed.total_cycles} cycles, "
        f"utilization {timed.utilization:.3f}"
    )
