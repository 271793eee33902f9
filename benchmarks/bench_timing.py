"""Timing-simulator benchmark: the vectorized walk must earn its keep.

The acceptance bar for the tile-level timing simulator is that the NumPy
prefix-sum walk (``_simulate_numpy``) covers the same tile stream at least
10x faster than the scalar reference loop (``_simulate_python``) while
returning the bit-identical stall accounting.  VGG-16 on implementation-1
at 3.2 GB/s (a bandwidth-bound point, so every stall category is exercised)
streams ~184k tiles; both walks consume the same precomputed
:func:`repro.timing.tile_groups` streams so the gate measures the
recurrence evaluation itself, not the shared tiling search.
"""

import time

import pytest

np = pytest.importorskip("numpy")

from repro.arch.accelerator import AcceleratorModel  # noqa: E402
from repro.arch.config import paper_implementation  # noqa: E402
from repro.timing import TimingSimulator, tile_groups  # noqa: E402
from repro.timing.simulator import _simulate_numpy, _simulate_python  # noqa: E402

from conftest import run_once  # noqa: E402

#: The tentpole's acceptance criterion: vectorized >= 10x the scalar loop.
MIN_VECTORIZED_SPEEDUP = 10.0

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


def test_vectorized_backend_speedup(benchmark, vgg_layers):
    config = paper_implementation(1)
    streams = _tile_streams(config, vgg_layers)
    bytes_per_cycle = TimingSimulator(config, BANDWIDTH_BYTES_PER_S).bytes_per_cycle
    tiles = sum(group.tiles for stream in streams for group in stream)

    scalar = [_simulate_python(stream, bytes_per_cycle) for stream in streams]
    vectorized = run_once(
        benchmark,
        lambda: [_simulate_numpy(stream, bytes_per_cycle) for stream in streams],
    )
    assert vectorized == scalar, "vectorized walk changed the stall accounting"

    scalar_seconds = _best_of(
        ROUNDS, lambda: [_simulate_python(stream, bytes_per_cycle) for stream in streams]
    )
    vector_seconds = _best_of(
        ROUNDS, lambda: [_simulate_numpy(stream, bytes_per_cycle) for stream in streams]
    )
    speedup = scalar_seconds / vector_seconds if vector_seconds > 0 else float("inf")
    print(
        f"\n{tiles} tiles: scalar {scalar_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized walk only {speedup:.1f}x faster "
        f"(need >= {MIN_VECTORIZED_SPEEDUP}x)"
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


def test_backends_agree_end_to_end(benchmark, vgg_layers):
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
