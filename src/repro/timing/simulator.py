"""Double-buffered per-tile timing simulator (ROADMAP direction 2).

The analytic :class:`~repro.arch.accelerator.AcceleratorModel` folds DRAM
transfers into aggregate ``waiting_cycles`` with float arithmetic; it can
reproduce Fig. 19 but cannot say *which* buffer stalls, *when* in a layer's
lifetime, or how the picture changes as DRAM bandwidth varies.  This module
walks the actual tile stream instead:

* a **tile** is one channel iteration of one output block -- the unit the
  controller FSM issues (:mod:`repro.arch.schedule`);
* the accelerator is double buffered, so while tile ``i`` computes, tile
  ``i+1``'s inputs (IGBuf) and weights (WGBuf) stream from DRAM; the clock
  advances by ``max(compute_cycles, load_cycles)`` per steady-state tile;
* the first tile of every block cannot be overlapped at all (the prologue
  *fill*), and after a block's last tile its Psums drain to DRAM, exposed
  only where the drain outlasts one tile's compute (the epilogue);
* blocks are independent: no prefetch crosses a block boundary, matching
  the analytic model's structure (and its infinite-bandwidth limit exactly).

All cycle quantities are **exact integers**: bandwidth enters as a rational
bytes-per-cycle (:func:`repro.core.traffic.bytes_per_cycle_fraction`) and
every transfer duration is a ceiling division.  Stalls are attributed per
buffer by the stream order (inputs first, weights last): of an exposed
window ``s``, the final ``min(s, weight_load_cycles)`` cycles are WGBuf
time and the rest IGBuf time.

Two walks produce bit-identical reports: a scalar reference loop that
advances a clock tile by tile (:func:`_simulate_python`), and a NumPy walk
that evaluates the same recurrence as a prefix sum over the whole tile
stream (:func:`_simulate_numpy`).  The simulator picks at call time: the
NumPy walk whenever NumPy imports, the scalar loop otherwise
(``tests/test_timing_parity.py`` proves the equivalence, and
``benchmarks/bench_timing.py`` gates the speedup at >= 10x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from repro.arch.config import AcceleratorConfig
from repro.arch.mapping import BlockShape, iteration_cost, map_block
from repro.core.layer import ConvLayer, ceil_div
from repro.core.tiling import Tiling
from repro.core.traffic import BYTES_PER_WORD, bytes_per_cycle_fraction, cycles_for_bytes
# Module level on purpose: NumPy (when installed) loads with the simulator,
# not inside the first timed walk.
from repro.dataflows.grid import numpy_available, require_numpy
from repro.engine.cache import SHAPE_MEMO_SIZE, layer_signature, signature_layer

#: The paper's DRAM bandwidth: 6.4 GB/s (Section VI), i.e. 12.8 B/cycle.
DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S = 6.4e9

#: Guard for the NumPy walk: if the worst-case total cycle count cannot
#: be represented comfortably in int64 (absurdly low bandwidths), the
#: simulator transparently uses the (equally exact) scalar reference.
_INT64_SAFE_LIMIT = 2 ** 62


@dataclass(frozen=True)
class TileGroup:
    """All tiles sharing one block shape: the simulator's unit of work.

    ``count`` blocks of shape ``block`` each run ``iterations`` channel
    iterations; per iteration the PE array computes for ``compute_cycles``
    while ``input_words``/``weight_words`` stream into the GBufs, and per
    block ``drain_words`` Psums leave the array at the end.
    """

    block: BlockShape
    count: int
    iterations: int
    compute_cycles: int
    input_words: int
    weight_words: int
    drain_words: int

    @property
    def tiles(self) -> int:
        return self.count * self.iterations

    @property
    def load_bytes(self) -> int:
        """DRAM bytes streamed per channel iteration (inputs + weights)."""
        return (self.input_words + self.weight_words) * BYTES_PER_WORD


def tile_groups(layer: ConvLayer, tiling: Tiling, config: AcceleratorConfig) -> tuple:
    """The layer's tile stream under ``tiling``, grouped by block shape.

    Mirrors :meth:`repro.arch.accelerator.AcceleratorModel.run_layer`
    exactly -- same block decomposition, same per-iteration cost, same
    ``ceil(Ci/k)`` iteration count -- so the simulated compute cycles are
    bit-identical to the analytic model's by construction.
    """
    from repro.arch.accelerator import block_shapes

    tiling = tiling.clip(layer)
    iterations = ceil_div(layer.in_channels, tiling.k)
    groups = []
    for block, count in block_shapes(layer, tiling):
        mapping = map_block(layer, block, config)
        cost = iteration_cost(layer, block, mapping, config, channels=tiling.k)
        groups.append(
            TileGroup(
                block=block,
                count=count,
                iterations=iterations,
                compute_cycles=cost.cycles,
                input_words=cost.dram_input_reads,
                weight_words=cost.dram_weight_reads,
                drain_words=block.outputs,
            )
        )
    return tuple(groups)


def steady_breakeven_bytes_per_cycle(groups):
    """Exact roofline break-even of the steady state, in bytes per cycle.

    The smallest bandwidth at which **no** steady-state tile stalls: the
    max over tile groups (with a steady state, ``iterations >= 2``) of
    ``load_bytes / compute_cycles``.  Because compute cycles are integers,
    ``ceil(load_bytes / bpc) <= compute`` holds *iff* ``bpc`` is at or
    above this :class:`~fractions.Fraction` -- the property suite asserts
    both directions.  ``None`` means no group has a steady state; ``inf``
    means some steady tile computes for zero cycles and can never hide its
    load.  Prologue fills and epilogue drains are excluded: a fill is never
    hidden at any bandwidth.
    """
    candidates = []
    for group in groups:
        if group.iterations < 2 or group.load_bytes == 0:
            continue
        if group.compute_cycles <= 0:
            return math.inf
        candidates.append(Fraction(group.load_bytes, group.compute_cycles))
    return max(candidates) if candidates else None


@dataclass(frozen=True)
class LayerTimingReport:
    """Stall-accurate cycle accounting of one layer shape at one bandwidth.

    Every ``*_cycles`` field is an exact integer.  Fill stalls are the
    prologue (the first tile of each block, never hidden), steady stalls
    the hideable-but-exposed remainder, and the drain stall the epilogue.
    One report is shared by every layer of its shape (see
    :func:`shape_timing`).
    """

    config_name: str
    tiling: Tiling
    bandwidth_bytes_per_s: object
    clock_hz: float
    blocks: int
    tiles: int
    macs: int
    compute_cycles: int
    igbuf_fill_stall_cycles: int
    wgbuf_fill_stall_cycles: int
    igbuf_steady_stall_cycles: int
    wgbuf_steady_stall_cycles: int
    drain_stall_cycles: int
    dram_bytes_loaded: int
    dram_bytes_drained: int
    steady_breakeven_bytes_per_cycle: object

    # ---------------------------------------------------------- aggregates

    @property
    def igbuf_stall_cycles(self) -> int:
        return self.igbuf_fill_stall_cycles + self.igbuf_steady_stall_cycles

    @property
    def wgbuf_stall_cycles(self) -> int:
        return self.wgbuf_fill_stall_cycles + self.wgbuf_steady_stall_cycles

    @property
    def prologue_stall_cycles(self) -> int:
        """First-tile fills: exposed in full at every finite bandwidth."""
        return self.igbuf_fill_stall_cycles + self.wgbuf_fill_stall_cycles

    @property
    def steady_stall_cycles(self) -> int:
        """Steady-state exposure: zero at or above the roofline break-even."""
        return self.igbuf_steady_stall_cycles + self.wgbuf_steady_stall_cycles

    @property
    def epilogue_stall_cycles(self) -> int:
        return self.drain_stall_cycles

    @property
    def stall_cycles(self) -> int:
        return self.prologue_stall_cycles + self.steady_stall_cycles + self.drain_stall_cycles

    @property
    def waiting_cycles(self) -> int:
        """Alias matching the analytic model's vocabulary (Fig. 19)."""
        return self.stall_cycles

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def total_seconds(self) -> float:
        return self.total_cycles / self.clock_hz

    @property
    def utilization(self) -> float:
        """Share of the run the PE array computes (1.0 = never stalled)."""
        return self.compute_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def dram_bytes_moved(self) -> int:
        return self.dram_bytes_loaded + self.dram_bytes_drained

    @property
    def achieved_bytes_per_cycle(self) -> float:
        return self.dram_bytes_moved / self.total_cycles if self.total_cycles else 0.0

    @property
    def achieved_bandwidth_bytes_per_s(self) -> float:
        return self.achieved_bytes_per_cycle * self.clock_hz


@dataclass(frozen=True)
class NetworkTimingResult:
    """Per-layer timing reports plus network aggregates.

    Exposes ``compute_cycles``/``waiting_cycles``/``total_cycles``/``macs``
    so :func:`repro.arch.performance.performance_report` and
    :func:`~repro.arch.performance.throughput_macs_per_second` accept it
    exactly like an analytic :class:`~repro.arch.accelerator.NetworkRunResult`.
    The layer reports are frozen, so each integer sum over them is computed
    on first access and kept.
    """

    config_name: str
    bandwidth_bytes_per_s: object
    layers: tuple

    def _sum(self, attribute: str) -> int:
        return sum(getattr(layer, attribute) for layer in self.layers)

    @functools.cached_property
    def macs(self) -> int:
        return self._sum("macs")

    @functools.cached_property
    def compute_cycles(self) -> int:
        return self._sum("compute_cycles")

    @functools.cached_property
    def igbuf_stall_cycles(self) -> int:
        return self._sum("igbuf_stall_cycles")

    @functools.cached_property
    def wgbuf_stall_cycles(self) -> int:
        return self._sum("wgbuf_stall_cycles")

    @functools.cached_property
    def drain_stall_cycles(self) -> int:
        return self._sum("drain_stall_cycles")

    @functools.cached_property
    def prologue_stall_cycles(self) -> int:
        return self._sum("prologue_stall_cycles")

    @functools.cached_property
    def steady_stall_cycles(self) -> int:
        return self._sum("steady_stall_cycles")

    @functools.cached_property
    def waiting_cycles(self) -> int:
        return self._sum("stall_cycles")

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.waiting_cycles

    @functools.cached_property
    def dram_bytes_moved(self) -> int:
        return self._sum("dram_bytes_moved")

    @property
    def utilization(self) -> float:
        return self.compute_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def achieved_bytes_per_cycle(self) -> float:
        return self.dram_bytes_moved / self.total_cycles if self.total_cycles else 0.0


class TimingSimulator:
    """Tile-level timing of one accelerator configuration at one bandwidth."""

    def __init__(
        self,
        config: AcceleratorConfig,
        dram_bandwidth_bytes_per_s=DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S,
    ):
        self.config = config
        self.dram_bandwidth_bytes_per_s = dram_bandwidth_bytes_per_s
        self.bytes_per_cycle = bytes_per_cycle_fraction(
            dram_bandwidth_bytes_per_s, config.clock_hz
        )

    # ------------------------------------------------------------------ api

    def run_layer(self, layer: ConvLayer, tiling: Tiling = None) -> LayerTimingReport:
        """Simulate one layer; the tiling defaults to the analytic model's
        choice so both models walk the identical schedule.

        The report depends only on the configuration, the bandwidth, the
        layer's shape and the clipped tiling, so the walk runs once per such
        key in the bounded :func:`shape_timing` memo and every call returns
        the memoized report itself.
        """
        if tiling is None:
            from repro.arch.accelerator import AcceleratorModel

            # The chosen tiling is already clipped.
            tiling = AcceleratorModel(self.config).choose_layer_tiling(layer)
        else:
            tiling = tiling.clip(layer)
        return shape_timing(self.config, self.dram_bandwidth_bytes_per_s, layer_signature(layer), tiling)

    def _walk(self, layer: ConvLayer, tiling: Tiling) -> LayerTimingReport:
        """The uncached tile-stream walk behind :meth:`run_layer`."""
        groups = tile_groups(layer, tiling, self.config)
        if numpy_available():
            stats = _simulate_numpy(groups, self.bytes_per_cycle)
        else:
            stats = _simulate_python(groups, self.bytes_per_cycle)
        return LayerTimingReport(
            config_name=self.config.name,
            tiling=tiling,
            bandwidth_bytes_per_s=self.dram_bandwidth_bytes_per_s,
            clock_hz=self.config.clock_hz,
            blocks=sum(group.count for group in groups),
            tiles=sum(group.tiles for group in groups),
            macs=layer.macs,
            compute_cycles=stats["compute_cycles"],
            igbuf_fill_stall_cycles=stats["igbuf_fill"],
            wgbuf_fill_stall_cycles=stats["wgbuf_fill"],
            igbuf_steady_stall_cycles=stats["igbuf_steady"],
            wgbuf_steady_stall_cycles=stats["wgbuf_steady"],
            drain_stall_cycles=stats["drain"],
            dram_bytes_loaded=sum(group.tiles * group.load_bytes for group in groups),
            dram_bytes_drained=sum(
                group.count * group.drain_words * BYTES_PER_WORD for group in groups
            ),
            steady_breakeven_bytes_per_cycle=steady_breakeven_bytes_per_cycle(groups),
        )

    def run_network(self, layers) -> NetworkTimingResult:
        return NetworkTimingResult(
            config_name=self.config.name,
            bandwidth_bytes_per_s=self.dram_bandwidth_bytes_per_s,
            layers=tuple(self.run_layer(layer) for layer in layers),
        )


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE, typed=True)
def shape_timing(
    config: AcceleratorConfig, dram_bandwidth_bytes_per_s, signature: tuple, tiling: Tiling
) -> LayerTimingReport:
    """:meth:`TimingSimulator.run_layer` of one layer shape under a clipped tiling.

    ``typed``: a float bandwidth and an equal ``int`` or ``Fraction`` are
    distinct keys, so each report keeps its caller's bandwidth object.
    """
    simulator = TimingSimulator(config, dram_bandwidth_bytes_per_s)
    return simulator._walk(signature_layer(signature), tiling)


# -------------------------------------------------------------------- walks


def _group_cycles(group: TileGroup, bytes_per_cycle) -> tuple:
    """Exact per-group durations: (compute, load, weight load, drain)."""
    compute = group.compute_cycles
    load = cycles_for_bytes(group.load_bytes, bytes_per_cycle)
    weight_load = cycles_for_bytes(group.weight_words * BYTES_PER_WORD, bytes_per_cycle)
    drain = cycles_for_bytes(group.drain_words * BYTES_PER_WORD, bytes_per_cycle)
    return compute, load, weight_load, drain


def _attribute(stall: int, weight_load: int) -> tuple:
    """Split an exposed window by stream order: weights last, inputs first."""
    wgbuf = min(stall, weight_load)
    return stall - wgbuf, wgbuf


def _simulate_python(groups, bytes_per_cycle) -> dict:
    """Scalar reference: advance a clock through every tile of the stream."""
    stats = {
        "compute_cycles": 0,
        "igbuf_fill": 0,
        "wgbuf_fill": 0,
        "igbuf_steady": 0,
        "wgbuf_steady": 0,
        "drain": 0,
    }
    clock = 0
    for group in groups:
        compute, load, weight_load, drain = _group_cycles(group, bytes_per_cycle)
        drain_stall = max(0, drain - compute)
        for _ in range(group.count):
            for index in range(group.iterations):
                # The fill is fully exposed; a steady-state tile stalls only
                # where the prefetched load outlasts the previous compute.
                stall = load if index == 0 else max(0, load - compute)
                igbuf, wgbuf = _attribute(stall, weight_load)
                if index == 0:
                    stats["igbuf_fill"] += igbuf
                    stats["wgbuf_fill"] += wgbuf
                else:
                    stats["igbuf_steady"] += igbuf
                    stats["wgbuf_steady"] += wgbuf
                clock += stall + compute
            clock += drain_stall
        stats["drain"] += group.count * drain_stall
    stats["compute_cycles"] = clock - (
        stats["igbuf_fill"]
        + stats["wgbuf_fill"]
        + stats["igbuf_steady"]
        + stats["wgbuf_steady"]
        + stats["drain"]
    )
    return stats


def _simulate_numpy(groups, bytes_per_cycle) -> dict:
    """Vectorized walk: the same recurrence as a tile-stream prefix sum.

    Per-group durations are computed with exact Python integers (huge
    denominators from pathological bandwidths never touch int64), then
    broadcast across the tile stream; the clock is the prefix sum of the
    per-tile advances and the total is its last element.
    """
    np = require_numpy()
    per_group = [_group_cycles(group, bytes_per_cycle) for group in groups]
    worst_case = sum(
        group.count * (group.iterations * (compute + load) + max(0, drain - compute))
        for group, (compute, load, _, drain) in zip(groups, per_group)
    )
    if worst_case >= _INT64_SAFE_LIMIT:
        # Exactness beats speed: int64 could overflow, so use the scalar
        # reference (bit-identical by the parity suite's definition).
        return _simulate_python(groups, bytes_per_cycle)

    active = [
        (group, cycles) for group, cycles in zip(groups, per_group) if group.tiles
    ]
    if not active:
        return _simulate_python(groups, bytes_per_cycle)

    tiles = np.array([group.tiles for group, _ in active], dtype=np.int64)
    compute = np.repeat(
        np.array([cycles[0] for _, cycles in active], dtype=np.int64), tiles
    )
    load = np.repeat(
        np.array([cycles[1] for _, cycles in active], dtype=np.int64), tiles
    )
    weight_load = np.repeat(
        np.array([cycles[2] for _, cycles in active], dtype=np.int64), tiles
    )
    periods = {group.iterations for group, _ in active}
    if len(periods) == 1:
        # Every group of a layer shares ceil(Ci/k) iterations and contributes
        # a multiple of that many tiles, so one arange over the whole stream
        # marks each block's first tile.
        first = np.arange(int(tiles.sum()), dtype=np.int64) % periods.pop() == 0
    else:
        first = np.concatenate(
            [
                np.arange(group.tiles, dtype=np.int64) % group.iterations == 0
                for group, _ in active
            ]
        )

    stall = np.where(first, load, np.maximum(load - compute, 0))
    wgbuf = np.minimum(stall, weight_load)
    igbuf = stall - wgbuf
    # The double-buffer recurrence: each tile finishes one advance after the
    # previous, so the stream clock is a prefix sum of the advances.
    finish = np.cumsum(stall + compute)
    stream_cycles = int(finish[-1])

    drain_total = sum(
        group.count * max(0, drain - group_compute)
        for group, (group_compute, _, _, drain) in zip(groups, per_group)
    )
    stall_total = int(stall.sum())
    igbuf_total = int(igbuf.sum())
    wgbuf_total = int(wgbuf.sum())
    igbuf_fill = int(igbuf[first].sum())
    wgbuf_fill = int(wgbuf[first].sum())
    return {
        "compute_cycles": stream_cycles - stall_total,
        "igbuf_fill": igbuf_fill,
        "wgbuf_fill": wgbuf_fill,
        "igbuf_steady": igbuf_total - igbuf_fill,
        "wgbuf_steady": wgbuf_total - wgbuf_fill,
        "drain": drain_total,
    }
