"""Tile-exact analytic simulator of the proposed accelerator (Section V).

:class:`AcceleratorModel` executes a layer's schedule at tile granularity:
it walks every distinct output-block shape produced by the chosen tiling
(interior blocks plus boundary-clipped edge blocks), maps each onto the PE
array (:mod:`repro.arch.mapping`) and accumulates exact access counts for the
DRAM, the two GBufs, the GRegs and the LRegs, together with cycle counts and
utilisation statistics.  Per-MAC simulation is unnecessary because every
quantity the paper reports is a sum over tiles; the functional simulator
(:mod:`repro.arch.functional`) cross-checks these counters on small layers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from repro.arch.config import AcceleratorConfig
from repro.arch.mapping import BlockShape, IterationCost, PEMapping, iteration_cost, map_block, map_block_grid
from repro.core.layer import ConvLayer, ceil_div
from repro.core.optimal_dataflow import choose_tiling, choose_tiling_grid, dataflow_traffic, exact_traffic_grid
from repro.core.tiling import Tiling
from repro.core.traffic import BYTES_PER_WORD, TrafficBreakdown
from repro.engine.cache import SHAPE_MEMO_SIZE, layer_signature, signature_layer


@dataclass(frozen=True)
class LayerRunResult:
    """All access counts and statistics for one layer shape on one configuration.

    One instance is shared by every layer of that shape (see
    :func:`shape_run`), so it is immutable: ``utilization`` is a read-only
    mapping.
    """

    config_name: str
    tiling: Tiling
    macs: int
    useful_macs: int
    dram: TrafficBreakdown
    igbuf_reads: int
    igbuf_writes: int
    wgbuf_reads: int
    wgbuf_writes: int
    greg_writes: int
    lreg_writes: int
    lreg_reads: int
    compute_cycles: int
    waiting_cycles: int
    utilization: MappingProxyType

    # ------------------------------------------------------------ aggregates

    @property
    def gbuf_reads(self) -> int:
        return self.igbuf_reads + self.wgbuf_reads

    @property
    def gbuf_writes(self) -> int:
        return self.igbuf_writes + self.wgbuf_writes

    @property
    def gbuf_accesses(self) -> int:
        return self.gbuf_reads + self.gbuf_writes

    @property
    def reg_accesses(self) -> int:
        """Register access volume as reported in Fig. 17 (LReg + GReg writes)."""
        return self.lreg_writes + self.lreg_reads + self.greg_writes

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.waiting_cycles

    @property
    def dram_accesses(self) -> float:
        return self.dram.total


@dataclass(frozen=True)
class NetworkRunResult:
    """Aggregated result over a list of layers.

    The layer results are frozen, so each sum over them is computed on
    first access and kept, in layer order, as :class:`~repro.timing.
    simulator.NetworkTimingResult` does.
    """

    config_name: str
    layers: tuple

    @functools.cached_property
    def macs(self) -> int:
        return sum(result.macs for result in self.layers)

    @functools.cached_property
    def dram(self) -> TrafficBreakdown:
        total = TrafficBreakdown()
        for result in self.layers:
            total = total + result.dram
        return total

    @functools.cached_property
    def gbuf_accesses(self) -> int:
        return sum(result.gbuf_accesses for result in self.layers)

    @functools.cached_property
    def reg_accesses(self) -> int:
        return sum(result.reg_accesses for result in self.layers)

    @functools.cached_property
    def compute_cycles(self) -> int:
        return sum(result.compute_cycles for result in self.layers)

    @functools.cached_property
    def waiting_cycles(self) -> int:
        return sum(result.waiting_cycles for result in self.layers)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.waiting_cycles

    @functools.cached_property
    def _weighted_utilization(self) -> dict:
        """Per utilisation key, the cycle-weighted sum over layers, in layer
        order (a layer without the key adds ``0.0``)."""
        keys = dict.fromkeys(key for result in self.layers for key in result.utilization)
        return {
            key: sum(result.utilization.get(key, 0.0) * result.compute_cycles for result in self.layers)
            for key in keys
        }

    def utilization(self, key: str) -> float:
        """Cycle-weighted average utilisation across layers."""
        total_cycles = self.compute_cycles
        if not total_cycles:
            return 0.0
        return self._weighted_utilization.get(key, 0.0) / total_cycles


class AcceleratorModel:
    """Analytic model of the proposed accelerator for one configuration."""

    def __init__(self, config: AcceleratorConfig, dram_bandwidth_bytes_per_s: float = 6.4e9):
        self.config = config
        self.dram_bandwidth_bytes_per_s = dram_bandwidth_bytes_per_s

    # ------------------------------------------------------------------ tiling

    def choose_layer_tiling(self, layer: ConvLayer) -> Tiling:
        """Tiling for ``layer`` under this implementation's fixed memory split.

        Constraints: the block's Psums must fit the LRegs (both in total and
        per PE), one iteration's inputs the IGBuf, and one pass's weights
        (``z`` words) the WGBuf.  Candidate tilings are aligned to the PE
        array where possible (``z`` a multiple of the column count, the
        spatial tile divisible by the row grid) so edge waste stays small,
        exactly as the paper's implementations do.  Selection takes two
        passes: every candidate within 2% of the least DRAM traffic is kept,
        and among those the one that wastes the least PE work wins (ties to
        the smaller traffic, then to the earlier candidate).

        The choice depends only on the configuration and the layer's shape,
        so it is memoized per ``(config, layer_signature(layer))`` in the
        bounded :func:`shape_tiling` memo, and computed by
        :meth:`_choose_tiling_grid` when NumPy is importable and the layer
        passes :func:`~repro.dataflows.grid.int64_safe`, by the scalar
        reference :meth:`_choose_tiling_scalar` otherwise.
        """
        tiling = shape_tiling(self.config, layer_signature(layer))
        if tiling is None:
            raise ValueError(
                f"{self.config.name}: no tiling of layer {layer.name!r} fits the "
                "on-chip memories"
            )
        return tiling

    def _choose_tiling_scalar(self, layer: ConvLayer):
        """The tiling choice as a candidate loop; ``None`` when nothing fits."""
        candidates = []
        for tiling in self._candidate_tilings(layer):
            tiling = tiling.clip(layer)
            if not self._fits(layer, tiling):
                continue
            traffic = dataflow_traffic(layer, tiling).total
            candidates.append((traffic, tiling))
        if not candidates:
            return None
        # Two-pass selection: among the tilings within 2% of the minimum DRAM
        # traffic, keep the one that wastes the least PE work and LReg space
        # (the implementations trade a hair of traffic for full PE rows).
        min_traffic = min(traffic for traffic, _ in candidates)
        near_optimal = [
            (traffic, tiling)
            for traffic, tiling in candidates
            if traffic <= 1.02 * min_traffic
        ]
        return min(
            near_optimal,
            key=lambda item: (self._waste(layer, item[1]), item[0]),
        )[1]

    def _choose_tiling_grid(self, layer: ConvLayer):
        """NumPy form of :meth:`_choose_tiling_scalar`, bit-identical to it.

        The candidates are the scalar ones in emission order (duplicates
        kept: a repeat ties with its first occurrence, which wins).  The
        free-split seed comes from ``choose_tiling_grid``; the capacity
        checks of :meth:`_fits` (with :func:`~repro.arch.mapping.
        map_block_grid` for the per-PE LReg check), the exact Eq. (14)
        totals and the waste of :meth:`_waste` are arrays over the
        candidates, and the two-pass selection compares them exactly as the
        scalar loop does.
        """
        from repro.dataflows.grid import lexicographic_argmin, require_numpy

        np = require_numpy()
        config = self.config
        seed = choose_tiling_grid(
            layer,
            config.effective_on_chip_words,
            psum_words=config.psum_words,
            input_buffer_words=config.igbuf_words,
            weight_buffer_words=config.wgbuf_words,
        ).tiling.clip(layer)
        b, z, y, x = (
            np.concatenate(([seed_size], sizes))
            for seed_size, sizes in zip((seed.b, seed.z, seed.y, seed.x), self._aligned_candidate_arrays(layer))
        )

        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        outputs = b * z * y * x
        psums_per_pe, used_pes = map_block_grid(layer, b, z, y, x, config)
        fits = (
            (outputs <= config.psum_words)
            & (b * rows * cols <= config.igbuf_words)
            & (z <= config.wgbuf_words)
            & (psums_per_pe <= config.lreg_words_per_pe)
        )
        if not fits.any():
            return None
        _, _, totals = exact_traffic_grid(layer, b, z, y, x)
        near_optimal = fits & (totals <= 1.02 * totals[fits].min())
        waste = (used_pes * psums_per_pe) / outputs - 1.0
        best = int(lexicographic_argmin((waste, totals), mask=near_optimal))
        return Tiling(b=int(b[best]), z=int(z[best]), y=int(y[best]), x=int(x[best]), k=1)

    def _aligned_candidate_arrays(self, layer: ConvLayer) -> tuple:
        """The PE-aligned candidates of :meth:`_candidate_tilings` as arrays.

        Returns clipped ``(b, z, y, x)`` ``int64`` arrays in emission order.
        Per ``zs`` the scalar generator emits one run of whole-plane batch
        tilings and then one run of spatial tilings per array partition
        grid; the runs are laid out with their lengths and each element's
        position within its run is its ``b`` (batch run) or ``ys``.
        """
        from repro.dataflows.grid import ceil_div as grid_ceil_div, require_numpy

        np = require_numpy()
        config = self.config
        height, width = layer.out_height, layer.out_width
        lreg = config.lreg_words_per_pe
        zs = np.arange(1, min(ceil_div(layer.out_channels, config.pe_cols), lreg) + 1)
        z = np.minimum(np.minimum(zs * config.pe_cols, layer.out_channels), config.wgbuf_words)
        positions_cap = lreg // zs  # >= 1 because zs <= lreg
        max_batch = np.minimum(
            layer.batch, np.maximum(1, (config.pe_rows * positions_cap) // (height * width))
        )
        grid_rows = np.array(_divisors(config.pe_rows))
        grid_cols = config.pe_rows // grid_rows
        max_ys = np.minimum(grid_ceil_div(height, grid_rows), positions_cap[:, None])
        lengths = np.concatenate((max_batch[:, None], max_ys), axis=1).ravel()
        run = np.repeat(np.arange(lengths.size), lengths)
        step = np.arange(run.size) - (np.cumsum(lengths) - lengths)[run] + 1
        zs_index, grid = np.divmod(run, grid_rows.size + 1)
        batch_run = grid == 0
        # grid - 1 is -1 on batch runs; np.where discards those lanes.
        run_rows, run_cols = grid_rows[grid - 1], grid_cols[grid - 1]
        # xs >= 1 because ys <= positions_cap: the scalar `xs < 1` skip never fires.
        xs = np.minimum(grid_ceil_div(width, run_cols), positions_cap[zs_index] // step)
        return (
            np.where(batch_run, step, 1),
            z[zs_index],
            np.where(batch_run, height, np.minimum(step * run_rows, height)),
            np.where(batch_run, width, np.minimum(xs * run_cols, width)),
        )

    def _candidate_tilings(self, layer: ConvLayer):
        """Candidate tilings: the free-split optimum plus PE-aligned variants.

        The PE-aligned candidates are built bottom-up from per-PE tile shapes
        ``(zs, ys, xs)`` and an array partition grid, so interior blocks incur
        no padding waste and each PE's Psums provably fit its LRegs.
        """
        config = self.config
        free_choice = choose_tiling(
            layer,
            config.effective_on_chip_words,
            psum_words=config.psum_words,
            input_buffer_words=config.igbuf_words,
            weight_buffer_words=config.wgbuf_words,
        )
        seen = set()

        def emit(tiling: Tiling):
            tiling = tiling.clip(layer)
            key = (tiling.b, tiling.z, tiling.y, tiling.x, tiling.k)
            if key not in seen:
                seen.add(key)
                yield tiling

        yield from emit(free_choice.tiling)

        lreg = config.lreg_words_per_pe
        plane = layer.out_height * layer.out_width
        max_zs = min(ceil_div(layer.out_channels, config.pe_cols), lreg)
        for zs in range(1, max_zs + 1):
            z = min(layer.out_channels, zs * config.pe_cols, config.wgbuf_words)
            positions_cap = lreg // zs
            if positions_cap < 1:
                continue
            # Whole-plane blocks with batch tiling (small feature maps).
            max_batch = min(layer.batch, max(1, (config.pe_rows * positions_cap) // plane))
            for b in range(1, max_batch + 1):
                yield from emit(Tiling(b=b, z=z, y=layer.out_height, x=layer.out_width, k=1))
            # Spatially tiled blocks aligned to an array partition grid.
            for grid_rows in _divisors(config.pe_rows):
                grid_cols = config.pe_rows // grid_rows
                max_ys = min(ceil_div(layer.out_height, grid_rows), positions_cap)
                for ys in range(1, max_ys + 1):
                    xs = min(ceil_div(layer.out_width, grid_cols), positions_cap // ys)
                    if xs < 1:
                        continue
                    yield from emit(
                        Tiling(b=1, z=z, y=ys * grid_rows, x=xs * grid_cols, k=1)
                    )

    def _fits(self, layer: ConvLayer, tiling: Tiling) -> bool:
        config = self.config
        if tiling.output_block_size() > config.psum_words:
            return False
        if tiling.staged_input_words(layer) > config.igbuf_words:
            return False
        if tiling.staged_weight_words() > config.wgbuf_words:
            return False
        block = BlockShape(b=tiling.b, z=tiling.z, y=tiling.y, x=tiling.x)
        mapping = map_block(layer, block, config)
        return mapping.psums_per_pe <= config.lreg_words_per_pe

    def _waste(self, layer: ConvLayer, tiling: Tiling) -> float:
        """Fraction of PE work wasted on padding within an interior block."""
        block = BlockShape(b=tiling.b, z=tiling.z, y=tiling.y, x=tiling.x)
        mapping = map_block(layer, block, self.config)
        allocated = mapping.used_pes * mapping.psums_per_pe
        return allocated / block.outputs - 1.0 if block.outputs else 0.0

    # --------------------------------------------------------------------- run

    def run_layer(self, layer: ConvLayer, tiling: Tiling = None) -> LayerRunResult:
        """Execute one layer's schedule analytically and return all counters.

        The counters depend only on the configuration, the DRAM bandwidth,
        the layer's shape and the clipped tiling, so the walk runs once per
        such key in the bounded :func:`shape_run` memo and every call
        returns the memoized result itself.
        """
        # The chosen tiling is already clipped.
        tiling = self.choose_layer_tiling(layer) if tiling is None else tiling.clip(layer)
        return shape_run(self.config, self.dram_bandwidth_bytes_per_s, layer_signature(layer), tiling)

    def _walk(self, layer: ConvLayer, tiling: Tiling) -> LayerRunResult:
        """The uncached schedule walk behind :meth:`run_layer` (``tiling`` clipped)."""
        totals = {
            "dram_input_reads": 0,
            "dram_weight_reads": 0,
            "dram_output_writes": 0,
            "igbuf_reads": 0,
            "igbuf_writes": 0,
            "wgbuf_reads": 0,
            "wgbuf_writes": 0,
            "greg_writes": 0,
            "lreg_writes": 0,
            "lreg_reads": 0,
            "compute_cycles": 0,
            "waiting_cycles": 0,
            "useful_macs": 0,
        }
        lreg_occupancy_cycles = 0.0
        greg_occupancy_cycles = 0.0
        igbuf_occupancy_cycles = 0.0
        wgbuf_occupancy_cycles = 0.0

        iterations = ceil_div(layer.in_channels, tiling.k)
        bytes_per_cycle = self.dram_bandwidth_bytes_per_s / self.config.clock_hz

        for block, count in self._block_shapes(layer, tiling):
            mapping = map_block(layer, block, self.config)
            cost = iteration_cost(layer, block, mapping, self.config, channels=tiling.k)

            totals["dram_input_reads"] += count * iterations * cost.dram_input_reads
            totals["dram_weight_reads"] += count * iterations * cost.dram_weight_reads
            totals["dram_output_writes"] += count * block.outputs
            totals["igbuf_reads"] += count * iterations * cost.igbuf_reads
            totals["igbuf_writes"] += count * iterations * cost.igbuf_writes
            totals["wgbuf_reads"] += count * iterations * cost.wgbuf_reads
            totals["wgbuf_writes"] += count * iterations * cost.wgbuf_writes
            totals["greg_writes"] += count * iterations * cost.greg_writes
            totals["lreg_writes"] += count * iterations * cost.lreg_writes
            # Draining a finished block reads every Psum once.
            totals["lreg_reads"] += count * block.outputs
            totals["compute_cycles"] += count * iterations * cost.cycles
            totals["useful_macs"] += count * iterations * cost.useful_macs

            # Waiting time: with double-buffered GBufs the next iteration's
            # operands stream while the current one computes; each iteration
            # stalls only when its DRAM transfer outlasts the computation.
            load_words = cost.dram_input_reads + cost.dram_weight_reads
            load_cycles = load_words * BYTES_PER_WORD / bytes_per_cycle
            per_iter_wait = max(0.0, load_cycles - cost.cycles)
            # The first iteration of each block cannot be hidden at all.
            first_fill = load_cycles
            drain_cycles = block.outputs * BYTES_PER_WORD / bytes_per_cycle
            totals["waiting_cycles"] += int(
                count * (per_iter_wait * max(0, iterations - 1) + first_fill + max(0.0, drain_cycles - cost.cycles))
            )

            block_cycles = count * iterations * cost.cycles
            lreg_occupancy_cycles += block.outputs / self.config.psum_words * block_cycles
            greg_words = self.config.greg_bytes // BYTES_PER_WORD
            greg_used = (
                self.config.num_group_rows * block.z
                + self.config.num_group_cols
                * mapping.used_pe_rows
                * mapping.input_rows_per_pe
                * mapping.input_cols_per_pe
            )
            greg_occupancy_cycles += min(1.0, greg_used / greg_words) * block_cycles
            igbuf_occupancy_cycles += (
                min(1.0, cost.dram_input_reads / self.config.igbuf_words) * block_cycles
            )
            wgbuf_occupancy_cycles += (
                min(1.0, cost.dram_weight_reads / self.config.wgbuf_words) * block_cycles
            )

        compute_cycles = totals["compute_cycles"]
        utilization = self._utilization(
            layer,
            compute_cycles,
            totals["useful_macs"],
            lreg_occupancy_cycles,
            greg_occupancy_cycles,
            igbuf_occupancy_cycles,
            wgbuf_occupancy_cycles,
        )

        dram = TrafficBreakdown(
            input_reads=float(totals["dram_input_reads"]),
            weight_reads=float(totals["dram_weight_reads"]),
            output_reads=0.0,
            output_writes=float(totals["dram_output_writes"]),
        )
        return LayerRunResult(
            config_name=self.config.name,
            tiling=tiling,
            macs=layer.macs,
            useful_macs=layer.macs,
            dram=dram,
            igbuf_reads=totals["igbuf_reads"],
            igbuf_writes=totals["igbuf_writes"],
            wgbuf_reads=totals["wgbuf_reads"],
            wgbuf_writes=totals["wgbuf_writes"],
            greg_writes=totals["greg_writes"],
            lreg_writes=totals["lreg_writes"],
            lreg_reads=totals["lreg_reads"],
            compute_cycles=compute_cycles,
            waiting_cycles=totals["waiting_cycles"],
            utilization=MappingProxyType(utilization),
        )

    def run_network(self, layers: list) -> NetworkRunResult:
        """Run every layer and return the aggregated result."""
        return NetworkRunResult(
            config_name=self.config.name,
            layers=tuple(self.run_layer(layer) for layer in layers),
        )

    # ----------------------------------------------------------------- helpers

    def _block_shapes(self, layer: ConvLayer, tiling: Tiling):
        """Distinct block shapes and how many blocks have each shape."""
        return block_shapes(layer, tiling)

    def _utilization(
        self,
        layer: ConvLayer,
        compute_cycles: int,
        lreg_write_macs: int,
        lreg_occupancy_cycles: float,
        greg_occupancy_cycles: float,
        igbuf_occupancy_cycles: float,
        wgbuf_occupancy_cycles: float,
    ) -> dict:
        if compute_cycles == 0:
            return {key: 0.0 for key in ("pe", "lreg", "greg", "gbuf", "memory")}
        pe = layer.macs / (self.config.num_pes * compute_cycles)
        lreg = lreg_occupancy_cycles / compute_cycles
        greg = greg_occupancy_cycles / compute_cycles
        igbuf = igbuf_occupancy_cycles / compute_cycles
        wgbuf = wgbuf_occupancy_cycles / compute_cycles
        gbuf = (
            igbuf * self.config.igbuf_words + wgbuf * self.config.wgbuf_words
        ) / self.config.gbuf_words
        greg_words = self.config.greg_bytes // BYTES_PER_WORD
        memory_words = self.config.psum_words + self.config.gbuf_words + greg_words
        memory = (
            lreg * self.config.psum_words + gbuf * self.config.gbuf_words + greg * greg_words
        ) / memory_words
        return {
            "pe": min(1.0, pe),
            "lreg": min(1.0, lreg),
            "greg": min(1.0, greg),
            "gbuf": min(1.0, gbuf),
            "memory": min(1.0, memory),
        }


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def shape_tiling(config: AcceleratorConfig, signature: tuple):
    """:meth:`AcceleratorModel.choose_layer_tiling` of one layer shape.

    ``signature`` is :func:`~repro.engine.cache.layer_signature` of the
    layer, so layers that differ only in ``name`` or ``weight_kind`` share
    one entry; ``None`` records that no tiling fits.  NumPy is looked up
    here, at call time, so importing this module never loads it.  A layer
    too large for the grid's exact ``int64`` terms
    (:func:`~repro.dataflows.grid.int64_safe`) takes the scalar loop, as
    the engine's grid groups do.
    """
    from repro.dataflows.grid import int64_safe, numpy_available

    model = AcceleratorModel(config)
    layer = signature_layer(signature)
    if numpy_available() and int64_safe(layer):
        return model._choose_tiling_grid(layer)
    return model._choose_tiling_scalar(layer)


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE, typed=True)
def shape_run(
    config: AcceleratorConfig, dram_bandwidth_bytes_per_s, signature: tuple, tiling: Tiling
) -> LayerRunResult:
    """:meth:`AcceleratorModel.run_layer` of one layer shape under a clipped tiling.

    ``typed``: a float bandwidth and an equal ``int`` or ``Fraction`` are
    distinct keys, so each caller gets its own bandwidth's arithmetic.
    """
    model = AcceleratorModel(config, dram_bandwidth_bytes_per_s)
    return model._walk(signature_layer(signature), tiling)


def block_shapes(layer: ConvLayer, tiling: Tiling):
    """Distinct output-block shapes of ``tiling`` on ``layer`` with counts.

    Yields ``(BlockShape, count)`` pairs covering the whole layer (interior
    blocks plus boundary-clipped edge blocks).  Shared by the analytic model
    and the tile-level timing simulator (:mod:`repro.timing`), which must
    walk the exact same block decomposition for their cycle totals to agree.
    """
    for b_size, b_count in _tile_shapes(layer.batch, tiling.b):
        for z_size, z_count in _tile_shapes(layer.out_channels, tiling.z):
            for y_size, y_count in _tile_shapes(layer.out_height, tiling.y):
                for x_size, x_count in _tile_shapes(layer.out_width, tiling.x):
                    count = b_count * z_count * y_count * x_count
                    yield BlockShape(b=b_size, z=z_size, y=y_size, x=x_size), count


def _divisors(value: int) -> list:
    """All positive divisors of ``value`` in ascending order."""
    return [d for d in range(1, value + 1) if value % d == 0]


def _tile_shapes(extent: int, tile: int) -> list:
    """Distinct (size, count) pairs when ``extent`` is tiled by ``tile``."""
    tile = min(tile, extent)
    full = extent // tile
    remainder = extent - full * tile
    shapes = []
    if full:
        shapes.append((tile, full))
    if remainder:
        shapes.append((remainder, 1))
    return shapes
