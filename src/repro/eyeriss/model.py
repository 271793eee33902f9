"""Analytic row-stationary Eyeriss model.

The paper compares against Eyeriss [7], [10] using the access volumes
published in the Eyeriss journal paper.  Those per-layer measurements are not
available offline, so this module substitutes an analytic model of the
row-stationary (RS) dataflow with Eyeriss's published architecture
parameters:

* 12 x 14 PE array at 200 MHz;
* 108 KB GBuf, of which 100 KB holds input feature maps and partial sums and
  8 KB prefetches weights;
* 448 B of local scratchpads per PE (weights dominate: ~224 words);
* effective on-chip memory 173.5 KB (the accounting used in the paper's
  Fig. 15 comparison).

The RS schedule is modelled as an exhaustive search over four tile
parameters: ``n`` images, ``m`` output channels and ``e`` output rows whose
partial sums are held in the GBuf, and ``c`` input channels whose feature
maps are held in the GBuf.  Within one (filter-group, strip) the channel
groups iterate with partial sums resident, so Psums never spill to DRAM --
but input feature maps are re-read once per filter group and weights are
re-streamed once per image group and strip, which is exactly the behaviour
that makes Eyeriss's DRAM and GBuf traffic larger than the proposed
dataflow's.  The model reproduces the *relationships* of Figs. 15/16 (who is
larger and by roughly what factor), not Eyeriss's exact published megabytes;
see DESIGN.md section 4.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from repro.core.layer import ConvLayer, ceil_div
from repro.core.traffic import TrafficBreakdown, sum_traffic
from repro.dataflows.base import candidate_extents
from repro.engine.cache import SHAPE_MEMO_SIZE, layer_signature, signature_layer

#: On-chip (post-compression, with zero gating) energy efficiency reported for
#: Eyeriss on VGGNet-16, used for the direct numeric comparison in Section VI-D.
EYERISS_REPORTED_ON_CHIP_PJ_PER_MAC = 22.1

#: Reported VGG-16 convolutional-layer processing time of the Eyeriss chip
#: (sub-1 fps; ~0.7 frames/s including DRAM stalls), used for the performance
#: comparison of Section VI-D.  Approximate -- the exact per-layer latencies
#: are not available offline.
EYERISS_REPORTED_VGG16_SECONDS_PER_IMAGE = 1.45

#: DRAM access volumes for VGG-16 (batch 3) reported for Eyeriss in the
#: paper's Table III, kept alongside our analytic RS model so the comparison
#: can be made against both the published measurement and the model.
EYERISS_REPORTED_VGG16_DRAM_MB = {"compressed": 321.3, "uncompressed": 528.8}

#: Assumed per-layer input compression ratios for VGG-16 (compressed ifmap
#: size / raw size).  The journal paper reports per-layer ratios that this
#: table approximates: early layers are dense, deeper layers increasingly
#: sparse after ReLU.
VGG16_INPUT_COMPRESSION = (
    1.00, 0.85, 0.75, 0.70, 0.65, 0.60, 0.60, 0.55, 0.50, 0.50, 0.45, 0.45, 0.40,
)


@dataclass(frozen=True)
class EyerissConfig:
    """Architecture parameters of the Eyeriss baseline."""

    name: str = "Eyeriss"
    pe_rows: int = 12
    pe_cols: int = 14
    gbuf_data_words: int = 51200  # 100 KB of the 108 KB GBuf (ifmaps + psums)
    weight_prefetch_words: int = 4096  # 8 KB weight staging region
    spad_weight_words_per_pe: int = 224  # dominant part of the 448 B/PE spads
    clock_hz: float = 200e6
    effective_on_chip_kib: float = 173.5

    @property
    def num_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def spad_weight_words_total(self) -> int:
        return self.num_pes * self.spad_weight_words_per_pe


EYERISS_CONFIG = EyerissConfig()


@dataclass(frozen=True)
class EyerissLayerResult:
    """DRAM and GBuf access volumes of one layer shape under the RS model.

    One instance is shared by every layer of that shape (see
    :func:`shape_best_tile`), so ``tile`` is a read-only mapping.
    """

    tile: MappingProxyType
    dram: TrafficBreakdown
    gbuf_accesses: float

    @property
    def dram_total(self) -> float:
        return self.dram.total


class EyerissModel:
    """Row-stationary traffic model with exhaustive tile search."""

    def __init__(self, config: EyerissConfig = EYERISS_CONFIG):
        self.config = config

    # ------------------------------------------------------------------ tiles

    def _tile_space(self, layer: ConvLayer):
        kernel_area = layer.kernel_height * layer.kernel_width
        for n in candidate_extents(layer.batch):
            for m in candidate_extents(layer.out_channels, max_candidates=24):
                for c in candidate_extents(layer.in_channels, max_candidates=24):
                    if m * c * kernel_area > self.config.spad_weight_words_total:
                        continue
                    for e in candidate_extents(layer.out_height, max_candidates=24):
                        strip_rows = (e - 1) * layer.stride + layer.kernel_height
                        ifmap_words = n * c * strip_rows * layer.in_width
                        psum_words = n * m * e * layer.out_width
                        if ifmap_words + psum_words <= self.config.gbuf_data_words:
                            yield {"n": n, "m": m, "c": c, "e": e}

    def _traffic(self, layer: ConvLayer, tile: dict) -> TrafficBreakdown:
        n, m, e = tile["n"], tile["m"], tile["e"]
        filter_groups = ceil_div(layer.out_channels, m)
        image_groups = ceil_div(layer.batch, n)
        strips = ceil_div(layer.out_height, e)
        input_reads = filter_groups * layer.num_inputs
        weight_reads = layer.num_weights * image_groups * strips
        return TrafficBreakdown(
            input_reads=float(input_reads),
            weight_reads=float(weight_reads),
            output_reads=0.0,
            output_writes=float(layer.num_outputs),
        )

    def _gbuf_accesses(self, layer: ConvLayer, tile: dict, dram: TrafficBreakdown) -> float:
        """GBuf traffic of the RS schedule.

        Input feature maps are written into the GBuf once per DRAM read and
        read out towards the PE array once per kernel row they participate in
        (the RS row reuse happens in the spads, but each ifmap row is
        delivered to ``Hk`` PE rows); partial sums shuttle between the array
        and the GBuf once per channel group (read + write) because the array
        holds only one channel group's accumulation at a time.
        """
        c = tile["c"]
        channel_groups = ceil_div(layer.in_channels, c)
        ifmap_gbuf = dram.input_reads * (1.0 + layer.kernel_height)
        psum_gbuf = 2.0 * layer.num_outputs * channel_groups
        return ifmap_gbuf + psum_gbuf

    # ------------------------------------------------------------------ public

    def run_layer(self, layer: ConvLayer) -> EyerissLayerResult:
        """Best-tile RS traffic for one layer (uncompressed).

        The result depends only on the configuration and the layer's shape:
        it is memoized in the bounded :func:`shape_best_tile` memo, and every
        call returns the memoized result itself.
        """
        result = shape_best_tile(self.config, layer_signature(layer))
        if result is None:
            raise ValueError(f"no RS tile of layer {layer.name!r} fits the Eyeriss GBuf")
        return result

    def _best_tile_scalar(self, layer: ConvLayer):
        """``(tile, dram)`` of the first least-traffic tile, or ``None``."""
        best = None
        for tile in self._tile_space(layer):
            dram = self._traffic(layer, tile)
            if best is None or dram.total < best[0]:
                best = (dram.total, tile, dram)
        return None if best is None else best[1:]

    def _best_tile_grid(self, layer: ConvLayer):
        """NumPy form of :meth:`_best_tile_scalar`, bit-identical to it.

        The ``(n, m, c, e)`` grid is laid out as broadcast axes
        (:func:`~repro.dataflows.grid.grid_axes`), so every term is computed
        over the axes it depends on, and the C-order flat index of a grid
        point is its position in the scalar loop order.  The two capacity
        checks of :meth:`_tile_space` become a mask and the totals are summed
        like :attr:`TrafficBreakdown.total`, so ``argmin``'s first minimum is
        the scalar loop's first strict one.
        """
        from repro.dataflows.grid import ceil_div as grid_ceil_div, grid_axes, require_numpy

        np = require_numpy()
        config = self.config
        extents = (
            candidate_extents(layer.batch),
            candidate_extents(layer.out_channels, max_candidates=24),
            candidate_extents(layer.in_channels, max_candidates=24),
            candidate_extents(layer.out_height, max_candidates=24),
        )
        n, m, c, e = grid_axes(*extents)
        strip_rows = (e - 1) * layer.stride + layer.kernel_height
        fits = (m * c * layer.kernel_height * layer.kernel_width <= config.spad_weight_words_total) & (
            n * c * strip_rows * layer.in_width + n * m * e * layer.out_width <= config.gbuf_data_words
        )
        if not fits.any():
            return None
        input_reads = (grid_ceil_div(layer.out_channels, m) * layer.num_inputs).astype(np.float64)
        weight_reads = (
            layer.num_weights * grid_ceil_div(layer.batch, n) * grid_ceil_div(layer.out_height, e)
        ).astype(np.float64)
        totals = ((input_reads + weight_reads) + 0.0) + float(layer.num_outputs)
        best = np.unravel_index(int(np.argmin(np.where(fits, totals, np.inf))), fits.shape)
        tile = {key: values[index] for key, values, index in zip("nmce", extents, best)}
        return tile, self._traffic(layer, tile)

    def run_network(self, layers: list) -> list:
        """Per-layer results for a whole network."""
        return [self.run_layer(layer) for layer in layers]

    def network_dram(self, layers: list, compression: tuple = None) -> TrafficBreakdown:
        """Network DRAM traffic, optionally with per-layer input compression."""
        parts = []
        for index, layer in enumerate(layers):
            result = self.run_layer(layer)
            dram = result.dram
            if compression is not None:
                ratio = compression[index] if index < len(compression) else 1.0
                dram = TrafficBreakdown(
                    input_reads=dram.input_reads * ratio,
                    weight_reads=dram.weight_reads,
                    output_reads=dram.output_reads * ratio,
                    output_writes=dram.output_writes * ratio,
                )
            parts.append(dram)
        return sum_traffic(parts)


@functools.lru_cache(maxsize=SHAPE_MEMO_SIZE)
def shape_best_tile(config: EyerissConfig, signature: tuple):
    """:meth:`EyerissModel.run_layer` of one layer shape, or ``None`` when no
    tile fits.

    ``signature`` is :func:`~repro.engine.cache.layer_signature` of the
    layer, so layers that differ only in ``name`` or ``weight_kind`` share
    one entry.  The tile is computed by :meth:`EyerissModel._best_tile_grid`
    when NumPy is importable (looked up at call time, so importing this
    module never loads it) and the layer passes
    :func:`~repro.dataflows.grid.int64_safe`, and by the scalar loop
    otherwise.
    """
    from repro.dataflows.grid import int64_safe, numpy_available

    model = EyerissModel(config)
    layer = signature_layer(signature)
    if numpy_available() and int64_safe(layer):
        best = model._best_tile_grid(layer)
    else:
        best = model._best_tile_scalar(layer)
    if best is None:
        return None
    tile, dram = best
    return EyerissLayerResult(MappingProxyType(tile), dram, model._gbuf_accesses(layer, tile, dram))
