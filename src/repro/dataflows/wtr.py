"""Weight-reuse baseline dataflows (WtR-A and WtR-B of Fig. 12).

Both keep a block of weights resident on chip and stream inputs past it;
partial sums are spilled to DRAM whenever the resident weights do not cover
all input channels.

* **WtR-A** -- ``z`` kernels x ``k`` input channels of weights are resident
  (``z*k*Wk*Hk`` words).  Inputs of those ``k`` channels are streamed once
  per kernel block; partial sums are written/re-read once per channel block.
* **WtR-B** -- ``z`` complete kernels are resident (``z*Ci*Wk*Hk`` words), so
  outputs are produced in full (no Psum spilling), but the entire input
  tensor is streamed once per kernel block.
"""

from __future__ import annotations

from repro.core.layer import ConvLayer, ceil_div
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import Dataflow, candidate_extents


class WtRA(Dataflow):
    """Weight-stationary over a (kernels x input channels) block."""

    name = "WtR-A"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        kernel_area = layer.kernel_height * layer.kernel_width
        for z in candidate_extents(layer.out_channels):
            for k in candidate_extents(layer.in_channels):
                if z * k * kernel_area <= capacity_words:
                    yield {"z": z, "k": k}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        z, k = tiling["z"], tiling["k"]
        kernel_blocks = ceil_div(layer.out_channels, z)
        channel_blocks = ceil_div(layer.in_channels, k)
        input_plane = layer.batch * layer.in_height * layer.in_width
        return TrafficBreakdown(
            input_reads=float(kernel_blocks * layer.in_channels * input_plane),
            weight_reads=float(layer.num_weights),
            output_reads=float(layer.num_outputs * (channel_blocks - 1)),
            output_writes=float(layer.num_outputs * channel_blocks),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        kernel_area = layer.kernel_height * layer.kernel_width
        z, k = grid.grid_axes(
            candidate_extents(layer.out_channels),
            candidate_extents(layer.in_channels),
        )
        kernel_blocks = grid.ceil_div(layer.out_channels, z)
        channel_blocks = grid.ceil_div(layer.in_channels, k)
        input_plane = layer.batch * layer.in_height * layer.in_width
        return (
            [("z", z), ("k", k)],
            z * k * kernel_area,
            (
                kernel_blocks * layer.in_channels * input_plane,
                layer.num_weights,
                layer.num_outputs * (channel_blocks - 1),
                layer.num_outputs * channel_blocks,
            ),
        )


class WtRB(Dataflow):
    """Weight-stationary over complete kernels."""

    name = "WtR-B"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        kernel_words = layer.kernel_height * layer.kernel_width * layer.in_channels
        for z in candidate_extents(layer.out_channels):
            if z * kernel_words <= capacity_words:
                yield {"z": z}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        z = tiling["z"]
        kernel_blocks = ceil_div(layer.out_channels, z)
        return TrafficBreakdown(
            input_reads=float(kernel_blocks * layer.num_inputs),
            weight_reads=float(layer.num_weights),
            output_reads=0.0,
            output_writes=float(layer.num_outputs),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        kernel_words = layer.kernel_height * layer.kernel_width * layer.in_channels
        (z,) = grid.grid_axes(candidate_extents(layer.out_channels))
        kernel_blocks = grid.ceil_div(layer.out_channels, z)
        return (
            [("z", z)],
            z * kernel_words,
            (
                kernel_blocks * layer.num_inputs,
                layer.num_weights,
                0,
                layer.num_outputs,
            ),
        )
