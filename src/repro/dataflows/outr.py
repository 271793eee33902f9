"""Output-reuse baseline dataflows (OutR-A and OutR-B of Fig. 12).

Both keep a block of outputs (Psums) resident on chip until complete; they
differ in the block's shape:

* **OutR-A** -- an ``x*y`` plane of outputs belonging to a *single* output
  channel of a single image (this is ShiDianNao's dataflow).  Because only
  one kernel's outputs are resident, the inputs streamed for the block are
  reused by only one kernel: input reuse (InR) is wasted.
* **OutR-B** -- ``Co`` outputs: all output channels at a spatial tile of
  ``x*y`` locations.  Every streamed input is reused by all kernels, but all
  ``Co*Ci*Wk*Hk`` weights must be streamed for every spatial tile.

The stationary block must fit in the effective on-chip memory; the streamed
operands use negligible buffering (one element at a time), as in the paper's
idealised dataflow comparison.
"""

from __future__ import annotations

from repro.core.layer import ConvLayer, ceil_div
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import Dataflow, candidate_extents


class OutRA(Dataflow):
    """Output-stationary per-channel plane (ShiDianNao-style)."""

    name = "OutR-A"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        for y in candidate_extents(layer.out_height):
            for x in candidate_extents(layer.out_width):
                if x * y <= capacity_words:
                    yield {"x": x, "y": y}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        x, y = tiling["x"], tiling["y"]
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        blocks = (
            layer.batch
            * layer.out_channels
            * ceil_div(layer.out_height, y)
            * ceil_div(layer.out_width, x)
        )
        kernel_words = layer.kernel_height * layer.kernel_width * layer.in_channels
        return TrafficBreakdown(
            input_reads=float(blocks * rows * cols * layer.in_channels),
            weight_reads=float(blocks * kernel_words),
            output_reads=0.0,
            output_writes=float(layer.num_outputs),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        # y is the outer loop; the tiling dict lists x first.
        y, x = grid.grid_axes(
            candidate_extents(layer.out_height),
            candidate_extents(layer.out_width),
        )
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        blocks = (
            layer.batch
            * layer.out_channels
            * grid.ceil_div(layer.out_height, y)
            * grid.ceil_div(layer.out_width, x)
        )
        kernel_words = layer.kernel_height * layer.kernel_width * layer.in_channels
        return (
            [("x", x), ("y", y)],
            x * y,
            (
                blocks * rows * cols * layer.in_channels,
                blocks * kernel_words,
                0,
                layer.num_outputs,
            ),
        )


class OutRB(Dataflow):
    """Output-stationary across all output channels at a spatial tile."""

    name = "OutR-B"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        for y in candidate_extents(layer.out_height):
            for x in candidate_extents(layer.out_width):
                if x * y * layer.out_channels <= capacity_words:
                    yield {"x": x, "y": y}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        x, y = tiling["x"], tiling["y"]
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        blocks = layer.batch * ceil_div(layer.out_height, y) * ceil_div(layer.out_width, x)
        return TrafficBreakdown(
            input_reads=float(blocks * rows * cols * layer.in_channels),
            weight_reads=float(blocks * layer.num_weights),
            output_reads=0.0,
            output_writes=float(layer.num_outputs),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        # y is the outer loop; the tiling dict lists x first.
        y, x = grid.grid_axes(
            candidate_extents(layer.out_height),
            candidate_extents(layer.out_width),
        )
        rows = (y - 1) * layer.stride + layer.kernel_height
        cols = (x - 1) * layer.stride + layer.kernel_width
        blocks = layer.batch * grid.ceil_div(layer.out_height, y) * grid.ceil_div(layer.out_width, x)
        return (
            [("x", x), ("y", y)],
            x * y * layer.out_channels,
            (
                blocks * rows * cols * layer.in_channels,
                blocks * layer.num_weights,
                0,
                layer.num_outputs,
            ),
        )
