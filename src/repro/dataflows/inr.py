"""Input-reuse baseline dataflows (InR-A, InR-B and InR-C of Fig. 12).

All three keep a block of inputs resident on chip and stream weights past it;
they differ in the block's shape:

* **InR-A** -- ``k`` input channels x a ``y' x x'`` spatial patch.  Weights of
  those ``k`` channels (for *all* kernels) are streamed per input block and
  partial sums spill to DRAM once per channel block.
* **InR-B** -- ``k`` complete input channel planes.  Same Psum spilling, but
  no spatial re-reading of inputs.
* **InR-C** -- all ``Ci`` channels of a ``y' x x'`` spatial patch.  Outputs
  complete on chip (no Psum spilling) but every spatial patch streams the
  entire weight tensor.
"""

from __future__ import annotations

from repro.core.layer import ConvLayer, ceil_div
from repro.core.traffic import TrafficBreakdown
from repro.dataflows.base import Dataflow, candidate_extents


def _patch(layer: ConvLayer, x: int, y: int) -> int:
    rows = (y - 1) * layer.stride + layer.kernel_height
    cols = (x - 1) * layer.stride + layer.kernel_width
    return rows * cols


def _patch_arrays(layer: ConvLayer, x, y):
    """Elementwise :func:`_patch` over candidate arrays (same formula)."""
    rows = (y - 1) * layer.stride + layer.kernel_height
    cols = (x - 1) * layer.stride + layer.kernel_width
    return rows * cols


class InRA(Dataflow):
    """Input-stationary over a (channels x spatial patch) block."""

    name = "InR-A"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        for k in candidate_extents(layer.in_channels):
            for y in candidate_extents(layer.out_height):
                for x in candidate_extents(layer.out_width):
                    if k * _patch(layer, x, y) <= capacity_words:
                        yield {"k": k, "y": y, "x": x}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        k, y, x = tiling["k"], tiling["y"], tiling["x"]
        spatial_blocks = ceil_div(layer.out_height, y) * ceil_div(layer.out_width, x)
        channel_blocks = ceil_div(layer.in_channels, k)
        blocks = layer.batch * spatial_blocks * channel_blocks
        kernel_area = layer.kernel_height * layer.kernel_width
        return TrafficBreakdown(
            input_reads=float(blocks * k * _patch(layer, x, y)),
            weight_reads=float(
                layer.batch * spatial_blocks * layer.out_channels * layer.in_channels * kernel_area
            ),
            output_reads=float(layer.num_outputs * (channel_blocks - 1)),
            output_writes=float(layer.num_outputs * channel_blocks),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        k, y, x = grid.grid_axes(
            candidate_extents(layer.in_channels),
            candidate_extents(layer.out_height),
            candidate_extents(layer.out_width),
        )
        patch = _patch_arrays(layer, x, y)
        spatial_blocks = grid.ceil_div(layer.out_height, y) * grid.ceil_div(layer.out_width, x)
        channel_blocks = grid.ceil_div(layer.in_channels, k)
        kernel_area = layer.kernel_height * layer.kernel_width
        return (
            [("k", k), ("y", y), ("x", x)],
            k * patch,
            (
                # blocks * k * patch, grouped so one product spans the grid.
                (layer.batch * spatial_blocks * patch) * (channel_blocks * k),
                layer.batch * spatial_blocks * layer.out_channels * layer.in_channels * kernel_area,
                layer.num_outputs * (channel_blocks - 1),
                layer.num_outputs * channel_blocks,
            ),
        )


class InRB(Dataflow):
    """Input-stationary over complete channel planes."""

    name = "InR-B"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        plane = layer.in_height * layer.in_width
        for k in candidate_extents(layer.in_channels):
            if k * plane <= capacity_words:
                yield {"k": k}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        k = tiling["k"]
        channel_blocks = ceil_div(layer.in_channels, k)
        return TrafficBreakdown(
            input_reads=float(layer.num_inputs),
            weight_reads=float(layer.batch * layer.num_weights),
            output_reads=float(layer.num_outputs * (channel_blocks - 1)),
            output_writes=float(layer.num_outputs * channel_blocks),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        plane = layer.in_height * layer.in_width
        (k,) = grid.grid_axes(candidate_extents(layer.in_channels))
        channel_blocks = grid.ceil_div(layer.in_channels, k)
        return (
            [("k", k)],
            k * plane,
            (
                layer.num_inputs,
                layer.batch * layer.num_weights,
                layer.num_outputs * (channel_blocks - 1),
                layer.num_outputs * channel_blocks,
            ),
        )


class InRC(Dataflow):
    """Input-stationary over all channels of a spatial patch."""

    name = "InR-C"

    def tiling_space(self, layer: ConvLayer, capacity_words: int):
        for y in candidate_extents(layer.out_height):
            for x in candidate_extents(layer.out_width):
                if layer.in_channels * _patch(layer, x, y) <= capacity_words:
                    yield {"y": y, "x": x}

    def traffic(self, layer: ConvLayer, capacity_words: int, tiling: dict) -> TrafficBreakdown:
        y, x = tiling["y"], tiling["x"]
        spatial_blocks = ceil_div(layer.out_height, y) * ceil_div(layer.out_width, x)
        blocks = layer.batch * spatial_blocks
        return TrafficBreakdown(
            input_reads=float(blocks * layer.in_channels * _patch(layer, x, y)),
            weight_reads=float(blocks * layer.num_weights),
            output_reads=0.0,
            output_writes=float(layer.num_outputs),
        )

    def grid_arrays(self, layer: ConvLayer):
        from repro.dataflows import grid

        y, x = grid.grid_axes(
            candidate_extents(layer.out_height),
            candidate_extents(layer.out_width),
        )
        patch = _patch_arrays(layer, x, y)
        spatial_blocks = grid.ceil_div(layer.out_height, y) * grid.ceil_div(layer.out_width, x)
        blocks = layer.batch * spatial_blocks
        return (
            [("y", y), ("x", x)],
            layer.in_channels * patch,
            (
                blocks * layer.in_channels * patch,
                blocks * layer.num_weights,
                0,
                layer.num_outputs,
            ),
        )
