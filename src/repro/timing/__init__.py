"""Tile-level timing simulation (stall-accurate cycles vs. DRAM bandwidth).

See :mod:`repro.timing.simulator` for the model; the ``timing`` experiment
(:mod:`repro.analysis.timing_report`) exposes bandwidth-utilization sweeps
through the CLI and the run orchestrator.
"""

from repro.timing.simulator import (
    DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S,
    LayerTimingReport,
    NetworkTimingResult,
    TileGroup,
    TimingSimulator,
    steady_breakeven_bytes_per_cycle,
    tile_groups,
    timing_network_energy,
)

__all__ = [
    "DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S",
    "LayerTimingReport",
    "NetworkTimingResult",
    "TileGroup",
    "TimingSimulator",
    "steady_breakeven_bytes_per_cycle",
    "tile_groups",
    "timing_network_energy",
]
