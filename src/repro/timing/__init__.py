"""Tile-level timing simulation (stall-accurate cycles vs. DRAM bandwidth).

See :mod:`repro.timing.simulator` for the model; the ``timing`` experiment
(:mod:`repro.analysis.timing_report`) exposes bandwidth-utilization sweeps
through the CLI and the run orchestrator.  A timed run is priced by
:meth:`repro.energy.model.EnergyModel.network_energy` with the timed
per-layer cycles (see :func:`repro.arch.performance.simulate_network`).
"""

from repro.timing.simulator import (
    DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S,
    LayerTimingReport,
    NetworkTimingResult,
    TileGroup,
    TimingSimulator,
    steady_breakeven_bytes_per_cycle,
    tile_groups,
)

__all__ = [
    "DEFAULT_DRAM_BANDWIDTH_BYTES_PER_S",
    "LayerTimingReport",
    "NetworkTimingResult",
    "TileGroup",
    "TimingSimulator",
    "steady_breakeven_bytes_per_cycle",
    "tile_groups",
]
