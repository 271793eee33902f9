"""Execution time and power model (Fig. 19).

The accelerator model already splits cycles into *compute* and *waiting*
(DRAM transfers that double buffering cannot hide).  This module converts
cycles to seconds at the core clock and combines them with the energy model
to obtain average power dissipation, matching the quantities of Fig. 19.

:func:`simulate_network` is the one-call front door over both cycle models:
``mode="analytic"`` runs the first-order
:class:`~repro.arch.accelerator.AcceleratorModel`, ``mode="timing"`` the
tile-level double-buffered simulator (:mod:`repro.timing`), whose
infinite-bandwidth limit reproduces the analytic cycles bit-identically.
Both modes price energy through the one
:meth:`~repro.energy.model.EnergyModel.network_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.energy.model import EnergyBreakdown


@dataclass(frozen=True)
class PerformanceReport:
    """Execution time, power and throughput of one network on one configuration."""

    config_name: str
    compute_seconds: float
    waiting_seconds: float
    energy_joules: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.waiting_seconds

    @property
    def power_watts(self) -> float:
        """Average power over the run (energy / time)."""
        return self.energy_joules / self.total_seconds if self.total_seconds else 0.0

    @property
    def waiting_fraction(self) -> float:
        """Share of the run spent waiting on DRAM."""
        return self.waiting_seconds / self.total_seconds if self.total_seconds else 0.0

    def speedup_over(self, other: "PerformanceReport") -> float:
        """How much faster this configuration is than ``other``."""
        if self.total_seconds == 0:
            raise ValueError("cannot compute a speedup for a zero-time run")
        return other.total_seconds / self.total_seconds


def performance_report(
    network_result,
    config: AcceleratorConfig,
    energy: EnergyBreakdown,
) -> PerformanceReport:
    """Build the Fig. 19 quantities for one network run."""
    compute_seconds = network_result.compute_cycles / config.clock_hz
    waiting_seconds = network_result.waiting_cycles / config.clock_hz
    return PerformanceReport(
        config_name=config.name,
        compute_seconds=compute_seconds,
        waiting_seconds=waiting_seconds,
        energy_joules=energy.total * 1e-12,
    )


def simulate_network(
    layers,
    config: AcceleratorConfig,
    mode: str = "analytic",
    dram_bandwidth_bytes_per_s: float = 6.4e9,
    energy_model=None,
) -> tuple:
    """Run ``layers`` on ``config`` and report Fig. 19 quantities.

    Returns ``(network_result, PerformanceReport)``.  ``mode="analytic"``
    is the aggregate model behind Fig. 19; ``mode="timing"`` walks the tile
    stream with per-buffer stall accounting.  Both modes price energy with
    :meth:`~repro.energy.model.EnergyModel.network_energy`; in timing mode
    the access counts come from the analytic walk (a stall moves no extra
    data) while the leakage term is charged over each layer's
    stall-lengthened timed cycles.
    """
    from repro.arch.accelerator import AcceleratorModel
    from repro.energy.model import EnergyModel

    if energy_model is None:
        energy_model = EnergyModel()
    if mode == "analytic":
        network = AcceleratorModel(config, dram_bandwidth_bytes_per_s).run_network(layers)
        energy = energy_model.network_energy(network, config)
    elif mode == "timing":
        from repro.timing import TimingSimulator

        network = TimingSimulator(config, dram_bandwidth_bytes_per_s).run_network(layers)
        energy = energy_model.network_energy(
            AcceleratorModel(config).run_network(layers),
            config,
            total_cycles=[timed.total_cycles for timed in network.layers],
        )
    else:
        raise ValueError(f"unknown simulation mode {mode!r}; choose analytic or timing")
    return network, performance_report(network, config, energy)


def throughput_macs_per_second(network_result, config: AcceleratorConfig) -> float:
    """Achieved MAC throughput including waiting time."""
    total_cycles = network_result.total_cycles
    if total_cycles == 0:
        return 0.0
    return network_result.macs / (total_cycles / config.clock_hz)
