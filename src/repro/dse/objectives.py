"""First-order objective model: traffic -> (DRAM, energy, time) per config.

The tile-exact :class:`~repro.arch.accelerator.AcceleratorModel` walks every
block of every layer and is the reference for the paper's five
implementations; at design-space scale (hundreds of configs per sweep) the
DSE instead scores each candidate from the *searched* per-layer DRAM traffic
with a first-order access-count model:

* every DRAM-fetched input/weight word is written to its GBuf once, read out
  once, and lands in a GReg once (replication across PE groups is a
  second-order effect and is ignored);
* every MAC updates an LReg once; every output word leaving the array is
  read from an LReg once, and every re-fetched partial sum (``output_reads``)
  costs one extra LReg write;
* compute time is MAC-bound (``ceil(macs / num_pes)`` cycles per layer) and
  DRAM transfers overlap compute behind double buffering, so a layer's
  cycles are ``max(compute, transfer)``.

The counts feed the *same* Table II energy model every figure uses
(:meth:`repro.energy.model.EnergyModel.energy_from_counts` -- the exact
arithmetic of ``layer_energy``) and the same Fig. 19 performance model
(:func:`repro.arch.performance.performance_report`), so DSE objectives and
the paper figures share one set of constants.  ``tests/test_dse.py``
cross-checks the estimate against the tile-exact model on the Table I
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.arch.performance import performance_report
from repro.core.layer import ceil_div
from repro.core.traffic import BYTES_PER_WORD
from repro.energy.dram import DramModel
from repro.energy.model import EnergyModel


@dataclass(frozen=True)
class CycleEstimate:
    """Just enough of a network-run result to drive ``performance_report``."""

    compute_cycles: float
    waiting_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.compute_cycles + self.waiting_cycles


def estimate_cycles(
    config: AcceleratorConfig,
    layers,
    per_layer_traffic,
    dram: DramModel,
    weights=None,
) -> CycleEstimate:
    """MAC-bound compute overlapped with DRAM streaming, per layer.

    ``weights[i]`` repeats layer ``i`` that many times (a traffic mix scores
    each unique shape once and multiplies); ``None`` means every layer runs
    once.  Stalls are computed per execution, then scaled -- repeating a
    layer repeats its fill/drain behaviour, it does not amortise it.
    """
    bytes_per_cycle = dram.peak_bandwidth_bytes_per_s / config.clock_hz
    if weights is None:
        weights = (1,) * len(layers)
    compute_total = 0
    waiting_total = 0.0
    for layer, traffic, weight in zip(layers, per_layer_traffic, weights):
        compute = ceil_div(layer.macs, config.num_pes)
        transfer = traffic.total * BYTES_PER_WORD / bytes_per_cycle
        compute_total += weight * compute
        waiting_total += weight * max(0.0, transfer - compute)
    return CycleEstimate(compute_cycles=compute_total, waiting_cycles=waiting_total)


def estimate_counts(layers, per_layer_traffic, weights=None) -> dict:
    """First-order access counts (see the module docstring for the model).

    ``weights[i]`` repeats layer ``i`` that many times; ``None`` means once.
    """
    if weights is None:
        weights = (1,) * len(layers)
    input_reads = sum(w * t.input_reads for t, w in zip(per_layer_traffic, weights))
    weight_reads = sum(w * t.weight_reads for t, w in zip(per_layer_traffic, weights))
    output_reads = sum(w * t.output_reads for t, w in zip(per_layer_traffic, weights))
    output_writes = sum(w * t.output_writes for t, w in zip(per_layer_traffic, weights))
    macs = sum(w * layer.macs for layer, w in zip(layers, weights))
    return {
        "dram_words": sum(w * t.total for t, w in zip(per_layer_traffic, weights)),
        "igbuf_reads": input_reads,
        "igbuf_writes": input_reads,
        "wgbuf_reads": weight_reads,
        "wgbuf_writes": weight_reads,
        "greg_writes": input_reads + weight_reads,
        "macs": macs,
        "lreg_writes": macs + output_reads,
        "lreg_reads": output_writes + output_reads,
    }


def stall_aware_time_ms(config: AcceleratorConfig, layers, dram: DramModel, weights=None) -> float:
    """Stall-aware latency from the tile-level timing simulator, in ms.

    Runs the double-buffered per-tile simulator (:mod:`repro.timing`) at
    the DRAM model's peak bandwidth with the accelerator's own tiling
    choice, so the objective reflects fill/steady/drain stalls the
    first-order ``max(compute, transfer)`` estimate cannot see.
    ``weights[i]`` repeats layer ``i`` that many times, as in
    :func:`estimate_cycles`: the cycles are summed as exact ints and
    divided by the clock once, so a weighted shape list gives the same
    value as the expanded layer list.  Raises ``ValueError`` when no tiling
    of some layer fits the config's memories (the DSE counts such configs
    as infeasible).  Each distinct layer shape is one walk, a sum over its
    tile groups; the tiling choice behind it is what makes the objective
    costlier than the first-order trio, which is why ``stall_time`` is
    opt-in.
    """
    from repro.timing import TimingSimulator

    simulator = TimingSimulator(config, dram.peak_bandwidth_bytes_per_s)
    if weights is None:
        weights = (1,) * len(layers)
    total_cycles = sum(
        weight * simulator.run_layer(layer).total_cycles
        for layer, weight in zip(layers, weights)
    )
    return total_cycles / config.clock_hz * 1e3


def config_objectives(
    config: AcceleratorConfig,
    layers,
    per_layer_traffic,
    energy_model: EnergyModel = None,
    include_stall_time: bool = False,
    weights=None,
) -> dict:
    """The DSE objective vector of one config on one workload.

    ``per_layer_traffic`` is the co-searched best
    :class:`~repro.core.traffic.TrafficBreakdown` per layer.  Returns the
    three minimised objectives plus the derived quantities a frontier reader
    wants alongside them; ``include_stall_time`` adds the tile-level
    simulator's stall-aware latency (may raise ``ValueError`` for configs
    whose memories fit no tiling).  ``weights`` repeats each layer (a
    traffic mix scores unique shapes and multiplies) in every objective.
    """
    if energy_model is None:
        energy_model = EnergyModel()
    counts = estimate_counts(layers, per_layer_traffic, weights=weights)
    cycles = estimate_cycles(
        config, layers, per_layer_traffic, energy_model.dram, weights=weights
    )
    breakdown = energy_model.energy_from_counts(
        config, total_cycles=cycles.total_cycles, **counts
    )
    report = performance_report(cycles, config, breakdown)
    objectives = {
        "dram": counts["dram_words"] * BYTES_PER_WORD / (1024.0 ** 3),
        "energy": breakdown.pj_per_mac,
        "time": report.total_seconds * 1e3,
        "power_watts": report.power_watts,
        "waiting_fraction": report.waiting_fraction,
    }
    if include_stall_time:
        objectives["stall_time"] = stall_aware_time_ms(
            config, layers, energy_model.dram, weights=weights
        )
    return objectives
