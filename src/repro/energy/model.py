"""Energy model based on the per-operation energies of Table II.

The paper synthesises the accelerator in a 65 nm technology and reports the
energy of every basic operation (Table II); this module consumes those
numbers directly.  Two modelling constants are not in the table and are
documented here:

* ``GREG_ACCESS_PJ`` -- GReg segments are 64-entry register files, so one
  GReg access is charged the 64 B LReg access energy (1.16 pJ).
* ``LREG_STATIC_PJ_PER_BYTE_PER_CYCLE`` -- the paper attributes the gap
  between its register energy and the register lower bound mainly to LReg
  *static* (leakage) energy and argues that more PEs (fewer LRegs each,
  shorter runtime) reduce it.  The constant is calibrated so that the
  ordering and rough magnitude of that effect match Fig. 18; absolute pJ/MAC
  values scale with it and are reported as such in EXPERIMENTS.md.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.arch.config import AcceleratorConfig
from repro.core.layer import ConvLayer
from repro.core.lower_bound import practical_lower_bound
from repro.core.traffic import BYTES_PER_WORD
from repro.energy.dram import DramModel
from repro.engine.cache import layer_signature

#: Per-operation energies of Table II, in pJ.
OPERATION_ENERGY = {
    "mac": 4.16,
    "gbuf_0.5KB": 0.30,
    "gbuf_2KB": 1.39,
    "gbuf_3.125KB": 2.36,
    "lreg_256B": 3.39,
    "lreg_128B": 1.92,
    "lreg_64B": 1.16,
    "dram": 427.9,
}

#: Energy per GReg access (64-entry register file segments, see module docstring).
GREG_ACCESS_PJ = OPERATION_ENERGY["lreg_64B"]

#: LReg leakage, pJ per byte per core clock cycle (calibrated, see module docstring).
LREG_STATIC_PJ_PER_BYTE_PER_CYCLE = 0.002

#: Fixed overhead (controller, FIFOs, clock tree) as a fraction of dynamic energy.
OTHER_ENERGY_FRACTION = 0.05

_LREG_ENERGY_BY_BYTES = {256: 3.39, 128: 1.92, 64: 1.16}
_GBUF_ENERGY_BY_BYTES = {512: 0.30, 2048: 1.39, 3200: 2.36}


#: Entries of each per-access energy memo: one per distinct memory size,
#: which a configuration space offers a few dozen of.
ACCESS_ENERGY_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=ACCESS_ENERGY_MEMO_SIZE)
def lreg_access_energy_pj(bytes_per_pe: int) -> float:
    """Per-access energy of a PE's LReg file, interpolating Table II.

    Memoized: every layer of a network prices its accesses with the same
    few sizes, so each size is interpolated once.
    """
    return _interpolate_energy(_LREG_ENERGY_BY_BYTES, bytes_per_pe)


@functools.lru_cache(maxsize=ACCESS_ENERGY_MEMO_SIZE)
def sram_access_energy_pj(capacity_bytes: int) -> float:
    """Per-access energy of an on-chip SRAM (GBuf), interpolating Table II
    (memoized like :func:`lreg_access_energy_pj`)."""
    return _interpolate_energy(_GBUF_ENERGY_BY_BYTES, capacity_bytes)


def _interpolate_energy(table: dict, capacity_bytes: int) -> float:
    """Log-linear interpolation/extrapolation over a size->energy table."""
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    sizes = sorted(table)
    if capacity_bytes in table:
        return table[capacity_bytes]
    if capacity_bytes <= sizes[0]:
        low, high = sizes[0], sizes[1]
    elif capacity_bytes >= sizes[-1]:
        low, high = sizes[-2], sizes[-1]
    else:
        low = max(size for size in sizes if size < capacity_bytes)
        high = min(size for size in sizes if size > capacity_bytes)
    slope = (table[high] - table[low]) / (math.log(high) - math.log(low))
    return max(0.05, table[low] + slope * (math.log(capacity_bytes) - math.log(low)))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy of one layer (or a whole network) by component, in pJ."""

    dram: float = 0.0
    gbuf: float = 0.0
    mac: float = 0.0
    lreg_dynamic: float = 0.0
    lreg_static: float = 0.0
    greg: float = 0.0
    other: float = 0.0
    macs: int = 0

    @property
    def lreg(self) -> float:
        return self.lreg_dynamic + self.lreg_static

    @property
    def total(self) -> float:
        return self.dram + self.gbuf + self.mac + self.lreg + self.greg + self.other

    @property
    def pj_per_mac(self) -> float:
        """Energy efficiency in pJ/MAC (Fig. 18's unit)."""
        return self.total / self.macs if self.macs else 0.0

    @property
    def on_chip_total(self) -> float:
        """Total energy excluding DRAM (for the Eyeriss on-chip comparison)."""
        return self.total - self.dram

    def component_pj_per_mac(self) -> dict:
        """Per-component energy efficiency, matching Fig. 18's stacking."""
        if not self.macs:
            return {}
        return {
            "DRAM": self.dram / self.macs,
            "GBufs": self.gbuf / self.macs,
            "MAC units": self.mac / self.macs,
            "LRegs": self.lreg / self.macs,
            "GRegs": self.greg / self.macs,
            "Others": self.other / self.macs,
        }

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        if not isinstance(other, EnergyBreakdown):
            return NotImplemented
        return EnergyBreakdown(
            dram=self.dram + other.dram,
            gbuf=self.gbuf + other.gbuf,
            mac=self.mac + other.mac,
            lreg_dynamic=self.lreg_dynamic + other.lreg_dynamic,
            lreg_static=self.lreg_static + other.lreg_static,
            greg=self.greg + other.greg,
            other=self.other + other.other,
            macs=self.macs + other.macs,
        )


class EnergyModel:
    """Translates access counts (a :class:`LayerRunResult`) into energy."""

    def __init__(self, dram: DramModel = None):
        self.dram = dram or DramModel()

    def layer_energy(self, result, config: AcceleratorConfig, total_cycles=None) -> EnergyBreakdown:
        """Energy of one :class:`~repro.arch.accelerator.LayerRunResult`.

        ``total_cycles``, when given (a timed run's cycles, see
        :mod:`repro.timing`), replaces the result's own cycles in the LReg
        leakage term; access counts do not depend on stalls.
        """
        return self.energy_from_counts(
            config,
            dram_words=result.dram.total,
            igbuf_reads=result.igbuf_reads,
            igbuf_writes=result.igbuf_writes,
            wgbuf_reads=result.wgbuf_reads,
            wgbuf_writes=result.wgbuf_writes,
            macs=result.macs,
            lreg_reads=result.lreg_reads,
            lreg_writes=result.lreg_writes,
            greg_writes=result.greg_writes,
            total_cycles=result.total_cycles if total_cycles is None else total_cycles,
        )

    def energy_from_counts(
        self,
        config: AcceleratorConfig,
        *,
        dram_words,
        igbuf_reads,
        igbuf_writes,
        wgbuf_reads,
        wgbuf_writes,
        macs,
        lreg_reads,
        lreg_writes,
        greg_writes,
        total_cycles,
    ) -> EnergyBreakdown:
        """Translate raw access counts into an :class:`EnergyBreakdown`.

        The arithmetic behind :meth:`layer_energy`, exposed so estimators
        that produce access counts without a full accelerator run (the DSE
        subsystem's first-order model) price them with the exact same
        Table II constants and interpolations.
        """
        igbuf_energy = sram_access_energy_pj(config.igbuf_words * BYTES_PER_WORD)
        wgbuf_energy = sram_access_energy_pj(config.wgbuf_words * BYTES_PER_WORD)
        lreg_energy = lreg_access_energy_pj(config.lreg_bytes_per_pe)

        dram_pj = self.dram.access_energy_pj(dram_words)
        gbuf_pj = (
            (igbuf_reads + igbuf_writes) * igbuf_energy
            + (wgbuf_reads + wgbuf_writes) * wgbuf_energy
        )
        mac_pj = macs * OPERATION_ENERGY["mac"]
        lreg_dynamic_pj = (lreg_writes + lreg_reads) * lreg_energy
        lreg_bytes_total = config.num_pes * config.lreg_bytes_per_pe
        lreg_static_pj = (
            lreg_bytes_total * LREG_STATIC_PJ_PER_BYTE_PER_CYCLE * total_cycles
        )
        greg_pj = greg_writes * GREG_ACCESS_PJ
        dynamic_on_chip = gbuf_pj + mac_pj + lreg_dynamic_pj + greg_pj
        other_pj = OTHER_ENERGY_FRACTION * dynamic_on_chip
        return EnergyBreakdown(
            dram=dram_pj,
            gbuf=gbuf_pj,
            mac=mac_pj,
            lreg_dynamic=lreg_dynamic_pj,
            lreg_static=lreg_static_pj,
            greg=greg_pj,
            other=other_pj,
            macs=macs,
        )

    def network_energy(self, network_result, config: AcceleratorConfig, total_cycles=None) -> EnergyBreakdown:
        """Sum of layer energies over a :class:`NetworkRunResult`, in layer order.

        ``total_cycles``, when given, holds one timed cycle count per layer
        for :meth:`layer_energy`.  Layers of one shape share one result
        object, so each distinct (result, cycles) pair is priced once.
        """
        results = network_result.layers
        if total_cycles is None:
            total_cycles = [None] * len(results)
        elif len(total_cycles) != len(results):
            raise ValueError(f"{len(total_cycles)} cycle counts for {len(results)} layers")
        priced = {}
        total = EnergyBreakdown()
        for result, cycles in zip(results, total_cycles):
            key = (id(result), cycles)
            if key not in priced:
                priced[key] = self.layer_energy(result, config, cycles)
            total = total + priced[key]
        return total

    def lower_bound_energy(self, layers: list, on_chip_words: int) -> EnergyBreakdown:
        """The Fig. 18 "lower bound": DRAM at the Eq. (15) bound, one MAC and
        one minimal register write per MAC, nothing else.

        The bound reads only shape fields, so it is evaluated once per
        :func:`~repro.engine.cache.layer_signature` and summed in layer order.
        """
        signatures = [layer_signature(layer) for layer in layers]
        shapes = dict(zip(signatures, layers))
        bounds = {signature: practical_lower_bound(layer, on_chip_words) for signature, layer in shapes.items()}
        dram_words = sum(bounds[signature] for signature in signatures)
        macs = sum(layer.macs for layer in layers)
        smallest_lreg = min(_LREG_ENERGY_BY_BYTES.values())
        return EnergyBreakdown(
            dram=self.dram.access_energy_pj(dram_words),
            mac=macs * OPERATION_ENERGY["mac"],
            lreg_dynamic=macs * smallest_lreg,
            macs=macs,
        )


def efficiency_gap(actual: EnergyBreakdown, bound: EnergyBreakdown) -> float:
    """Relative gap between an implementation and the energy lower bound.

    The paper reports this gap as 37-87 % across the five implementations.
    """
    if bound.total == 0:
        raise ValueError("bound energy is zero")
    return actual.total / bound.total - 1.0
