"""Bandwidth-utilization sweeps from the tile-level timing simulator.

The ``timing`` experiment answers the question the analytic Fig. 19 model
cannot: as DRAM bandwidth varies, when does each implementation become
bandwidth-bound, and in *which* buffer do the stall cycles land?  One sweep
runs every requested implementation at every requested bandwidth and
reports the per-buffer stall split (IGBuf/WGBuf fill, IGBuf/WGBuf steady
state, output drain), the PE-array utilization, the achieved DRAM
bandwidth, and power priced over the stall-lengthened runtime.

The sweep is deterministic, so the default 3-point VGG-16 sweep is pinned
on the experiment's registry entry (``tests/goldens/timing_vgg16.json``,
1e-9 relative tolerance); re-pin every golden after an *intentional* model
change with ``repro-experiments goldens --write`` and review the JSON diff
like any other code change.
"""

from __future__ import annotations

from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation
from repro.arch.performance import simulate_network, throughput_macs_per_second
from repro.orchestration.experiments import Experiment, Param, register_experiment
from repro.workloads.registry import resolve_layers

#: Default sweep points in GB/s: half, exactly, and twice the paper's
#: 6.4 GB/s DRAM interface (Section VI).
DEFAULT_BANDWIDTHS_GBPS = (3.2, 6.4, 12.8)

#: Artifact format marker of one sweep payload.
TIMING_FORMAT = "repro-timing-v1"


def _resolve_implementations(implementations):
    """None -> all five Table I implementations; ints -> 1-based lookups."""
    if implementations is None:
        return list(PAPER_IMPLEMENTATIONS)
    resolved = []
    for entry in implementations:
        if isinstance(entry, int):
            resolved.append(paper_implementation(entry))
        else:
            resolved.append(entry)
    return resolved


def bandwidth_utilization_sweep(
    layers=None,
    bandwidths_gbps=None,
    implementations=None,
) -> dict:
    """One row per (implementation, bandwidth): stalls, utilization, power."""
    layers = resolve_layers(layers, "vgg16")
    if bandwidths_gbps is None:
        bandwidths_gbps = list(DEFAULT_BANDWIDTHS_GBPS)
    bandwidths_gbps = [float(value) for value in bandwidths_gbps]
    if any(value <= 0 for value in bandwidths_gbps):
        raise ValueError(f"bandwidths must be positive, got {bandwidths_gbps}")
    configs = _resolve_implementations(implementations)

    rows = []
    for config in configs:
        for bandwidth_gbps in bandwidths_gbps:
            network, report = simulate_network(
                layers,
                config,
                mode="timing",
                dram_bandwidth_bytes_per_s=bandwidth_gbps * 1e9,
            )
            # Bandwidth-independent per config: the steady-state roofline
            # break-even (max over layers), above which only fills and
            # drains can stall.  Exact as a Fraction internally.
            breakeven_bpc = max(
                (
                    layer.steady_breakeven_bytes_per_cycle
                    for layer in network.layers
                    if layer.steady_breakeven_bytes_per_cycle is not None
                ),
                default=0,
            )
            rows.append(
                {
                    "implementation": config.name,
                    "num_pes": config.num_pes,
                    "bandwidth_gbps": bandwidth_gbps,
                    "compute_cycles": network.compute_cycles,
                    "igbuf_stall_cycles": network.igbuf_stall_cycles,
                    "wgbuf_stall_cycles": network.wgbuf_stall_cycles,
                    "drain_stall_cycles": network.drain_stall_cycles,
                    "prologue_stall_cycles": network.prologue_stall_cycles,
                    "steady_stall_cycles": network.steady_stall_cycles,
                    "waiting_cycles": network.waiting_cycles,
                    "total_cycles": network.total_cycles,
                    "total_seconds": report.total_seconds,
                    "waiting_fraction": report.waiting_fraction,
                    "utilization": network.utilization,
                    "achieved_gbps": network.achieved_bytes_per_cycle
                    * config.clock_hz
                    / 1e9,
                    "steady_breakeven_gbps": float(breakeven_bpc)
                    * config.clock_hz
                    / 1e9,
                    "power_watts": report.power_watts,
                    "throughput_gmacs": throughput_macs_per_second(network, config) / 1e9,
                }
            )

    return {
        "format": TIMING_FORMAT,
        "bandwidths_gbps": bandwidths_gbps,
        "implementations": [config.name for config in configs],
        "rows": rows,
    }


# ------------------------------------------------------- experiment registry


def _render_timing(payload, params):
    from repro.analysis.report import format_dict_rows

    columns = [
        "implementation",
        "bandwidth_gbps",
        "total_seconds",
        "waiting_fraction",
        "utilization",
        "igbuf_stall_cycles",
        "wgbuf_stall_cycles",
        "drain_stall_cycles",
        "achieved_gbps",
        "steady_breakeven_gbps",
        "power_watts",
    ]
    header = (
        "Timing: bandwidth-limited utilization sweep "
        f"({', '.join(f'{value:g}' for value in payload['bandwidths_gbps'])} GB/s)"
    )
    return header + "\n" + format_dict_rows(payload["rows"], columns=columns)


register_experiment(
    Experiment(
        name="timing",
        title="Timing: stall-accurate bandwidth sweep",
        build=lambda ctx: bandwidth_utilization_sweep(layers=ctx.layers, **ctx.params),
        render=_render_timing,
        uses_search=False,
        default_params={
            "bandwidths_gbps": list(DEFAULT_BANDWIDTHS_GBPS),
            "implementations": None,
        },
        params=(
            Param("bandwidths_gbps", "--bandwidths", float, "+", help="DRAM bandwidths in GB/s (default 3.2 6.4 12.8)"),
        ),
        pins=(("vgg16", {}, "timing_vgg16.json"),),
    )
)
