"""Differential and property suite for the tile-level timing simulator.

Three pillars, mirroring ``tests/test_vectorized_parity.py`` for the search
engine:

* **walk parity** -- the NumPy prefix-sum walk (``_simulate_numpy``)
  returns the *identical* stall accounting as the scalar clock-walk
  reference (``_simulate_python``) on the same ``tile_groups``, over
  hypothesis-random layers, implementations and bandwidths (floats, exact
  Fractions, and infinity), including its scalar int64 fallback;
* **infinite-bandwidth identity** -- with no bandwidth limit the simulator
  must reproduce the analytic :class:`~repro.arch.accelerator.AcceleratorModel`
  bit-identically (zero stalls, equal total cycles) for every workload in
  the registry and every Table I implementation, which anchors the timing
  model to the Fig. 19 numbers;
* **stall structure** -- total cycles are monotone in bandwidth, and steady
  stalls vanish exactly at the rational roofline break-even
  (:func:`repro.timing.steady_breakeven_bytes_per_cycle`), tested in both
  directions with exact ``Fraction`` bandwidths.

The simulator takes the NumPy walk whenever NumPy imports, so without
NumPy every other test here exercises the scalar reference; the parity
tests skip themselves there.
"""

import dataclasses
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.accelerator import AcceleratorModel  # noqa: E402
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation  # noqa: E402
from repro.arch.performance import simulate_network  # noqa: E402
from repro.arch.schedule import ScheduleGenerator  # noqa: E402
from repro.core.layer import ConvLayer  # noqa: E402
from repro.energy.model import EnergyModel  # noqa: E402
from repro.timing import (  # noqa: E402
    NetworkTimingResult,
    TimingSimulator,
    steady_breakeven_bytes_per_cycle,
    tile_groups,
)
from repro.timing.simulator import _simulate_numpy, _simulate_python  # noqa: E402
from repro.workloads.registry import get_workload, workload_names  # noqa: E402

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def conv_layers(draw):
    """Random valid ConvLayers, small enough that tiling searches stay fast."""
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    kernel_height = draw(st.integers(1, 5))
    kernel_width = draw(st.integers(1, 5))
    in_height = draw(st.integers(max(1, kernel_height - 2 * padding), 28))
    in_width = draw(st.integers(max(1, kernel_width - 2 * padding), 28))
    return ConvLayer(
        name="rand",
        batch=draw(st.integers(1, 4)),
        in_channels=draw(st.integers(1, 32)),
        in_height=in_height,
        in_width=in_width,
        out_channels=draw(st.integers(1, 32)),
        kernel_height=kernel_height,
        kernel_width=kernel_width,
        stride=stride,
        padding=padding,
    )


#: Bandwidths spanning severely bound to unbound, plus exact rationals (the
#: simulator's arithmetic is Fraction-exact, so Fraction inputs are legal).
bandwidths = st.one_of(
    st.just(math.inf),
    st.floats(min_value=1e3, max_value=1e13, allow_nan=False, allow_infinity=False),
    st.fractions(min_value=Fraction(1, 7), max_value=Fraction(10 ** 12)),
)

implementation_indices = st.integers(1, len(PAPER_IMPLEMENTATIONS))


def chosen_tiling(config, layer):
    """The analytic model's tiling, or None when the layer fits no tiling."""
    try:
        return AcceleratorModel(config).choose_layer_tiling(layer)
    except ValueError:
        return None


def unique_shapes(layers):
    """Layers deduplicated by shape: identity per shape implies identity for
    the whole workload, and it keeps the registry sweep inside tier-1 time."""
    return sorted(
        {dataclasses.replace(layer, name="shape") for layer in layers},
        key=lambda layer: layer.macs,
    )


CYCLE_FIELDS = (
    "compute_cycles",
    "igbuf_fill_stall_cycles",
    "wgbuf_fill_stall_cycles",
    "igbuf_steady_stall_cycles",
    "wgbuf_steady_stall_cycles",
    "drain_stall_cycles",
    "prologue_stall_cycles",
    "steady_stall_cycles",
    "stall_cycles",
    "waiting_cycles",
    "total_cycles",
)


def assert_exact_int(value):
    assert type(value) is int, f"expected exact int, got {type(value).__name__}"


# --------------------------------------------------------------- walk parity


def walk_inputs(config, layer, tiling, bandwidth):
    """The tile groups and the bytes per cycle both walks consume."""
    groups = tile_groups(layer, tiling.clip(layer), config)
    return groups, TimingSimulator(config, bandwidth).bytes_per_cycle


class TestBackendParity:
    @SETTINGS
    @given(layer=conv_layers(), index=implementation_indices, bandwidth=bandwidths)
    def test_numpy_report_is_bit_identical_to_scalar(self, layer, index, bandwidth):
        pytest.importorskip("numpy")
        config = paper_implementation(index)
        tiling = chosen_tiling(config, layer)
        assume(tiling is not None)
        groups, bytes_per_cycle = walk_inputs(config, layer, tiling, bandwidth)
        scalar = _simulate_python(groups, bytes_per_cycle)
        vectorized = _simulate_numpy(groups, bytes_per_cycle)
        # Every stall category and the compute total, as exact ints.
        assert vectorized == scalar
        for value in vectorized.values():
            assert_exact_int(value)

    def test_int64_overflow_falls_back_to_the_scalar_path(self):
        pytest.importorskip("numpy")
        config = paper_implementation(1)
        model = AcceleratorModel(config)
        # ~1e-9 B/s makes single transfers take ~1e19+ cycles: far beyond
        # int64, so the numpy walk must detect it and stay exact.
        for layer in get_workload("tiny"):
            tiling = model.choose_layer_tiling(layer)
            groups, bytes_per_cycle = walk_inputs(config, layer, tiling, 1e-9)
            scalar = _simulate_python(groups, bytes_per_cycle)
            assert _simulate_numpy(groups, bytes_per_cycle) == scalar
            assert sum(scalar.values()) > 2 ** 62
            assert TimingSimulator(config, 1e-9).run_layer(layer).total_cycles == sum(scalar.values())


# ----------------------------------------------- infinite-bandwidth identity


class TestInfiniteBandwidthIdentity:
    @SETTINGS
    @given(layer=conv_layers(), index=implementation_indices)
    def test_random_layers_match_the_analytic_model(self, layer, index):
        config = paper_implementation(index)
        tiling = chosen_tiling(config, layer)
        assume(tiling is not None)
        report = TimingSimulator(config, math.inf).run_layer(
            layer, tiling
        )
        unbound = AcceleratorModel(config, math.inf).run_layer(layer, tiling)
        default = AcceleratorModel(config).run_layer(layer, tiling)
        assert report.stall_cycles == 0
        assert report.total_cycles == unbound.total_cycles
        # Compute is bandwidth-independent, so it matches Fig. 19's compute
        # at the paper's 6.4 GB/s too.
        assert report.compute_cycles == default.compute_cycles

    @pytest.mark.parametrize("name", workload_names())
    def test_every_registry_workload(self, name):
        config = paper_implementation(5)
        simulator = TimingSimulator(config, math.inf)
        model = AcceleratorModel(config, math.inf)
        layers = unique_shapes(get_workload(name))
        timing = simulator.run_network(layers)
        analytic = model.run_network(layers)
        assert timing.waiting_cycles == 0
        assert timing.compute_cycles == analytic.compute_cycles
        assert timing.total_cycles == analytic.total_cycles
        for timed, reference in zip(timing.layers, analytic.layers):
            assert timed.total_cycles == reference.total_cycles

    @pytest.mark.parametrize("index", range(1, len(PAPER_IMPLEMENTATIONS) + 1))
    def test_every_implementation_on_vgg16(self, index):
        config = paper_implementation(index)
        layers = get_workload("vgg16")
        timing = TimingSimulator(config, math.inf).run_network(layers)
        analytic = AcceleratorModel(config, math.inf).run_network(layers)
        assert timing.waiting_cycles == 0
        assert timing.total_cycles == analytic.total_cycles
        assert timing.macs == analytic.macs


# ------------------------------------------------------------ stall structure


class TestStallStructure:
    @SETTINGS
    @given(layer=conv_layers(), index=implementation_indices, data=st.data())
    def test_total_cycles_monotone_in_bandwidth(self, layer, index, data):
        config = paper_implementation(index)
        tiling = chosen_tiling(config, layer)
        assume(tiling is not None)
        low = data.draw(bandwidths, label="low")
        high = data.draw(bandwidths, label="high")
        if high < low:
            low, high = high, low
        slow = TimingSimulator(config, low).run_layer(layer, tiling)
        fast = TimingSimulator(config, high).run_layer(layer, tiling)
        assert slow.total_cycles >= fast.total_cycles
        assert slow.stall_cycles >= fast.stall_cycles
        # Compute never depends on bandwidth.
        assert slow.compute_cycles == fast.compute_cycles

    @SETTINGS
    @given(layer=conv_layers(), index=implementation_indices)
    def test_steady_stalls_vanish_exactly_at_the_breakeven(self, layer, index):
        config = paper_implementation(index)
        tiling = chosen_tiling(config, layer)
        assume(tiling is not None)
        groups = tile_groups(layer, tiling.clip(layer), config)
        breakeven = steady_breakeven_bytes_per_cycle(groups)
        assume(isinstance(breakeven, Fraction) and breakeven > 0)
        clock = Fraction(config.clock_hz)
        at = TimingSimulator(config, breakeven * clock).run_layer(
            layer, tiling
        )
        below = TimingSimulator(
            config, breakeven * clock * Fraction(99, 100)
        ).run_layer(layer, tiling)
        # Exact iff: zero steady stalls at the rational break-even, strictly
        # positive ones any amount below it.
        assert at.steady_stall_cycles == 0
        assert below.steady_stall_cycles > 0
        # Prologue fills are never hidden at a finite bandwidth.
        assert at.prologue_stall_cycles > 0
        assert at.steady_breakeven_bytes_per_cycle == breakeven

    def test_zero_bandwidth_is_rejected(self):
        config = paper_implementation(1)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            TimingSimulator(config, 0)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            TimingSimulator(config, -6.4e9)


# -------------------------------------------------------- exact integer cycles


class TestExactIntegers:
    def test_layer_report_cycles_are_exact_ints(self):
        config = paper_implementation(1)
        simulator = TimingSimulator(config, 6.4e9)
        for layer in get_workload("tiny"):
            report = simulator.run_layer(layer)
            for field in CYCLE_FIELDS:
                assert_exact_int(getattr(report, field))
            assert_exact_int(report.dram_bytes_loaded)
            assert_exact_int(report.dram_bytes_drained)

    def test_network_result_cycles_are_exact_ints(self):
        config = paper_implementation(1)
        network = TimingSimulator(config, 3.2e9).run_network(
            get_workload("tiny")
        )
        assert_exact_int(network.compute_cycles)
        assert_exact_int(network.waiting_cycles)
        assert_exact_int(network.total_cycles)

    def test_schedule_stalls_are_exact_ints(self):
        """Regression: IterationRecord used to mix float transfer estimates
        into integer cycle sums; both fields must stay exact ints now."""
        config = paper_implementation(1)
        layer = get_workload("tiny")[0]
        generator = ScheduleGenerator(config, 6.4e9)
        schedules = list(generator.layer_schedule(layer, max_blocks=4))
        assert schedules
        bytes_per_cycle = Fraction(64, 5)  # 6.4e9 B/s at 500 MHz
        for schedule in schedules:
            for iteration in schedule.iterations:
                assert_exact_int(iteration.transfer_cycles)
                assert_exact_int(iteration.stall_cycles)
                loaded_bytes = 2 * (
                    iteration.input_words_loaded + iteration.weight_words_loaded
                )
                assert iteration.transfer_cycles == math.ceil(
                    Fraction(loaded_bytes) / bytes_per_cycle
                )

    def test_schedule_transfer_matches_timing_group_load(self):
        """The controller schedule and the timing simulator quote the same
        exact load duration for a full-channel iteration of the same block."""
        config = paper_implementation(1)
        layer = get_workload("tiny")[0]
        tiling = AcceleratorModel(config).choose_layer_tiling(layer)
        groups = tile_groups(layer, tiling.clip(layer), config)
        generator = ScheduleGenerator(config, 6.4e9)
        schedule = generator.block_schedule(layer, tiling, groups[0].block)
        from repro.core.traffic import bytes_per_cycle_fraction, cycles_for_bytes

        bytes_per_cycle = bytes_per_cycle_fraction(6.4e9, config.clock_hz)
        expected = cycles_for_bytes(groups[0].load_bytes, bytes_per_cycle)
        assert schedule.iterations[0].transfer_cycles == expected


# ----------------------------------------------------------------- reporting


def timed_network_energy(layers, timing, config):
    """``network_energy`` of the analytic counts over the timed cycles."""
    return EnergyModel().network_energy(
        AcceleratorModel(config).run_network(layers),
        config,
        total_cycles=[timed.total_cycles for timed in timing.layers],
    )


class TestReportingIntegration:
    def test_simulate_network_timing_mode(self):
        config = paper_implementation(1)
        layers = get_workload("tiny")
        network, report = simulate_network(layers, config, mode="timing")
        assert isinstance(network, NetworkTimingResult)
        assert report.config_name == config.name
        assert report.total_seconds == pytest.approx(
            network.total_cycles / config.clock_hz
        )
        assert report.power_watts > 0

    def test_simulate_network_modes_agree_at_infinite_bandwidth(self):
        config = paper_implementation(1)
        layers = get_workload("tiny")
        _, timing = simulate_network(
            layers, config, mode="timing", dram_bandwidth_bytes_per_s=math.inf
        )
        _, analytic = simulate_network(
            layers, config, mode="analytic", dram_bandwidth_bytes_per_s=math.inf
        )
        assert timing.total_seconds == analytic.total_seconds
        assert timing.energy_joules == pytest.approx(analytic.energy_joules)

    def test_simulate_network_rejects_unknown_mode(self):
        config = paper_implementation(1)
        with pytest.raises(ValueError, match="unknown simulation mode"):
            simulate_network(get_workload("tiny"), config, mode="magic")

    def test_timing_energy_equals_analytic_energy_without_stalls(self):
        config = paper_implementation(1)
        layers = get_workload("tiny")
        timing = TimingSimulator(config, math.inf).run_network(layers)
        timed_energy = timed_network_energy(layers, timing, config)
        analytic_energy = EnergyModel().network_energy(
            AcceleratorModel(config, math.inf).run_network(layers), config
        )
        assert timed_energy.total == pytest.approx(analytic_energy.total)

    def test_stalls_only_grow_the_static_energy_term(self):
        config = paper_implementation(1)
        layers = get_workload("tiny")
        bound = TimingSimulator(config, 1e8).run_network(layers)
        unbound = TimingSimulator(config, math.inf).run_network(layers)
        assert bound.waiting_cycles > 0
        bound_energy = timed_network_energy(layers, bound, config)
        unbound_energy = timed_network_energy(layers, unbound, config)
        # Access counts are bandwidth-independent; only leakage scales with
        # the longer runtime.
        assert bound_energy.lreg_static > unbound_energy.lreg_static
        assert bound_energy.mac == pytest.approx(unbound_energy.mac)
        assert bound_energy.dram == pytest.approx(unbound_energy.dram)
