"""Shape-keyed model walks, per-shape pricing and the Fig. 13 shape census.

The tile model's walk (:func:`repro.arch.accelerator.shape_run`) and the
timing simulator's (:func:`repro.timing.simulator.shape_timing`) run once
per (configuration, bandwidth and its type, layer shape, clipped tiling);
every ``run_layer`` call returns the memoized result itself.
``EnergyModel.network_energy`` prices each distinct layer result once and
``lower_bound_energy`` each shape once.  ``memory_sweep`` sends the engine
one task per distinct shape and weights each total by its layer count.
These tests pin that

* a memo hit is the memoized result and equals a fresh, uncached walk, for
  float, equal-valued ``Fraction`` and infinite bandwidths on all five
  implementations;
* a float and an equal ``Fraction`` bandwidth never alias;
* no caller can write to a shared result's ``utilization``;
* every shape memo is bounded;
* the census payload is byte-identical to the per-layer loop it replaced
  (kept below as the reference) on every registered workload, and the
  census sends capacities x dataflows x shapes tasks;
* a network result's kept sums and the memoized per-access energies leave
  every payload built on them byte-identical to per-layer recomputation;
* per-shape pricing (analytic, timed and the lower bound) equals per-layer
  pricing field for field, and Fig. 18 prices each shape once.
"""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.energy_report import energy_report  # noqa: E402
from repro.analysis.sweep import FIG13_DEFAULT_CAPACITIES_KIB, memory_sweep, words_to_mb  # noqa: E402
from repro.analysis.goldens import sanitize_payload  # noqa: E402
from repro.arch import accelerator  # noqa: E402
from repro.arch.accelerator import AcceleratorModel, NetworkRunResult, shape_run, shape_tiling  # noqa: E402
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation  # noqa: E402
from repro.arch.performance import simulate_network  # noqa: E402
from repro.core.layer import WEIGHT_KINDS, ConvLayer, kib_to_words  # noqa: E402
from repro.core.lower_bound import practical_lower_bound  # noqa: E402
from repro.core.traffic import TrafficBreakdown  # noqa: E402
from repro.dataflows.grid import numpy_available  # noqa: E402
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow  # noqa: E402
from repro.engine import SearchEngine, layer_signature  # noqa: E402
from repro.energy import model as energy_model  # noqa: E402
from repro.energy.model import EnergyBreakdown, EnergyModel  # noqa: E402
from repro.engine.cache import SHAPE_MEMO_SIZE  # noqa: E402
from repro.eyeriss.model import shape_best_tile  # noqa: E402
from repro.orchestration.experiments import ExperimentContext, get_experiment, load_experiments  # noqa: E402
from repro.timing import TimingSimulator  # noqa: E402
from repro.timing.simulator import shape_timing  # noqa: E402
from repro.workloads.registry import get_workload_spec, workload_names  # noqa: E402

SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

@st.composite
def conv_layers(draw):
    """Random valid layers, small enough that every walk stays fast."""
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    kernel_height = draw(st.integers(1, 5))
    kernel_width = draw(st.integers(1, 5))
    return ConvLayer(
        name="drawn",
        batch=draw(st.integers(1, 4)),
        in_channels=draw(st.integers(1, 48)),
        in_height=draw(st.integers(max(1, kernel_height - 2 * padding), 30)),
        in_width=draw(st.integers(max(1, kernel_width - 2 * padding), 30)),
        out_channels=draw(st.integers(1, 48)),
        kernel_height=kernel_height,
        kernel_width=kernel_width,
        stride=stride,
        padding=padding,
    )


def bandwidth_forms(value: float) -> tuple:
    """A float bandwidth, the ``Fraction`` equal to it, and no limit at all."""
    return (value, Fraction(value), math.inf)


# ------------------------------------------------------------- walk memos


class TestWalkMemos:
    @SETTINGS
    @given(layer=conv_layers(), bandwidth=st.floats(1e6, 1e12, allow_nan=False))
    def test_model_hit_equals_a_fresh_walk(self, layer, bandwidth):
        for config in PAPER_IMPLEMENTATIONS:
            try:
                tiling = AcceleratorModel(config).choose_layer_tiling(layer)
            except ValueError:
                continue
            for value in bandwidth_forms(bandwidth):
                model = AcceleratorModel(config, value)
                first = model.run_layer(layer)
                hits = shape_run.cache_info().hits
                hit = model.run_layer(dataclasses.replace(layer, name="other"))
                assert shape_run.cache_info().hits == hits + 1
                assert hit is first
                assert hit == model._walk(layer, tiling)

    @SETTINGS
    @given(layer=conv_layers(), bandwidth=st.floats(1e6, 1e12, allow_nan=False))
    def test_timing_hit_equals_a_fresh_walk(self, layer, bandwidth):
        for config in PAPER_IMPLEMENTATIONS:
            try:
                tiling = AcceleratorModel(config).choose_layer_tiling(layer)
            except ValueError:
                continue
            for value in bandwidth_forms(bandwidth):
                simulator = TimingSimulator(config, value)
                first = simulator.run_layer(layer)
                hits = shape_timing.cache_info().hits
                hit = simulator.run_layer(dataclasses.replace(layer, name="other"))
                assert shape_timing.cache_info().hits == hits + 1
                assert hit is first
                assert hit == simulator._walk(layer, tiling)
                assert type(hit.bandwidth_bytes_per_s) is type(value)

    @SETTINGS
    @given(layer=conv_layers())
    def test_an_explicit_tiling_is_clipped_into_the_key(self, layer):
        config = paper_implementation(1)
        assume(shape_tiling(config, layer_signature(layer)) is not None)
        tiling = AcceleratorModel(config).choose_layer_tiling(layer)
        oversized = dataclasses.replace(tiling, b=tiling.b + 7, k=layer.in_channels + 3)
        model = AcceleratorModel(config)
        assert model.run_layer(layer, oversized) == model._walk(layer, oversized.clip(layer))
        simulator = TimingSimulator(config)
        assert simulator.run_layer(layer, oversized) == simulator._walk(layer, oversized.clip(layer))

    def test_float_and_equal_fraction_bandwidths_keep_their_type(self, vgg_layers):
        # hash(6.4e9) == hash(Fraction(6.4e9)) and they compare equal, so
        # an untyped key would hand the second caller the first one's report.
        config = paper_implementation(1)
        for layer in vgg_layers:
            as_float = TimingSimulator(config, 6.4e9).run_layer(layer)
            as_fraction = TimingSimulator(config, Fraction(6.4e9)).run_layer(layer)
            assert type(as_float.bandwidth_bytes_per_s) is float
            assert type(as_fraction.bandwidth_bytes_per_s) is Fraction
            assert as_float.total_cycles == as_fraction.total_cycles

    def test_shared_utilization_is_read_only(self, vgg_layers):
        model = AcceleratorModel(paper_implementation(2))
        layer = vgg_layers[3]
        first = model.run_layer(layer)
        expected = dict(first.utilization)
        with pytest.raises(TypeError):
            first.utilization["pe"] = -1.0
        with pytest.raises(AttributeError):
            first.utilization.clear()
        assert dict(model.run_layer(layer).utilization) == expected

    @pytest.mark.parametrize("memo", [shape_tiling, shape_best_tile, shape_run, shape_timing])
    def test_every_shape_memo_is_bounded(self, memo):
        maxsize = memo.cache_info().maxsize
        assert maxsize == SHAPE_MEMO_SIZE
        assert maxsize is not None and 0 < maxsize < math.inf


# ------------------------------------------------------------ Fig. 13 census


def per_layer_memory_sweep(capacities_kib, layers, engine, dataflows):
    """``memory_sweep`` as it was before the shape census: one task per
    (capacity, dataflow, layer) and a left-to-right float sum per layer."""
    capacities_words = [kib_to_words(capacity_kib) for capacity_kib in capacities_kib]
    results = engine.search_tasks(
        [
            (dataflow, layer, capacity_words)
            for capacity_words in capacities_words
            for dataflow in dataflows
            for layer in layers
        ]
    )
    series = {"Lower bound": []}
    for dataflow in dataflows:
        series[dataflow.name] = []
    series["Found minimum"] = []
    layer_shapes = [layer_signature(layer) for layer in layers]
    shapes = dict(zip(layer_shapes, layers))
    for capacity_index, capacity_words in enumerate(capacities_words):
        shape_bounds = {
            signature: practical_lower_bound(layer, capacity_words)
            for signature, layer in shapes.items()
        }
        bound = sum(shape_bounds[signature] for signature in layer_shapes)
        series["Lower bound"].append(words_to_mb(bound) / 1024.0)
        per_layer_best = [float("inf")] * len(layers)
        for dataflow_index, dataflow in enumerate(dataflows):
            start = (capacity_index * len(dataflows) + dataflow_index) * len(layers)
            totals = 0.0
            feasible = True
            for index, result in enumerate(results[start : start + len(layers)]):
                if result is None:
                    feasible = False
                    continue
                total = result.total
                totals += total
                if total < per_layer_best[index]:
                    per_layer_best[index] = total
            series[dataflow.name].append(
                words_to_mb(totals) / 1024.0 if feasible else float("nan")
            )
        minimum = sum(value for value in per_layer_best if value != float("inf"))
        series["Found minimum"].append(words_to_mb(minimum) / 1024.0)
    return {"capacities_kib": list(capacities_kib), "series": series}


#: The NumPy backend checks every dataflow at a capacity where three of them
#: fit nothing (NaN series) and at the paper's 66.5 KiB.  The scalar
#: searches of ``Ours`` and ``InR-A`` over every registered shape take ~15 s,
#: and the backends' results are bit-identical (``test_vectorized_parity``),
#: so the scalar backend checks the other six dataflows at 16 KiB.
CENSUS_CASES = {
    "numpy": ((16.0, 66.5), tuple(dataflow.name for dataflow in ALL_DATAFLOWS)),
    "python": ((16.0,), ("OutR-A", "OutR-B", "WtR-A", "WtR-B", "InR-B", "InR-C")),
}


@pytest.mark.parametrize("backend", ["numpy", "python"])
@pytest.mark.parametrize("workload", workload_names())
def test_census_payload_is_byte_identical_to_the_per_layer_loop(workload, backend):
    if backend == "numpy" and not numpy_available():
        pytest.skip("numpy is not installed")
    capacities_kib, names = CENSUS_CASES[backend]
    layers = get_workload_spec(workload)
    engine = SearchEngine(backend=backend)
    census = memory_sweep(
        capacities_kib=list(capacities_kib), layers=layers, dataflow_names=list(names), engine=engine
    )
    reference = per_layer_memory_sweep(
        capacities_kib, layers, engine, [get_dataflow(name) for name in names]
    )
    assert json.dumps(census, sort_keys=True) == json.dumps(reference, sort_keys=True)


def test_census_sends_one_task_per_shape():
    layers = get_workload_spec("mixtral_decode:2")
    engine = SearchEngine()
    memory_sweep(capacities_kib=list(FIG13_DEFAULT_CAPACITIES_KIB), layers=layers, engine=engine)
    shapes = len({layer_signature(layer) for layer in layers})
    assert len(layers) == 1568 and shapes == 7
    tasks = engine.stats.hits + engine.stats.misses
    assert tasks == len(FIG13_DEFAULT_CAPACITIES_KIB) * len(ALL_DATAFLOWS) * shapes == 392


# ------------------------------------------------------- network aggregates


class PerLayerNetworkResult(NetworkRunResult):
    """:class:`NetworkRunResult` before its sums were kept: every access
    walks the layers again, and ``utilization`` sums each key on demand."""

    macs = property(lambda self: sum(result.macs for result in self.layers))
    gbuf_accesses = property(lambda self: sum(result.gbuf_accesses for result in self.layers))
    reg_accesses = property(lambda self: sum(result.reg_accesses for result in self.layers))
    compute_cycles = property(lambda self: sum(result.compute_cycles for result in self.layers))
    waiting_cycles = property(lambda self: sum(result.waiting_cycles for result in self.layers))

    @property
    def dram(self):
        total = TrafficBreakdown()
        for result in self.layers:
            total = total + result.dram
        return total

    def utilization(self, key):
        total_cycles = sum(result.compute_cycles for result in self.layers)
        if not total_cycles:
            return 0.0
        weighted = sum(
            result.utilization.get(key, 0.0) * result.compute_cycles for result in self.layers
        )
        return weighted / total_cycles


def aggregate_payloads(workload):
    """Canonical JSON of every payload built from network aggregates."""
    load_experiments()
    payloads = {}
    for name in ("fig18", "fig19", "fig20", "table4"):
        experiment = get_experiment(name)
        context = ExperimentContext(workload=workload, engine=None, params=dict(experiment.default_params))
        payloads[name] = json.dumps(sanitize_payload(experiment.build(context)), sort_keys=True)
    return payloads


def test_network_aggregates_match_a_per_layer_reference(monkeypatch):
    """Kept sums and memoized access energies leave every fig18, fig19,
    fig20 and table4 payload byte-identical to per-layer recomputation."""
    kept = aggregate_payloads("llama_decode:4")
    monkeypatch.setattr(accelerator, "NetworkRunResult", PerLayerNetworkResult)
    for name in ("sram_access_energy_pj", "lreg_access_energy_pj"):
        monkeypatch.setattr(energy_model, name, getattr(energy_model, name).__wrapped__)
    layers = get_workload_spec("tiny")
    assert type(AcceleratorModel(paper_implementation(1)).run_network(layers)) is PerLayerNetworkResult
    assert aggregate_payloads("llama_decode:4") == kept


# ------------------------------------------------------- per-shape pricing


@st.composite
def repeated_shape_networks(draw):
    """An implementation and a layer list that repeats a few drawn shapes
    under distinct names and weight kinds; every shape has a tiling."""
    config = draw(st.sampled_from(PAPER_IMPLEMENTATIONS))
    shapes = [
        shape
        for shape in draw(st.lists(conv_layers(), min_size=1, max_size=3))
        if shape_tiling(config, layer_signature(shape)) is not None
    ]
    assume(shapes)
    picks = draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=8))
    layers = [
        dataclasses.replace(
            shapes[pick], name=f"layer{index}", weight_kind=WEIGHT_KINDS[index % len(WEIGHT_KINDS)]
        )
        for index, pick in enumerate(picks)
    ]
    return config, layers


def fields(breakdown: EnergyBreakdown) -> dict:
    return dataclasses.asdict(breakdown)


def per_shape_timed_pricing_reference(layers, timing_result, config):
    """Timed pricing as it was before ``network_energy`` took timed cycles:
    analytic access counts, leakage over each layer's timed cycles, one
    pricing per (shape, timed cycles) and the sum in layer order."""
    energy = EnergyModel()
    model = AcceleratorModel(config)
    priced = {}
    total = EnergyBreakdown()
    for layer, timed in zip(layers, timing_result.layers):
        key = (layer_signature(layer), timed.total_cycles)
        if key not in priced:
            counts = model.run_layer(layer)
            priced[key] = energy.energy_from_counts(
                config,
                dram_words=counts.dram.total,
                igbuf_reads=counts.igbuf_reads,
                igbuf_writes=counts.igbuf_writes,
                wgbuf_reads=counts.wgbuf_reads,
                wgbuf_writes=counts.wgbuf_writes,
                macs=counts.macs,
                lreg_reads=counts.lreg_reads,
                lreg_writes=counts.lreg_writes,
                greg_writes=counts.greg_writes,
                total_cycles=timed.total_cycles,
            )
        total = total + priced[key]
    return total


class TestPerShapePricing:
    @SETTINGS
    @given(network=repeated_shape_networks())
    def test_network_energy_equals_the_per_layer_fold(self, network):
        config, layers = network
        model = AcceleratorModel(config)
        energy = EnergyModel()
        reference = EnergyBreakdown()
        for layer in layers:
            fresh = model._walk(layer, model.choose_layer_tiling(layer))
            reference = reference + energy.layer_energy(fresh, config)
        priced = energy.network_energy(model.run_network(layers), config)
        assert fields(priced) == fields(reference)

    @SETTINGS
    @given(network=repeated_shape_networks(), bandwidth=st.floats(1e6, 1e12, allow_nan=False))
    def test_timed_network_energy_equals_the_timed_reference(self, network, bandwidth):
        config, layers = network
        timing = TimingSimulator(config, bandwidth).run_network(layers)
        reference = per_shape_timed_pricing_reference(layers, timing, config)
        priced = EnergyModel().network_energy(
            AcceleratorModel(config).run_network(layers),
            config,
            total_cycles=[timed.total_cycles for timed in timing.layers],
        )
        assert fields(priced) == fields(reference)
        _, report = simulate_network(layers, config, mode="timing", dram_bandwidth_bytes_per_s=bandwidth)
        assert report.energy_joules == reference.total * 1e-12

    @SETTINGS
    @given(network=repeated_shape_networks(), on_chip_words=st.integers(1, 2 ** 20))
    def test_lower_bound_energy_equals_the_per_layer_sum(self, network, on_chip_words):
        _, layers = network
        energy = EnergyModel()
        macs = sum(layer.macs for layer in layers)
        reference = EnergyBreakdown(
            dram=energy.dram.access_energy_pj(
                sum(practical_lower_bound(layer, on_chip_words) for layer in layers)
            ),
            mac=macs * energy_model.OPERATION_ENERGY["mac"],
            # The smallest LReg's access energy.
            lreg_dynamic=macs * energy_model.OPERATION_ENERGY["lreg_64B"],
            macs=macs,
        )
        assert fields(energy.lower_bound_energy(layers, on_chip_words)) == fields(reference)

    def test_timed_cycles_must_match_the_layers(self):
        config = paper_implementation(1)
        network = AcceleratorModel(config).run_network(get_workload_spec("tiny"))
        with pytest.raises(ValueError, match="cycle counts"):
            EnergyModel().network_energy(network, config, total_cycles=[1])

    def test_fig18_prices_each_shape_once(self, monkeypatch):
        calls = {"layer_energy": 0, "practical_lower_bound": 0}
        layer_energy = EnergyModel.layer_energy

        def counted_layer_energy(self, *args, **kwargs):
            calls["layer_energy"] += 1
            return layer_energy(self, *args, **kwargs)

        def counted_bound(*args, **kwargs):
            calls["practical_lower_bound"] += 1
            return practical_lower_bound(*args, **kwargs)

        monkeypatch.setattr(EnergyModel, "layer_energy", counted_layer_energy)
        # Bound by name in the energy model.
        monkeypatch.setattr(energy_model, "practical_lower_bound", counted_bound)
        layers = get_workload_spec("llama_decode:4")
        energy_report(layers)
        shapes = len({layer_signature(layer) for layer in layers})
        assert (len(layers), shapes) == (2272, 6)
        # Six shapes on five implementations, and on two distinct capacities.
        assert calls == {"layer_energy": 30, "practical_lower_bound": 12}
