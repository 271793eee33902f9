"""Shape-keyed model walks and the Fig. 13 shape census.

The tile model's walk (:func:`repro.arch.accelerator.shape_run`) and the
timing simulator's (:func:`repro.timing.simulator.shape_timing`) run once
per (configuration, bandwidth and its type, layer shape, clipped tiling);
every ``run_layer`` call gets the memoized result relabelled with its own
layer name.  ``memory_sweep`` sends the engine one task per distinct shape
and weights each total by its layer count.  These tests pin that

* a memo hit equals a fresh, uncached walk in every field but
  ``layer_name``, for float, equal-valued ``Fraction`` and infinite
  bandwidths on all five implementations;
* a float and an equal ``Fraction`` bandwidth never alias;
* no caller can reach another caller's ``utilization`` dict;
* every shape memo is bounded;
* the census payload is byte-identical to the per-layer loop it replaced
  (kept below as the reference) on every registered workload, and the
  census sends capacities x dataflows x shapes tasks;
* a network result's kept sums and the memoized per-access energies leave
  every payload built on them byte-identical to per-layer recomputation.
"""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.analysis.sweep import FIG13_DEFAULT_CAPACITIES_KIB, memory_sweep, words_to_mb  # noqa: E402
from repro.analysis.goldens import sanitize_payload  # noqa: E402
from repro.arch import accelerator  # noqa: E402
from repro.arch.accelerator import AcceleratorModel, NetworkRunResult, shape_run, shape_tiling  # noqa: E402
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation  # noqa: E402
from repro.core.layer import ConvLayer, kib_to_words  # noqa: E402
from repro.core.lower_bound import practical_lower_bound  # noqa: E402
from repro.core.traffic import TrafficBreakdown  # noqa: E402
from repro.dataflows.grid import numpy_available  # noqa: E402
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow  # noqa: E402
from repro.engine import SearchEngine, layer_signature  # noqa: E402
from repro.energy import model as energy_model  # noqa: E402
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


def without_name(result):
    return dataclasses.replace(result, layer_name="")


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
                model.run_layer(layer)
                hits = shape_run.cache_info().hits
                hit = model.run_layer(dataclasses.replace(layer, name="other"))
                assert shape_run.cache_info().hits == hits + 1
                fresh = model._walk(layer, tiling)
                assert hit.layer_name == "other" and fresh.layer_name == "drawn"
                assert without_name(hit) == without_name(fresh)

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
                simulator.run_layer(layer)
                hits = shape_timing.cache_info().hits
                hit = simulator.run_layer(dataclasses.replace(layer, name="other"))
                assert shape_timing.cache_info().hits == hits + 1
                fresh = simulator._walk(layer, tiling)
                assert hit.layer_name == "other" and fresh.layer_name == "drawn"
                assert without_name(hit) == without_name(fresh)
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

    def test_returned_utilization_is_the_callers_own(self, vgg_layers):
        model = AcceleratorModel(paper_implementation(2))
        layer = vgg_layers[3]
        first = model.run_layer(layer)
        expected = dict(first.utilization)
        first.utilization["pe"] = -1.0
        first.utilization.clear()
        second = model.run_layer(layer)
        assert second.utilization == expected
        assert second.utilization is not first.utilization

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
