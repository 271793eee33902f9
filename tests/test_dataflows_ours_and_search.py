"""Tests for the paper's dataflow adapter and the cross-dataflow search."""

import pytest

from repro.core.layer import ConvLayer
from repro.core.lower_bound import practical_lower_bound
from repro.dataflows.ours import OptimalDataflow
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow
from repro.engine import SearchEngine


@pytest.fixture
def layer():
    return ConvLayer("l", 2, 32, 28, 28, 64, 3, 3, stride=1, padding=1)


@pytest.fixture
def engine():
    return SearchEngine()


class TestOptimalDataflowAdapter:
    def test_search_returns_single_candidate(self, layer):
        result = OptimalDataflow().search(layer, 8192)
        assert set(result.tiling) == {"b", "z", "y", "x", "k"}
        assert result.total > 0

    def test_fixed_split_constraints_respected(self, layer):
        dataflow = OptimalDataflow(psum_words=4096, input_buffer_words=512, weight_buffer_words=64)
        tiling = dataflow.choose(layer, 8192)
        assert tiling.output_block_size() <= 4096
        assert tiling.staged_weight_words() <= 64
        assert tiling.staged_input_words(layer) <= 512

    def test_never_below_lower_bound(self, vgg_layers, capacity_66k):
        ours = OptimalDataflow()
        for layer in vgg_layers:
            bound = practical_lower_bound(layer, capacity_66k)
            total = ours.search(layer, capacity_66k).total
            assert total >= 0.9 * bound

    def test_close_to_lower_bound_across_vgg(self, vgg_layers, capacity_66k):
        ours = OptimalDataflow()
        total = sum(ours.search(layer, capacity_66k).total for layer in vgg_layers)
        bound = sum(practical_lower_bound(layer, capacity_66k) for layer in vgg_layers)
        # The paper reports ~10% above the bound; allow a wider envelope here.
        assert total <= 1.35 * bound

    def test_beats_every_baseline_on_vgg(self, vgg_layers, capacity_66k):
        ours_total = sum(
            OptimalDataflow().search(layer, capacity_66k).total for layer in vgg_layers
        )
        for dataflow in ALL_DATAFLOWS:
            if dataflow.name == "Ours":
                continue
            total = 0.0
            feasible = True
            for layer in vgg_layers:
                try:
                    total += dataflow.search(layer, capacity_66k).total
                except ValueError:
                    feasible = False
                    break
            if not feasible:
                continue
            # A small tolerance: the bound is asymptotic and individual layers
            # can favour a baseline, but network-wide ours must win or tie.
            assert ours_total <= total * 1.05, dataflow.name


class TestFoundMinimum:
    def test_found_minimum_not_worse_than_any_dataflow(self, layer, engine):
        capacity = 16384
        best = engine.found_minimum(layer, capacity)
        for dataflow in ALL_DATAFLOWS:
            try:
                result = dataflow.search(layer, capacity)
            except ValueError:
                continue
            assert best.total <= result.total + 1e-6

    def test_found_minimum_close_to_ours(self, vgg_layers, capacity_66k, engine):
        ours = get_dataflow("Ours")
        ours_total = sum(ours.search(layer, capacity_66k).total for layer in vgg_layers)
        min_total = sum(engine.found_minimum(layer, capacity_66k).total for layer in vgg_layers)
        # Paper: the found minimum improves on the proposed dataflow by <5%.
        assert min_total <= ours_total
        assert min_total >= 0.85 * ours_total

    def test_raises_when_no_dataflow_fits(self, engine):
        layer = ConvLayer("l", 1, 8, 20, 20, 16, 3, 3)
        with pytest.raises(ValueError):
            engine.found_minimum(layer, capacity_words=0, dataflows=ALL_DATAFLOWS[1:3])


class TestNetworkTraffic:
    def test_with_explicit_dataflow(self, layer, engine):
        capacity = 8192
        ours = get_dataflow("Ours")
        total = engine.network_traffic([layer, layer], capacity, dataflow=ours)
        single = ours.search(layer, capacity).total
        assert total.total == pytest.approx(2 * single)

    def test_found_minimum_network(self, layer, engine):
        capacity = 8192
        total = engine.network_traffic([layer], capacity)
        assert total.total == pytest.approx(engine.found_minimum(layer, capacity).total)

    def test_per_layer_results(self, layer, engine):
        results = engine.per_layer_results([layer, layer], 8192, get_dataflow("InR-C"))
        assert len(results) == 2
        assert all(result.dataflow == "InR-C" for result in results)
