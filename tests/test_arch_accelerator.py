"""Tests for repro.arch.accelerator (the tile-exact analytic simulator)."""

import math
from dataclasses import replace

import pytest

from repro.arch.accelerator import AcceleratorModel, shape_tiling
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation
from repro.core.layer import ConvLayer
from repro.core.lower_bound import reg_lower_bound
from repro.core.optimal_dataflow import choose_tiling, dataflow_traffic
from repro.core.tiling import Tiling


@pytest.fixture(scope="module")
def impl1_model():
    return AcceleratorModel(paper_implementation(1))


@pytest.fixture
def small_conv():
    return ConvLayer("small", 1, 8, 20, 20, 32, 3, 3, stride=1, padding=1)


class TestTilingChoice:
    def test_tiling_fits_all_memories(self, impl1_model, small_conv):
        tiling = impl1_model.choose_layer_tiling(small_conv)
        config = impl1_model.config
        assert tiling.output_block_size() <= config.psum_words
        assert tiling.staged_input_words(small_conv) <= config.igbuf_words
        assert tiling.staged_weight_words() <= config.wgbuf_words

    def test_tiling_fits_per_pe_lregs(self, impl1_model, vgg_layers):
        from repro.arch.mapping import BlockShape, map_block

        for layer in vgg_layers[:4]:
            tiling = impl1_model.choose_layer_tiling(layer)
            block = BlockShape(b=tiling.b, z=tiling.z, y=tiling.y, x=tiling.x)
            mapping = map_block(layer, block, impl1_model.config)
            assert mapping.psums_per_pe <= impl1_model.config.lreg_words_per_pe

    def test_tiling_cached(self, impl1_model, small_conv):
        first = impl1_model.choose_layer_tiling(small_conv)
        second = impl1_model.choose_layer_tiling(small_conv)
        assert first == second


class TestShapeMemo:
    def test_same_shape_shares_one_entry(self, impl1_model, small_conv):
        renamed = replace(small_conv, name="renamed", weight_kind="kv_cache")
        shape_tiling.cache_clear()
        first = impl1_model.run_layer(small_conv)
        second = impl1_model.run_layer(renamed)
        info = shape_tiling.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert second is first

    def test_memo_is_bounded(self):
        maxsize = shape_tiling.cache_info().maxsize
        assert maxsize is not None and math.isfinite(maxsize)


class TestLayerRun:
    def test_dram_matches_dataflow_traffic(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        expected = dataflow_traffic(small_conv, result.tiling)
        assert result.dram.input_reads == pytest.approx(expected.input_reads)
        assert result.dram.weight_reads == pytest.approx(expected.weight_reads)
        assert result.dram.output_writes == pytest.approx(expected.output_writes)

    def test_gbuf_writes_equal_dram_reads(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        assert result.igbuf_writes == pytest.approx(result.dram.input_reads)
        assert result.wgbuf_writes == pytest.approx(result.dram.weight_reads)

    def test_weights_read_once_from_gbuf(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        assert result.wgbuf_reads == pytest.approx(result.dram.weight_reads)

    def test_reg_accesses_close_to_lower_bound(self, impl1_model, vgg_layer_mid):
        result = impl1_model.run_layer(vgg_layer_mid)
        bound = reg_lower_bound(vgg_layer_mid)
        assert result.reg_accesses >= bound
        # The paper reports 5.9-11.8% extra register traffic; allow up to 25%.
        assert result.reg_accesses <= 1.25 * bound

    def test_dram_close_to_free_dataflow(self, impl1_model, vgg_layer_mid, capacity_66k):
        result = impl1_model.run_layer(vgg_layer_mid)
        free = choose_tiling(vgg_layer_mid, capacity_66k).traffic.total
        # The fixed on-chip memory split costs only a few percent (paper: 3-4%).
        assert result.dram.total <= 1.15 * free

    def test_explicit_tiling_respected(self, impl1_model, small_conv):
        tiling = Tiling(b=1, z=16, y=10, x=10)
        result = impl1_model.run_layer(small_conv, tiling=tiling)
        assert result.tiling == tiling.clip(small_conv)

    def test_utilizations_in_unit_range(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        for key, value in result.utilization.items():
            assert 0.0 <= value <= 1.0, key

    def test_compute_cycles_at_least_macs_over_pes(self, impl1_model, vgg_layer_mid):
        result = impl1_model.run_layer(vgg_layer_mid)
        assert result.compute_cycles >= vgg_layer_mid.macs / impl1_model.config.num_pes

    def test_waiting_cycles_nonnegative(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        assert result.waiting_cycles >= 0
        assert result.total_cycles == result.compute_cycles + result.waiting_cycles

    def test_aggregate_properties(self, impl1_model, small_conv):
        result = impl1_model.run_layer(small_conv)
        assert result.gbuf_accesses == result.gbuf_reads + result.gbuf_writes
        assert result.dram_accesses == result.dram.total


class TestNetworkRun:
    def test_network_aggregation(self, impl1_model, small_conv):
        layers = [small_conv, small_conv.with_batch(2)]
        network = impl1_model.run_network(layers)
        assert len(network.layers) == 2
        assert network.macs == sum(layer.macs for layer in layers)
        assert network.dram.total == pytest.approx(
            sum(result.dram.total for result in network.layers)
        )
        assert network.total_cycles == network.compute_cycles + network.waiting_cycles

    def test_network_utilization_weighted_average(self, impl1_model, small_conv):
        network = impl1_model.run_network([small_conv])
        assert network.utilization("pe") == pytest.approx(
            network.layers[0].utilization["pe"]
        )

    def test_more_pes_run_faster(self, vgg_layer_mid):
        small = AcceleratorModel(paper_implementation(1)).run_layer(vgg_layer_mid)
        large = AcceleratorModel(paper_implementation(3)).run_layer(vgg_layer_mid)
        assert large.compute_cycles < small.compute_cycles


class TestAcrossImplementations:
    @pytest.mark.parametrize("config", PAPER_IMPLEMENTATIONS, ids=lambda c: c.name)
    def test_every_implementation_handles_vgg_extremes(self, config, vgg_layers):
        model = AcceleratorModel(config)
        for layer in (vgg_layers[0], vgg_layers[-1]):
            result = model.run_layer(layer)
            assert result.dram.total > 0
            assert result.compute_cycles > 0
            assert result.reg_accesses >= layer.macs
