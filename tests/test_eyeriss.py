"""Tests for the Eyeriss row-stationary baseline model."""

import math
from dataclasses import replace

import pytest

from repro.core.layer import ConvLayer
from repro.core.lower_bound import ideal_traffic
from repro.eyeriss.model import (
    EYERISS_CONFIG,
    EYERISS_REPORTED_VGG16_DRAM_MB,
    EyerissModel,
    VGG16_INPUT_COMPRESSION,
    shape_best_tile,
)


@pytest.fixture(scope="module")
def model():
    return EyerissModel()


class TestEyerissConfig:
    def test_published_parameters(self):
        assert EYERISS_CONFIG.num_pes == 168
        assert EYERISS_CONFIG.effective_on_chip_kib == pytest.approx(173.5)
        assert EYERISS_CONFIG.spad_weight_words_total == 168 * 224

    def test_reported_constants(self):
        assert EYERISS_REPORTED_VGG16_DRAM_MB["uncompressed"] > EYERISS_REPORTED_VGG16_DRAM_MB["compressed"]
        assert len(VGG16_INPUT_COMPRESSION) == 13
        assert all(0 < ratio <= 1 for ratio in VGG16_INPUT_COMPRESSION)


class TestLayerModel:
    def test_traffic_at_least_ideal(self, model, vgg_layer_mid):
        result = model.run_layer(vgg_layer_mid)
        assert result.dram.total >= ideal_traffic(vgg_layer_mid)

    def test_tile_fits_gbuf(self, model, vgg_layer_mid):
        result = model.run_layer(vgg_layer_mid)
        tile = result.tile
        strip_rows = (tile["e"] - 1) * vgg_layer_mid.stride + vgg_layer_mid.kernel_height
        ifmap = tile["n"] * tile["c"] * strip_rows * vgg_layer_mid.in_width
        psum = tile["n"] * tile["m"] * tile["e"] * vgg_layer_mid.out_width
        assert ifmap + psum <= EYERISS_CONFIG.gbuf_data_words

    def test_gbuf_traffic_exceeds_dram_traffic(self, model, vgg_layer_mid):
        result = model.run_layer(vgg_layer_mid)
        assert result.gbuf_accesses > result.dram.total

    def test_raises_when_nothing_fits(self, model):
        # Even a single-channel, single-row strip of this layer's input
        # (3 rows x 20000 columns) exceeds the 100 KB GBuf data region.
        giant = ConvLayer("giant", 1, 16, 3, 20000, 16, 3, 3, padding=0)
        with pytest.raises(ValueError):
            model.run_layer(giant)

    def test_run_network_length(self, model, vgg_layers):
        results = model.run_network(vgg_layers[:3])
        assert len(results) == 3


class TestShapeMemo:
    def test_same_shape_shares_one_entry(self, model, vgg_layer_mid):
        renamed = replace(vgg_layer_mid, name="renamed", weight_kind="activation")
        shape_best_tile.cache_clear()
        first = model.run_layer(vgg_layer_mid)
        second = model.run_layer(renamed)
        info = shape_best_tile.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert second is first
        # The shared tile is read-only: a write fails and leaves the memo intact.
        tile = dict(first.tile)
        with pytest.raises(TypeError):
            first.tile["n"] = 0
        assert model.run_layer(renamed).tile == tile

    def test_memo_is_bounded(self):
        maxsize = shape_best_tile.cache_info().maxsize
        assert maxsize is not None and math.isfinite(maxsize)


class TestNetworkComparisons:
    def test_compression_reduces_traffic(self, model, vgg_layers):
        subset = vgg_layers[:4]
        uncompressed = model.network_dram(subset)
        compressed = model.network_dram(subset, compression=VGG16_INPUT_COMPRESSION[:4])
        assert compressed.total < uncompressed.total

    def test_eyeriss_gbuf_traffic_much_larger_than_ours(self, vgg_layer_mid, impl1):
        from repro.arch.accelerator import AcceleratorModel

        eyeriss = EyerissModel().run_layer(vgg_layer_mid)
        ours = AcceleratorModel(impl1).run_layer(vgg_layer_mid)
        # The paper reports a 10.9-15.8x GBuf traffic reduction; require at
        # least a 3x separation from the analytic RS model.
        assert eyeriss.gbuf_accesses > 3 * ours.gbuf_accesses
