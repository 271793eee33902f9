"""Tests for repro.core.layer."""

import pytest

from repro.core.layer import ConvLayer, ceil_div, kib_to_words, total_macs, words_to_kib


class TestConvLayerShapes:
    def test_vgg_style_output_shape(self):
        layer = ConvLayer("l", 1, 64, 224, 224, 64, 3, 3, stride=1, padding=1)
        assert layer.out_height == 224
        assert layer.out_width == 224

    def test_no_padding_output_shape(self):
        layer = ConvLayer("l", 1, 3, 10, 10, 4, 3, 3)
        assert layer.out_height == 8
        assert layer.out_width == 8

    def test_strided_output_shape(self):
        layer = ConvLayer("l", 1, 3, 227, 227, 96, 11, 11, stride=4)
        assert layer.out_height == 55
        assert layer.out_width == 55

    def test_rectangular_output_shape(self):
        layer = ConvLayer("l", 1, 1, 9, 13, 1, 3, 5)
        assert layer.out_height == 7
        assert layer.out_width == 9

    def test_output_positions(self):
        layer = ConvLayer("l", 1, 3, 10, 12, 4, 3, 3)
        assert layer.output_positions == layer.out_height * layer.out_width


class TestConvLayerVolumes:
    def test_num_inputs(self):
        layer = ConvLayer("l", 2, 3, 10, 10, 4, 3, 3)
        assert layer.num_inputs == 2 * 3 * 10 * 10

    def test_num_weights(self):
        layer = ConvLayer("l", 2, 3, 10, 10, 4, 3, 3)
        assert layer.num_weights == 4 * 3 * 3 * 3

    def test_num_outputs(self):
        layer = ConvLayer("l", 2, 3, 10, 10, 4, 3, 3)
        assert layer.num_outputs == 2 * 4 * 8 * 8

    def test_macs(self):
        layer = ConvLayer("l", 2, 3, 10, 10, 4, 3, 3)
        assert layer.macs == layer.num_outputs * 3 * 3 * 3

    def test_dag_internal_nodes_is_twice_macs(self):
        layer = ConvLayer("l", 1, 2, 6, 6, 2, 3, 3)
        assert layer.dag_internal_nodes == 2 * layer.macs

    def test_arithmetic_intensity_positive(self):
        layer = ConvLayer("l", 1, 16, 28, 28, 32, 3, 3, padding=1)
        assert layer.arithmetic_intensity() > 1.0


class TestWindowReuse:
    def test_unit_stride_3x3(self):
        layer = ConvLayer("l", 1, 3, 10, 10, 4, 3, 3)
        assert layer.window_reuse == pytest.approx(9.0)

    def test_stride_two(self):
        layer = ConvLayer("l", 1, 3, 11, 11, 4, 3, 3, stride=2)
        assert layer.window_reuse == pytest.approx(9.0 / 4.0)

    def test_1x1_kernel_has_no_window_reuse(self):
        layer = ConvLayer("l", 1, 3, 10, 10, 4, 1, 1)
        assert layer.window_reuse == pytest.approx(1.0)

    def test_reuse_never_below_one(self):
        layer = ConvLayer("l", 1, 3, 12, 12, 4, 2, 2, stride=2)
        assert layer.window_reuse == pytest.approx(1.0)


class TestValidation:
    @pytest.mark.parametrize("field", ["batch", "in_channels", "out_channels", "stride"])
    def test_non_positive_dimensions_rejected(self, field):
        kwargs = dict(name="l", batch=1, in_channels=1, in_height=5, in_width=5,
                      out_channels=1, kernel_height=3, kernel_width=3)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            ConvLayer(**kwargs)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer("l", 1, 1, 5, 5, 1, 3, 3, padding=-1)

    def test_kernel_larger_than_input_rejected(self):
        with pytest.raises(ValueError):
            ConvLayer("l", 1, 1, 2, 2, 1, 3, 3)

    def test_kernel_fits_with_padding(self):
        layer = ConvLayer("l", 1, 1, 2, 2, 1, 3, 3, padding=1)
        assert layer.out_height == 2


class TestConstructors:
    def test_from_fc_is_matmul_equivalent(self):
        layer = ConvLayer.from_fc("fc", batch=4, in_features=100, out_features=10)
        assert layer.window_reuse == 1.0
        assert layer.macs == 4 * 100 * 10
        assert layer.num_outputs == 4 * 10

    def test_with_batch(self):
        layer = ConvLayer("l", 1, 3, 10, 10, 4, 3, 3)
        bigger = layer.with_batch(8)
        assert bigger.batch == 8
        assert bigger.in_channels == layer.in_channels
        assert layer.batch == 1  # original untouched

    def test_describe_mentions_name(self):
        layer = ConvLayer("conv9", 1, 3, 10, 10, 4, 3, 3)
        assert "conv9" in layer.describe()


class TestHelpers:
    def test_input_patch_size(self):
        layer = ConvLayer("l", 1, 3, 20, 20, 4, 3, 3)
        assert layer.input_patch_size(1, 1) == 9
        assert layer.input_patch_size(4, 4) == 6 * 6

    def test_input_patch_size_strided(self):
        layer = ConvLayer("l", 1, 3, 20, 20, 4, 3, 3, stride=2)
        assert layer.input_patch_size(4, 4) == 9 * 9

    def test_total_macs(self):
        layers = [ConvLayer("a", 1, 1, 5, 5, 1, 3, 3), ConvLayer("b", 1, 2, 5, 5, 2, 3, 3)]
        assert total_macs(layers) == layers[0].macs + layers[1].macs

    @pytest.mark.parametrize("a,b,expected", [(7, 2, 4), (8, 2, 4), (1, 5, 1), (0, 3, 0)])
    def test_ceil_div(self, a, b, expected):
        assert ceil_div(a, b) == expected

    def test_ceil_div_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            ceil_div(5, 0)

    def test_word_kib_roundtrip(self):
        assert words_to_kib(1024) == pytest.approx(2.0)
        assert kib_to_words(2.0) == 1024

    def test_kib_to_words_floor(self):
        assert kib_to_words(0.001) == 0

    @pytest.mark.parametrize("kib", [float("inf"), float("-inf"), float("nan"), 1e308])
    def test_kib_to_words_rejects_non_finite(self, kib):
        with pytest.raises(ValueError, match="finite"):
            kib_to_words(kib)
