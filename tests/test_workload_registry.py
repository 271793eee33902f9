"""Tests for the workload registry and its routing through the stack."""

import pytest

from repro.core.layer import ConvLayer, total_macs
from repro.dataflows.registry import get_dataflow
from repro.engine import SearchEngine
from repro.workloads.registry import (
    UnknownWorkloadError,
    Workload,
    get_workload,
    get_workload_spec,
    list_workloads,
    register_workload,
    resolve_layers,
    workload_names,
)
from repro.workloads.vgg import PAPER_BATCH_SIZE

REQUIRED_NETWORKS = ("vgg16", "alexnet", "resnet18", "mobilenet_v1", "googlenet", "bert_base")


class TestRegistryLookup:
    def test_required_networks_are_registered(self):
        names = workload_names()
        assert len(names) >= 6
        for name in REQUIRED_NETWORKS:
            assert name in names

    def test_list_workloads_sorted_and_described(self):
        workloads = list_workloads()
        assert [w.name for w in workloads] == workload_names()
        assert all(isinstance(w, Workload) and w.description for w in workloads)

    def test_get_workload_returns_conv_layers(self):
        layers = get_workload("alexnet")
        assert layers and all(isinstance(layer, ConvLayer) for layer in layers)

    def test_default_batch_vgg16_matches_paper(self):
        assert all(layer.batch == PAPER_BATCH_SIZE for layer in get_workload("vgg16"))

    def test_batch_override(self):
        assert all(layer.batch == 4 for layer in get_workload("vgg16", batch=4))

    def test_builder_params_pass_through(self):
        a = get_workload("random", seed=3)
        b = get_workload("random", seed=4)
        assert [l.describe() for l in a] != [l.describe() for l in b]

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(UnknownWorkloadError, match="registered workloads"):
            get_workload("nope")
        # The clean message survives str() (KeyError would repr it).
        try:
            get_workload("nope")
        except UnknownWorkloadError as error:
            assert str(error).startswith("unknown workload")

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            get_workload("vgg16", batch=0)


class TestSpecParsing:
    def test_plain_name(self):
        assert len(get_workload_spec("alexnet")) == 5

    def test_name_with_batch(self):
        layers = get_workload_spec("resnet18:8")
        assert all(layer.batch == 8 for layer in layers)

    def test_bad_batch_text(self):
        with pytest.raises(ValueError, match="integer"):
            get_workload_spec("vgg16:three")

    def test_resolve_layers_passthrough_and_names(self):
        layers = get_workload("tiny")
        assert resolve_layers(layers) == layers
        assert resolve_layers("tiny") == layers
        assert resolve_layers(None, default="tiny") == layers
        with pytest.raises(ValueError):
            resolve_layers(None)


class TestRegistration:
    def test_register_and_replace(self):
        name = "unit_test_net"
        try:
            register_workload(name, "one tiny layer", lambda batch: [
                ConvLayer("only", batch, 2, 8, 8, 2, 3, 3)
            ])
            assert len(get_workload(name, batch=2)) == 1
            with pytest.raises(ValueError, match="already registered"):
                register_workload(name, "dup", lambda batch: [])
            register_workload(name, "replaced", lambda batch: [], replace=True)
            assert get_workload(name) == []
        finally:
            from repro.workloads import registry

            registry._REGISTRY.pop(name, None)

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError, match="alphanumeric"):
            register_workload("bad name!", "x", lambda batch: [])


class TestEngineRouting:
    def test_engine_network_traffic_accepts_workload_name(self):
        engine = SearchEngine()
        by_name = engine.network_traffic("tiny", 4096)
        by_layers = engine.network_traffic(get_workload("tiny"), 4096)
        assert by_name == by_layers

    def test_engine_per_layer_results_accepts_spec(self):
        engine = SearchEngine()
        results = engine.per_layer_results("tiny:2", 4096, get_dataflow("Ours"))
        assert len(results) == len(get_workload("tiny"))

    def test_search_module_roundtrip(self):
        engine = SearchEngine()
        traffic = engine.network_traffic("tiny", 4096)
        assert traffic.total > 0


class TestModernNetworkCorners:
    def test_mobilenet_depthwise_is_per_channel(self):
        from repro.workloads.mobilenet import mobilenet_v1_depthwise_layers

        depthwise = mobilenet_v1_depthwise_layers()
        assert depthwise
        assert all(layer.in_channels == 1 and layer.out_channels == 1 for layer in depthwise)
        # Full sliding-window reuse at stride 1, reduced at stride 2.
        assert {layer.window_reuse for layer in depthwise} == {9.0, 2.25}

    def test_mobilenet_pointwise_is_matmul_corner(self):
        from repro.workloads.mobilenet import mobilenet_v1_pointwise_layers

        pointwise = mobilenet_v1_pointwise_layers()
        assert len(pointwise) == 13
        assert all(layer.window_reuse == 1.0 for layer in pointwise)

    def test_mobilenet_folded_form_preserves_macs(self):
        expanded = get_workload("mobilenet_v1")
        folded = get_workload("mobilenet_v1", expand_depthwise=False)
        assert total_macs(expanded) == total_macs(folded)
        assert len(folded) < len(expanded)

    def test_mobilenet_width_multiplier_scales_channels(self):
        half = get_workload("mobilenet_v1", width_multiplier=0.5)
        assert total_macs(half) < 0.5 * total_macs(get_workload("mobilenet_v1"))

    def test_googlenet_mixes_kernels_at_same_resolution(self):
        layers = get_workload("googlenet")
        at_14 = {l.kernel_height for l in layers if l.in_height == 14 and "inception" in l.name}
        assert at_14 == {1, 3, 5}

    def test_googlenet_branch_reductions_feed_bigger_kernels(self):
        layers = {layer.name: layer for layer in get_workload("googlenet")}
        reduce_3x3 = layers["inception_3a/3x3_reduce"]
        conv_3x3 = layers["inception_3a/3x3"]
        assert reduce_3x3.out_channels == conv_3x3.in_channels == 96

    def test_bert_layers_are_pure_matmuls(self):
        layers = get_workload("bert_base")
        assert all(layer.window_reuse == 1.0 for layer in layers)
        assert all(layer.kernel_height == layer.kernel_width == 1 for layer in layers)

    def test_bert_macs_match_analytic_count(self):
        seq, hidden, heads, ffn, depth = 128, 768, 12, 3072, 12
        per_layer = 4 * seq * hidden * hidden + 2 * heads * seq * seq * (hidden // heads) \
            + 2 * seq * hidden * ffn
        assert total_macs(get_workload("bert_base")) == depth * per_layer

    def test_bert_requires_divisible_heads(self):
        from repro.workloads.transformer import transformer_encoder_layers

        with pytest.raises(ValueError, match="divisible"):
            transformer_encoder_layers(hidden=100, heads=3)

    @pytest.mark.parametrize("name", ["mobilenet_v1", "googlenet", "bert_base"])
    def test_modern_networks_respect_theorem2_bound(self, name):
        """Every shape family sits above the paper's Theorem 2 bound.

        The *achievable* Eq. (15) form is deliberately not asserted here: the
        new workloads live in the regime it does not cover -- a depthwise or
        pointwise layer whose weight tensor fits on-chip reaches once-through
        traffic below Eq. (15)'s ``2*MACs/sqrt(R*S)`` read term (see
        ``test_small_operand_layers_beat_eq15``).
        """
        from repro.core.lower_bound import theorem2_lower_bound

        engine = SearchEngine()
        layers = get_workload(name)
        # One layer per distinct shape family keeps this fast while touching
        # the depthwise, pointwise, inception and attention corners.
        seen, representatives = set(), []
        for layer in layers:
            key = (layer.in_channels, layer.kernel_height, layer.in_height)
            if key not in seen:
                seen.add(key)
                representatives.append(layer)
        for layer in representatives[:8]:
            result = engine.found_minimum(layer, 34048)
            assert result.total >= theorem2_lower_bound(layer, 34048) - 1e-6
            assert result.total >= layer.num_weights + layer.num_outputs - 1e-6

    def test_small_operand_layers_beat_eq15(self):
        """MobileNet's pointwise corner exposes Eq. (15)'s regime boundary.

        When a whole operand tensor fits on-chip (conv6_pw's 64K weight words
        do not, but its schedule can hold full input panels), the searched
        minimum drops below the Eq. (15) reference -- evidence the bound's
        sqrt(R*S) term is only tight when no operand is resident.
        """
        from repro.core.lower_bound import practical_lower_bound, theorem2_lower_bound

        engine = SearchEngine()
        pointwise = next(
            layer for layer in get_workload("mobilenet_v1") if layer.name == "conv6_pw"
        )
        found = engine.found_minimum(pointwise, 34048)
        assert found.total < practical_lower_bound(pointwise, 34048)
        assert found.total >= theorem2_lower_bound(pointwise, 34048)
