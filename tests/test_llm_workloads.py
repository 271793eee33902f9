"""The LLM serving workload family: exact MACs, KV-cache tagging, GQA/MoE.

The builders in :mod:`repro.workloads.llm` model decode steps, prefill and
MoE routing as exact-MAC matmul layer lists; the closed forms
(``decode_step_macs``, ``kv_cache_words_per_step``) are the independent
accounting the property tests check the builders against -- any drift
between a builder and its closed form is a modeling bug, not a tolerance
issue.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.layer import WEIGHT_KINDS, ConvLayer, total_macs
from repro.engine.cache import layer_signature
from repro.workloads.llm import (
    balanced_expert_counts,
    decode_attention_macs,
    decode_step_macs,
    kv_cache_words_per_step,
    llama_decode_layers,
    llama_prefill_layers,
    mixtral_decode_layers,
    resolve_head_dim,
)
from repro.workloads.registry import (
    get_workload,
    get_workload_spec,
    lookup_workload,
    workload_names,
)

# Small-but-varied decoder geometries: heads divisible by kv_heads, hidden
# implied by heads * head_dim so every GQA constraint holds by construction.
heads_and_kv = st.sampled_from([(2, 1), (2, 2), (4, 2), (4, 4), (8, 2), (8, 8)])
geometry = st.fixed_dictionaries(
    {
        "batch": st.integers(min_value=1, max_value=5),
        "context": st.integers(min_value=1, max_value=64),
        "head_dim": st.sampled_from([4, 8, 16]),
        "ffn_hidden": st.integers(min_value=3, max_value=48),
        "num_layers": st.integers(min_value=1, max_value=3),
    }
)


def _expand(params, heads_kv):
    heads, kv_heads = heads_kv
    hidden = heads * params["head_dim"]
    return dict(
        params,
        heads=heads,
        kv_heads=kv_heads,
        hidden=hidden,
        head_dim=params["head_dim"],
    )


class TestClosedFormMacs:
    """Builders and closed forms are two independent accountings of one model."""

    @settings(max_examples=30, deadline=None)
    @given(params=geometry, heads_kv=heads_and_kv)
    def test_llama_decode_matches_closed_form(self, params, heads_kv):
        kwargs = _expand(params, heads_kv)
        layers = llama_decode_layers(**kwargs)
        assert total_macs(layers) == decode_step_macs(**kwargs)

    @settings(max_examples=30, deadline=None)
    @given(
        params=geometry,
        heads_kv=heads_and_kv,
        experts=st.integers(min_value=1, max_value=4),
        top_k=st.integers(min_value=1, max_value=4),
    )
    def test_mixtral_decode_matches_closed_form(self, params, heads_kv, experts, top_k):
        if top_k > experts:
            top_k = experts
        kwargs = _expand(params, heads_kv)
        layers = mixtral_decode_layers(experts=experts, top_k=top_k, **kwargs)
        assert total_macs(layers) == decode_step_macs(
            experts=experts, top_k=top_k, **kwargs
        )

    @settings(max_examples=30, deadline=None)
    @given(params=geometry, heads_kv=heads_and_kv)
    def test_kv_cache_words_match_builder(self, params, heads_kv):
        kwargs = _expand(params, heads_kv)
        layers = llama_decode_layers(**kwargs)
        tagged = sum(
            layer.kv_cache_words for layer in layers if layer.weight_kind == "kv_cache"
        )
        expected = kv_cache_words_per_step(
            batch=kwargs["batch"],
            context=kwargs["context"],
            hidden=kwargs["hidden"],
            heads=kwargs["heads"],
            kv_heads=kwargs["kv_heads"],
            head_dim=kwargs["head_dim"],
            num_layers=kwargs["num_layers"],
        )
        assert tagged == expected

    def test_attention_macs_closed_form(self):
        # Per decoder layer, the KV-tagged layers are exactly the QK^T and
        # PV matmuls: 2 * batch * heads * head_dim * context MACs.
        layers = llama_decode_layers(
            batch=3, context=17, hidden=32, heads=4, kv_heads=2, ffn_hidden=11,
            num_layers=2,
        )
        attention = [layer for layer in layers if layer.weight_kind == "kv_cache"]
        assert total_macs(attention) == 2 * decode_attention_macs(
            batch=3, context=17, heads=4, head_dim=8
        )

    def test_paper_scale_defaults_are_exact(self):
        # The registry default (Llama-3-8B-like geometry at batch 32).
        layers = llama_decode_layers(batch=32, context=4096)
        assert total_macs(layers) == decode_step_macs(batch=32, context=4096)


class TestGqaAndValidation:
    def test_resolve_head_dim(self):
        assert resolve_head_dim(4096, 32) == 128
        assert resolve_head_dim(4096, 32, head_dim=64) == 64
        with pytest.raises(ValueError):
            resolve_head_dim(100, 3)

    def test_gqa_divisibility_is_enforced(self):
        with pytest.raises(ValueError):
            llama_decode_layers(batch=1, context=8, hidden=32, heads=8, kv_heads=3)

    def test_weight_kind_validation(self):
        with pytest.raises(ValueError):
            ConvLayer.from_fc("bad", 1, 4, 4, weight_kind="cache")
        assert "kv_cache" in WEIGHT_KINDS

    def test_decode_layers_tag_their_operands(self):
        layers = llama_decode_layers(
            batch=2, context=8, hidden=16, heads=4, kv_heads=2, ffn_hidden=8,
            num_layers=1,
        )
        kinds = {layer.weight_kind for layer in layers}
        assert kinds == {"weights", "kv_cache"}
        # Projections and FFN read true weights; only cache reads are tagged.
        for layer in layers:
            if layer.weight_kind == "kv_cache":
                assert layer.kv_cache_words == layer.num_weights
            else:
                assert layer.kv_cache_words == 0

    @pytest.mark.parametrize("family", ["llama_decode", "mixtral_decode", "llama_prefill"])
    def test_stacks_need_at_least_one_block(self, family):
        workload = lookup_workload(family)
        for num_layers in (0, -1):
            with pytest.raises(ValueError, match="num_layers must be >= 1"):
                workload.build(1, num_layers=num_layers)
            with pytest.raises(ValueError, match="num_layers must be >= 1"):
                workload.shape_counts(1, num_layers=num_layers)

    def test_prefill_tags_scores_and_context_as_activations(self):
        layers = llama_prefill_layers(
            batch=1, prompt=8, hidden=16, heads=4, kv_heads=2, ffn_hidden=8,
            num_layers=1,
        )
        kinds = {layer.weight_kind for layer in layers}
        assert kinds == {"weights", "activation"}


def first_seen_counts(layers) -> list:
    """The reference census: ``(key, (first layer, count))`` pairs in
    first-seen order, over the whole materialised layer list."""
    counts = {}
    for layer in layers:
        key = (layer_signature(layer), layer.weight_kind)
        first, count = counts.get(key, (layer, 0))
        counts[key] = (first, count + 1)
    return list(counts.items())


class TestShapeCounts:
    """``Workload.shape_counts`` folds one block; the full build is the reference."""

    @settings(max_examples=40, deadline=None)
    @given(
        params=geometry,
        heads_kv=heads_and_kv,
        family=st.sampled_from(["llama_decode", "mixtral_decode", "llama_prefill"]),
        experts=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        top_k=st.integers(min_value=1, max_value=4),
    )
    def test_stacked_census_matches_the_full_build(self, params, heads_kv, family, experts, top_k):
        kwargs = _expand(params, heads_kv)
        batch = kwargs.pop("batch")
        if family == "llama_prefill":
            kwargs["prompt"] = kwargs.pop("context")
        if family != "llama_decode" and experts is not None:
            kwargs.update(experts=experts, top_k=min(top_k, experts))
        workload = lookup_workload(family)
        assert workload.stacked_by == "num_layers"
        census = list(workload.shape_counts(batch, **kwargs).items())
        assert census == first_seen_counts(workload.build(batch, **kwargs))

    @pytest.mark.parametrize("name", ["vgg16", "googlenet", "bert_base"])
    def test_flat_census_matches_the_build(self, name):
        workload = lookup_workload(name)
        assert workload.stacked_by is None
        assert list(workload.shape_counts().items()) == first_seen_counts(workload.build())


class TestMoeRouting:
    @settings(max_examples=50, deadline=None)
    @given(
        assignments=st.integers(min_value=0, max_value=200),
        experts=st.integers(min_value=1, max_value=16),
    )
    def test_balanced_counts_partition_the_assignments(self, assignments, experts):
        counts = balanced_expert_counts(assignments, experts)
        assert len(counts) == experts
        assert sum(counts) == assignments
        assert max(counts) - min(counts) <= 1
        # Deterministic: same inputs, same split.
        assert counts == balanced_expert_counts(assignments, experts)


class TestRegistry:
    def test_llm_families_are_registered(self):
        names = workload_names()
        for name in ("llama_decode", "llama_prefill", "mixtral_decode"):
            assert name in names

    def test_spec_batch_propagates(self):
        layers = get_workload_spec("llama_decode:2")
        assert total_macs(layers) == decode_step_macs(batch=2, context=4096)
        layers = get_workload("llama_decode", batch=2, context=64)
        assert total_macs(layers) == decode_step_macs(batch=2, context=64)

    def test_parameters_listing_starts_with_batch(self):
        from repro.workloads.registry import _REGISTRY

        for name in ("llama_decode", "llama_prefill", "mixtral_decode"):
            params = _REGISTRY[name].parameters()
            assert next(iter(params)) == "batch"
            # decode families expose context; prefill exposes prompt instead
            assert ("context" in params) != ("prompt" in params)
            assert "prefix" not in params
