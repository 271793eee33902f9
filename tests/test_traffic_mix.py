"""Serving-traffic mixes: trace determinism, aggregation invariants, goldens.

The trace generator must be a pure function of its spec (integer-only
sampling, fixed draw order), the aggregation must conserve work (every
decode token of every request lands in exactly one bucketed batch), the
one-block shape census must fold to what every built layer folds to, and the
pinned traffic/llm goldens (declared on the ``traffic`` and ``llm_decode``
registry entries) must replay bit-for-bit through the nightly
``merge --diff-goldens`` path.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.goldens import (
    Pin,
    compute_pin,
    declared_pins,
    diff_pin,
    pin_params,
    sanitize_payload,
    write_pin,
    write_pins,
)
from repro.analysis.traffic_report import traffic_mix_report
from repro.core.layer import total_macs
from repro.engine import SearchEngine
from repro.engine.cache import layer_signature
from repro.orchestration.experiments import PAPER_EXPERIMENTS
from repro.orchestration.manifest import ManifestSpec, RunManifest, canonical_json
from repro.workloads.registry import Workload
from repro.workloads.traffic import (
    PhaseLoad,
    TrafficMixSpec,
    _decode_steps_by_bucket,
    aggregate_trace,
    bucket_tokens,
    generate_trace,
    load_layers,
    served_model,
    trace_summary,
    weighted_unique_layers,
    zipf_weights,
)


def tiny_mix(**overrides) -> TrafficMixSpec:
    """A small real mix: full registry machinery, toy decoder dimensions."""
    model = served_model(
        "llama_decode:4", hidden=16, heads=4, kv_heads=2, ffn_hidden=8, num_layers=1
    )
    defaults = dict(
        models=(model,),
        requests=6,
        seed=1,
        prompt_exponents=(2, 4),
        decode_exponents=(2, 3),
    )
    defaults.update(overrides)
    return TrafficMixSpec(**defaults)


def two_model_mix() -> TrafficMixSpec:
    """A dense and an MoE model, stacked three and two decoder blocks deep."""
    models = (
        served_model(
            "llama_decode:4", hidden=16, heads=4, kv_heads=2, ffn_hidden=8, num_layers=3
        ),
        served_model(
            "mixtral_decode:2", hidden=16, heads=4, kv_heads=2, ffn_hidden=8,
            num_layers=2, experts=4, top_k=2,
        ),
    )
    return tiny_mix(models=models, requests=12)


def reference_fold(spec: TrafficMixSpec, loads: list) -> tuple:
    """:func:`weighted_unique_layers` the long way, from every load's
    materialised layer list."""
    merged = {}
    for load in loads:
        for layer in load_layers(spec, load):
            key = (layer_signature(layer), layer.weight_kind)
            first, weight = merged.get(key, (layer, 0))
            merged[key] = (first, weight + load.count)
    keys = sorted(merged)
    return [merged[key][0] for key in keys], [merged[key][1] for key in keys]


@pytest.fixture
def build_calls(monkeypatch):
    """Every ``Workload.build`` call, as ``(workload name, batch, params)``."""
    calls = []
    build = Workload.build

    def spy(self, batch=None, **params):
        calls.append((self.name, batch, params))
        return build(self, batch, **params)

    monkeypatch.setattr(Workload, "build", spy)
    return calls


#: Builder overrides under which a decode step's context matmul at context 8
#: (2 x 8 -> 4, KV cache) has the shape of its k_proj at batch 2 (2 x 8 -> 4,
#: learned weights).
COLLIDING_PARAMS = {"hidden": 8, "heads": 2, "kv_heads": 1, "ffn_hidden": 8, "num_layers": 1}


class TestTraceGeneration:
    def test_trace_is_a_pure_function_of_the_spec(self):
        spec = tiny_mix()
        assert generate_trace(spec) == generate_trace(spec)
        assert generate_trace(spec) != generate_trace(tiny_mix(seed=2))

    def test_draws_respect_the_exponent_windows(self):
        spec = tiny_mix(requests=64)
        previous = 0.0
        for request in generate_trace(spec):
            assert request.arrival_s >= previous
            previous = request.arrival_s
            low, high = spec.prompt_exponents
            assert 2 ** (low - 1) < request.prompt_tokens <= 2 ** high
            low, high = spec.decode_exponents
            assert 2 ** (low - 1) < request.decode_tokens <= 2 ** high

    def test_zipf_default_is_the_harmonic_series(self):
        assert zipf_weights(4) == [1.0, 0.5, 1.0 / 3.0, 0.25]
        with pytest.raises(ValueError):
            zipf_weights(0)

    def test_trace_summary_conserves_tokens(self):
        spec = tiny_mix()
        trace = generate_trace(spec)
        summary = trace_summary(spec, trace)
        assert summary["requests"] == spec.requests
        assert summary["prompt_tokens"] == sum(r.prompt_tokens for r in trace)
        assert summary["decode_tokens"] == sum(r.decode_tokens for r in trace)
        assert sum(summary["requests_per_model"].values()) == spec.requests


class TestBucketing:
    def test_bucket_tokens_rounds_up_to_powers_of_two(self):
        assert [bucket_tokens(n) for n in (1, 2, 3, 8, 9)] == [1, 2, 4, 8, 16]
        with pytest.raises(ValueError):
            bucket_tokens(0)

    @settings(max_examples=100, deadline=None)
    @given(
        prompt=st.integers(min_value=1, max_value=5000),
        decode=st.integers(min_value=1, max_value=5000),
    )
    def test_decode_steps_partition_exactly(self, prompt, decode):
        from repro.workloads.traffic import Request

        request = Request(
            index=0, arrival_s=0.0, model=0, prompt_tokens=prompt, decode_tokens=decode
        )
        steps = _decode_steps_by_bucket(request)
        # Every generated token runs exactly one decode step, in the bucket
        # covering its context length; buckets are powers of two.
        assert sum(steps.values()) == decode
        for bucket, count in steps.items():
            assert bucket == bucket_tokens(bucket)
            low, high = bucket // 2, bucket
            overlap = min(prompt + decode, high) - max(prompt, low)
            assert count == overlap


class TestAggregation:
    def test_decode_work_is_conserved_through_batching(self):
        spec = tiny_mix()
        trace = generate_trace(spec)
        loads = aggregate_trace(spec, trace)
        decode_steps = sum(
            load.batch * load.count for load in loads if load.phase == "decode"
        )
        assert decode_steps == sum(request.decode_tokens for request in trace)
        prefills = sum(load.count for load in loads if load.phase == "prefill")
        assert prefills == spec.requests
        for load in loads:
            if load.phase == "decode":
                assert 1 <= load.batch <= spec.models[0].batch
            else:
                assert load.batch == 1

    def test_weighted_unique_layers_conserve_macs(self):
        spec = tiny_mix()
        loads = aggregate_trace(spec, generate_trace(spec))
        layers, weights = weighted_unique_layers(spec, loads)
        weighted = sum(w * layer.macs for layer, w in zip(layers, weights))
        direct = sum(
            load.count * total_macs(load_layers(spec, load)) for load in loads
        )
        assert weighted == direct
        assert len(layers) == len(set(id(layer) for layer in layers))

    @pytest.mark.parametrize("mix", [tiny_mix, two_model_mix])
    def test_fold_matches_the_materialised_reference(self, mix):
        spec = mix()
        loads = aggregate_trace(spec, generate_trace(spec))
        assert weighted_unique_layers(spec, loads) == reference_fold(spec, loads)

    def test_stacked_builders_build_one_block(self, build_calls):
        spec = two_model_mix()
        weighted_unique_layers(spec, aggregate_trace(spec, generate_trace(spec)))
        assert build_calls
        assert {params["num_layers"] for _, _, params in build_calls} == {1}

    def test_kv_cache_matmuls_keep_their_kind(self):
        payload = traffic_mix_report(
            model="llama_decode:2",
            extra_models=(),
            requests=4,
            prompt_exponents=(2, 3),
            decode_exponents=(1, 2),
            model_params=COLLIDING_PARAMS,
            engine=SearchEngine(),
        )
        spec = TrafficMixSpec(
            models=(served_model("llama_decode:2", **COLLIDING_PARAMS),),
            requests=4,
            prompt_exponents=(2, 3),
            decode_exponents=(1, 2),
        )
        loads = aggregate_trace(spec, generate_trace(spec))
        floor = sum(
            load.count * sum(layer.kv_cache_words for layer in load_layers(spec, load))
            for load in loads
        )
        assert payload["kv_cache_floor_words"] == floor == 1088

    def test_load_layers_rejects_unknown_models(self):
        spec = tiny_mix()
        with pytest.raises(ValueError):
            load_layers(spec, PhaseLoad("nope:1", "decode", 8, 1, 1))


class TestValidation:
    def test_non_decode_workloads_are_rejected(self):
        with pytest.raises(ValueError, match="decode-family"):
            served_model("vgg16")

    def test_mix_owns_batch_and_context(self):
        with pytest.raises(ValueError, match="set by the mix"):
            served_model("llama_decode:4", context=128)

    def test_bad_batch_specs(self):
        with pytest.raises(ValueError):
            served_model("llama_decode:x")
        with pytest.raises(ValueError):
            served_model("llama_decode:0")

    def test_empty_stack_is_a_value_error(self):
        with pytest.raises(ValueError, match="num_layers must be >= 1"):
            traffic_mix_report(
                model="llama_decode:2", extra_models=(), requests=2,
                model_params={"num_layers": 0},
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_mix(requests=0)
        with pytest.raises(ValueError):
            TrafficMixSpec(models=())
        with pytest.raises(ValueError):
            tiny_mix(prompt_exponents=(0, 4))
        with pytest.raises(ValueError):
            tiny_mix(arrival_rate_per_s=0.0)


GOLDENS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens")

(TRAFFIC_PIN,) = [pin for pin in declared_pins() if pin.experiment == "traffic"]
(LLM_PIN,) = [pin for pin in declared_pins() if pin.experiment == "llm_decode"]


class TestPinnedGoldens:
    """The two pinned serving goldens replay bit-for-bit on the numpy backend."""

    def test_pinned_files_exist(self):
        for pin in (TRAFFIC_PIN, LLM_PIN):
            path = os.path.join(GOLDENS_DIR, pin.filename)
            assert os.path.exists(path), (
                f"missing {path}; regenerate with: repro-experiments goldens --write"
            )

    def test_traffic_golden_replays(self, pin_payload):
        pytest.importorskip("numpy")
        problems = diff_pin(GOLDENS_DIR, TRAFFIC_PIN, pin_payload(TRAFFIC_PIN, "numpy"))
        assert problems == [], "\n".join(problems[:20])

    def test_llm_golden_replays(self, pin_payload):
        pytest.importorskip("numpy")
        problems = diff_pin(GOLDENS_DIR, LLM_PIN, pin_payload(LLM_PIN, "numpy"))
        assert problems == [], "\n".join(problems[:20])

    def test_backends_agree_byte_for_byte(self, pin_payload):
        pytest.importorskip("numpy")
        from repro.engine import SearchEngine

        scalar = compute_pin(TRAFFIC_PIN, engine=SearchEngine(backend="python"))
        vectorized = pin_payload(TRAFFIC_PIN, "numpy")
        assert canonical_json(sanitize_payload(scalar)) == canonical_json(
            sanitize_payload(vectorized)
        )


class TestOrchestration:
    def test_traffic_is_part_of_the_full_paper(self):
        assert "traffic" in PAPER_EXPERIMENTS

    def test_manifest_pins_the_traffic_workload(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("vgg16",), experiments=("traffic",))
        )
        assert len(manifest.units) == 1
        unit = manifest.units[0]
        assert unit.workload == TRAFFIC_PIN.workload
        assert unit.params == pin_params(TRAFFIC_PIN)

    def test_traffic_unit_never_builds_its_workload(self, tmp_path, build_calls):
        from repro.orchestration.runner import Runner

        params = {
            "extra_models": [],
            "requests": 2,
            "capacities_kib": [66.5],
            "model_params": {"hidden": 16, "heads": 4, "kv_heads": 2, "ffn_hidden": 8},
        }
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("vgg16",), experiments=("traffic",), params={"traffic": params})
        )
        assert Runner(manifest, str(tmp_path)).run().complete
        # Every layer built is the mix's (a decode context or a prompt), none
        # is the unit's own llama_decode:32 layer list.
        assert build_calls
        assert all("context" in kwargs or "prompt" in kwargs for _, _, kwargs in build_calls)

    def test_merge_diffs_the_traffic_unit_against_the_pinned_golden(
        self, tmp_path, pin_payload, restrict_pins
    ):
        pytest.importorskip("numpy")
        from repro.orchestration.merge import diff_merged_goldens, merge_runs
        from repro.orchestration.runner import Runner

        # diff_merged_goldens refuses a run with no pinned 'goldens' units (a
        # vacuous pass must not read as verified), so ride along on the
        # cheap tiny workload.
        tiny_pin = Pin("goldens", "tiny", {}, "tiny.json")
        restrict_pins(tiny_pin, TRAFFIC_PIN)
        goldens_dir = str(tmp_path / "goldens")
        write_pins(goldens_dir, pins=[tiny_pin])
        traffic_path = write_pin(goldens_dir, TRAFFIC_PIN, pin_payload(TRAFFIC_PIN, "numpy"))
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("goldens", "traffic"),
                backends=("numpy",),
            )
        )
        out_dir = str(tmp_path / "run")
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        key = f"traffic:{TRAFFIC_PIN.workload}"
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert diff == {"tiny": [], key: []}

        # A drifted pinned value must surface as a diff problem naming its file.
        with open(traffic_path) as handle:
            golden = json.load(handle)
        golden["macs"] = golden["macs"] * 2  # well past the 1e-9 tolerance
        with open(traffic_path, "w") as handle:
            json.dump(golden, handle)
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert diff[key] and all(TRAFFIC_PIN.filename in problem for problem in diff[key])

    def test_write_goldens_round_trip(self, tmp_path, pin_payload):
        pytest.importorskip("numpy")
        path = write_pin(str(tmp_path), LLM_PIN, pin_payload(LLM_PIN, "numpy"))
        with open(path) as handle:
            written = json.load(handle)
        assert written["format"] == "repro-llm-decode-v1"
        assert written["workload"] == "llama_decode:32"
