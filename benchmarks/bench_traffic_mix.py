"""Traffic-mix census benchmark: fold a serving mix from one block per load.

The ``traffic`` experiment and the DSE ``--traffic-mix`` path fold a seeded
serving mix into weighted unique layer shapes.  The default mix
(``llama_decode:32`` plus ``mixtral_decode:32``, 32 requests, seed 0) is
2.6M layer executions in 31 loads, each a stack of 32 identical decoder
blocks.  :func:`~repro.workloads.traffic.weighted_unique_layers` counts each
load's shapes from one block (``Workload.shape_counts``); the reference
below builds every layer of every load (``load_layers``) and dedupes them.
On the default mix:

(a) both folds return identical ``(layers, weights)``;
(b) the census is >= 10x faster than the reference;
(c) the census builds at most 9 000 layers, where the reference builds
    278 304.

Layers built are printed per unique shape next to the wall-clock, so a
regression reads as either "more layers built" or "slower per layer".

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_traffic_mix.py -q -s``
"""

import time

from repro.engine.cache import layer_signature
from repro.orchestration.experiments import get_experiment
from repro.workloads.registry import Workload
from repro.workloads.traffic import (
    TrafficMixSpec,
    aggregate_trace,
    generate_trace,
    load_layers,
    served_model,
    weighted_unique_layers,
)

#: The acceptance bar: the census >= 10x faster than the reference fold.
MIN_SPEEDUP = 10.0

#: Layers the reference builds on the default mix, and the census's ceiling.
REFERENCE_LAYERS = 278_304
MAX_CENSUS_LAYERS = 9_000

#: Each fold runs this many times; the fastest run counts.
ROUNDS = 3


def default_mix() -> TrafficMixSpec:
    """The ``traffic`` experiment's default mix on its pinned workload."""
    experiment = get_experiment("traffic")
    params = experiment.default_params
    models = [experiment.workloads[0], *params["extra_models"]]
    return TrafficMixSpec(
        models=tuple(served_model(spec) for spec in models),
        requests=params["requests"],
        seed=params["seed"],
        arrival_rate_per_s=params["arrival_rate_per_s"],
        zipf_alpha=params["zipf_alpha"],
        prompt_exponents=tuple(params["prompt_exponents"]),
        decode_exponents=tuple(params["decode_exponents"]),
    )


def reference_fold(spec: TrafficMixSpec, loads: list) -> tuple:
    """Dedupe every load's materialised layers by ``(signature, kind)``."""
    merged = {}
    for load in loads:
        for layer in load_layers(spec, load):
            key = (layer_signature(layer), layer.weight_kind)
            first, weight = merged.get(key, (layer, 0))
            merged[key] = (first, weight + load.count)
    keys = sorted(merged)
    return [merged[key][0] for key in keys], [merged[key][1] for key in keys]


def test_census_matches_the_reference_and_builds_less(monkeypatch):
    spec = default_mix()
    loads = aggregate_trace(spec, generate_trace(spec))
    built = []
    build = Workload.build

    def counting_build(self, batch=None, **params):
        layers = build(self, batch, **params)
        built.append(len(layers))
        return layers

    monkeypatch.setattr(Workload, "build", counting_build)
    results, seconds, layers_built = {}, {}, {}
    for label, fold in (("reference", reference_fold), ("census", weighted_unique_layers)):
        times = []
        for _ in range(ROUNDS):
            built.clear()
            start = time.perf_counter()
            results[label] = fold(spec, loads)
            times.append(time.perf_counter() - start)
        seconds[label] = min(times)
        layers_built[label] = sum(built)
        shapes = len(results[label][0])
        print(
            f"\n{label}: {len(loads)} loads -> {shapes} unique shapes, "
            f"{layers_built[label]} layers built ({layers_built[label] / shapes:.0f} per shape), "
            f"{seconds[label]:.3f} s ({seconds[label] / layers_built[label] * 1e6:.1f} us per layer built)"
        )

    assert results["census"] == results["reference"], "census fold differs from the reference"
    assert layers_built["reference"] == REFERENCE_LAYERS
    assert layers_built["census"] <= MAX_CENSUS_LAYERS, (
        f"census built {layers_built['census']} layers (ceiling {MAX_CENSUS_LAYERS})"
    )
    speedup = seconds["reference"] / seconds["census"]
    print(f"speedup {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, f"census fold only {speedup:.1f}x faster (need >= {MIN_SPEEDUP}x)"
