"""Serving-traffic mixes: aggregate optimal-dataflow search (the ``traffic``
experiment).

Where Fig. 13 asks "how much DRAM traffic does one network cost under each
dataflow?", the ``traffic`` experiment asks the serving-fleet version: given
a seeded request mix over LLM decode families (Zipf model popularity,
Poisson arrivals, mixed prompt/decode lengths -- see
:mod:`repro.workloads.traffic`), what is the aggregate DRAM traffic of the
whole mix under each dataflow, which single dataflow serves the mix best at
each on-chip capacity, and how much of the traffic is KV-cache serving
state rather than model weights?

The mix is first folded into weighted unique layer shapes, so the engine
answers millions of per-step layer executions with a few hundred exhaustive
searches (one candidate-grid evaluation per (dataflow, shape) pair on the
NumPy backend).  Everything downstream of the trace is a weighted sum of
search results in a fixed order, so the payload is byte-identical across
scalar and NumPy backends.  The module also registers ``llm_decode``, the
single-workload view of one decode model.  Both experiments pin their
default ``llama_decode:32`` payload on their registry entries
(``tests/goldens/traffic_llama_decode_32.json`` and
``llm_llama_decode_32.json``, 1e-9 tolerance); re-pin every golden after an
*intentional* model change with ``repro-experiments goldens --write`` and
review the JSON diff like any other code change.
"""

from __future__ import annotations

from repro.core.layer import kib_to_words
from repro.core.lower_bound import practical_lower_bound
from repro.core.traffic import classified_traffic
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow
from repro.engine import SearchEngine
from repro.orchestration.experiments import Experiment, Param, register_experiment
from repro.workloads.registry import parse_workload_spec
from repro.workloads.traffic import (
    TrafficMixSpec,
    aggregate_trace,
    generate_trace,
    served_model,
    sorted_shapes,
    trace_summary,
    weighted_unique_layers,
)

#: Artifact format marker of one traffic-mix payload.
TRAFFIC_FORMAT = "repro-traffic-v1"

#: Default on-chip capacities: Table I implementations 1, 3 and 5 (the same
#: three points the golden memory sweeps pin).
DEFAULT_TRAFFIC_CAPACITIES_KIB = (16.0, 66.5, 173.5)

#: Default companion catalog entries behind the primary ``--workload`` model:
#: a two-model fleet (dense Llama + MoE Mixtral) makes the Zipf popularity
#: ranking meaningful out of the box.
DEFAULT_EXTRA_MODELS = ("mixtral_decode:32",)


def weighted_shape_search(layers, weights, capacities_kib, dataflows, engine) -> tuple:
    """Search every (dataflow, shape, capacity) triple and aggregate.

    ``weights[i]`` scales shape ``i``'s traffic in every sum.  Returns
    ``(rows, optimal)``: one row per (capacity, dataflow) with the aggregate
    DRAM words (``None`` when some shape has no feasible tiling), and one
    ``optimal`` entry per capacity with the best single dataflow plus the
    found-minimum total split into learned-weight / KV-cache / activation /
    input / output words.  The whole grid is submitted as one batch: at most
    one exhaustive search per unique triple, one candidate-grid evaluation
    per (dataflow, shape) pair on the vectorized backend.
    """
    capacities_words = [kib_to_words(value) for value in capacities_kib]
    grid = [
        (dataflow_index, layer_index, capacity_index)
        for dataflow_index in range(len(dataflows))
        for layer_index in range(len(layers))
        for capacity_index in range(len(capacities_words))
    ]
    tasks = [
        (dataflows[dataflow_index], layers[layer_index], capacities_words[capacity_index])
        for dataflow_index, layer_index, capacity_index in grid
    ]
    results = dict(zip(grid, engine.search_tasks(tasks)))
    total_macs = sum(weight * layer.macs for layer, weight in zip(layers, weights))

    rows = []
    optimal = []
    for capacity_index, capacity_kib in enumerate(capacities_kib):
        per_dataflow = []
        for dataflow_index, dataflow in enumerate(dataflows):
            total = 0.0
            for layer_index, weight in enumerate(weights):
                result = results[(dataflow_index, layer_index, capacity_index)]
                if result is None:
                    total = None
                    break
                total += weight * result.traffic.total
            per_dataflow.append(total)
            rows.append(
                {
                    "capacity_kib": capacity_kib,
                    "dataflow": dataflow.name,
                    "total_words": total,
                    "words_per_mac": None if total is None else total / total_macs,
                }
            )

        # Best single dataflow for the whole mix (deterministic tie-break:
        # first in registry order wins).
        best_index = None
        for dataflow_index, total in enumerate(per_dataflow):
            if total is None:
                continue
            if best_index is None or total < per_dataflow[best_index]:
                best_index = dataflow_index
        if best_index is None:
            raise ValueError(
                f"no dataflow can serve the mix at {capacity_kib} KiB on-chip"
            )

        # Found minimum: the best feasible dataflow per shape (same
        # tie-break), with the weight reads of the chosen results split into
        # learned weights / KV cache / activations.
        chosen = []
        for layer_index in range(len(layers)):
            best = None
            for dataflow_index in range(len(dataflows)):
                result = results[(dataflow_index, layer_index, capacity_index)]
                if result is None:
                    continue
                if best is None or result.traffic.total < best.traffic.total:
                    best = result
            if best is None:
                layer = layers[layer_index]
                raise ValueError(
                    f"no dataflow fits shape {layer.name!r} in {capacity_kib} KiB"
                )
            chosen.append(best)
        split = classified_traffic(
            layers, [result.traffic for result in chosen], weights
        )
        optimal.append(
            {
                "capacity_kib": capacity_kib,
                "best_dataflow": dataflows[best_index].name,
                "best_dataflow_words": per_dataflow[best_index],
                "found_min_words": split["total"],
                "words_per_mac": split["total"] / total_macs,
                "input_reads": split["input_reads"],
                "weight_reads": split["weight_reads"],
                "kv_cache_reads": split["kv_cache_reads"],
                "activation_reads": split["activation_reads"],
                "output_reads": split["output_reads"],
                "output_writes": split["output_writes"],
                "kv_fraction": (
                    split["kv_cache_reads"] / split["total"] if split["total"] else 0.0
                ),
            }
        )
    return rows, optimal


def traffic_mix_report(
    model: str = "llama_decode:32",
    extra_models=DEFAULT_EXTRA_MODELS,
    requests: int = 32,
    seed: int = 0,
    arrival_rate_per_s: float = 8.0,
    zipf_alpha: float = 1.0,
    prompt_exponents=(7, 11),
    decode_exponents=(5, 9),
    capacities_kib=None,
    dataflow_names=None,
    model_params: dict = None,
    engine=None,
) -> dict:
    """Aggregate optimal-dataflow report for one serving-traffic mix.

    ``model`` is the primary (most popular) served model as a
    ``NAME[:batch]`` spec over an LLM decode family; ``extra_models`` extend
    the catalog in decreasing Zipf popularity rank.  ``model_params`` are
    builder overrides applied to every catalog entry (tests shrink the
    models this way).
    """
    if capacities_kib is None:
        capacities_kib = list(DEFAULT_TRAFFIC_CAPACITIES_KIB)
    capacities_kib = [float(value) for value in capacities_kib]
    if not capacities_kib:
        raise ValueError("capacities_kib must not be empty")
    overrides = dict(model_params or {})
    models = tuple(
        served_model(spec, **overrides) for spec in [model] + list(extra_models or ())
    )
    spec = TrafficMixSpec(
        models=models,
        requests=requests,
        seed=seed,
        arrival_rate_per_s=arrival_rate_per_s,
        zipf_alpha=zipf_alpha,
        prompt_exponents=tuple(prompt_exponents),
        decode_exponents=tuple(decode_exponents),
    )
    trace = generate_trace(spec)
    loads = aggregate_trace(spec, trace)
    layers, weights = weighted_unique_layers(spec, loads)

    if engine is None:
        engine = SearchEngine()
    dataflows = (
        ALL_DATAFLOWS
        if dataflow_names is None
        else [get_dataflow(name) for name in dataflow_names]
    )
    rows, optimal = weighted_shape_search(
        layers, weights, capacities_kib, dataflows, engine
    )

    total_instances = sum(weights)
    total_macs = sum(
        weight * layer.macs for layer, weight in zip(layers, weights)
    )
    kv_floor_words = sum(
        weight * layer.kv_cache_words for layer, weight in zip(layers, weights)
    )

    return {
        "format": TRAFFIC_FORMAT,
        "model": model,
        "models": [entry.spec for entry in models],
        "model_params": overrides,
        "trace": {
            "seed": seed,
            "requests": requests,
            "arrival_rate_per_s": arrival_rate_per_s,
            "zipf_alpha": zipf_alpha,
            "prompt_exponents": list(spec.prompt_exponents),
            "decode_exponents": list(spec.decode_exponents),
            **trace_summary(spec, trace),
        },
        "loads": [
            {
                "model": load.model,
                "phase": load.phase,
                "tokens": load.tokens,
                "batch": load.batch,
                "count": load.count,
            }
            for load in loads
        ],
        "unique_shapes": len(layers),
        "layer_instances": total_instances,
        "macs": total_macs,
        "kv_cache_floor_words": kv_floor_words,
        "capacities_kib": capacities_kib,
        "dataflows": [dataflow.name for dataflow in dataflows],
        "rows": rows,
        "optimal": optimal,
    }


# ------------------------------------------------------ single-workload view


def llm_decode_report(
    workload: str = "llama_decode:32",
    capacities_kib=None,
    dataflow_names=None,
    engine=None,
) -> dict:
    """Per-capacity traffic of one LLM workload with KV/weight attribution.

    The single-workload sibling of :func:`traffic_mix_report`: no trace, just
    the workload's own layer list counted by shape
    (:meth:`~repro.workloads.registry.Workload.shape_counts`), searched under
    every dataflow, with the found minimum's weight reads split into learned
    weights / KV cache / activations and compared against the practical
    lower bound (Eq. (15)) and the KV-cache read floor.
    """
    if capacities_kib is None:
        capacities_kib = list(DEFAULT_TRAFFIC_CAPACITIES_KIB)
    capacities_kib = [float(value) for value in capacities_kib]
    entry, batch = parse_workload_spec(workload)
    layers, weights = sorted_shapes(entry.shape_counts(batch))
    if engine is None:
        engine = SearchEngine()
    dataflows = (
        ALL_DATAFLOWS
        if dataflow_names is None
        else [get_dataflow(name) for name in dataflow_names]
    )
    rows, optimal = weighted_shape_search(
        layers, weights, capacities_kib, dataflows, engine
    )
    for entry in optimal:
        on_chip_words = kib_to_words(entry["capacity_kib"])
        entry["practical_bound_words"] = sum(
            weight * practical_lower_bound(layer, on_chip_words)
            for layer, weight in zip(layers, weights)
        )
    return {
        "format": "repro-llm-decode-v1",
        "workload": workload,
        "layers": sum(weights),
        "unique_shapes": len(layers),
        "macs": sum(weight * layer.macs for layer, weight in zip(layers, weights)),
        "kv_cache_floor_words": sum(
            weight * layer.kv_cache_words for layer, weight in zip(layers, weights)
        ),
        "capacities_kib": capacities_kib,
        "dataflows": [dataflow.name for dataflow in dataflows],
        "rows": rows,
        "optimal": optimal,
    }


# ------------------------------------------------------- experiment registry


def _render_traffic(payload, params):
    from repro.analysis.report import format_dict_rows

    trace = payload["trace"]
    lines = [
        "Traffic: LLM serving-mix optimal-dataflow search",
        (
            f"  mix: {', '.join(payload['models'])} | {trace['requests']} requests, "
            f"seed {trace['seed']}, {trace['span_s']:.2f}s span"
        ),
        (
            f"  {payload['layer_instances']} layer executions -> "
            f"{payload['unique_shapes']} unique shapes, "
            f"{payload['macs'] / 1e12:.3f} TMACs, KV floor "
            f"{payload['kv_cache_floor_words'] / 1e9:.3f} Gwords"
        ),
        "",
        format_dict_rows(
            payload["rows"],
            columns=["capacity_kib", "dataflow", "total_words", "words_per_mac"],
        ),
        "",
        "Per-capacity optimum (found minimum across dataflows):",
        format_dict_rows(
            payload["optimal"],
            columns=[
                "capacity_kib",
                "best_dataflow",
                "best_dataflow_words",
                "found_min_words",
                "kv_cache_reads",
                "kv_fraction",
            ],
        ),
    ]
    return "\n".join(lines)


register_experiment(
    Experiment(
        name="traffic",
        title="Traffic: LLM serving-mix optimal-dataflow search",
        # The params are traffic_mix_report's keyword arguments, one for one.
        build=lambda ctx: traffic_mix_report(model=ctx.workload, engine=ctx.engine, **ctx.params),
        render=_render_traffic,
        uses_search=True,
        # The default two-model mix: 32 requests, seed 0, at the Table I
        # capacity points.  The pin uses these defaults, so the nightly
        # reproduce-all unit is exactly the pinned payload.
        default_params={
            "extra_models": list(DEFAULT_EXTRA_MODELS),
            "requests": 32,
            "seed": 0,
            "arrival_rate_per_s": 8.0,
            "zipf_alpha": 1.0,
            "prompt_exponents": [7, 11],
            "decode_exponents": [5, 9],
            "capacities_kib": list(DEFAULT_TRAFFIC_CAPACITIES_KIB),
            "dataflow_names": None,
            "model_params": None,
        },
        workloads=("llama_decode:32",),
        params=(
            Param("seed", "--seed", int, help="RNG seed of the request trace (default 0)"),
            Param("requests", "--requests", int, help="requests in the trace (default 32)"),
        ),
        pins=(("llama_decode:32", {}, "traffic_llama_decode_32.json"),),
    )
)


def _render_llm_decode(payload, params):
    from repro.analysis.report import format_dict_rows

    header = (
        f"LLM decode: {payload['workload']} | {payload['layers']} layers -> "
        f"{payload['unique_shapes']} unique shapes, KV floor "
        f"{payload['kv_cache_floor_words'] / 1e9:.3f} Gwords"
    )
    return header + "\n" + format_dict_rows(
        payload["optimal"],
        columns=[
            "capacity_kib",
            "best_dataflow",
            "found_min_words",
            "practical_bound_words",
            "kv_cache_reads",
            "kv_fraction",
        ],
    )


register_experiment(
    Experiment(
        name="llm_decode",
        title="LLM decode: per-capacity traffic with KV-cache attribution",
        build=lambda ctx: llm_decode_report(workload=ctx.workload, engine=ctx.engine),
        render=_render_llm_decode,
        uses_search=True,
        workloads=("llama_decode:32",),
        pins=(("llama_decode:32", {}, "llm_llama_decode_32.json"),),
    )
)
