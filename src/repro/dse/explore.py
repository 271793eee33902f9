"""The DSE sweep driver: enumerate, co-search, score, take the frontier.

One sweep, given an SRAM budget and a workload:

1. enumerate candidate configs under the budget (:mod:`repro.dse.space`);
2. group them into **families** by memory split ``(Psum, IGBuf, WGBuf)`` --
   configs of a family share their whole tiling search;
3. co-search the best dataflow + tiling per (family, layer): the paper's
   dataflow constrained to the family's exact split, against every Fig. 12
   baseline at the family's total capacity (the baselines model loop orders
   without a split notion, so their traffic is a per-capacity bound shared
   across families of equal totals).  On the NumPy backend this costs one
   array pass per layer shape for the constrained paper dataflow -- every
   family's split in one evaluation -- and one candidate grid per baseline
   and layer shape, which answers all family totals from one selection;
4. score every config with the first-order objective model
   (:mod:`repro.dse.objectives`) and keep the Pareto frontier
   (:mod:`repro.dse.pareto`).

Sweeps shard over the *config space*: ``slice_spec=(k, n)`` processes the
``k``-th contiguous slice of the canonical enumeration, and the slice
frontiers merge associatively to the unsharded frontier
(:func:`repro.dse.pareto.merge_frontiers`).  The ``dse`` experiment
registered here exposes exactly that through the run orchestrator; the
``frontier`` CLI subcommand performs the merge over archived artifacts.
Its registry entry also pins one complete sweep over a trimmed space
(``tests/goldens/dse_vgg16.json``); re-pin every golden after an
intentional model change with ``repro-experiments goldens --write``.
"""

from __future__ import annotations

from repro.core.layer import kib_to_words, total_macs
from repro.dataflows.registry import BASELINE_DATAFLOWS
from repro.dataflows.ours import OptimalDataflow
from repro.dse.objectives import config_objectives
from repro.dse.pareto import ALL_OBJECTIVE_KEYS, pareto_frontier, validate_objectives
from repro.dse.smart import (
    DEFAULT_CERTIFICATE_REGION,
    DEFAULT_EXPLORER,
    EXPLORERS,
    run_smart_explorer,
    validate_explorer,
    validate_seed,
)
from repro.dse.space import CandidateSpace, build_config, count_splits, enumerate_configs
from repro.engine import SearchEngine, validate_shard
from repro.orchestration.experiments import Experiment, Param, register_experiment
from repro.workloads.registry import resolve_layers

#: Default sweep budget in KiB of effective on-chip memory: a little above
#: Implementation 5 (131.625 KiB), so every Table I design point is inside
#: the default design space.
DEFAULT_BUDGET_KIB = 140.0

#: Artifact format marker of one sweep payload.
DSE_FORMAT = "repro-dse-v1"


def slice_configs(configs: list, slice_spec) -> list:
    """Contiguous slice ``k/n`` of the canonical enumeration order.

    The same partition rule as manifest sharding: slices are disjoint and
    their union over ``k`` is the full list for every ``n``, which is what
    makes the sharded frontier merge equal the unsharded frontier.
    """
    index, count = validate_shard(*slice_spec)
    start = (index - 1) * len(configs) // count
    end = index * len(configs) // count
    return configs[start:end]


def co_search_families(engine, layers, families: list) -> dict:
    """Best (dataflow, traffic) per layer for each family.

    ``families`` is a list of ``(psum_words, igbuf_words, wgbuf_words)``
    triples.  Returns ``{family: [(dataflow_name, TrafficBreakdown), ...]}``
    with one entry per layer, or ``None`` for families where some layer fits
    no dataflow at all.  Ties break deterministically: the constrained
    paper dataflow first, then the Fig. 12 registry order.

    Two engine batches cover the whole co-search: every (family, layer)
    task of the split-constrained paper dataflow, which the NumPy backend
    evaluates as one group per layer shape, and every (baseline, layer,
    family total) task, one grid per baseline and layer shape.
    """
    families = sorted(set(families))
    capacities = sorted({sum(family) for family in families})
    capacity_index = {capacity: index for index, capacity in enumerate(capacities)}
    baseline_results = engine.search_tasks(
        [
            (baseline, layer, capacity)
            for baseline in BASELINE_DATAFLOWS
            for layer in layers
            for capacity in capacities
        ]
    )
    constrained_results = engine.search_tasks(
        [
            (
                OptimalDataflow(
                    psum_words=psum_words,
                    input_buffer_words=igbuf_words,
                    weight_buffer_words=wgbuf_words,
                ),
                layer,
                psum_words + igbuf_words + wgbuf_words,
            )
            for psum_words, igbuf_words, wgbuf_words in families
            for layer in layers
        ]
    )

    per_family = {}
    for family_index, family in enumerate(families):
        column = capacity_index[sum(family)]
        rows = []
        for layer_index in range(len(layers)):
            candidates = [constrained_results[family_index * len(layers) + layer_index]]
            for baseline_index in range(len(BASELINE_DATAFLOWS)):
                row = baseline_index * len(layers) + layer_index
                candidates.append(baseline_results[row * len(capacities) + column])
            feasible = [result for result in candidates if result is not None]
            if not feasible:
                rows = None
                break
            best = min(feasible, key=lambda result: result.traffic.total)
            rows.append((best.dataflow, best.traffic))
        per_family[family] = rows
    return per_family


def validate_budget(budget_kib) -> int:
    """A sweep budget in words; ``ValueError`` unless positive and finite."""
    budget_words = kib_to_words(budget_kib)
    if budget_kib <= 0:
        raise ValueError(f"budget must be positive, got {budget_kib} KiB")
    return budget_words


def validate_mix(mix) -> tuple:
    """Check a traffic-mix params dict; returns ``(model, overrides)``.

    A mix needs a ``model`` workload spec and may override any other
    :class:`~repro.workloads.traffic.TrafficMixSpec` field.  Both failure
    modes raise ``ValueError`` -- not the raw ``KeyError``/``TypeError`` a
    hand-edited manifest used to surface -- so the CLIs turn them into the
    standard exit-2 one-liner.
    """
    from dataclasses import fields

    from repro.workloads.traffic import TrafficMixSpec

    if not isinstance(mix, dict):
        raise ValueError(f"a dse traffic mix must be a params dict, got {type(mix).__name__}")
    overrides = dict(mix)
    model = overrides.pop("model", None)
    if not isinstance(model, str) or not model:
        raise ValueError(
            "a dse traffic mix needs a 'model' workload spec (e.g. "
            f"{{'model': 'llama_decode:32'}}); got keys {sorted(mix)}"
        )
    allowed = sorted(field.name for field in fields(TrafficMixSpec) if field.name != "models")
    unknown = sorted(set(overrides) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown traffic-mix override keys {unknown}; choose from: " + ", ".join(allowed)
        )
    return model, overrides


def _mix_layers(mix: dict) -> tuple:
    """Weighted unique-shape layers of a serving-traffic mix.

    ``mix`` holds a ``model`` spec (``"llama_decode:32"``) plus optional
    :class:`~repro.workloads.traffic.TrafficMixSpec` overrides (``seed``,
    ``requests``, ...).  Returns ``(exemplar_layers, weights)`` -- the
    deduped shapes the co-search runs once each, and how many times each
    executes across the whole trace.
    """
    from repro.workloads.traffic import (
        TrafficMixSpec,
        aggregate_trace,
        generate_trace,
        served_model,
        weighted_unique_layers,
    )

    model, overrides = validate_mix(mix)
    spec = TrafficMixSpec(models=(served_model(model),), **overrides)
    trace = generate_trace(spec)
    loads = aggregate_trace(spec, trace)
    return weighted_unique_layers(spec, loads)


def score_config_rows(engine, layers, configs, objectives, weights=None) -> list:
    """Score candidate configs; one row dict (or ``None``) per config.

    The shared scoring stage of the exhaustive sweep and every smart
    explorer batch: families are co-searched once
    (:func:`co_search_families`), then each config is priced by the
    first-order objective model.  ``None`` marks a config infeasible --
    either no dataflow fits its family or the stall-aware objective's
    stricter tiling search rejects it.  The returned list is aligned with
    ``configs`` and deterministic for a given engine backend (and, because
    search results are bit-identical across backends, across backends too).
    """
    objectives = validate_objectives(objectives)
    families = [
        (config.psum_words, config.igbuf_words, config.wgbuf_words) for config in configs
    ]
    per_family = co_search_families(engine, layers, families)
    include_stall_time = "stall_time" in objectives
    scored = []
    for config in configs:
        family = (config.psum_words, config.igbuf_words, config.wgbuf_words)
        searched = per_family[family]
        if searched is None:
            scored.append(None)
            continue
        dataflow_wins = {}
        for dataflow_name, _ in searched:
            dataflow_wins[dataflow_name] = dataflow_wins.get(dataflow_name, 0) + 1
        try:
            priced = config_objectives(
                config,
                layers,
                [traffic for _, traffic in searched],
                include_stall_time=include_stall_time,
                weights=weights,
            )
        except ValueError:
            # The stall-aware objective runs the tile-level simulator with
            # the accelerator's own tiling search, which is stricter than
            # the family co-search (per-PE Psum fit, PE-aligned candidates);
            # a config whose memories fit no tiling is simply infeasible.
            scored.append(None)
            continue
        scored.append(
            {
                "config": config.name,
                "pe_rows": config.pe_rows,
                "pe_cols": config.pe_cols,
                "num_pes": config.num_pes,
                "lreg_words_per_pe": config.lreg_words_per_pe,
                "igbuf_words": config.igbuf_words,
                "wgbuf_words": config.wgbuf_words,
                "psum_words": config.psum_words,
                "effective_kib": config.effective_on_chip_kib,
                "dataflows": dict(sorted(dataflow_wins.items())),
                "objectives": priced,
            }
        )
    return scored


def design_space_exploration(
    budget_kib: float = DEFAULT_BUDGET_KIB,
    layers=None,
    engine=None,
    objectives=None,
    space: CandidateSpace = None,
    slice_spec=(1, 1),
    max_configs: int = None,
    mix: dict = None,
    explorer: str = DEFAULT_EXPLORER,
    seed: int = 0,
    certificate_region: int = DEFAULT_CERTIFICATE_REGION,
) -> dict:
    """Run one sweep (or one slice of it); returns the JSON-ready payload.

    ``mix`` switches the sweep's workload to a serving-traffic mix (see
    :func:`_mix_layers`): candidates are scored on the mix's weighted unique
    shapes instead of ``layers``, so the frontier optimises for the traffic
    actually served rather than one network run once.

    ``explorer`` picks the frontier driver: the default exhaustive sweep
    walks every candidate and its payload is unchanged from before the
    smart explorers existed; ``halving``, ``local`` and ``evolution``
    (:mod:`repro.dse.smart`) evaluate a subset and extend the payload with
    ``explorer``, ``seed``, ``evaluated_count``, ``explorer_stats`` and the
    trust-region exactness ``certificate``.  For smart runs ``slice_spec``
    selects a seed *island* instead of an enumeration slice.
    """
    if engine is None:
        engine = SearchEngine()
    budget_words = validate_budget(budget_kib)
    objectives = validate_objectives(objectives or ("dram", "energy", "time"))
    explorer = validate_explorer(explorer)
    weights = None
    if mix is not None:
        if "stall_time" in objectives:
            raise ValueError(
                "the 'stall_time' objective replays whole networks through "
                "the tile-level simulator and has no weighted-mix form; "
                "drop 'stall_time' from the objectives or drop the mix"
            )
        layers, weights = _mix_layers(mix)
    else:
        layers = resolve_layers(layers, "vgg16")
    if space is None:
        space = CandidateSpace()
    slice_spec = validate_shard(*slice_spec)

    if weights is None:
        gmacs = total_macs(layers) / 1e9
    else:
        gmacs = sum(w * layer.macs for layer, w in zip(layers, weights)) / 1e9
    header = {
        "format": DSE_FORMAT,
        "budget_kib": float(budget_kib),
        "budget_words": budget_words,
        "objectives": list(objectives),
        "slice": list(slice_spec),
        "space": space.as_dict(),
        "max_configs": max_configs,
        "mix": dict(mix) if mix is not None else None,
        "layer_count": len(layers),
        "gmacs": gmacs,
    }

    if explorer != DEFAULT_EXPLORER:
        if max_configs is not None:
            raise ValueError(
                "max_configs truncates the canonical enumeration, which only "
                "the 'exhaustive' explorer walks; drop max_configs or use "
                "explorer='exhaustive'"
            )
        seed = validate_seed(seed)
        result = run_smart_explorer(
            score=lambda splits: score_config_rows(
                engine,
                layers,
                [build_config(space, *split) for split in splits],
                objectives,
                weights=weights,
            ),
            objectives=objectives,
            space=space,
            budget_words=budget_words,
            explorer=explorer,
            seed=seed,
            slice_spec=slice_spec,
            certificate_region=certificate_region,
        )
        header.update(
            {
                "config_count_total": count_splits(budget_words, space),
                "config_count": len(result["rows"]),
                "infeasible_count": result["infeasible_count"],
                "configs": result["rows"],
                "frontier": result["frontier"],
                "explorer": explorer,
                "seed": seed,
                "evaluated_count": result["evaluated_count"],
                "explorer_stats": result["stats"],
                "certificate": result["certificate"],
            }
        )
        return header

    configs = enumerate_configs(budget_words, space)
    if max_configs is not None:
        if max_configs < 1:
            raise ValueError(f"max_configs must be >= 1, got {max_configs}")
        # Truncate *before* slicing so every slice of a capped sweep
        # partitions the same config set.
        configs = configs[:max_configs]
    total_configs = len(configs)
    sliced = slice_configs(configs, slice_spec)

    scored = score_config_rows(engine, layers, sliced, objectives, weights=weights)
    rows = [row for row in scored if row is not None]
    header.update(
        {
            "config_count_total": total_configs,
            "config_count": len(rows),
            "infeasible_count": scored.count(None),
            "configs": rows,
            "frontier": pareto_frontier(rows, objectives),
        }
    )
    return header


# ------------------------------------------------------- experiment registry


def _build_dse(ctx):
    # ``explorer`` and ``seed`` are read with defaults instead of living in
    # ``default_params``: unit ids hash the expanded params, so adding keys
    # to the defaults would re-identify every archived dse unit.
    params = ctx.params
    space = params.get("space")
    return design_space_exploration(
        budget_kib=params["budget_kib"],
        layers=ctx.layers,
        engine=ctx.engine,
        objectives=tuple(params["objectives"]),
        space=CandidateSpace.from_dict(space) if space else None,
        slice_spec=tuple(params["slice"]),
        max_configs=params.get("max_configs"),
        mix=params.get("mix"),
        explorer=params.get("explorer", DEFAULT_EXPLORER),
        seed=params.get("seed", 0),
    )


def _validate_dse_params(params: dict) -> None:
    """Fail fast on ``dse`` params no unit could run.

    ``RunManifest.from_spec`` calls this per expanded variant, so a
    hand-edited spec dies at manifest expansion with one exit-2 one-liner
    instead of N failed units at execution time.
    """
    validate_budget(params["budget_kib"])
    mix = params.get("mix")
    if mix is not None:
        validate_mix(mix)
    explorer = validate_explorer(params.get("explorer", DEFAULT_EXPLORER))
    validate_seed(params.get("seed", 0))
    if explorer != DEFAULT_EXPLORER and params.get("max_configs") is not None:
        raise ValueError(
            "max_configs truncates the canonical enumeration, which only "
            "the 'exhaustive' explorer walks; drop max_configs or use "
            "explorer='exhaustive'"
        )


def _render_dse(payload, params):
    from repro.analysis.report import format_dse_frontier

    return format_dse_frontier(payload)


register_experiment(
    Experiment(
        name="dse",
        title="DSE: Pareto co-search of accelerator configs",
        build=_build_dse,
        render=_render_dse,
        uses_search=True,
        default_params={
            "budget_kib": DEFAULT_BUDGET_KIB,
            "objectives": ["dram", "energy", "time"],
            "slice": [1, 1],
            "max_configs": None,
            "space": None,
            "mix": None,
        },
        validate_params=_validate_dse_params,
        params=(
            Param("budget_kib", "--budget", float, help="on-chip memory budget in KiB (default 140)"),
            Param(
                "objectives",
                "--objectives",
                nargs="+",
                choices=ALL_OBJECTIVE_KEYS,
                help="Pareto objectives (default dram energy time; stall_time adds stall-aware latency)",
            ),
            Param(
                "explorer",
                "--explorer",
                choices=EXPLORERS,
                help="frontier explorer; the smart ones score a subset and certify it (default exhaustive)",
            ),
            Param("seed", "--seed", int, help="RNG seed of a smart --explorer and of the --traffic-mix (default 0)"),
            Param("mix", "--traffic-mix", help="score on a serving mix of this LLM decode model (takes --requests)"),
            Param("slice", "--dse-slices", int, help="split the config space into N units (merge with 'frontier')"),
        ),
        # One complete sweep over a trimmed space that still spans PE count,
        # LReg depth and both Table I buffer sizes.
        pins=(
            (
                "vgg16",
                {
                    "space": {
                        "pe_dims": [16, 32, 64],
                        "lreg_words": [32, 64, 128],
                        "igbuf_words": [1024, 1536],
                        "wgbuf_words": [256, 320],
                    }
                },
                "dse_vgg16.json",
            ),
        ),
    )
)
