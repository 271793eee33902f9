"""DRAM / GBuf / Reg access experiments (Figs. 13, 14, 16, 17 and Table IV).

Every function returns plain dictionaries / lists of rows so the benchmarks
and the CLI can print them and the tests can assert on them without any
plotting dependency.  Volumes are reported in megabytes (16-bit words, 2
bytes each), matching the paper's axes.

``layers`` arguments accept a layer list, a registered workload name/spec
(``"resnet18"``, ``"mobilenet_v1:2"``) or ``None`` for the paper's VGG-16.
"""

from __future__ import annotations

from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import PAPER_IMPLEMENTATIONS
from repro.core.layer import kib_to_words
from repro.core.lower_bound import practical_lower_bound, reg_lower_bound
from repro.core.traffic import BYTES_PER_WORD
from repro.dataflows.registry import ALL_DATAFLOWS, get_dataflow
from repro.engine import SearchEngine, layer_signature
from repro.eyeriss.model import EyerissModel
from repro.orchestration.experiments import Experiment, Param, register_experiment
from repro.workloads.registry import resolve_layers

MB = 1024.0 * 1024.0


def words_to_mb(words: float) -> float:
    """Convert 16-bit words to megabytes (the unit of the paper's figures)."""
    return words * BYTES_PER_WORD / MB


# --------------------------------------------------------------------- Fig. 13


def memory_sweep(
    capacities_kib: list = None,
    layers: list = None,
    dataflow_names: list = None,
    include_found_minimum: bool = True,
    engine=None,
) -> dict:
    """DRAM access volume vs. effective on-chip memory size (Fig. 13).

    Returns ``{"capacities_kib": [...], "series": {name: [GB, ...]}}`` where
    every series is the whole-network DRAM volume in gigabytes, including the
    theoretical lower bound and (optionally) the per-layer found minimum.

    The searched series are summed over a shape census: the engine gets one
    ``(capacity, dataflow, shape)`` task per distinct
    :func:`~repro.engine.cache.layer_signature`, not one per layer, and each
    shape's total counts once per layer of that shape.  Every searched total
    is an integer-valued float, so the census sums ``count * total`` in
    Python ints and converts to float once; while a network total stays
    below 2**53 words this equals the per-layer, left-to-right float sum bit
    for bit (every partial sum of that loop is then exact too).  The Eq. (15)
    bound is not an integer, so it is still summed per layer, in layer
    order, from one evaluation per shape.

    The whole task grid is submitted to the engine as one batch, so a
    parallel engine fans the entire sweep out across its workers, and the
    vectorized (NumPy) backend collapses each (dataflow, shape) pair's
    capacity column into a single candidate-grid evaluation.
    """
    if capacities_kib is None:
        capacities_kib = [16 * i for i in range(1, 17)]
    layers = resolve_layers(layers, "vgg16")
    if engine is None:
        engine = SearchEngine()
    dataflows = (
        ALL_DATAFLOWS
        if dataflow_names is None
        else [get_dataflow(name) for name in dataflow_names]
    )

    # The census: each shape's first layer and its layer count, in the
    # order the shapes first appear.
    layer_shapes = [layer_signature(layer) for layer in layers]
    shapes = {}
    counts = {}
    for signature, layer in zip(layer_shapes, layers):
        shapes.setdefault(signature, layer)
        counts[signature] = counts.get(signature, 0) + 1
    census = list(shapes.values())
    weights = list(counts.values())

    capacities_words = [kib_to_words(capacity_kib) for capacity_kib in capacities_kib]
    # Task order is (capacity, dataflow, shape), so each (capacity,
    # dataflow) pair's per-shape results are one contiguous window.
    results = engine.search_tasks(
        [
            (dataflow, layer, capacity_words)
            for capacity_words in capacities_words
            for dataflow in dataflows
            for layer in census
        ]
    )

    series = {"Lower bound": []}
    for dataflow in dataflows:
        series[dataflow.name] = []
    if include_found_minimum:
        series["Found minimum"] = []

    for capacity_index, capacity_words in enumerate(capacities_words):
        shape_bounds = {
            signature: practical_lower_bound(layer, capacity_words)
            for signature, layer in shapes.items()
        }
        bound = sum(shape_bounds[signature] for signature in layer_shapes)
        series["Lower bound"].append(words_to_mb(bound) / 1024.0)
        # Per shape: each dataflow's total as an int (None: nothing fits),
        # and the least of them (None: no dataflow fits).
        shape_best = [None] * len(census)
        for dataflow_index, dataflow in enumerate(dataflows):
            start = (capacity_index * len(dataflows) + dataflow_index) * len(census)
            totals = [
                None if result is None else int(result.total)
                for result in results[start : start + len(census)]
            ]
            for index, total in enumerate(totals):
                if total is not None and (shape_best[index] is None or total < shape_best[index]):
                    shape_best[index] = total
            series[dataflow.name].append(
                float("nan") if None in totals else _census_gb(totals, weights)
            )
        if include_found_minimum:
            series["Found minimum"].append(_census_gb(shape_best, weights))
    return {"capacities_kib": list(capacities_kib), "series": series}


def _census_gb(totals: list, weights: list) -> float:
    """GB of ``sum(weight * total)`` over the shapes whose total is not
    ``None``, summed exactly and converted to float once."""
    words = sum(weight * total for total, weight in zip(totals, weights) if total is not None)
    return words_to_mb(float(words)) / 1024.0


# --------------------------------------------------------------------- Fig. 14


def per_layer_dram(
    capacity_kib: float = 66.5,
    layers: list = None,
    implementations: list = None,
    baseline_names: tuple = ("InR-A", "WtR-A"),
    engine=None,
) -> list:
    """Per-layer DRAM access volumes at one memory size (Fig. 14).

    Returns one row per layer with the lower bound, the free-split dataflow,
    each accelerator implementation whose effective memory matches
    ``capacity_kib`` (implementations 1-3 at 66.5 KB), and the requested
    baselines, all in MB, plus the input/weight/output split of our dataflow.
    """
    layers = resolve_layers(layers, "vgg16")
    if implementations is None:
        implementations = [
            config
            for config in PAPER_IMPLEMENTATIONS
            if abs(config.effective_on_chip_kib - capacity_kib) < 1.0
        ]
    if engine is None:
        engine = SearchEngine()
    capacity_words = kib_to_words(capacity_kib)
    dataflows = [get_dataflow("Ours")] + [get_dataflow(name) for name in baseline_names]
    models = [AcceleratorModel(config) for config in implementations]

    searched = engine.search_tasks(
        [(dataflow, layer, capacity_words) for layer in layers for dataflow in dataflows]
    )
    rows = []
    for index, layer in enumerate(layers, start=1):
        window = searched[(index - 1) * len(dataflows) : index * len(dataflows)]
        for dataflow, result in zip(dataflows, window):
            if result is None:
                raise ValueError(
                    f"{dataflow.name}: no tiling of layer {layer.name!r} fits in "
                    f"{capacity_words} on-chip words"
                )
        our_result = window[0]
        row = {
            "layer_index": index,
            "layer": layer.name,
            "lower_bound_mb": words_to_mb(practical_lower_bound(layer, capacity_words)),
            "ours_mb": words_to_mb(our_result.total),
            "ours_inputs_mb": words_to_mb(our_result.traffic.input_reads),
            "ours_weights_mb": words_to_mb(our_result.traffic.weight_reads),
            "ours_outputs_mb": words_to_mb(our_result.traffic.output_traffic),
        }
        for model in models:
            result = model.run_layer(layer)
            row[f"{model.config.name}_mb"] = words_to_mb(result.dram.total)
        for name, baseline_result in zip(baseline_names, window[1:]):
            row[f"{name}_mb"] = words_to_mb(baseline_result.total)
        rows.append(row)
    return rows


# --------------------------------------------------------------------- Fig. 16


def gbuf_per_layer(layers: list = None, implementations: list = None) -> list:
    """Per-layer GBuf access volume of every implementation vs. Eyeriss (Fig. 16)."""
    layers = resolve_layers(layers, "vgg16")
    if implementations is None:
        implementations = list(PAPER_IMPLEMENTATIONS)
    eyeriss = EyerissModel()
    models = [AcceleratorModel(config) for config in implementations]

    rows = []
    for index, layer in enumerate(layers, start=1):
        row = {"layer_index": index, "layer": layer.name}
        eyeriss_result = eyeriss.run_layer(layer)
        row["eyeriss_mb"] = words_to_mb(eyeriss_result.gbuf_accesses)
        for model in models:
            result = model.run_layer(layer)
            row[f"{model.config.name}_mb"] = words_to_mb(result.gbuf_accesses)
        rows.append(row)
    return rows


# -------------------------------------------------------------------- Table IV


def gbuf_dram_ratio(layers: list = None, implementation_index: int = 1) -> dict:
    """GBuf-to-DRAM access ratios by tensor for one implementation (Table IV)."""
    layers = resolve_layers(layers, "vgg16")
    config = PAPER_IMPLEMENTATIONS[implementation_index - 1]
    model = AcceleratorModel(config)
    network = model.run_network(layers)

    dram_input = sum(result.dram.input_reads for result in network.layers)
    dram_weight = sum(result.dram.weight_reads for result in network.layers)
    dram_output = sum(result.dram.output_writes for result in network.layers)
    igbuf_reads = sum(result.igbuf_reads for result in network.layers)
    igbuf_writes = sum(result.igbuf_writes for result in network.layers)
    wgbuf_reads = sum(result.wgbuf_reads for result in network.layers)
    wgbuf_writes = sum(result.wgbuf_writes for result in network.layers)

    return {
        "implementation": config.name,
        "inputs": {
            "dram_read_mb": words_to_mb(dram_input),
            "gbuf_read_mb": words_to_mb(igbuf_reads),
            "gbuf_write_mb": words_to_mb(igbuf_writes),
            "read_ratio": igbuf_reads / dram_input if dram_input else 0.0,
            "write_ratio": igbuf_writes / dram_input if dram_input else 0.0,
        },
        "weights": {
            "dram_read_mb": words_to_mb(dram_weight),
            "gbuf_read_mb": words_to_mb(wgbuf_reads),
            "gbuf_write_mb": words_to_mb(wgbuf_writes),
            "read_ratio": wgbuf_reads / dram_weight if dram_weight else 0.0,
            "write_ratio": wgbuf_writes / dram_weight if dram_weight else 0.0,
        },
        "outputs": {
            "dram_write_mb": words_to_mb(dram_output),
            "gbuf_read_mb": 0.0,
            "gbuf_write_mb": 0.0,
        },
        "overall": {
            "gbuf_read_over_dram_read": (igbuf_reads + wgbuf_reads) / (dram_input + dram_weight),
            "gbuf_write_over_dram_read": (igbuf_writes + wgbuf_writes) / (dram_input + dram_weight),
        },
    }


# --------------------------------------------------------------------- Fig. 17


def reg_per_layer(layers: list = None, implementations: list = None) -> list:
    """Per-layer register access volume vs. the Eq. (16) lower bound (Fig. 17)."""
    layers = resolve_layers(layers, "vgg16")
    if implementations is None:
        implementations = list(PAPER_IMPLEMENTATIONS)
    models = [AcceleratorModel(config) for config in implementations]

    rows = []
    for index, layer in enumerate(layers, start=1):
        row = {
            "layer_index": index,
            "layer": layer.name,
            "lower_bound_gb": words_to_mb(reg_lower_bound(layer)) / 1024.0,
        }
        for model in models:
            result = model.run_layer(layer)
            row[f"{model.config.name}_gb"] = words_to_mb(result.reg_accesses) / 1024.0
        rows.append(row)
    return rows


# ------------------------------------------------------- experiment registry


#: Fig. 13 x-axis used by the CLI default and ``reproduce-all``.
FIG13_DEFAULT_CAPACITIES_KIB = (16.0, 32.0, 64.0, 66.5, 128.0, 173.5, 256.0)

#: Fig. 14 operating point (implementations 1-3 share 66.5 KB).
FIG14_DEFAULT_CAPACITY_KIB = 66.5


def _render_fig13(payload, params):
    from repro.analysis.report import format_memory_sweep

    return (
        "Fig. 13: DRAM access volume (GB) vs effective on-chip memory\n"
        + format_memory_sweep(payload)
    )


def _render_fig14(payload, params):
    from repro.analysis.report import format_dict_rows

    capacity_kib = params["capacity_kib"]
    return (
        f"Fig. 14: per-layer DRAM access volume (MB) at {capacity_kib} KB "
        "on-chip memory\n" + format_dict_rows(payload)
    )


def _render_rows(title):
    def render(payload, params):
        from repro.analysis.report import format_dict_rows

        return title + "\n" + format_dict_rows(payload)

    return render


def _render_table4(payload, params):
    from repro.analysis.report import format_gbuf_dram_ratio

    return (
        "Table IV: GBuf vs DRAM access volume (implementation 1)\n"
        + format_gbuf_dram_ratio(payload)
    )


register_experiment(
    Experiment(
        name="fig13",
        title="Fig. 13: DRAM volume vs on-chip memory",
        build=lambda ctx: memory_sweep(
            capacities_kib=list(ctx.params["capacities_kib"]),
            layers=ctx.layers,
            engine=ctx.engine,
        ),
        render=_render_fig13,
        uses_search=True,
        default_params={"capacities_kib": list(FIG13_DEFAULT_CAPACITIES_KIB)},
        params=(
            Param("capacities_kib", "--capacities", float, "+", help="on-chip memory sizes in KB (default: 7 points)"),
        ),
    )
)
register_experiment(
    Experiment(
        name="fig14",
        title="Fig. 14: per-layer DRAM volume",
        build=lambda ctx: per_layer_dram(
            capacity_kib=ctx.params["capacity_kib"],
            layers=ctx.layers,
            engine=ctx.engine,
        ),
        render=_render_fig14,
        uses_search=True,
        default_params={"capacity_kib": FIG14_DEFAULT_CAPACITY_KIB},
        params=(Param("capacity_kib", "--capacity", float, help="on-chip memory size in KB (default 66.5)"),),
    )
)
register_experiment(
    Experiment(
        name="fig16",
        title="Fig. 16: per-layer GBuf volume",
        build=lambda ctx: gbuf_per_layer(layers=ctx.layers),
        render=_render_rows("Fig. 16: per-layer GBuf access volume (MB)"),
    )
)
register_experiment(
    Experiment(
        name="table4",
        title="Table IV: GBuf vs DRAM ratios",
        build=lambda ctx: gbuf_dram_ratio(layers=ctx.layers),
        render=_render_table4,
    )
)
register_experiment(
    Experiment(
        name="fig17",
        title="Fig. 17: per-layer register volume",
        build=lambda ctx: reg_per_layer(layers=ctx.layers),
        render=_render_rows("Fig. 17: per-layer register access volume (GB)"),
    )
)
