"""Span tracing for the benchmark's traced runs, and the per-layer metrics.

The traced run wraps each layer's public entry points from here -- nothing
under ``src/`` knows it is being traced.  A span records its name, start,
end (``perf_counter_ns``), parent span and thread; spans stay in memory and
:meth:`Recorder.dump` writes them out when the program exits.  The parent
of a span is the innermost span open in the same context (a
``contextvars`` variable, so concurrent asyncio tasks in the daemon never
adopt each other's spans, and executor threads start with no parent).

:func:`layer_metrics` turns a dumped trace into the per-layer metrics that
``BENCHMARK.json`` lists.  Self time is a span's duration minus the part of
it that its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import statistics
import threading
import time

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)

#: The experiments of ``reproduce-all`` (``PAPER_EXPERIMENTS``); each gets
#: an ``analysis.<name>_s`` metric.
PAPER_EXPERIMENTS = (
    "table1", "table2", "fig13", "fig14", "fig15_table3", "fig16", "table4",
    "fig17", "fig18", "fig19", "fig20", "timing", "traffic", "goldens",
)

#: Every per-layer metric the traced run reports, with its unit, in the
#: order of ``BENCHMARK.json``.  A layer a workload does not reach reports 0.
PER_LAYER = (
    [
        ("arch.tiling_calls", "count"),
        ("arch.tiling_shapes", "count"),
        ("arch.tiling_self_s", "s"),
        ("arch.tiling_ms_per_shape", "ms"),
        ("arch.run_layer_calls", "count"),
        ("arch.run_layer_self_s", "s"),
        ("core.choose_tiling_calls", "count"),
        ("core.choose_tiling_s", "s"),
        ("timing.run_layer_calls", "count"),
        ("timing.run_layer_self_s", "s"),
        ("energy.self_s", "s"),
        ("eyeriss.run_layer_calls", "count"),
        ("eyeriss.run_layer_self_s", "s"),
        ("engine.calls", "count"),
        ("engine.tasks", "count"),
        ("engine.hits", "count"),
        ("engine.misses", "count"),
        ("engine.hit_ratio", "ratio"),
        ("engine.grid_evaluations", "count"),
        ("engine.self_s", "s"),
        ("dataflows.grid_s", "s"),
        ("dataflows.scalar_s", "s"),
        ("cache.saves", "count"),
        ("cache.save_s", "s"),
        ("cache.stores", "count"),
        ("cache.store_s", "s"),
        ("dse.enumerate_s", "s"),
        ("dse.configs_scored", "count"),
        ("dse.score_self_s", "s"),
        ("dse.pareto_s", "s"),
        ("dse.certificate_s", "s"),
        ("dse.certificate_points", "count"),
        ("dse.evaluated_ratio", "ratio"),
        ("dse.frontier_points", "count"),
        ("workloads.build_s", "s"),
        ("workloads.trace_s", "s"),
        ("workloads.repeated_shape_share", "ratio"),
    ]
    + [(f"analysis.{name}_s", "s") for name in PAPER_EXPERIMENTS]
    + [
        ("orchestration.units", "count"),
        ("orchestration.units_failed", "count"),
        ("orchestration.unit_self_s", "s"),
        ("orchestration.writes", "count"),
        ("orchestration.write_bytes", "bytes"),
        ("orchestration.write_s", "s"),
        ("server.requests", "count"),
        ("server.coalesced", "count"),
        ("server.batched", "count"),
        ("server.warm_ratio", "ratio"),
        ("server.engine_batches", "count"),
        ("server.engine_busy_s", "s"),
        ("server.wait_p50_ms", "ms"),
        ("server.resolve_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


class Recorder:
    """In-memory span and counter store of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, thread, error]
        self.counters = {}
        self.distinct = {}
        self.samples = {}
        self._lock = threading.Lock()

    def open(self, name: str) -> int:
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter_ns(), None, _CURRENT.get(),
                 threading.get_ident(), False]
            )
        return index

    def close(self, index: int, error: bool = False) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = error

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _SpanBlock(self, name)

    def count(self, name: str, value=1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def add_distinct(self, name: str, key) -> None:
        with self._lock:
            self.distinct.setdefault(name, set()).add(key)

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def wrap(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs first and its return value reaches
        ``after(state, result, args, kwargs)``, which runs once the call has
        returned (not when it raised).  Coroutine functions get an async
        wrapper, so the span covers the awaited call.
        """
        function = getattr(owner, attribute)
        recorder = self

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before else None
                with recorder.span(name):
                    result = await function(*args, **kwargs)
                if after:
                    after(state, result, args, kwargs)
                return result

        else:

            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before else None
                with recorder.span(name):
                    result = function(*args, **kwargs)
                if after:
                    after(state, result, args, kwargs)
                return result

        setattr(owner, attribute, wrapper)

    def dump(self, path: str) -> None:
        """Write the finished spans (``[id, name, start, end, parent,
        thread, error]``) and the counters as one JSON document."""
        document = {
            "spans": [
                [index] + span
                for index, span in enumerate(self.spans)
                if span[2] is not None
            ],
            "counters": self.counters,
            "distinct": {name: len(keys) for name, keys in self.distinct.items()},
            "samples": self.samples,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class _SpanBlock:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.index = self.recorder.open(self.name)
        self.token = _CURRENT.set(self.index)
        return self.index

    def __exit__(self, exc_type, exc, traceback):
        _CURRENT.reset(self.token)
        self.recorder.close(self.index, error=exc_type is not None)
        return False


# ------------------------------------------------------------------ install


def install(recorder: Recorder, serve: bool = False) -> None:
    """Wrap every layer's public entry points (this imports the program).

    ``serve`` adds the daemon-side wrappers and the bookkeeping behind
    ``server.wait_p50_ms``: the engine thread stamps the start of each batch
    on its task keys, and each request reads back the stamp of the batch
    that served it.
    """
    import repro.analysis.traffic_report as traffic_report
    from repro.arch import accelerator
    from repro.dse import explore, smart
    from repro.energy.model import EnergyModel
    from repro.engine import cache, engine
    from repro.eyeriss.model import EyerissModel
    from repro.orchestration import runner
    from repro.orchestration.experiments import _REGISTRY, load_experiments
    from repro.timing.simulator import TimingSimulator
    from repro.workloads import registry, traffic

    wrap = recorder.wrap

    def tiling_shape(args, kwargs):
        model, layer = args[0], args[1]
        recorder.add_distinct("arch.tiling_shapes", (model.config, cache.layer_signature(layer)))

    wrap(accelerator.AcceleratorModel, "choose_layer_tiling", "arch.tiling", before=tiling_shape)
    wrap(accelerator.AcceleratorModel, "run_layer", "arch.run_layer")
    # The scalar free-split seed of ``_candidate_tilings``, bound by name in
    # the accelerator module.
    wrap(accelerator, "choose_tiling", "core.choose_tiling")
    wrap(TimingSimulator, "run_layer", "timing.run_layer")
    for method in ("layer_energy", "energy_from_counts", "network_energy", "lower_bound_energy"):
        wrap(EnergyModel, method, f"energy.{method}")
    wrap(EyerissModel, "run_layer", "eyeriss.run_layer")

    batch_start = {}

    def engine_before(args, kwargs):
        search_engine, tasks = args[0], args[1]
        if serve:
            started = time.perf_counter_ns()
            for dataflow, layer, capacity in tasks:
                batch_start[cache.task_key(dataflow, layer, capacity)] = started
        stats = search_engine.stats
        return stats.hits, stats.misses, stats.grid_evaluations

    def engine_after(state, result, args, kwargs):
        stats = args[0].stats
        recorder.count("engine.tasks", len(result))
        recorder.count("engine.hits", stats.hits - state[0])
        recorder.count("engine.misses", stats.misses - state[1])
        recorder.count("engine.grid_evaluations", stats.grid_evaluations - state[2])

    wrap(engine.SearchEngine, "search_tasks", "engine.search_tasks", before=engine_before, after=engine_after)
    wrap(engine, "_execute_grid", "dataflows.grid")
    wrap(engine, "_execute_search", "dataflows.scalar")
    wrap(cache.SearchCache, "save", "cache.save")
    wrap(cache.SqliteStore, "store", "cache.store")

    wrap(explore, "enumerate_configs", "dse.enumerate")
    wrap(explore, "count_splits", "dse.enumerate")
    wrap(smart, "enumerate_splits", "dse.enumerate")
    wrap(
        explore, "score_config_rows", "dse.score",
        after=lambda state, result, args, kwargs: recorder.count("dse.configs_scored", len(result)),
    )
    wrap(explore, "pareto_frontier", "dse.pareto")
    wrap(smart, "pareto_frontier", "dse.pareto")
    wrap(
        smart, "run_certificate", "dse.certificate",
        after=lambda state, result, args, kwargs: recorder.count(
            "dse.certificate_points", result["exhaustive_points"]
        ),
    )

    wrap(registry.Workload, "build", "workloads.build")
    # The trace stage is imported by name into the traffic report, and by
    # function-local imports (which read the patched module) in the DSE.
    for function in ("generate_trace", "aggregate_trace", "weighted_unique_layers"):
        wrap(traffic, function, "workloads.trace")
        if hasattr(traffic_report, function):
            setattr(traffic_report, function, getattr(traffic, function))

    load_experiments()
    for name, experiment in _REGISTRY.items():
        wrap(experiment, "build", f"analysis.{name}")

    wrap(runner.UnitExecutor, "execute", "orchestration.unit")
    wrap(
        runner, "write_text_atomic", "orchestration.write",
        after=lambda state, result, args, kwargs: recorder.count(
            "orchestration.write_bytes", len(args[1].encode("utf-8"))
        ),
    )

    if not serve:
        return
    from repro.server import daemon, service

    wrap(daemon.SearchDaemon, "_handle_search", "server.request")
    for function in ("resolve_dataflow", "resolve_layer", "resolve_capacity"):
        wrap(daemon, function, "server.resolve")

    def wait_before(args, kwargs):
        index = _CURRENT.get()
        request_start = None if index is None else recorder.spans[index][1]
        return request_start, cache.task_key(*args[1:4])

    def wait_after(state, result, args, kwargs):
        request_start, key = state
        started = batch_start.get(key)
        if request_start is not None and started is not None:
            recorder.sample("server.wait_ms", max(0, started - request_start) / 1e6)

    wrap(service.SearchService, "search", "server.service", before=wait_before, after=wait_after)


# ------------------------------------------------------------------ metrics


def load_trace(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _union_ns(intervals) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


class SpanTree:
    """Finished spans of one trace with parent links and self times."""

    def __init__(self, spans: list):
        self.spans = {span[0]: span for span in spans}
        self.children = {}
        for span in spans:
            parent = span[4]
            if parent in self.spans:
                self.children.setdefault(parent, []).append(span)

    def roots(self) -> list:
        return [span for span in self.spans.values() if span[4] not in self.spans]

    def duration(self, span) -> int:
        return span[3] - span[2]

    def covered(self, span) -> int:
        """ns of ``span`` that its children cover."""
        start, end = span[2], span[3]
        return _union_ns(
            (max(start, child[2]), min(end, child[3]))
            for child in self.children.get(span[0], ())
            if child[3] > start and child[2] < end
        )

    def self_ns(self, span) -> int:
        return self.duration(span) - self.covered(span)

    def named(self, name: str) -> list:
        return [span for span in self.spans.values() if span[1] == name]

    def outermost(self, name: str) -> list:
        """Spans called ``name`` with no ancestor of the same name."""
        found = []
        for span in self.named(name):
            parent = self.spans.get(span[4])
            while parent is not None and parent[1] != name:
                parent = self.spans.get(parent[4])
            if parent is None:
                found.append(span)
        return found

    def total_s(self, name: str) -> float:
        return sum(self.duration(span) for span in self.outermost(name)) / 1e9

    def self_s(self, prefix: str) -> float:
        return sum(
            self.self_ns(span) for span in self.spans.values() if span[1].startswith(prefix)
        ) / 1e9


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced sample.

    ``extra`` carries what the trace cannot: ``step`` (name of the step or
    unit spans), ``root`` (name of the timed-region span, or ``None`` when the
    step spans themselves are the timed wall-clock, as for daemon requests),
    ``overhead_ratio``, ``repeated_shape_share``, ``dse`` (evaluated ratio
    and frontier points from the payloads) and ``server`` (the daemon's
    ``/stats`` document, or ``None``).
    """
    tree = SpanTree(trace["spans"])
    counters = trace["counters"]
    distinct = trace["distinct"]

    def count(name):
        return len(tree.named(name))

    shapes = distinct.get("arch.tiling_shapes", 0)
    tasks = counters.get("engine.tasks", 0)
    metrics = {
        "arch.tiling_calls": count("arch.tiling"),
        "arch.tiling_shapes": shapes,
        "arch.tiling_self_s": tree.self_s("arch.tiling"),
        "arch.tiling_ms_per_shape": _ratio(tree.total_s("arch.tiling") * 1e3, shapes),
        "arch.run_layer_calls": count("arch.run_layer"),
        "arch.run_layer_self_s": tree.self_s("arch.run_layer"),
        "core.choose_tiling_calls": count("core.choose_tiling"),
        "core.choose_tiling_s": tree.total_s("core.choose_tiling"),
        "timing.run_layer_calls": count("timing.run_layer"),
        "timing.run_layer_self_s": tree.self_s("timing.run_layer"),
        "energy.self_s": tree.self_s("energy."),
        "eyeriss.run_layer_calls": count("eyeriss.run_layer"),
        "eyeriss.run_layer_self_s": tree.self_s("eyeriss.run_layer"),
        "engine.calls": count("engine.search_tasks"),
        "engine.tasks": tasks,
        "engine.hits": counters.get("engine.hits", 0),
        "engine.misses": counters.get("engine.misses", 0),
        "engine.hit_ratio": _ratio(counters.get("engine.hits", 0), tasks),
        "engine.grid_evaluations": counters.get("engine.grid_evaluations", 0),
        "engine.self_s": tree.self_s("engine.search_tasks"),
        "dataflows.grid_s": tree.total_s("dataflows.grid"),
        "dataflows.scalar_s": tree.total_s("dataflows.scalar"),
        "cache.saves": count("cache.save"),
        "cache.save_s": tree.total_s("cache.save"),
        "cache.stores": count("cache.store"),
        "cache.store_s": tree.total_s("cache.store"),
        "dse.enumerate_s": tree.total_s("dse.enumerate"),
        "dse.configs_scored": counters.get("dse.configs_scored", 0),
        "dse.score_self_s": tree.self_s("dse.score"),
        "dse.pareto_s": tree.total_s("dse.pareto"),
        "dse.certificate_s": tree.total_s("dse.certificate"),
        "dse.certificate_points": counters.get("dse.certificate_points", 0),
        "dse.evaluated_ratio": extra.get("dse", {}).get("evaluated_ratio", 0.0),
        "dse.frontier_points": extra.get("dse", {}).get("frontier_points", 0),
        "workloads.build_s": tree.total_s("workloads.build"),
        "workloads.trace_s": tree.total_s("workloads.trace"),
        "workloads.repeated_shape_share": extra["repeated_shape_share"],
    }
    for name in PAPER_EXPERIMENTS:
        metrics[f"analysis.{name}_s"] = tree.total_s(f"analysis.{name}")
    units = tree.named("orchestration.unit")
    metrics.update(
        {
            "orchestration.units": len(units),
            "orchestration.units_failed": sum(1 for span in units if span[6]),
            "orchestration.unit_self_s": tree.self_s("orchestration.unit"),
            "orchestration.writes": count("orchestration.write"),
            "orchestration.write_bytes": counters.get("orchestration.write_bytes", 0),
            "orchestration.write_s": tree.total_s("orchestration.write"),
        }
    )
    server = extra.get("server")
    if server is not None:
        engine = server["engine"]
        served = engine["hits"] + engine["misses"] + engine["coalesced"]
        waits = trace["samples"].get("server.wait_ms", [])
        metrics.update(
            {
                # The /stats request itself is counted when it is served.
                "server.requests": server["requests_served"] - 1,
                "server.coalesced": engine["coalesced"],
                "server.batched": engine["batched"],
                "server.warm_ratio": _ratio(engine["hits"] + engine["coalesced"], served),
                "server.engine_batches": count("engine.search_tasks"),
                "server.engine_busy_s": tree.total_s("engine.search_tasks"),
                "server.wait_p50_ms": statistics.median(waits) if waits else 0.0,
                "server.resolve_s": tree.total_s("server.resolve"),
            }
        )
    else:
        for name in (
            "server.requests", "server.coalesced", "server.batched", "server.warm_ratio",
            "server.engine_batches", "server.engine_busy_s", "server.wait_p50_ms",
            "server.resolve_s",
        ):
            metrics[name] = 0
    steps = tree.named(extra["step"])
    covered = sum(tree.covered(span) for span in steps)
    if extra["root"] is None:
        wall = sum(tree.duration(span) for span in steps)
    else:
        wall = sum(tree.duration(span) for span in tree.named(extra["root"]))
    metrics["trace.coverage"] = _ratio(covered, wall)
    metrics["trace.overhead_ratio"] = extra["overhead_ratio"]
    return metrics


def identity_problems(trace: dict, metrics: dict, serve: bool) -> list:
    """Counter identities the traced run must satisfy; ``[]`` when all hold.

    * ``engine.hits + engine.misses == engine.tasks``;
    * on the daemon, ``server.requests == server.coalesced + engine.tasks``
      (a coalesced request never reaches the engine, so it is neither a hit
      nor a miss);
    * the self times of all spans sum to the duration of the root spans
      (children nest inside their parent and siblings do not overlap).
    """
    problems = []
    if metrics["engine.hits"] + metrics["engine.misses"] != metrics["engine.tasks"]:
        problems.append(
            f"engine.hits {metrics['engine.hits']} + engine.misses "
            f"{metrics['engine.misses']} != engine.tasks {metrics['engine.tasks']}"
        )
    if serve and metrics["server.requests"] != metrics["server.coalesced"] + metrics["engine.tasks"]:
        problems.append(
            f"server.requests {metrics['server.requests']} != server.coalesced "
            f"{metrics['server.coalesced']} + engine.tasks {metrics['engine.tasks']}"
        )
    tree = SpanTree(trace["spans"])
    self_total = sum(tree.self_ns(span) for span in tree.spans.values())
    root_total = sum(tree.duration(span) for span in tree.roots())
    if abs(self_total - root_total) > max(1, root_total) * 1e-9:
        problems.append(f"span self times sum to {self_total} ns, root spans last {root_total} ns")
    return problems
