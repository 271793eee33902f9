"""The program side of the benchmark: one fresh interpreter per sample.

``run.py`` starts this file with the checkout's ``src`` on ``PYTHONPATH``::

    python3 perfbench/harness.py {paper,sweep,serve} INPUT_JSON [TRACE_JSON]

``paper`` and ``sweep`` import what they need and set up (the experiment
registry plus manifest expansion, or engine construction), print a
``ready`` line, then wait on stdin: ``go`` runs the timed region and prints
one ``result`` line, anything else exits (a set-up-only sample).  ``serve``
runs the search daemon itself, whose ``listening`` line is its ready line.
With a ``TRACE_JSON`` path the layer entry points are wrapped (see
``tracing.py``) and the spans are written there at exit.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time


def _ready() -> bool:
    print(json.dumps({"event": "ready"}), flush=True)
    return sys.stdin.readline().strip() == "go"


def _result(**fields) -> None:
    print(json.dumps(dict(fields, event="result")), flush=True)


class _Region:
    """The timed region: wall-clock, and the ``run`` root span when traced."""

    def __init__(self, recorder):
        self.recorder = recorder

    def __enter__(self):
        self.block = self.recorder.span("run") if self.recorder else None
        if self.block:
            self.block.__enter__()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall_s = time.perf_counter() - self.started
        if self.block:
            self.block.__exit__(*exc_info)
        return False


def paper(spec: dict, recorder) -> None:
    """``reproduce-all`` through the orchestration API, as the CLI builds it."""
    from repro.orchestration.cli import build_orchestration_parser
    from repro.orchestration.experiments import resolve_experiment_name
    from repro.orchestration.manifest import ManifestSpec, RunManifest
    from repro.orchestration.runner import Runner

    argv = ["reproduce-all", "--out-dir", spec["out_dir"], "--workloads", *spec["workloads"]]
    if spec.get("experiments"):
        argv += ["--experiments", *spec["experiments"]]
    args = build_orchestration_parser().parse_args(argv)
    experiments = list(dict.fromkeys(resolve_experiment_name(name) for name in args.experiments))
    manifest = RunManifest.from_spec(
        ManifestSpec(workloads=args.workloads, experiments=experiments, backends=args.backends)
    )
    runner = Runner(manifest, args.out_dir, workers=args.workers, cache_store=args.cache_store)
    if not _ready():
        return
    # A unit's latency runs from the start of the run, when all of them were
    # asked for, until its artifact is checkpointed.
    op_seconds = []
    with _Region(recorder) as region:
        report = runner.run(
            progress=lambda event: op_seconds.append(time.perf_counter() - region.started)
        )
    _result(
        wall_s=region.wall_s,
        op_seconds=op_seconds,
        attempted=report.units_total,
        failures=report.failures,
    )


def _dse_step(engine, step: dict) -> dict:
    from repro.dse.explore import design_space_exploration
    from repro.dse.space import CandidateSpace

    return design_space_exploration(
        budget_kib=step.get("budget_kib", 140.0),
        layers=step.get("workload"),
        engine=engine,
        space=CandidateSpace.from_dict(step["space"]) if step.get("space") else None,
        mix=step.get("mix"),
        explorer=step.get("explorer", "exhaustive"),
        seed=step.get("seed", 0),
    )


def _memory_sweep_step(engine, step: dict) -> dict:
    from repro.analysis.sweep import memory_sweep

    return memory_sweep(capacities_kib=step.get("capacities_kib"), layers=step["workload"], engine=engine)


_STEPS = {"dse": _dse_step, "memory_sweep": _memory_sweep_step}


def sweep(spec: dict, recorder) -> None:
    """An architect's design study: each step on its own cold engine."""
    import repro.analysis.sweep  # noqa: F401  (the Fig. 13 sweep)
    from repro.analysis.goldens import sanitize_payload
    from repro.engine import SearchEngine
    from repro.orchestration.experiments import load_experiments

    load_experiments()
    engines = [SearchEngine(workers=1) for _ in spec["steps"]]
    if not _ready():
        return
    payloads = []
    op_seconds = []
    failures = []
    with _Region(recorder) as region:
        for index, (step, engine) in enumerate(zip(spec["steps"], engines)):
            try:
                with recorder.span("step") if recorder else contextlib.nullcontext():
                    payloads.append(_STEPS[step["kind"]](engine, step))
            except Exception as error:  # noqa: BLE001 - a failed step is counted, not fatal
                payloads.append(None)
                failures.append({"step": index, "error": f"{type(error).__name__}: {error}"})
            # Like a unit's: from the start of the timed region until the step is done.
            op_seconds.append(time.perf_counter() - region.started)
    for index, payload in enumerate(payloads):
        if payload is None:
            continue
        path = os.path.join(spec["out_dir"], f"step-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(sanitize_payload(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")
    _result(wall_s=region.wall_s, op_seconds=op_seconds, attempted=len(spec["steps"]), failures=failures)


def serve(spec: dict, recorder) -> int:
    """The search daemon, started in this process (its CLI entry point)."""
    from repro.server.daemon import main

    return main(spec["argv"])


def main() -> int:
    kind, input_path = sys.argv[1], sys.argv[2]
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(input_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    recorder = None
    if trace_path:
        # Only traced samples import the tracer: its imports are not the
        # program's and would otherwise count towards ``setup_s``.
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder, serve=kind == "serve")
    try:
        code = {"paper": paper, "sweep": sweep, "serve": serve}[kind](spec, recorder)
    finally:
        if recorder:
            recorder.dump(trace_path)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
