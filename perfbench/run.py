#!/usr/bin/env python3
"""Host-time benchmark of the reproduction: three workloads, one command.

    python3 perfbench/run.py --workload paper-vgg16 --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the program under test is the checkout's
``src/`` tree, started in fresh interpreters (see ``harness.py``).  Each
sample is cold and independent: a new process, out-dir and cache file.
Samples repeat while the next one would end within ``--seconds`` (every
run takes at least two).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` runs a traced sample between two untraced ones and reports the
per-layer metrics (``tracing.py``).  Every output is checked; the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Why each workload exists, and what each layer metric should
move, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDENS = os.path.join(ROOT, "tests", "goldens")
HARNESS = os.path.join(HERE, "harness.py")
DIGESTS = os.path.join(HERE, "digests.json")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
# The checks and the load generator use the program's own modules.
sys.path.insert(0, SRC)

#: Seed at which the recorded payload digests apply.
DEFAULT_SEED = 0

#: Set-up-only program starts before the first sample (one more follows
#: each sample); their median, with the timed samples' own starts, is
#: ``setup_s``.  One more start at the beginning is discarded: it warms the
#: page cache and the checkout's bytecode cache.
SETUP_STARTS = 3

#: Samples every run takes, even when they outlast ``--seconds`` (a
#: paper-vgg16 sample takes 15-25 s).
MIN_SAMPLES = 2

#: A run stops starting samples when the next one could end past this.
RUN_BUDGET_S = 150.0

#: Hard limit on any one program process.
PROCESS_TIMEOUT_S = 170.0

#: The benchmark and every program process it starts (they inherit the
#: affinity) share one CPU.  On a virtual machine a wakeup on another vCPU
#: waits for the host to schedule that vCPU, which made the daemon's
#: closed-loop latencies swing by half between runs.
CPU = min(os.sched_getaffinity(0))

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


# ------------------------------------------------------------------ processes


class Program:
    """One program process: started, timed to its ready line, reaped.

    ``setup_s`` spans from spawning the process until it prints its ready
    line (``ready`` from the harness, ``listening`` from the daemon); the
    peak RSS comes from the kernel's accounting of the reaped child.
    """

    def __init__(self, argv: list, run_dir: str, label: str):
        self.label = label
        self.stderr_path = os.path.join(run_dir, f"{label}.stderr")
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self._started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, HARNESS, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            text=True,
            env=env,
            cwd=run_dir,
        )
        self._watchdog = threading.Timer(PROCESS_TIMEOUT_S, self.process.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.peak_rss_mb = None

    def wait_ready(self) -> dict:
        line = self.process.stdout.readline()
        self.setup_s = time.perf_counter() - self._started
        try:
            event = json.loads(line)
        except ValueError:
            event = None
        if not isinstance(event, dict) or event.get("event") not in ("ready", "listening"):
            self.finish()
            raise BenchmarkError(f"{self.label} did not start: {line!r}\n{self._stderr_tail()}")
        return event

    def send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def finish(self) -> list:
        """Wait for exit; returns the JSON lines printed after the ready line."""
        try:
            self.process.stdin.close()
        except OSError:
            pass
        output = self.process.stdout.read()
        self.process.stdout.close()
        _, status, usage = os.wait4(self.process.pid, 0)
        self.process.returncode = os.waitstatus_to_exitcode(status)
        self._watchdog.cancel()
        self._stderr.close()
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        if self.process.returncode != 0:
            raise BenchmarkError(
                f"{self.label} exited {self.process.returncode}\n{self._stderr_tail()}"
            )
        return [json.loads(line) for line in output.splitlines() if line.startswith("{")]

    def kill(self) -> None:
        if self.process.returncode is None:
            self.process.kill()
            try:
                self.finish()
            except (BenchmarkError, OSError, ValueError):
                pass

    def _stderr_tail(self) -> str:
        if not self._stderr.closed:
            self._stderr.flush()
        with open(self.stderr_path, encoding="utf-8") as handle:
            return handle.read()[-2000:]


class Sample:
    """One cold program run: its timings, outputs and the checks' verdict."""

    def __init__(self, setup_s, wall_s, op_seconds, peak_rss_mb, attempted):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.op_seconds = op_seconds
        self.peak_rss_mb = peak_rss_mb
        self.attempted = attempted
        self.failed = 0
        self.problems = []
        self.layer_extra = {}
        self.trace = None

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(problem)


def _write_json(path: str, document) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _repeated_shape_share(layer_lists) -> float:
    """Share of layers whose shape repeats an earlier layer of their list."""
    from repro.engine.cache import layer_signature

    layers = sum(len(layers) for layers in layer_lists)
    distinct = sum(len({layer_signature(layer) for layer in layers}) for layers in layer_lists)
    return (layers - distinct) / layers


# ------------------------------------------------------------------ workloads


class Workload:
    """Common sample loop; subclasses define the program and its checks."""

    name = None
    kind = None
    #: Spans that count as one step or unit of the timed region (coverage).
    step_span = None
    root_span = "run"

    def __init__(self, seed: int, run_dir: str, digests: dict, smoke: bool = False):
        self.seed = seed
        self.run_dir = run_dir
        self.digests = digests.get(self.name, {})
        self.smoke = smoke
        self._count = 0

    def _fresh_dir(self, label: str) -> str:
        self._count += 1
        path = os.path.join(self.run_dir, f"{label}-{self._count}")
        os.makedirs(path)
        return path

    def _start(self, spec: dict, trace_path: str = None) -> Program:
        self._count += 1
        input_path = _write_json(os.path.join(self.run_dir, f"input-{self._count}.json"), spec)
        argv = [self.kind, input_path] + ([trace_path] if trace_path else [])
        return Program(argv, self.run_dir, f"{self.kind}-{self._count}")

    def setup_only(self) -> float:
        program = self._start(self.program_spec(self._fresh_dir("setup")))
        try:
            program.wait_ready()
            self.stop_setup_only(program)
            program.finish()
        finally:
            program.kill()
        return program.setup_s

    def stop_setup_only(self, program: Program) -> None:
        program.send("exit")

    def sample(self, trace: bool = False) -> Sample:
        out_dir = self._fresh_dir("sample")
        trace_path = os.path.join(out_dir, "trace.json") if trace else None
        program = self._start(self.program_spec(out_dir), trace_path)
        try:
            program.wait_ready()
            program.send("go")
            lines = program.finish()
        finally:
            program.kill()
        result = [line for line in lines if line.get("event") == "result"][-1]
        sample = Sample(
            program.setup_s, result["wall_s"], result["op_seconds"], program.peak_rss_mb,
            result["attempted"],
        )
        for failure in result["failures"]:
            sample.fail(f"{failure}")
        self.check(sample, out_dir, result)
        if trace:
            sample.trace = tracing.load_trace(trace_path)
        return sample

    def prepare(self) -> None:
        """Compute the checks' reference results before the measuring starts."""

    def layer_extra(self, sample: Sample) -> dict:
        return dict(
            sample.layer_extra,
            step=self.step_span,
            root=self.root_span,
            repeated_shape_share=self.shape_share(),
        )


class PaperVgg16(Workload):
    """``reproduce-all --workloads vgg16``: the paper's 14 experiment units."""

    name = "paper-vgg16"
    kind = "paper"
    step_span = "orchestration.unit"
    #: Units diffed against ``tests/goldens`` at 1e-9 instead of by digest
    #: (keys of ``diff_merged_goldens``' report).
    GOLDEN_KEYS = {"goldens": "vgg16", "timing": "timing:vgg16", "traffic": "traffic:llama_decode:32"}

    def program_spec(self, out_dir: str) -> dict:
        if self.smoke:
            return {"out_dir": out_dir, "workloads": ["tiny"], "experiments": ["table1", "fig13", "fig16"]}
        return {"out_dir": out_dir, "workloads": ["vgg16"]}

    def check(self, sample: Sample, out_dir: str, result: dict) -> None:
        from repro.orchestration.merge import diff_merged_goldens

        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as handle:
            units = json.load(handle)["units"]
        report = {} if self.smoke else diff_merged_goldens(out_dir, GOLDENS)
        for unit in units:
            path = os.path.join(out_dir, "units", unit["unit_id"] + ".json")
            if not os.path.exists(path):
                continue  # a failed unit, already counted from the run report
            key = self.GOLDEN_KEYS.get(unit["experiment"])
            if key is not None and not self.smoke:
                if key not in report:
                    sample.fail(f"{unit['unit_id']}: no golden diff was made")
                elif report[key]:
                    sample.fail(f"{unit['unit_id']}: golden mismatch: {report[key][:3]}")
                continue
            digest = _sha256(path)
            if not self.smoke and self.digests.get(unit["unit_id"]) != digest:
                sample.fail(f"{unit['unit_id']}: payload digest {digest} is not the recorded one")

    def shape_share(self) -> float:
        from repro.workloads.registry import get_workload_spec

        return _repeated_shape_share([get_workload_spec("tiny" if self.smoke else "vgg16")])


#: The halving step's candidate space: every other PE dimension of the space
#: ``benchmarks/bench_dse.py`` gates the halving explorer on (5 532
#: candidates at 64 KiB instead of 20 634, so that several samples fit in a
#: run).
HALVING_SPACE = {
    "pe_dims": list(range(8, 100, 8)),
    "lreg_words": [8, 12, 16, 24, 32, 48, 64, 96],
    "igbuf_words": [256, 384, 512, 768, 1024, 1536],
    "wgbuf_words": [64, 96, 128, 192, 256, 384],
}

#: The traffic-mix step's space: 72 configs of the default 850.
MIX_SPACE = {
    "pe_dims": [8, 16, 32],
    "lreg_words": [16, 32, 64],
    "igbuf_words": [1024, 2048],
    "wgbuf_words": [256, 512],
}

#: Fig. 13's capacities (``FIG13_DEFAULT_CAPACITIES_KIB``).
FIG13_CAPACITIES_KIB = [16.0, 32.0, 64.0, 66.5, 128.0, 173.5, 256.0]


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


class SearchSweep(Workload):
    """An architect's design study: four DSE and sweep steps, each on a cold engine."""

    name = "search-sweep"
    kind = "sweep"
    step_span = "step"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = random.Random(self.seed)
        explorer_seed = rng.randrange(1 << 16)
        mix_seed = rng.randrange(1 << 16)
        if self.smoke:
            self.steps = [
                {"kind": "dse", "workload": "tiny", "budget_kib": 64.0},
                {"kind": "dse", "workload": "tiny", "budget_kib": 64.0, "explorer": "halving",
                 "seed": explorer_seed,
                 "space": {"pe_dims": [8, 16, 32], "lreg_words": [16, 32], "igbuf_words": [256, 512],
                           "wgbuf_words": [64, 128]}},
                {"kind": "dse", "budget_kib": 140.0,
                 "mix": {"model": "llama_decode:1", "seed": mix_seed, "requests": 4},
                 "space": {"pe_dims": [16, 32], "lreg_words": [32, 64], "igbuf_words": [1024],
                           "wgbuf_words": [256]}},
                {"kind": "memory_sweep", "workload": "llama_decode:1", "capacities_kib": [16, 64]},
            ]
        else:
            self.steps = [
                # (1) the default sweep: VGG-16, 140 KiB, 850 configs.
                {"kind": "dse", "workload": "vgg16"},
                # (2) successive halving plus its certificate.
                {"kind": "dse", "workload": "tiny", "budget_kib": 64.0, "explorer": "halving",
                 "seed": explorer_seed, "space": HALVING_SPACE},
                # (3) a sweep weighted by a serving-traffic mix.
                {"kind": "dse", "mix": {"model": "llama_decode:32", "seed": mix_seed, "requests": 128},
                 "space": MIX_SPACE},
                # (4) Fig. 13 on one shape-repetitive decode step.
                {"kind": "memory_sweep", "workload": "mixtral_decode:2",
                 "capacities_kib": FIG13_CAPACITIES_KIB},
            ]
        #: Steps whose input does not depend on the seed are digest-checked
        #: at every seed; the others only at the default seed.
        self.seeded = [bool(step.get("mix") or step.get("explorer")) for step in self.steps]
        self._exhaustive = {}

    def program_spec(self, out_dir: str) -> dict:
        return {"out_dir": out_dir, "steps": self.steps}

    def prepare(self) -> None:
        for step in self.steps:
            if step.get("explorer"):
                self.exhaustive_frontier(step)

    def exhaustive_frontier(self, step: dict) -> str:
        """The exhaustive sweep's frontier over a smart step's space, as
        canonical JSON (computed once per run, in this process)."""
        key = _canonical(step)
        if key not in self._exhaustive:
            from repro.analysis.goldens import sanitize_payload
            from repro.dse.explore import design_space_exploration
            from repro.dse.space import CandidateSpace
            from repro.engine import SearchEngine

            payload = design_space_exploration(
                budget_kib=step["budget_kib"],
                layers=step["workload"],
                engine=SearchEngine(workers=1),
                space=CandidateSpace.from_dict(step["space"]),
            )
            self._exhaustive[key] = _canonical(sanitize_payload(payload["frontier"]))
        return self._exhaustive[key]

    def check(self, sample: Sample, out_dir: str, result: dict) -> None:
        from repro.arch.config import paper_implementation
        from repro.dse.pareto import contains_or_dominates, pareto_frontier

        failed_steps = {failure["step"] for failure in result["failures"]}
        frontier_points = 0
        evaluated_ratio = 0.0
        for index, step in enumerate(self.steps):
            if index in failed_steps:
                continue
            path = os.path.join(out_dir, f"step-{index}.json")
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            problems = []
            if step["kind"] == "dse":
                frontier_points += len(payload["frontier"])
                own = pareto_frontier(payload["configs"], tuple(payload["objectives"]))
                if _canonical(own) != _canonical(payload["frontier"]):
                    problems.append("the frontier is not the Pareto set of the step's own configs")
            if step.get("explorer"):
                evaluated_ratio = payload["evaluated_count"] / payload["config_count_total"]
                if payload["certificate"]["verified"] is not True:
                    problems.append("the halving certificate did not verify")
                if _canonical(payload["frontier"]) != self.exhaustive_frontier(step):
                    problems.append("the halving frontier is not the exhaustive sweep's frontier")
            if index == 0 and not self.smoke:
                impl5 = paper_implementation(5)
                rows = {
                    (row["pe_rows"], row["pe_cols"], row["lreg_words_per_pe"], row["igbuf_words"],
                     row["wgbuf_words"]): row
                    for row in payload["configs"]
                }
                row = rows.get(impl5.memory_split)
                if row is None or not contains_or_dominates(
                    payload["frontier"], row, tuple(payload["objectives"])
                ):
                    problems.append("the frontier neither contains nor dominates Table I implementation 5")
            digest = _sha256(path)
            if not self.smoke and (not self.seeded[index] or self.seed == DEFAULT_SEED):
                if self.digests.get(f"step-{index}") != digest:
                    problems.append(f"payload digest {digest} is not the recorded one")
            for problem in problems:
                sample.fail(f"step {index} ({step['kind']}): {problem}")
        sample.layer_extra = {"dse": {"evaluated_ratio": evaluated_ratio, "frontier_points": frontier_points}}

    def shape_share(self) -> float:
        from repro.workloads.registry import get_workload_spec

        return _repeated_shape_share(
            [get_workload_spec(step["workload"]) for step in self.steps if step.get("workload")]
        )


class ServeZipf(Workload):
    """The search daemon under a seeded Zipf trace, closed loop.

    The task universe names its layers three ways: by CNN workload
    reference, inline, and by LLM decode workload reference.  Each form
    gets a fixed share of the requests and a Zipf popularity over its own
    tasks.  The seed shuffles each form's tasks and draws the trace; the
    universe and the shares are fixed, so every seed misses on nearly all
    CNN and inline tasks and sends the same mix of forms.
    """

    name = "serve-zipf"
    kind = "serve"
    step_span = "server.request"
    root_span = None
    DATAFLOWS = ("Ours", "OutR-A", "InR-B")
    CAPACITIES_KIB = (16, 64)
    #: (form, workload, layer indices, share of the requests).  An LLM
    #: reference rebuilds the whole decode step on the daemon's event loop,
    #: about 5 ms each; at a third of the requests that kept the one CPU 75%
    #: busy, and the closed loop then turned the machine's speed drift into
    #: run-to-run swings of a quarter in throughput and a half in p99, so
    #: LLM references get a tenth.
    FORMS = (
        ("ref", "vgg16", (0, 1, 2, 3, 4, 5), 0.45),
        ("inline", "resnet18", (0, 1, 5, 6, 9, 10), 0.45),
        ("ref", "llama_decode:1", (0, 1, 3, 4, 20, 22), 0.10),
    )
    ZIPF_EXPONENT = 1.1
    REQUESTS = 2500
    SMOKE_REQUESTS = 200
    CONNECTIONS = max(1, min(2, os.cpu_count() or 1))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        from repro.workloads.registry import get_workload_spec

        rng = random.Random(self.seed)
        self.universe = []
        weights = []
        for form, workload, indices, share in self.FORMS:
            layers = get_workload_spec(workload)
            tasks = [
                (form, workload, index, layers[index], dataflow, kib)
                for index in indices
                for dataflow in self.DATAFLOWS
                for kib in self.CAPACITIES_KIB
            ]
            rng.shuffle(tasks)
            popularity = [1.0 / (rank + 1) ** self.ZIPF_EXPONENT for rank in range(len(tasks))]
            self.universe += tasks
            weights += [share * weight / sum(popularity) for weight in popularity]
        count = self.SMOKE_REQUESTS if self.smoke else self.REQUESTS
        self.trace = rng.choices(range(len(self.universe)), weights=weights, k=count)
        self._expected = None

    def program_spec(self, out_dir: str) -> dict:
        return {
            "argv": [
                "--port", "0",
                "--cache-file", os.path.join(out_dir, "cache.sqlite"),
                "--work-dir", os.path.join(out_dir, "runs"),
                "--workers", "1",
            ]
        }

    def stop_setup_only(self, program: Program) -> None:
        program.process.send_signal(signal.SIGTERM)

    def sample(self, trace: bool = False) -> Sample:
        from repro.server.client import SearchClient

        out_dir = self._fresh_dir("sample")
        trace_path = os.path.join(out_dir, "trace.json") if trace else None
        program = self._start(self.program_spec(out_dir), trace_path)
        try:
            port = program.wait_ready()["port"]
            results, latencies, wall_s = self._drive(port)
            with SearchClient(port=port) as client:
                stats = client.stats()
                client.shutdown()
            program.finish()
        finally:
            program.kill()
        sample = Sample(program.setup_s, wall_s, latencies, program.peak_rss_mb, len(self.trace))
        expected = self.expected()
        for task, result in zip(self.trace, results):
            if isinstance(result, Exception):
                sample.fail(f"request {self.universe[task][1:3]} failed: {result!r}")
            elif result != expected[task]:
                sample.fail(f"request {self.universe[task][1:3]} differs from the direct engine result")
        sample.layer_extra = {"server": stats}
        if trace:
            sample.trace = tracing.load_trace(trace_path)
        return sample

    def _drive(self, port: int) -> tuple:
        """Closed loop: each connection sends its next request once the last
        one is answered."""
        from repro.server.client import SearchClient

        results = [None] * len(self.trace)
        latencies = [None] * len(self.trace)
        cursor = iter(range(len(self.trace)))
        lock = threading.Lock()

        def connection() -> None:
            with SearchClient(port=port) as client:
                while True:
                    with lock:
                        position = next(cursor, None)
                    if position is None:
                        return
                    form, workload, index, layer, dataflow, kib = self.universe[self.trace[position]]
                    if form == "inline":
                        where = {"layer": layer}
                    else:
                        where = {"workload": workload, "layer_index": index}
                    started = time.perf_counter()
                    try:
                        results[position] = client.search(dataflow, capacity_kib=kib, **where)
                    except Exception as error:  # noqa: BLE001 - a failed request is counted
                        results[position] = error
                    latencies[position] = time.perf_counter() - started

        threads = [threading.Thread(target=connection) for _ in range(self.CONNECTIONS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=PROCESS_TIMEOUT_S)
            if thread.is_alive():
                raise BenchmarkError("a load connection did not finish")
        return results, latencies, time.perf_counter() - started

    def prepare(self) -> None:
        self.expected()

    def expected(self) -> dict:
        """Direct ``SearchEngine`` results for every traced task (computed
        once per run, in this process)."""
        if self._expected is None:
            from repro.core.layer import kib_to_words
            from repro.dataflows.registry import get_dataflow
            from repro.engine import SearchEngine

            engine = SearchEngine(workers=1)
            self._expected = {
                task: engine.try_search(
                    get_dataflow(self.universe[task][4]),
                    self.universe[task][3],
                    kib_to_words(self.universe[task][5]),
                )
                for task in sorted(set(self.trace))
            }
        return self._expected

    def shape_share(self) -> float:
        from repro.workloads.registry import get_workload_spec

        return _repeated_shape_share(
            [get_workload_spec(workload) for form, workload, _, _ in self.FORMS if form == "ref"]
        )


WORKLOADS = {workload.name: workload for workload in (PaperVgg16, SearchSweep, ServeZipf)}


# ------------------------------------------------------------------ metrics


def _percentile(values: list, percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def end_to_end_metrics(setups: list, samples: list) -> dict:
    """Every end-to-end metric with its sample count.

    Times are means over the run's samples (latency percentiles are taken
    per sample first).  The machine's speed switches between states up to
    twice apart, for seconds to minutes at a time; a mean weighs each state
    by the time the run spent in it, where the median of a run's few
    samples jumps from one state to the other.  ``setup_s`` is the median
    of many short starts.
    """
    walls = [sample.wall_s for sample in samples]
    operations = sum(len(sample.op_seconds) for sample in samples)
    values = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.fmean(walls), len(walls)),
        "peak_rss_mb": (statistics.median(sample.peak_rss_mb for sample in samples), len(samples)),
        "throughput_rps": (operations / sum(walls), operations),
        "latency_p50_ms": (
            statistics.fmean(statistics.median(sample.op_seconds) for sample in samples) * 1e3,
            operations,
        ),
        "latency_p99_ms": (
            statistics.fmean(_percentile(sample.op_seconds, 99) for sample in samples) * 1e3,
            operations,
        ),
    }
    return {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}


def run(workload: Workload, seconds: float, trace: bool) -> tuple:
    """Measure one run; returns ``(metrics, samples)`` where ``metrics`` maps
    name -> (value, unit, sample count)."""
    started = time.perf_counter()
    workload.prepare()
    if trace:
        # The traced sample sits between two untraced ones, so the overhead
        # compares it with the machine's speed on both sides.
        before = workload.sample()
        traced = workload.sample(trace=True)
        after = workload.sample()
        extra = workload.layer_extra(traced)
        extra["overhead_ratio"] = 2.0 * traced.wall_s / (before.wall_s + after.wall_s) - 1.0
        values = tracing.layer_metrics(traced.trace, extra)
        for problem in tracing.identity_problems(traced.trace, values, serve=extra.get("server") is not None):
            traced.fail(f"counter identity: {problem}", operations=0)
        units = dict(tracing.PER_LAYER)
        return {name: (values[name], units[name], 1) for name, _ in tracing.PER_LAYER}, [before, traced, after]
    # The machine's speed drifts over seconds, so set-up starts are spread
    # over the run: a few before the first sample and one after each.
    workload.setup_only()
    setups = [workload.setup_only() for _ in range(SETUP_STARTS)]
    samples = []
    measuring = time.perf_counter()
    while True:
        samples.append(workload.sample())
        setups += [samples[-1].setup_s, workload.setup_only()]
        elapsed = time.perf_counter() - measuring
        # Another sample starts only if, taking as long as the average one,
        # it ends within the run.
        next_end = elapsed + elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES and next_end > seconds:
            break
        if time.perf_counter() - started + elapsed / len(samples) > RUN_BUDGET_S:
            break
    return end_to_end_metrics(setups, samples), samples


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")) or not os.path.isdir(GOLDENS):
        print(f"error: no program to measure: {SRC} or {GOLDENS} is missing", file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as handle:
        digests = json.load(handle)
    os.sched_setaffinity(0, {CPU})
    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        workload = WORKLOADS[args.workload](args.seed, run_dir, digests)
        metrics, samples = run(workload, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass  # another run is still using it
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    problems = [problem for sample in samples for problem in sample.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(samples)} samples")
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={count})")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} {'ratio':6s} (n={attempted})")
    document = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
