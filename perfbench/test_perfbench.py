"""Tests of the benchmark itself: span arithmetic, counter identities, and a
reduced-size smoke of every workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing


def _span(index, name, start, end, parent=None):
    return [index, name, start, end, parent, 1, False]


def test_self_times_sum_to_root_durations():
    spans = [
        _span(0, "run", 0, 100),
        _span(1, "step", 0, 60, 0),
        _span(2, "engine.search_tasks", 10, 30, 1),
        _span(3, "dataflows.grid", 12, 20, 2),
        _span(4, "step", 60, 95, 0),
        _span(5, "engine.search_tasks", 200, 250),  # a second root, e.g. another thread
    ]
    tree = tracing.SpanTree(spans)
    assert [tree.self_ns(span) for span in spans] == [5, 40, 12, 8, 35, 50]
    assert sum(tree.self_ns(span) for span in spans) == 150
    trace = {"spans": spans, "counters": {}, "distinct": {}, "samples": {}}
    metrics = {"engine.hits": 0, "engine.misses": 0, "engine.tasks": 0}
    assert tracing.identity_problems(trace, metrics, serve=False) == []


def test_overlapping_children_count_once():
    spans = [_span(0, "request", 0, 10), _span(1, "a", 1, 6, 0), _span(2, "b", 4, 8, 0)]
    tree = tracing.SpanTree(spans)
    assert tree.covered(spans[0]) == 7
    assert tree.self_ns(spans[0]) == 3


def test_identity_problems_reports_each_broken_identity():
    spans = [_span(0, "run", 0, 10), _span(1, "step", 5, 20, 0)]  # child outlives parent
    trace = {"spans": spans, "counters": {}, "distinct": {}, "samples": {}}
    metrics = {
        "engine.hits": 3, "engine.misses": 1, "engine.tasks": 5,
        "server.requests": 9, "server.coalesced": 2,
    }
    problems = tracing.identity_problems(trace, metrics, serve=True)
    assert len(problems) == 3


def test_recorder_nests_sync_and_async_spans(tmp_path):
    class Layer:
        def inner(self, value):
            time.sleep(0.001)
            return value

        def outer(self, value):
            return self.inner(value) + 1

        async def serve(self, value):
            await asyncio.sleep(0.001)
            return self.outer(value)

    recorder = tracing.Recorder()
    recorder.wrap(Layer, "inner", "inner")
    recorder.wrap(Layer, "outer", "outer", after=lambda state, result, args, kwargs: recorder.count("outer", result))
    recorder.wrap(Layer, "serve", "serve")

    async def main():
        return await asyncio.gather(Layer().serve(1), Layer().serve(2))

    assert asyncio.run(main()) == [2, 3]
    path = tmp_path / "trace.json"
    recorder.dump(str(path))
    trace = tracing.load_trace(str(path))
    tree = tracing.SpanTree(trace["spans"])
    assert trace["counters"] == {"outer": 5}
    assert sorted(span[1] for span in tree.roots()) == ["serve", "serve"]
    for span in tree.named("inner"):
        assert tree.spans[span[4]][1] == "outer"
    for span in tree.named("outer"):
        assert tree.spans[span[4]][1] == "serve"
    self_total = sum(tree.self_ns(span) for span in tree.spans.values())
    assert self_total == sum(tree.duration(span) for span in tree.roots())


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    assert [(m["name"], m["unit"]) for m in document["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in document["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in document["workloads"]] == list(run.WORKLOADS)
    assert max(m["bound"] for m in document["end_to_end"]) == next(
        m["bound"] for m in document["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_smoke_traced(name, tmp_path):
    """A reduced-size traced run: outputs check, identities hold, every
    per-layer metric is reported."""
    workload = run.WORKLOADS[name](7, str(tmp_path), {}, smoke=True)
    metrics, samples = run.run(workload, seconds=0, trace=True)
    assert [problem for sample in samples for problem in sample.problems] == []
    assert sum(sample.failed for sample in samples) == 0
    assert set(metrics) == {metric for metric, _ in tracing.PER_LAYER}
    values = {metric: value for metric, (value, _, _) in metrics.items()}
    assert values["engine.tasks"] > 0
    assert values["engine.hits"] + values["engine.misses"] == values["engine.tasks"]
    assert 0.5 < values["trace.coverage"] <= 1.0
    if name == "serve-zipf":
        assert values["server.requests"] == workload.SMOKE_REQUESTS
        assert values["server.requests"] == values["server.coalesced"] + values["engine.tasks"]
    if name == "paper-vgg16":
        assert values["orchestration.units"] == 3
        assert values["arch.tiling_calls"] > 0


def test_workload_smoke_end_to_end(tmp_path):
    workload = run.WORKLOADS["serve-zipf"](3, str(tmp_path), {}, smoke=True)
    metrics, samples = run.run(workload, seconds=0, trace=False)
    assert len(samples) == run.MIN_SAMPLES
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(value > 0 for value, _, _ in metrics.values())
    assert metrics["setup_s"][2] == run.SETUP_STARTS + 2 * len(samples)
    assert metrics["latency_p50_ms"][2] == workload.SMOKE_REQUESTS * len(samples)


def test_sweep_check_catches_a_halving_frontier_off_the_exhaustive_one(tmp_path, monkeypatch):
    workload = run.WORKLOADS["search-sweep"](7, str(tmp_path), {}, smoke=True)
    monkeypatch.setattr(workload, "exhaustive_frontier", lambda step: "[]")
    sample = workload.sample()
    assert sample.problems == ["step 1 (dse): the halving frontier is not the exhaustive sweep's frontier"]
    assert sample.failed == 1


class _CrashingPaper(run.PaperVgg16):
    """A paper run whose spec names an experiment that does not exist."""

    def program_spec(self, out_dir):
        return dict(super().program_spec(out_dir), experiments=["no_such_experiment"])


def test_a_crashing_program_fails_the_run_with_its_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RUNS_DIR", str(tmp_path / "runs"))
    monkeypatch.setitem(run.WORKLOADS, "paper-vgg16", _CrashingPaper)
    affinity = os.sched_getaffinity(0)
    try:
        code = run.main(["--workload", "paper-vgg16", "--seed", "0", "--seconds", "1", "--trace", "0"])
    finally:
        os.sched_setaffinity(0, affinity)
    captured = capsys.readouterr()
    assert code == 1
    assert "exited" in captured.err
    assert "no_such_experiment" in captured.err  # the program's own stderr
    assert '"correct"' not in captured.out
    assert not os.path.exists(run.RUNS_DIR)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
