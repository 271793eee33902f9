"""Tile-model benchmark: the vectorized tiling choice must earn its keep.

The tile-exact accelerator model (Table IV, Figs. 14 and 16-20, the timing
extension) and the Eyeriss baseline (Figs. 15/16) pick a tiling per
(configuration, layer shape), and the model and the timing simulator walk
each (configuration, bandwidth, shape, tiling) once.  Their NumPy paths
must return the scalar loops' choices exactly, and much faster.  Every
check starts from cold shape memos and reports a work rate -- milliseconds
per (implementation, shape) pair -- next to the wall-clock, so a regression
reads as either "more pairs" or "slower per pair":

(a) the tiling choice over VGG-16's 45 (implementation, shape) pairs is
    >= 10x faster than the scalar reference, with identical tilings;
(b) the same for the Eyeriss tile search on VGG-16's 9 shapes;
(c) both choices match the scalar loops on every shape of nine workloads;
(d) Fig. 16 (``gbuf_per_layer``) on ``llama_decode:4`` -- 2 272 layers of
    6 shapes -- finishes within 2 s;
(e) the timing sweep (``bandwidth_utilization_sweep``) on ``llama_decode:4``
    -- 5 implementations x 3 bandwidths x 2 272 layers, 90 distinct walks --
    finishes within 2 s;
(f) fresh-process ``fig16``/``fig19`` CLI runs, timed for the record.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_tile_model.py -q -s``
"""

import os
import subprocess
import sys
import time

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.sweep import gbuf_per_layer  # noqa: E402
from repro.analysis.timing_report import DEFAULT_BANDWIDTHS_GBPS, bandwidth_utilization_sweep  # noqa: E402
from repro.arch.accelerator import AcceleratorModel, shape_run, shape_tiling  # noqa: E402
from repro.arch.config import PAPER_IMPLEMENTATIONS  # noqa: E402
from repro.engine import layer_signature  # noqa: E402
from repro.eyeriss.model import EyerissModel, shape_best_tile  # noqa: E402
from repro.timing.simulator import shape_timing  # noqa: E402
from repro.workloads.registry import get_workload_spec  # noqa: E402

#: The acceptance bar: vectorized >= 10x the scalar loop.
MIN_VECTORIZED_SPEEDUP = 10.0

#: Wall-clock ceiling of Fig. 16 on llama_decode:4 with cold memos.
MAX_LLAMA_FIG16_SECONDS = 2.0

#: Wall-clock ceiling of the timing sweep on llama_decode:4 with cold memos.
MAX_LLAMA_TIMING_SECONDS = 2.0

#: Workloads of the wide parity sweep (c).
PARITY_WORKLOADS = (
    "vgg16", "resnet18", "alexnet", "googlenet", "mobilenet_v1", "tiny",
    "llama_decode:4", "mixtral_decode:2", "llama_prefill",
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def cold_memos():
    for memo in (shape_tiling, shape_best_tile, shape_run, shape_timing):
        memo.cache_clear()


def unique_shapes(*workloads) -> list:
    shapes = {}
    for name in workloads:
        for layer in get_workload_spec(name):
            shapes.setdefault(layer_signature(layer), layer)
    return list(shapes.values())


def timed(func, items) -> tuple:
    start = time.perf_counter()
    results = [func(*item) for item in items]
    return results, time.perf_counter() - start


def tiling_pairs(layers) -> list:
    return [(AcceleratorModel(config), layer) for config in PAPER_IMPLEMENTATIONS for layer in layers]


def report(label, pairs, scalar_s, vector_s) -> float:
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
    print(
        f"\n{label}: {pairs} pairs, scalar {scalar_s:.2f} s ({scalar_s / pairs * 1e3:.1f} ms/pair), "
        f"vectorized {vector_s:.3f} s ({vector_s / pairs * 1e3:.2f} ms/pair), speedup {speedup:.1f}x"
    )
    return speedup


def test_tile_choice_speedup():
    pairs = tiling_pairs(unique_shapes("vgg16"))
    assert len(pairs) == 45
    scalar, scalar_s = timed(lambda model, layer: model._choose_tiling_scalar(layer), pairs)
    vector, vector_s = timed(lambda model, layer: model._choose_tiling_grid(layer), pairs)
    assert vector == scalar, "vectorized tiling choice differs from the scalar loop"
    speedup = report("tile model, vgg16", len(pairs), scalar_s, vector_s)
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized tiling choice only {speedup:.1f}x faster (need >= {MIN_VECTORIZED_SPEEDUP}x)"
    )


def test_eyeriss_tile_speedup():
    model = EyerissModel()
    shapes = [(layer,) for layer in unique_shapes("vgg16")]
    assert len(shapes) == 9
    scalar, scalar_s = timed(model._best_tile_scalar, shapes)
    vector, vector_s = timed(model._best_tile_grid, shapes)
    assert vector == scalar, "vectorized Eyeriss tile differs from the scalar loop"
    speedup = report("eyeriss, vgg16", len(shapes), scalar_s, vector_s)
    assert speedup >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized Eyeriss search only {speedup:.1f}x faster (need >= {MIN_VECTORIZED_SPEEDUP}x)"
    )


def test_parity_on_nine_workloads():
    layers = unique_shapes(*PARITY_WORKLOADS)
    pairs = tiling_pairs(layers)
    scalar, scalar_s = timed(lambda model, layer: model._choose_tiling_scalar(layer), pairs)
    vector, vector_s = timed(lambda model, layer: model._choose_tiling_grid(layer), pairs)
    mismatches = [pair for pair, left, right in zip(pairs, scalar, vector) if left != right]
    assert not mismatches, [(model.config.name, layer) for model, layer in mismatches[:5]]
    report(f"tile model, {len(layers)} shapes of {len(PARITY_WORKLOADS)} workloads", len(pairs), scalar_s, vector_s)

    eyeriss = EyerissModel()
    shapes = [(layer,) for layer in layers]
    scalar, scalar_s = timed(eyeriss._best_tile_scalar, shapes)
    vector, vector_s = timed(eyeriss._best_tile_grid, shapes)
    mismatches = [layer for (layer,), left, right in zip(shapes, scalar, vector) if left != right]
    assert not mismatches, mismatches[:5]
    report("eyeriss, same shapes", len(shapes), scalar_s, vector_s)


def test_llama_decode_fig16_wall_clock():
    layers = get_workload_spec("llama_decode:4")
    shapes = len({layer_signature(layer) for layer in layers})
    start = time.perf_counter()
    rows = gbuf_per_layer(layers)
    elapsed = time.perf_counter() - start
    pairs = shapes * (len(PAPER_IMPLEMENTATIONS) + 1)  # five implementations plus Eyeriss
    print(
        f"\nfig16 on llama_decode:4: {len(layers)} layers, {shapes} shapes ({pairs} (model, shape) "
        f"pairs), {elapsed:.2f} s ({elapsed / pairs * 1e3:.0f} ms per pair, "
        f"{elapsed / len(layers) * 1e3:.2f} ms per layer)"
    )
    assert len(rows) == len(layers)
    assert elapsed <= MAX_LLAMA_FIG16_SECONDS, (
        f"fig16 on llama_decode:4 took {elapsed:.1f} s (limit {MAX_LLAMA_FIG16_SECONDS} s)"
    )


def test_llama_decode_timing_sweep_wall_clock():
    layers = get_workload_spec("llama_decode:4")
    shapes = len({layer_signature(layer) for layer in layers})
    start = time.perf_counter()
    payload = bandwidth_utilization_sweep(layers)
    elapsed = time.perf_counter() - start
    walks = shape_timing.cache_info()
    assert walks.misses == shapes * len(PAPER_IMPLEMENTATIONS) * len(DEFAULT_BANDWIDTHS_GBPS)
    print(
        f"\ntiming sweep on llama_decode:4: {len(layers)} layers, {len(payload['rows'])} rows, "
        f"{walks.misses} timed walks ({walks.hits} memo hits), {elapsed:.2f} s"
    )
    assert elapsed <= MAX_LLAMA_TIMING_SECONDS, (
        f"timing sweep on llama_decode:4 took {elapsed:.1f} s (limit {MAX_LLAMA_TIMING_SECONDS} s)"
    )


@pytest.mark.parametrize(
    "experiment, workload",
    [("fig16", "vgg16"), ("fig19", "vgg16"), ("fig16", "llama_decode:4")],
)
def test_fresh_process_wall_clock(experiment, workload):
    """One flat-CLI run in a new interpreter (imports, workload, output)."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", experiment, "--workload", workload],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=600,
    )
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr
    print(f"\nfresh process: {experiment} --workload {workload}: {elapsed:.2f} s")
