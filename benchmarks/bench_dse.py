"""Design-space exploration benchmarks and performance gates.

These checks ride in CI's perf-smoke step:

* the headline gate: one and the same DSE sweep (VGG-16, a Table I-shaped
  candidate space) run end to end on the NumPy backend and on the scalar
  reference must produce **bit-identical** payloads with the NumPy run
  >= 10x faster -- the vectorized candidate grids answer every capacity
  point of a config family at once, the scalar loop pays per capacity;
* the acceptance run: the full default space (>= 200 candidate configs,
  ~850 in practice) on VGG-16 finishes in under 30 seconds on the NumPy
  backend and its Pareto frontier contains or dominates the paper's
  Implementation 5;
* the co-search count gate on that same run: at most 72 grid evaluations
  (one per VGG-16 conv shape for the split-constrained paper dataflow, one
  per shape and Fig. 12 baseline) with the co-search result unchanged --
  a deterministic count, unlike the wall clock.  The per-stage candidate
  throughput (Eq. (14) neighbourhood candidates of the paper dataflow,
  baseline grid candidates) is printed next to it, with the paper
  dataflow's distinct seeds and the array passes they took;
* the stacked-pass gate: the paper dataflow's co-search of a
  ``llama_decode:32`` serving mix makes at most a quarter as many
  :func:`~repro.core.optimal_dataflow.exact_traffic_grid` passes as it has
  distinct shrunken seeds, because seeds whose refinement axes have equal
  lengths (and that have equally many members) share one pass.  Also a
  deterministic count.

The config *enumeration* time on a ~10^6-candidate space is also printed
for visibility, next to a check that it lists as many candidates as the
arithmetic count; the sweep gate is the honest end-to-end measurement.
"""

import hashlib
import json
import math
import time

from repro.arch.config import paper_implementation
from repro.core import optimal_dataflow
from repro.core.layer import kib_to_words
from repro.core.optimal_dataflow import _around, _seed_and_fits, choose_tiling_grid_many
from repro.dataflows.registry import BASELINE_DATAFLOWS
from repro.dse.explore import _mix_layers, co_search_families, design_space_exploration
from repro.dse.pareto import contains_or_dominates
from repro.dse.space import (
    CandidateSpace,
    count_splits,
    enumerate_configs,
    enumerate_splits,
)
from repro.engine import SearchEngine, layer_signature

import numpy  # the gates measure the vectorized backend

#: A Table I-shaped space whose sweep is small enough to run on the scalar
#: reference in CI but large enough that the vectorized win is unambiguous.
GATE_SPACE = CandidateSpace(
    pe_dims=(16, 32, 64),
    lreg_words=(32, 64, 128),
    igbuf_words=(1024,),
    wgbuf_words=(256, 320),
)

#: A ~10^6-candidate space for the enumeration timing.
BIG_SPACE = CandidateSpace(
    pe_dims=tuple(range(4, 257, 4)),
    lreg_words=(8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768),
    igbuf_words=tuple(256 * step for step in range(1, 33)),
    wgbuf_words=tuple(128 * step for step in range(1, 25)),
)

#: A > 10^4-candidate space for the smart-explorer gate: dense enough along
#: every axis that successive halving's coarse-to-fine refinement pays off.
SMART_GATE_SPACE = CandidateSpace(
    pe_dims=tuple(range(4, 100, 4)),
    lreg_words=(8, 12, 16, 24, 32, 48, 64, 96),
    igbuf_words=(256, 384, 512, 768, 1024, 1536),
    wgbuf_words=(64, 96, 128, 192, 256, 384),
)

SMART_GATE_BUDGET_KIB = 64.0

#: Grid evaluations of the default VGG-16 sweep: 9 conv shapes x (one
#: grouped split-constrained ``Ours`` evaluation + 7 baseline grids).
#: The per-(family, layer) co-search this replaced made 1 638.
DEFAULT_SWEEP_MAX_GRID_EVALUATIONS = 72

#: The traffic mix and candidate space of search-sweep's third step in
#: ``perfbench/run.py`` at its default seed (0): 72 configs, 140 KiB.
MIX = {"model": "llama_decode:32", "seed": 55125, "requests": 128}
MIX_SPACE = CandidateSpace(
    pe_dims=(8, 16, 32),
    lreg_words=(16, 32, 64),
    igbuf_words=(1024, 2048),
    wgbuf_words=(256, 512),
)

#: Distinct shrunken seeds per ``exact_traffic_grid`` pass that the mix's
#: co-search must at least reach (1 517 seeds took 188 passes when the
#: gate was set; one pass per seed is the unstacked kernel).
MIX_MIN_SEEDS_PER_PASS = 4

#: SHA-256 of the default VGG-16 sweep's co-search (see
#: :func:`co_search_digest`), as the per-(family, layer) searches computed
#: it.  Traffic components are exact integers, so the digest is portable;
#: only an intentional model change may move it.
DEFAULT_CO_SEARCH_SHA256 = "9a3113fe40ab2030f1c3e240d609c974809b83e541fc8759db998b157b8e05f3"


def co_search_digest(per_family: dict) -> str:
    """SHA-256 of every family's per-layer winning dataflow and traffic."""
    canonical = sorted(
        [
            list(family),
            None
            if rows is None
            else [
                [name, t.input_reads, t.weight_reads, t.output_reads, t.output_writes]
                for name, t in rows
            ],
        ]
        for family, rows in per_family.items()
    )
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def neighbourhood_size(layer, seed) -> int:
    """Candidates of one seed's refinement grid (the seed is one of them)."""
    extents = (layer.batch, layer.out_channels, layer.out_height, layer.out_width)
    sizes = (seed.b, seed.z, seed.y, seed.x)
    return math.prod(len(_around(size, extent)) for size, extent in zip(sizes, extents))


def count_passes(monkeypatch) -> list:
    """Record each ``exact_traffic_grid`` pass of ``choose_tiling_grid_many``."""
    calls = []
    original = optimal_dataflow.exact_traffic_grid

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(optimal_dataflow, "exact_traffic_grid", counted)
    return calls


def family_constraints(families) -> list:
    """``choose_tiling_grid_many`` constraints of memory-split families."""
    return [(sum(family),) + family for family in families]


def grid_size(dataflow, layer) -> int:
    """Candidates of a baseline's grid: the size its broadcast axes span."""
    axes, _, _ = dataflow.grid_arrays(layer)
    return math.prod(numpy.broadcast(*(values for _, values in axes)).shape)


def default_sweep_families() -> list:
    """The memory splits of the default 140 KiB candidate space."""
    configs = enumerate_configs(kib_to_words(140.0), CandidateSpace())
    return sorted({(c.psum_words, c.igbuf_words, c.wgbuf_words) for c in configs})


def test_dse_sweep_vectorized_vs_scalar_10x(vgg_layers):
    """Perf gate: the whole sweep, NumPy backend vs scalar reference.

    Both runs start from a cold cache with one worker; the payloads must be
    bit-identical (the speedup is worthless if the frontier moves).
    """
    budget_kib = 140.0

    start = time.perf_counter()
    scalar = design_space_exploration(
        budget_kib=budget_kib,
        layers=vgg_layers,
        engine=SearchEngine(workers=1, backend="python"),
        space=GATE_SPACE,
    )
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    vectorized = design_space_exploration(
        budget_kib=budget_kib,
        layers=vgg_layers,
        engine=SearchEngine(workers=1, backend="numpy"),
        space=GATE_SPACE,
    )
    vectorized_seconds = time.perf_counter() - start

    assert json.dumps(vectorized, sort_keys=True) == json.dumps(scalar, sort_keys=True), (
        "the sweep payload moved between backends"
    )
    speedup = scalar_seconds / vectorized_seconds
    print(
        f"\nvgg16 DSE sweep ({scalar['config_count']} configs, cold cache, 1 worker):\n"
        f"  scalar backend     {scalar_seconds:8.2f} s\n"
        f"  vectorized backend {vectorized_seconds:8.2f} s\n"
        f"  speedup            {speedup:8.1f}x"
    )
    assert speedup >= 10.0, (
        f"vectorized DSE sweep only {speedup:.1f}x faster than scalar "
        f"({vectorized_seconds:.2f}s vs {scalar_seconds:.2f}s)"
    )


def test_dse_enumeration_at_scale():
    """The nested-loop enumerator on a ~10^6-candidate space.

    It must keep exactly as many candidates as :func:`count_splits` counts
    arithmetically; the time is printed for visibility.
    """
    budget_words = 8_000

    start = time.perf_counter()
    splits = enumerate_splits(budget_words, BIG_SPACE)
    seconds = time.perf_counter() - start

    assert len(splits) == count_splits(budget_words, BIG_SPACE)
    print(f"\nconfig enumeration ({len(splits)} candidates kept): {seconds * 1e3:.1f} ms")


def test_dse_halving_explorer_quarter_of_exhaustive():
    """Smart-explorer gate: successive halving on a > 10^4-candidate space.

    The halving driver must return the byte-identical Pareto frontier with
    a verified exactness certificate while evaluating at most 25% of the
    candidates the exhaustive sweep scores.  Both runs use the tiny
    workload so the exhaustive reference stays CI-sized; the wall-clock
    comparison is printed for visibility but the evaluation-count ratio is
    the gate (it is deterministic, machine speed is not).
    """
    from repro.core.layer import kib_to_words

    total = count_splits(kib_to_words(SMART_GATE_BUDGET_KIB), SMART_GATE_SPACE)
    assert total >= 10_000, f"gate space shrank to {total} candidates"

    start = time.perf_counter()
    exhaustive = design_space_exploration(
        budget_kib=SMART_GATE_BUDGET_KIB,
        layers="tiny",
        engine=SearchEngine(workers=1, backend="numpy"),
        space=SMART_GATE_SPACE,
    )
    exhaustive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    halving = design_space_exploration(
        budget_kib=SMART_GATE_BUDGET_KIB,
        layers="tiny",
        engine=SearchEngine(workers=1, backend="numpy"),
        space=SMART_GATE_SPACE,
        explorer="halving",
    )
    halving_seconds = time.perf_counter() - start

    evaluated = halving["evaluated_count"]
    scored = exhaustive["config_count"] + exhaustive["infeasible_count"]
    fraction = evaluated / scored
    print(
        f"\ntiny DSE sweep, {total} candidates under "
        f"{SMART_GATE_BUDGET_KIB:g} KiB:\n"
        f"  exhaustive  {scored:6d} evaluations  {exhaustive_seconds:6.2f} s\n"
        f"  halving     {evaluated:6d} evaluations  {halving_seconds:6.2f} s "
        f"({fraction * 100:.1f}% of exhaustive)"
    )
    assert halving["certificate"]["verified"] is True, "certificate did not verify"
    assert json.dumps(halving["frontier"], sort_keys=True) == json.dumps(
        exhaustive["frontier"], sort_keys=True
    ), "the halving frontier moved off the exhaustive frontier"
    assert fraction <= 0.25, (
        f"halving evaluated {evaluated} of {scored} configs "
        f"({fraction * 100:.1f}%; gate: 25%)"
    )


def test_dse_vgg16_default_sweep_under_30s(vgg_layers):
    """Acceptance gate: a >= 200-config VGG-16 sweep in seconds, cold cache.

    Runs the whole default candidate space at the default 140 KiB budget on
    the NumPy backend and checks the headline claims: enough candidates,
    bounded wall clock, and a frontier that contains or dominates the
    paper's Implementation 5 (whose memory split is itself an enumerated
    candidate).
    """
    engine = SearchEngine(backend="numpy")
    start = time.perf_counter()
    payload = design_space_exploration(
        budget_kib=140.0,
        layers=vgg_layers,
        engine=engine,
    )
    elapsed = time.perf_counter() - start
    evaluations = engine.stats.grid_evaluations

    print(
        f"\nvgg16 DSE sweep: {payload['config_count']} configs "
        f"({payload['infeasible_count']} infeasible) -> "
        f"{len(payload['frontier'])} frontier points in {elapsed:.2f} s, "
        f"{evaluations} grid evaluations"
    )
    assert payload["config_count"] >= 200
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s (gate: 30s)"
    assert evaluations <= DEFAULT_SWEEP_MAX_GRID_EVALUATIONS, (
        f"the default sweep made {evaluations} grid evaluations "
        f"(gate: {DEFAULT_SWEEP_MAX_GRID_EVALUATIONS})"
    )
    # Served from the sweep's warm cache: the co-search it just ran.
    per_family = co_search_families(engine, vgg_layers, default_sweep_families())
    assert co_search_digest(per_family) == DEFAULT_CO_SEARCH_SHA256, "the co-search result moved"
    assert engine.stats.grid_evaluations == evaluations

    impl5 = paper_implementation(5)
    rows = {
        (
            row["pe_rows"],
            row["pe_cols"],
            row["lreg_words_per_pe"],
            row["igbuf_words"],
            row["wgbuf_words"],
        ): row
        for row in payload["configs"]
    }
    assert impl5.memory_split in rows, "Implementation 5 was not enumerated"
    assert contains_or_dominates(
        payload["frontier"], rows[impl5.memory_split], tuple(payload["objectives"])
    ), "the frontier neither contains nor dominates Implementation 5"


def test_dse_co_search_stage_throughput(vgg_layers, monkeypatch):
    """Candidates per second of the two co-search stages (printed, not gated).

    The paper-dataflow stage evaluates one Eq. (14) neighbourhood per
    distinct shrunken seed of a layer shape, shared by every family split
    that shrinks to it (the per-(family, layer) search it replaced rebuilt
    one per pair), and seeds with equally long refinement axes and member
    counts share one array pass.  The baseline stage evaluates one
    candidate grid per (baseline, shape) and answers every family total
    from one selection.
    """
    families = default_sweep_families()
    constraints = family_constraints(families)
    capacities = sorted({sum(family) for family in families})
    shapes = list({layer_signature(layer): layer for layer in vgg_layers}.values())

    passes = count_passes(monkeypatch)
    start = time.perf_counter()
    for layer in shapes:
        choose_tiling_grid_many(layer, constraints)
    ours_seconds = time.perf_counter() - start
    seeds = [
        (layer, _seed_and_fits(layer, *constraint)[0])
        for layer in shapes
        for constraint in constraints
    ]
    per_pair = sum(neighbourhood_size(layer, seed) for layer, seed in seeds)
    shared = sum(neighbourhood_size(layer, seed) for layer, seed in set(seeds))

    start = time.perf_counter()
    for dataflow in BASELINE_DATAFLOWS:
        for layer in shapes:
            dataflow.traffic_grid(layer, capacities)
    baseline_seconds = time.perf_counter() - start
    grid = sum(grid_size(dataflow, layer) for dataflow in BASELINE_DATAFLOWS for layer in shapes)

    print(
        f"\nvgg16 co-search stages ({len(families)} families, {len(shapes)} shapes, "
        f"{len(capacities)} totals):\n"
        f"  Ours neighbourhoods {len(set(seeds)):5d} seeds  {shared:9d} candidates "
        f"(per pair: {per_pair})  {ours_seconds:6.3f} s  "
        f"{shared / ours_seconds / 1e6:6.2f} M candidates/s  in {len(passes)} passes\n"
        f"  baseline grids      {len(shapes) * len(BASELINE_DATAFLOWS):5d} grids  {grid:9d} candidates "
        f"{'':>{len(str(per_pair)) + 12}}{baseline_seconds:6.3f} s  "
        f"{grid / baseline_seconds / 1e6:6.2f} M candidates/s"
    )
    assert shared < per_pair


def test_dse_mix_co_search_stacks_seeds(monkeypatch):
    """Gate: the mix's ``Ours`` co-search takes at most one array pass per
    four distinct seeds.

    The co-search of search-sweep's traffic-mix step (the weighted unique
    shapes of 128 ``llama_decode:32`` requests, 72 configs at 140 KiB):
    one ``choose_tiling_grid_many`` call per decode shape, every family's
    split a constraint.  A deterministic count, like the grid-evaluation
    gate; the wall clock is printed for visibility.
    """
    layers, _ = _mix_layers(MIX)
    configs = enumerate_configs(kib_to_words(140.0), MIX_SPACE)
    families = sorted({(c.psum_words, c.igbuf_words, c.wgbuf_words) for c in configs})
    seeds = {
        (layer_signature(layer), _seed_and_fits(layer, *constraint)[0])
        for layer in layers
        for constraint in family_constraints(families)
    }

    passes = count_passes(monkeypatch)
    start = time.perf_counter()
    co_search_families(SearchEngine(workers=1, backend="numpy"), layers, families)
    seconds = time.perf_counter() - start

    print(
        f"\nllama_decode:32 mix co-search ({len(layers)} shapes, {len(families)} families): "
        f"{len(seeds)} distinct seeds in {len(passes)} passes, {seconds:.3f} s"
    )
    assert len(passes) * MIX_MIN_SEEDS_PER_PASS <= len(seeds), (
        f"{len(passes)} exact_traffic_grid passes for {len(seeds)} distinct seeds "
        f"(gate: at most one per {MIX_MIN_SEEDS_PER_PASS})"
    )
