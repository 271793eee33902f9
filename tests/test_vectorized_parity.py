"""Differential suite: the vectorized backend is bit-identical to the scalar one.

The NumPy backend (``traffic_grid`` / ``SearchEngine(backend="numpy")``) is
only trustworthy if it reproduces the scalar reference search *exactly* --
same best traffic total (as a float, not within a tolerance) and, on ties,
the same tiling.  The tie-break is deterministic and documented: the first
candidate in scalar enumeration order wins, because ``numpy.argmin`` returns
the first occurrence of the minimum and the scalar loop only replaces its
incumbent on a strictly smaller total.

Hypothesis generates random layers and random capacity lists; every dataflow
(the seven Fig. 12 baselines, the free-split ``Ours`` and a fixed-split
``Ours``) is checked result-for-result, including feasibility (``None``).
The batched paths are checked the same way: every constraint of one
``choose_tiling_grid_many`` call against its own scalar ``choose_tiling``,
and each baseline's one-selection grid search on up to 300 unsorted,
duplicated or zero capacities against ``Dataflow.search``.
The tile-exact accelerator model's tiling choice and the Eyeriss tile search
are checked the same way against their scalar loops, on the paper's
workloads and on random layers and configurations.
"""

import pytest

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.arch.accelerator import AcceleratorModel  # noqa: E402
from repro.arch.config import PAPER_IMPLEMENTATIONS, AcceleratorConfig  # noqa: E402
from repro.core.layer import ConvLayer, kib_to_words  # noqa: E402
from repro.core.optimal_dataflow import (  # noqa: E402
    _seed_and_fits,
    choose_tiling,
    choose_tiling_grid,
    choose_tiling_grid_many,
)
from repro.dataflows.ours import OptimalDataflow  # noqa: E402
from repro.dataflows.registry import ALL_DATAFLOWS, BASELINE_DATAFLOWS  # noqa: E402
from repro.engine import SearchEngine, layer_signature  # noqa: E402
from repro.eyeriss.model import EyerissConfig, EyerissModel  # noqa: E402
from repro.workloads.registry import get_workload_spec  # noqa: E402

#: The registry's dataflows plus a pinned-split "our accelerator" variant,
#: which searches a differently-constrained space than the free-split one.
CHECKED_DATAFLOWS = tuple(ALL_DATAFLOWS) + (
    OptimalDataflow(psum_words=4096, input_buffer_words=640, weight_buffer_words=96),
)


@st.composite
def conv_layers(draw):
    """Random valid ConvLayers, small enough that scalar searches stay fast."""
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, 2))
    kernel_height = draw(st.integers(1, 5))
    kernel_width = draw(st.integers(1, 5))
    in_height = draw(st.integers(max(1, kernel_height - 2 * padding), 28))
    in_width = draw(st.integers(max(1, kernel_width - 2 * padding), 28))
    return ConvLayer(
        name="rand",
        batch=draw(st.integers(1, 4)),
        in_channels=draw(st.integers(1, 32)),
        in_height=in_height,
        in_width=in_width,
        out_channels=draw(st.integers(1, 32)),
        kernel_height=kernel_height,
        kernel_width=kernel_width,
        stride=stride,
        padding=padding,
    )


capacity_lists = st.lists(st.integers(0, 60_000), min_size=1, max_size=5)


@st.composite
def long_capacity_lists(draw):
    """Up to 300 capacities, unsorted and duplicated, zero included.

    Drawn from a pool of at most 12 values so the scalar reference, run
    once per distinct value, stays affordable.
    """
    pool = draw(st.lists(st.integers(0, 60_000), min_size=1, max_size=11)) + [0]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))


@st.composite
def split_constraints(draw):
    """1-40 ``choose_tiling_grid_many`` constraints on a few shared totals.

    Few totals and many splits make constraints shrink to shared seeds;
    totals under 8 words (no tiling at all), ``None`` caps and exact
    duplicates all occur.
    """
    totals = draw(
        st.lists(st.one_of(st.integers(0, 7), st.integers(8, 40_000)), min_size=1, max_size=4)
    )
    cap = st.one_of(st.none(), st.integers(0, 20_000))
    constraints = draw(
        st.lists(st.tuples(st.sampled_from(totals), cap, cap, cap), min_size=1, max_size=35)
    )
    return constraints + draw(st.lists(st.sampled_from(constraints), max_size=5))


def scalar_reference(dataflow, layer, capacity):
    """The scalar search result, or None when no tiling fits."""
    try:
        return dataflow.search(layer, capacity)
    except ValueError:
        return None


class TestTrafficGridParity:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), capacities=capacity_lists)
    def test_bit_identical_to_scalar_search(self, layer, capacities):
        for dataflow in CHECKED_DATAFLOWS:
            grid_results = dataflow.traffic_grid(layer, capacities)
            assert len(grid_results) == len(capacities)
            for capacity, grid_result in zip(capacities, grid_results):
                scalar_result = scalar_reference(dataflow, layer, capacity)
                if scalar_result is None:
                    assert grid_result is None, (
                        f"{dataflow.name}: grid found a tiling at {capacity} words "
                        f"where the scalar search found none"
                    )
                    continue
                assert grid_result is not None, (
                    f"{dataflow.name}: grid reported infeasible at {capacity} words"
                )
                # Dataclass equality pins everything at once: exact float
                # traffic components, the tie-broken tiling, and the labels.
                assert grid_result == scalar_result, (
                    f"{dataflow.name} at {capacity} words: "
                    f"grid {grid_result.total}/{grid_result.tiling} != "
                    f"scalar {scalar_result.total}/{scalar_result.tiling}"
                )

    def test_tie_break_is_first_scalar_candidate(self):
        """On exact total ties the earliest scalar-order candidate wins.

        OutR-A's traffic depends only on the block geometry; a layer whose
        output plane fits entirely on chip gives many (x, y) candidates the
        same minimal total, so the tie-break is actually exercised.
        """
        from repro.dataflows.registry import get_dataflow

        layer = ConvLayer("tie", 1, 4, 8, 8, 4, 1, 1)
        outra = get_dataflow("OutR-A")
        capacity = 10_000
        scalar = outra.search(layer, capacity)
        (grid,) = outra.traffic_grid(layer, [capacity])
        assert grid.tiling == scalar.tiling
        # The scalar generator yields y (outer) then x (inner), keeping the
        # first strict improvement; the documented winner is that candidate.
        first_best = None
        for tiling in outra.tiling_space(layer, capacity):
            candidate = outra.traffic(layer, capacity, tiling)
            if first_best is None or candidate.total < first_best[1].total:
                first_best = (tiling, candidate)
        assert grid.tiling == first_best[0]


def scalar_choice(layer, constraint):
    """The scalar ``choose_tiling`` under one constraint, or None."""
    on_chip_words, psum_words, input_buffer_words, weight_buffer_words = constraint
    try:
        return choose_tiling(
            layer,
            on_chip_words,
            psum_words=psum_words,
            input_buffer_words=input_buffer_words,
            weight_buffer_words=weight_buffer_words,
        )
    except ValueError:
        return None


class TestChooseTilingGridMany:
    """Every constraint of one batched call matches its own scalar search."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), constraints=split_constraints())
    def test_bit_identical_to_scalar_choose_tiling(self, layer, constraints):
        choices = choose_tiling_grid_many(layer, constraints)
        assert len(choices) == len(constraints)
        for constraint, choice in zip(constraints, choices):
            assert choice == scalar_choice(layer, constraint), constraint

    def test_shared_seeds_keep_each_members_caps(self):
        """Many splits of one total share few seeds but not their winners."""
        layer = ConvLayer("conv", 1, 64, 30, 30, 128, 3, 3)
        total = 12_000
        constraints = [
            (total, psum, igbuf, total - psum - igbuf)
            for psum in range(6_000, 11_000, 1_000)
            for igbuf in (128, 256, 512, 1_024)
        ]
        seeds = {_seed_and_fits(layer, *constraint)[0] for constraint in constraints}
        assert len(seeds) < len(constraints)
        choices = choose_tiling_grid_many(layer, constraints)
        assert len({choice.tiling for choice in choices}) > len(seeds)
        for constraint, choice in zip(constraints, choices):
            assert choice == scalar_choice(layer, constraint), constraint

    def test_single_constraint_form_raises_like_the_scalar_search(self):
        layer = ConvLayer("l", 1, 8, 14, 14, 16, 3, 3, padding=1)
        assert choose_tiling_grid(layer, 4096, psum_words=2048) == choose_tiling(
            layer, 4096, psum_words=2048
        )
        with pytest.raises(ValueError, match="too small"):
            choose_tiling_grid(layer, 7)
        with pytest.raises(ValueError, match="too small"):
            choose_tiling(layer, 7)


class TestGridSearchManyCapacities:
    """One selection answers hundreds of capacities like per-capacity searches."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), capacities=long_capacity_lists())
    def test_baselines_match_scalar_search(self, layer, capacities):
        for dataflow in BASELINE_DATAFLOWS:
            reference = {
                capacity: scalar_reference(dataflow, layer, capacity)
                for capacity in set(capacities)
            }
            assert dataflow.traffic_grid(layer, capacities) == [
                reference[capacity] for capacity in capacities
            ], dataflow.name

    def test_every_family_total_of_the_default_sweep(self):
        """The default VGG-16 sweep's 134 family totals on one conv shape."""
        from repro.dse.space import CandidateSpace, enumerate_configs

        configs = enumerate_configs(kib_to_words(140.0), CandidateSpace())
        capacities = sorted(
            {config.psum_words + config.igbuf_words + config.wgbuf_words for config in configs}
        )
        assert len(capacities) > 100
        layer = ConvLayer("conv4_1", 1, 256, 30, 30, 512, 3, 3)
        for dataflow in BASELINE_DATAFLOWS:
            results = dataflow.traffic_grid(layer, capacities[::-1])
            for capacity, result in zip(capacities[::-1][::13], results[::13]):
                assert result == scalar_reference(dataflow, layer, capacity), (dataflow.name, capacity)


class TestEngineBackendParity:
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), capacities=capacity_lists)
    def test_search_many_matches_across_backends(self, layer, capacities):
        numpy_engine = SearchEngine(backend="numpy")
        python_engine = SearchEngine(backend="python")
        for dataflow in CHECKED_DATAFLOWS:
            vectorized = numpy_engine.search_many(layer, capacities, dataflow)
            scalar = python_engine.search_many(layer, capacities, dataflow)
            assert vectorized == scalar

    @pytest.mark.parametrize("exponent", [50, 53, 55, 57, 60])
    def test_layers_past_int64_match_the_scalar_backend(self, exponent):
        """Regression: at ``in_channels`` 2**50 the grid wrapped around to a
        negative total, and from 2**57 it raised ``OverflowError``."""
        layer = ConvLayer("x", 1, 2**exponent, 14, 14, 16, 3, 3, 1, 1)
        tasks = [(dataflow, layer, 8192) for dataflow in CHECKED_DATAFLOWS]
        vectorized = SearchEngine(backend="numpy")
        assert vectorized.search_tasks(tasks) == SearchEngine(backend="python").search_tasks(tasks)
        assert vectorized.stats.grid_evaluations == 0  # every group ran scalar

    def test_int64_guard_admits_every_registered_workload(self):
        from repro.dataflows.grid import int64_safe
        from repro.workloads.registry import list_workloads

        for workload in list_workloads():
            for layer in workload.build():
                assert int64_safe(layer), (workload.name, layer)

    def test_found_minimum_identical_across_backends(self):
        layer = ConvLayer("fm", 2, 16, 14, 14, 24, 3, 3, padding=1)
        for capacity in (512, 4096, 32768):
            vectorized = SearchEngine(backend="numpy").found_minimum(layer, capacity)
            scalar = SearchEngine(backend="python").found_minimum(layer, capacity)
            assert vectorized == scalar

    def test_memory_sweep_identical_across_backends(self):
        import math

        from repro.analysis.sweep import memory_sweep
        from repro.workloads.generator import small_test_layers

        layers = small_test_layers()
        vectorized = memory_sweep(
            capacities_kib=[4, 16, 66.5],
            layers=layers,
            engine=SearchEngine(backend="numpy"),
        )
        scalar = memory_sweep(
            capacities_kib=[4, 16, 66.5],
            layers=layers,
            engine=SearchEngine(backend="python"),
        )
        assert vectorized["capacities_kib"] == scalar["capacities_kib"]
        for name, values in scalar["series"].items():
            for left, right in zip(values, vectorized["series"][name]):
                assert (math.isnan(left) and math.isnan(right)) or left == right


def unique_shapes(*workloads) -> list:
    """One layer per distinct shape of the named workloads."""
    shapes = {}
    for name in workloads:
        for layer in get_workload_spec(name):
            shapes.setdefault(layer_signature(layer), layer)
    return list(shapes.values())


def outcome(choose, layer):
    """``choose(layer)``, or the message of the ValueError it raised."""
    try:
        return choose(layer)
    except ValueError as error:
        return ("ValueError", str(error))


@st.composite
def accelerator_configs(draw):
    """Random small splits; pe_rows 4..16 gives 6 to 18 factor triples."""
    return AcceleratorConfig(
        name="rand",
        pe_rows=draw(st.sampled_from((4, 8, 12, 16))),
        pe_cols=draw(st.sampled_from((4, 8, 16))),
        lreg_words_per_pe=draw(st.integers(1, 64)),
        igbuf_words=draw(st.integers(8, 2048)),
        wgbuf_words=draw(st.integers(1, 512)),
        greg_bytes=4096,
    )


@st.composite
def eyeriss_configs(draw):
    """Random GBuf and spad sizes, small enough that some layers never fit."""
    return EyerissConfig(
        gbuf_data_words=draw(st.integers(16, 60_000)),
        spad_weight_words_per_pe=draw(st.integers(1, 224)),
    )


class TestTileModelParity:
    """``_choose_tiling_grid`` returns the scalar loop's Tiling (or None)."""

    @pytest.mark.parametrize("config", PAPER_IMPLEMENTATIONS, ids=lambda config: config.name)
    def test_paper_shapes(self, config):
        model = AcceleratorModel(config)
        for layer in unique_shapes("tiny", "vgg16"):
            grid = outcome(model._choose_tiling_grid, layer)
            assert grid == outcome(model._choose_tiling_scalar, layer), (config.name, layer)
            assert grid is not None

    @pytest.mark.parametrize("config", PAPER_IMPLEMENTATIONS, ids=lambda config: config.name)
    def test_traffic_window_edge(self, config):
        """GoogLeNet's inception 5a/5b 3x3 convolutions have candidates
        between 1.02x and 1.03x of the least traffic that waste less PE
        work, so the exact 2% window decides their tiling."""
        model = AcceleratorModel(config)
        for in_channels, out_channels in ((160, 320), (192, 384)):
            layer = ConvLayer("inception_5/3x3", 1, in_channels, 7, 7, out_channels, 3, 3, padding=1)
            assert outcome(model._choose_tiling_grid, layer) == outcome(model._choose_tiling_scalar, layer)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), config=accelerator_configs())
    def test_random_layers_and_configs(self, layer, config):
        model = AcceleratorModel(config)
        assert outcome(model._choose_tiling_grid, layer) == outcome(model._choose_tiling_scalar, layer)

    def test_infeasible_split_is_none_on_both(self):
        # An 8-word IGBuf cannot stage one 3x3 input patch (9 words).
        config = AcceleratorConfig("tight", 4, 4, 1, 8, 1, 4096)
        layer = ConvLayer("big", 1, 4, 12, 12, 8, 3, 3)
        model = AcceleratorModel(config)
        assert model._choose_tiling_grid(layer) is None
        assert model._choose_tiling_scalar(layer) is None
        with pytest.raises(ValueError, match="'big'"):
            model.choose_layer_tiling(layer)


class TestEyerissParity:
    """``_best_tile_grid`` returns the scalar loop's tile, in key order."""

    def test_paper_shapes(self):
        model = EyerissModel()
        for layer in unique_shapes("tiny", "vgg16"):
            grid = model._best_tile_grid(layer)
            assert grid == model._best_tile_scalar(layer), layer
            assert list(grid[0]) == ["n", "m", "c", "e"]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layer=conv_layers(), config=eyeriss_configs())
    def test_random_layers_and_configs(self, layer, config):
        model = EyerissModel(config)
        assert model._best_tile_grid(layer) == model._best_tile_scalar(layer)
