"""Smart DSE explorers: drivers, certificates, seeding and CLI surface.

The exactness discipline under test: a smart explorer may evaluate any
subset of the candidate space, but its returned frontier carries a
trust-region certificate, and on spaces small enough to also sweep
exhaustively the certified frontier must never be dominated by the
exhaustive one.  Hypothesis draws the downsampled spaces; one shared
memoized engine keeps the repeated tiling searches cheap across examples.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as flat_main
from repro.core.layer import kib_to_words
from repro.dse.explore import design_space_exploration
from repro.dse.pareto import (
    contains_or_dominates,
    frontier_non_dominated,
    merge_frontiers,
)
from repro.dse.smart import (
    EXPLORERS,
    ConfigEvaluator,
    SplitGrid,
    run_certificate,
    split_of_row,
    validate_explorer,
    validate_seed,
)
from repro.dse.space import CandidateSpace, count_splits, enumerate_splits
from repro.engine import SearchEngine
from repro.orchestration.cli import main as orch_main

SMART_EXPLORERS = ("halving", "local", "evolution")

TINY_BUDGET_KIB = 24.0

#: Small enough for the exhaustive reference, large enough that the smart
#: drivers exercise coarse grids, neighborhoods and generations.
SMALL_SPACE = CandidateSpace(
    pe_dims=(8, 16, 32),
    lreg_words=(16, 32, 64),
    igbuf_words=(512, 1024),
    wgbuf_words=(128, 256),
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


@pytest.fixture(scope="module")
def engine():
    return SearchEngine(workers=1)


@pytest.fixture(scope="module")
def exhaustive(engine):
    return design_space_exploration(
        budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=engine, space=SMALL_SPACE
    )


def smart_sweep(engine, explorer, seed=0, slice_spec=(1, 1), space=SMALL_SPACE,
                budget_kib=TINY_BUDGET_KIB):
    return design_space_exploration(
        budget_kib=budget_kib,
        layers="tiny",
        engine=engine,
        space=space,
        explorer=explorer,
        seed=seed,
        slice_spec=slice_spec,
    )


# ---------------------------------------------------------------- split grid


class TestSplitGrid:
    def test_feasibility_matches_enumeration(self):
        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)
        enumerated = set(enumerate_splits(budget, SMALL_SPACE))
        axes = grid.axes
        everything = {
            (r, c, l, i, w)
            for r in axes[0]
            for c in axes[1]
            for l in axes[2]
            for i in axes[3]
            for w in axes[4]
        }
        assert {split for split in everything if grid.feasible(split)} == enumerated

    def test_window_splits_stay_inside_the_space(self):
        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)
        full = set(enumerate_splits(budget, SMALL_SPACE))
        anchor = sorted(full)[0]
        for radius in (1, 2):
            window = grid.window_splits(anchor, radius)
            assert anchor in window
            assert set(window) <= full

    def test_coarse_splits_cover_axis_endpoints(self):
        budget = kib_to_words(64.0)
        grid = SplitGrid(SMALL_SPACE, budget)
        coarse = set(grid.coarse_splits(2))
        assert coarse <= set(enumerate_splits(budget, SMALL_SPACE))
        # The smallest and largest PE dims both survive the stride.
        assert any(split[0] == SMALL_SPACE.pe_dims[0] for split in coarse)
        assert any(split[0] == SMALL_SPACE.pe_dims[-1] for split in coarse)

    def test_random_split_is_feasible_and_seed_deterministic(self):
        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)
        draws = [grid.random_split(random.Random(7)) for _ in range(3)]
        assert draws[0] is not None and grid.feasible(draws[0])
        assert draws.count(draws[0]) == 3

    def test_mutate_returns_feasible_or_none(self):
        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)
        rng = random.Random(3)
        split = grid.random_split(rng)
        for _ in range(50):
            child = grid.mutate(split, rng)
            assert child is None or grid.feasible(child)

    def test_validators(self):
        for name in EXPLORERS:
            assert validate_explorer(name) == name
        with pytest.raises(ValueError, match="unknown explorer"):
            validate_explorer("annealing")
        assert validate_seed(3) == 3
        for bad in (True, 1.5, "7", None):
            with pytest.raises(ValueError, match="seed"):
                validate_seed(bad)


# ------------------------------------------------------------------ explorers


class TestSmartExplorers:
    @pytest.mark.parametrize("explorer", SMART_EXPLORERS)
    def test_certified_frontier_equals_exhaustive_on_small_space(
        self, engine, exhaustive, explorer
    ):
        payload = smart_sweep(engine, explorer, seed=3)
        assert payload["certificate"]["verified"] is True
        assert payload["certificate"]["region"] >= 1
        assert payload["certificate"]["exhaustive_points"] > 0
        assert canonical(payload["frontier"]) == canonical(exhaustive["frontier"])

    @pytest.mark.parametrize("explorer", SMART_EXPLORERS)
    def test_smart_payload_structure(self, engine, explorer):
        payload = smart_sweep(engine, explorer, seed=1)
        assert payload["explorer"] == explorer
        assert payload["seed"] == 1
        assert payload["config_count_total"] == count_splits(
            payload["budget_words"], SMALL_SPACE
        )
        assert (
            payload["config_count"] + payload["infeasible_count"]
            == payload["evaluated_count"]
        )
        assert payload["evaluated_count"] <= payload["config_count_total"]
        assert payload["explorer_stats"]["driver"] == explorer
        json.dumps(payload, allow_nan=False)

    def test_exhaustive_payload_keeps_its_pre_explorer_shape(self, exhaustive):
        # Golden discipline: the default path must not grow new keys.
        for key in ("explorer", "seed", "evaluated_count", "explorer_stats", "certificate"):
            assert key not in exhaustive

    def test_frontier_rows_are_scored_identically_to_exhaustive(
        self, engine, exhaustive
    ):
        payload = smart_sweep(engine, "local", seed=2)
        exhaustive_rows = {row["config"]: canonical(row) for row in exhaustive["configs"]}
        for row in payload["configs"]:
            assert canonical(row) == exhaustive_rows[row["config"]]

    def test_same_seed_is_byte_identical(self, engine):
        first = smart_sweep(engine, "evolution", seed=9)
        second = smart_sweep(engine, "evolution", seed=9)
        assert canonical(first) == canonical(second)
        other = smart_sweep(engine, "evolution", seed=10)
        assert other["seed"] == 10

    def test_islands_merge_to_a_certified_union(self, engine, exhaustive):
        islands = [
            smart_sweep(engine, "local", seed=5, slice_spec=(index, 3))
            for index in (1, 2, 3)
        ]
        assert all(payload["certificate"]["verified"] for payload in islands)
        merged = merge_frontiers([payload["frontier"] for payload in islands])
        assert frontier_non_dominated(merged, exhaustive["configs"])
        for row in merged:
            assert contains_or_dominates(exhaustive["frontier"], row)

    def test_max_configs_is_rejected_for_smart_explorers(self, engine):
        with pytest.raises(ValueError, match="max_configs"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB,
                layers="tiny",
                engine=engine,
                space=SMALL_SPACE,
                explorer="halving",
                max_configs=5,
            )

    def test_unknown_explorer_and_bad_seed_raise(self, engine):
        with pytest.raises(ValueError, match="unknown explorer"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=engine,
                space=SMALL_SPACE, explorer="annealing",
            )
        with pytest.raises(ValueError, match="seed"):
            smart_sweep(engine, "local", seed="zero")

    def test_thin_budget_falls_back_to_coarse_seeding(self, engine):
        # A budget admitting almost nothing: rejection sampling may find no
        # start, the coarse fallback must still locate the survivors.
        splits = enumerate_splits(kib_to_words(3.3), SMALL_SPACE)
        assert 1 <= len(splits) <= 2
        for explorer in SMART_EXPLORERS:
            payload = smart_sweep(engine, explorer, seed=0, budget_kib=3.3)
            assert payload["config_count"] >= 1
            assert payload["certificate"]["verified"] is True

    def test_backends_are_byte_identical(self):
        pytest.importorskip("numpy")
        scalar_engine = SearchEngine(workers=1, backend="python")
        vector_engine = SearchEngine(workers=1, backend="numpy")
        for explorer in SMART_EXPLORERS:
            scalar = smart_sweep(scalar_engine, explorer, seed=4)
            vector = smart_sweep(vector_engine, explorer, seed=4)
            assert canonical(scalar) == canonical(vector)


# ---------------------------------------------------------------- certificate


class TestCertificate:
    def test_certificate_regions_are_fully_enumerated(self, engine):
        payload = smart_sweep(engine, "halving", seed=0)
        certificate = payload["certificate"]
        assert certificate["verified"] is True
        # Every frontier point's whole trust region was evaluated.
        grid = SplitGrid(SMALL_SPACE, payload["budget_words"])
        evaluated = {split_of_row(row) for row in payload["configs"]}
        for row in payload["frontier"]:
            region = grid.window_splits(split_of_row(row), certificate["region"])
            assert set(region) <= evaluated

    def test_round_cap_reports_unverified(self, monkeypatch):
        # The certificate needs only rows with objective vectors, so a stub
        # scorer keeps this free of any tiling search.
        import repro.dse.smart as smart_module

        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)

        def score(splits):
            return [
                {
                    "config": "-".join(str(part) for part in split),
                    "pe_rows": split[0],
                    "pe_cols": split[1],
                    "lreg_words_per_pe": split[2],
                    "igbuf_words": split[3],
                    "wgbuf_words": split[4],
                    "objectives": {"dram": float(sum(split))},
                }
                for split in splits
            ]

        evaluator = ConfigEvaluator(score, ("dram",))
        evaluator.evaluate(grid.coarse_splits(4))
        monkeypatch.setattr(smart_module, "MAX_CERTIFICATE_ROUNDS", 0)
        certificate = run_certificate(evaluator, grid, 1)
        assert certificate == {"verified": False, "region": 1, "exhaustive_points": 0}

    def test_region_must_be_positive(self):
        budget = kib_to_words(TINY_BUDGET_KIB)
        grid = SplitGrid(SMALL_SPACE, budget)
        evaluator = ConfigEvaluator(lambda splits: [None] * len(splits), ("dram",))
        with pytest.raises(ValueError, match="region"):
            run_certificate(evaluator, grid, 0)


# -------------------------------------------------------- hypothesis properties


def subset(pool, max_size):
    return st.sets(
        st.sampled_from(pool), min_size=1, max_size=max_size
    ).map(lambda values: tuple(sorted(values)))


downsampled_spaces = st.builds(
    CandidateSpace,
    pe_dims=subset((4, 8, 12, 16), 3),
    lreg_words=subset((8, 16, 32), 3),
    igbuf_words=subset((256, 512, 1024), 2),
    wgbuf_words=subset((64, 128, 256), 2),
)

#: One engine for every drawn example: the axis pools are fixed, so the
#: memoized family searches make repeated examples nearly free.
PROPERTY_ENGINE = SearchEngine(workers=1)


class TestSmartProperties:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        space=downsampled_spaces,
        explorer=st.sampled_from(SMART_EXPLORERS),
        seed=st.integers(0, 7),
    )
    def test_certified_frontier_never_dominated_by_exhaustive(
        self, space, explorer, seed
    ):
        exhaustive = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny",
            engine=PROPERTY_ENGINE, space=space,
        )
        smart = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny",
            engine=PROPERTY_ENGINE, space=space, explorer=explorer, seed=seed,
        )
        assert smart["certificate"]["verified"] is True
        objectives = tuple(exhaustive["objectives"])
        # Nothing the exhaustive sweep scored beats any certified point...
        assert frontier_non_dominated(smart["frontier"], exhaustive["configs"], objectives)
        # ...and every certified point is a real config of the space, so the
        # exhaustive frontier contains or dominates each one.
        for row in smart["frontier"]:
            assert contains_or_dominates(exhaustive["frontier"], row, objectives)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        space=downsampled_spaces,
        explorer=st.sampled_from(SMART_EXPLORERS),
        seed=st.integers(0, 7),
    )
    def test_seed_determinism_across_backends(self, space, explorer, seed):
        pytest.importorskip("numpy")
        scalar = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny",
            engine=SearchEngine(workers=1, backend="python"),
            space=space, explorer=explorer, seed=seed,
        )
        vector = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny",
            engine=SearchEngine(workers=1, backend="numpy"),
            space=space, explorer=explorer, seed=seed,
        )
        assert canonical(scalar) == canonical(vector)

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(count=st.integers(1, 60))
    def test_empty_slices_merge_cleanly(self, count):
        # More slices than configs: trailing slices are empty payloads that
        # must merge to the unsharded frontier all the same.
        whole = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny",
            engine=PROPERTY_ENGINE, space=SMALL_SPACE,
        )
        slices = [
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB, layers="tiny",
                engine=PROPERTY_ENGINE, space=SMALL_SPACE,
                slice_spec=(index, count),
            )
            for index in range(1, count + 1)
        ]
        assert sum(part["config_count"] for part in slices) == whole["config_count"]
        if count > whole["config_count_total"]:
            assert any(part["config_count"] == 0 for part in slices)
            assert any(part["frontier"] == [] for part in slices)
        merged = merge_frontiers([part["frontier"] for part in slices])
        assert canonical(merged) == canonical(whole["frontier"])


# ------------------------------------------------------------------------ CLI


class TestSmartCli:
    def test_explorer_flag_prints_certificate(self, capsys):
        assert flat_main([
            "dse", "--workload", "tiny", "--budget", str(TINY_BUDGET_KIB),
            "--explorer", "halving",
        ]) == 0
        out = capsys.readouterr().out
        assert "Explorer 'halving'" in out
        assert "certificate verified" in out

    def test_explorer_seed_flag(self, capsys):
        assert flat_main([
            "dse", "--workload", "tiny", "--budget", str(TINY_BUDGET_KIB),
            "--explorer", "local", "--seed", "7",
        ]) == 0
        assert "(seed 7)" in capsys.readouterr().out

    def test_exhaustive_explorer_output_is_unchanged(self, capsys):
        assert flat_main([
            "dse", "--workload", "tiny", "--budget", str(TINY_BUDGET_KIB),
            "--explorer", "exhaustive",
        ]) == 0
        assert "Explorer" not in capsys.readouterr().out

    def test_orchestrated_islands_run_and_merge(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert orch_main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "dse", "--budget", str(TINY_BUDGET_KIB),
            "--explorer", "local", "--seed", "3", "--dse-slices", "2",
        ]) == 0
        capsys.readouterr()
        assert orch_main(["frontier", out_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (group,) = document["groups"]
        assert group["explorer"] == "local"
        assert group["certified"] is True
        assert group["complete"] is True
        assert group["frontier"]

    def test_orchestration_seed_needs_traffic_or_smart_explorer(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert orch_main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "dse", "--seed", "3",
        ]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_orchestration_explorer_needs_dse_experiment(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert orch_main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "fig16", "--explorer", "halving",
        ]) == 2
        assert "add 'dse' to --experiments" in capsys.readouterr().err
