"""Tests for the design-space exploration subsystem.

The acceptance contract under test:

* config enumeration honours the budget and the structural rules, in the
  same canonical order on both backends;
* every Table I memory split is an enumerable candidate, and a
  budget-constrained sweep's frontier contains or dominates each paper
  implementation (the "re-derive Table I" cross-check);
* the objective model prices counts through the exact same energy
  arithmetic as the tile-exact accelerator model;
* sweeps slice deterministically and the slice frontiers merge to the
  unsharded frontier bit-identically, across backends;
* the ``dse`` experiment, the ``dse`` CLI subcommand and the ``frontier``
  artifact merge are wired end to end.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.arch.accelerator import AcceleratorModel
from repro.arch.config import PAPER_IMPLEMENTATIONS, paper_implementation
from repro.cli import main
from repro.dse.artifacts import merge_dse_artifacts
from repro.core.layer import ConvLayer
from repro.dataflows.grid import numpy_available
from repro.dataflows.registry import BASELINE_DATAFLOWS
from repro.dse import explore
from repro.dse.explore import (
    co_search_families,
    design_space_exploration,
    slice_configs,
    validate_mix,
)
from repro.dse.objectives import config_objectives, estimate_counts
from repro.dse.pareto import (
    contains_or_dominates,
    dominates,
    merge_frontiers,
    pareto_frontier,
    validate_objectives,
)
from repro.dse.space import (
    CandidateSpace,
    _enumerate_scalar,
    _enumerate_vectorized,
    enumerate_configs,
    enumerate_splits,
)
from repro.energy.model import EnergyModel
from repro.engine import SearchEngine
from repro.orchestration.manifest import ManifestSpec, RunManifest
from repro.orchestration.runner import Runner
from repro.workloads.registry import get_workload_spec

#: Budget/space small enough for scalar-backend runs on the tiny workload.
TINY_BUDGET_KIB = 24.0

#: A space trimmed to the Table I neighbourhood (fast vgg16 cross-checks).
TABLE1_SPACE = CandidateSpace(
    pe_dims=(16, 32, 64),
    lreg_words=(32, 64, 128),
    igbuf_words=(1024, 1536),
    wgbuf_words=(256, 320),
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


# ----------------------------------------------------------------- enumeration


class TestEnumeration:
    def test_all_candidates_fit_the_budget(self):
        budget = 20_000
        for config in enumerate_configs(budget):
            assert config.effective_on_chip_words <= budget
            assert config.pe_rows % config.group_rows == 0
            assert config.pe_cols % config.group_cols == 0
            assert config.pe_cols <= config.pe_rows <= 4 * config.pe_cols

    def test_enumeration_order_is_canonical_and_deterministic(self):
        first = enumerate_splits(30_000)
        second = enumerate_splits(30_000)
        assert first == second
        assert len(set(first)) == len(first)

    def test_vectorized_enumeration_is_bit_identical(self):
        pytest.importorskip("numpy")
        space = CandidateSpace()
        for budget in (1_000, 17_000, 65_000, 10**9):
            scalar = _enumerate_scalar(budget, space, space.pe_pairs())
            vectorized = _enumerate_vectorized(budget, space, space.pe_pairs())
            assert scalar == vectorized

    def test_budget_below_smallest_candidate_yields_nothing(self):
        assert enumerate_splits(1) == []

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            enumerate_splits(0)

    def test_paper_splits_are_enumerable(self):
        """Every Table I memory split is a point of the default space."""
        budget = max(config.effective_on_chip_words for config in PAPER_IMPLEMENTATIONS)
        splits = set(enumerate_splits(budget))
        for config in PAPER_IMPLEMENTATIONS:
            assert config.memory_split in splits, config.name

    def test_space_validation(self):
        with pytest.raises(ValueError, match="empty"):
            CandidateSpace(pe_dims=())
        with pytest.raises(ValueError, match="sorted"):
            CandidateSpace(lreg_words=(64, 32))
        with pytest.raises(ValueError, match="< 1"):
            CandidateSpace(igbuf_words=(0, 512))

    def test_space_round_trips_through_dict(self):
        space = TABLE1_SPACE
        assert CandidateSpace.from_dict(space.as_dict()) == space


# ---------------------------------------------------------------------- pareto


def row(name, **objectives):
    return {"config": name, "objectives": objectives}


class TestPareto:
    def test_dominated_points_are_removed(self):
        rows = [
            row("a", dram=1.0, energy=1.0, time=1.0),
            row("b", dram=2.0, energy=2.0, time=2.0),  # dominated by a
            row("c", dram=0.5, energy=3.0, time=1.0),  # trades dram for energy
        ]
        frontier = pareto_frontier(rows)
        assert [entry["config"] for entry in frontier] == ["c", "a"]

    def test_ties_are_kept_and_ordered_by_name(self):
        rows = [
            row("beta", dram=1.0, energy=1.0, time=1.0),
            row("alpha", dram=1.0, energy=1.0, time=1.0),
        ]
        frontier = pareto_frontier(rows)
        assert [entry["config"] for entry in frontier] == ["alpha", "beta"]

    def test_subset_objectives_change_the_frontier(self):
        rows = [
            row("a", dram=1.0, energy=2.0, time=1.0),
            row("b", dram=1.0, energy=1.0, time=2.0),
        ]
        assert len(pareto_frontier(rows, ("dram", "energy", "time"))) == 2
        assert [entry["config"] for entry in pareto_frontier(rows, ("dram", "energy"))] == ["b"]

    def test_dominates_is_strict(self):
        a = row("a", dram=1.0, energy=1.0, time=1.0)
        b = row("b", dram=1.0, energy=1.0, time=1.0)
        assert not dominates(a, b, ("dram", "energy", "time"))
        c = row("c", dram=1.0, energy=0.5, time=1.0)
        assert dominates(c, a, ("dram", "energy", "time"))
        assert not dominates(a, c, ("dram", "energy", "time"))

    def test_validate_objectives(self):
        assert validate_objectives(("time", "dram")) == ("dram", "time")
        with pytest.raises(ValueError, match="at least one"):
            validate_objectives(())
        with pytest.raises(ValueError, match="unknown objectives"):
            validate_objectives(("area",))
        with pytest.raises(ValueError, match="duplicate"):
            validate_objectives(("dram", "dram"))

    def test_merge_equals_frontier_of_union(self):
        rows = [
            row(f"c{i}", dram=float(i % 5), energy=float((7 * i) % 11), time=float(i))
            for i in range(40)
        ]
        whole = pareto_frontier(rows)
        merged = merge_frontiers(
            [pareto_frontier(rows[:13]), pareto_frontier(rows[13:29]), pareto_frontier(rows[29:])]
        )
        assert canonical(merged) == canonical(whole)

    def test_contains_or_dominates(self):
        frontier = [row("best", dram=1.0, energy=1.0, time=1.0)]
        assert contains_or_dominates(frontier, row("best", dram=1.0, energy=1.0, time=1.0))
        assert contains_or_dominates(frontier, row("worse", dram=2.0, energy=1.0, time=1.0))
        assert not contains_or_dominates(frontier, row("off", dram=0.5, energy=1.0, time=1.0))


# ------------------------------------------------------------------ objectives


class TestObjectives:
    def test_counts_match_tile_exact_energy_arithmetic(self):
        """``energy_from_counts`` is the exact ``layer_energy`` arithmetic."""
        config = paper_implementation(1)
        layer = get_workload_spec("tiny")[0]
        result = AcceleratorModel(config).run_layer(layer)
        model = EnergyModel()
        direct = model.layer_energy(result, config)
        via_counts = model.energy_from_counts(
            config,
            dram_words=result.dram.total,
            igbuf_reads=result.igbuf_reads,
            igbuf_writes=result.igbuf_writes,
            wgbuf_reads=result.wgbuf_reads,
            wgbuf_writes=result.wgbuf_writes,
            macs=result.macs,
            lreg_reads=result.lreg_reads,
            lreg_writes=result.lreg_writes,
            greg_writes=result.greg_writes,
            total_cycles=result.total_cycles,
        )
        assert direct == via_counts

    def test_objectives_are_positive_and_traffic_monotone(self):
        config = paper_implementation(1)
        layers = get_workload_spec("tiny")
        engine = SearchEngine()
        results = [
            engine.found_minimum(layer, config.effective_on_chip_words)
            for layer in layers
        ]
        traffic = [result.traffic for result in results]
        objectives = config_objectives(config, layers, traffic)
        assert objectives["dram"] > 0
        assert objectives["energy"] > 0
        assert objectives["time"] > 0
        assert objectives["power_watts"] > 0
        assert 0.0 <= objectives["waiting_fraction"] <= 1.0
        # Doubling every traffic component cannot improve any objective.
        doubled = config_objectives(
            config,
            layers,
            [
                type(t)(
                    input_reads=2 * t.input_reads,
                    weight_reads=2 * t.weight_reads,
                    output_reads=2 * t.output_reads,
                    output_writes=2 * t.output_writes,
                )
                for t in traffic
            ],
        )
        for key in ("dram", "energy", "time"):
            assert doubled[key] >= objectives[key]

    def test_estimate_counts_first_order_identities(self):
        layers = get_workload_spec("tiny")
        engine = SearchEngine()
        traffic = [
            engine.found_minimum(layer, 8192).traffic for layer in layers
        ]
        counts = estimate_counts(layers, traffic)
        assert counts["igbuf_reads"] == counts["igbuf_writes"]
        assert counts["wgbuf_reads"] == counts["wgbuf_writes"]
        assert counts["greg_writes"] == counts["igbuf_writes"] + counts["wgbuf_writes"]
        assert counts["macs"] == sum(layer.macs for layer in layers)
        assert counts["dram_words"] == sum(t.total for t in traffic)


class TestStallTimeObjective:
    """The opt-in ``stall_time`` objective from the timing simulator."""

    def test_validate_accepts_and_orders_stall_time(self):
        assert validate_objectives(("stall_time", "dram")) == ("dram", "stall_time")
        with pytest.raises(ValueError, match="unknown objectives"):
            validate_objectives(("stall_time", "latency"))

    def test_stall_time_is_opt_in(self):
        config = paper_implementation(1)
        layers = get_workload_spec("tiny")
        engine = SearchEngine()
        traffic = [
            engine.found_minimum(layer, config.effective_on_chip_words).traffic
            for layer in layers
        ]
        default = config_objectives(config, layers, traffic)
        assert "stall_time" not in default
        scored = config_objectives(config, layers, traffic, include_stall_time=True)
        assert scored["stall_time"] > 0
        # The simulated latency can never beat the MAC-bound compute floor.
        from repro.core.layer import ceil_div

        compute_ms = (
            sum(ceil_div(layer.macs, config.num_pes) for layer in layers)
            / config.clock_hz
            * 1e3
        )
        assert scored["stall_time"] >= compute_ms

    def test_sweep_with_stall_time_objective(self):
        payload = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB,
            layers="tiny",
            engine=SearchEngine(),
            objectives=("time", "stall_time"),
            max_configs=6,
        )
        assert payload["objectives"] == ["time", "stall_time"]
        assert payload["configs"], "no feasible configs scored"
        from repro.core.layer import ceil_div

        layers = get_workload_spec("tiny")
        for row in payload["configs"]:
            # The simulated latency respects each config's MAC-bound floor.
            floor_cycles = sum(
                ceil_div(layer.macs, row["num_pes"]) for layer in layers
            )
            assert row["objectives"]["stall_time"] * 1e-3 >= floor_cycles / 500e6
        assert payload["frontier"]


# --------------------------------------------------------------------- explore


@pytest.fixture(scope="module")
def tiny_sweep():
    return design_space_exploration(
        budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=SearchEngine()
    )


class TestExplore:
    def test_payload_structure(self, tiny_sweep):
        payload = tiny_sweep
        assert payload["format"] == "repro-dse-v1"
        assert payload["config_count"] + payload["infeasible_count"] == len(
            slice_configs(
                enumerate_configs(payload["budget_words"]), (1, 1)
            )
        )
        assert payload["config_count"] == len(payload["configs"])
        names = [row["config"] for row in payload["configs"]]
        assert len(set(names)) == len(names)
        # The payload is strict JSON (the orchestrator archives it verbatim).
        json.dumps(payload, allow_nan=False)

    def test_frontier_rows_come_from_the_config_list(self, tiny_sweep):
        configs = {canonical(row) for row in tiny_sweep["configs"]}
        assert tiny_sweep["frontier"], "frontier cannot be empty for a feasible sweep"
        for row in tiny_sweep["frontier"]:
            assert canonical(row) in configs

    def test_every_config_is_contained_or_dominated(self, tiny_sweep):
        objectives = tuple(tiny_sweep["objectives"])
        for row in tiny_sweep["configs"]:
            assert contains_or_dominates(tiny_sweep["frontier"], row, objectives)

    def test_slices_partition_and_merge_bit_identically(self, tiny_sweep):
        engine = SearchEngine()
        slices = [
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB,
                layers="tiny",
                engine=engine,
                slice_spec=(index, 3),
            )
            for index in (1, 2, 3)
        ]
        assert sum(part["config_count"] for part in slices) == tiny_sweep["config_count"]
        merged = merge_frontiers([part["frontier"] for part in slices])
        assert canonical(merged) == canonical(tiny_sweep["frontier"])

    def test_backends_are_bit_identical(self, tiny_sweep):
        pytest.importorskip("numpy")
        vectorized = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB,
            layers="tiny",
            engine=SearchEngine(backend="numpy"),
        )
        assert canonical(vectorized) == canonical(tiny_sweep)

    def test_max_configs_truncates_before_slicing(self):
        engine = SearchEngine()
        capped = design_space_exploration(
            budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=engine, max_configs=10
        )
        assert capped["config_count_total"] == 10
        halves = [
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB,
                layers="tiny",
                engine=engine,
                max_configs=10,
                slice_spec=(index, 2),
            )
            for index in (1, 2)
        ]
        assert sum(part["config_count"] for part in halves) == capped["config_count"]
        merged = merge_frontiers([part["frontier"] for part in halves])
        assert canonical(merged) == canonical(capped["frontier"])

    def test_invalid_parameters_raise(self):
        engine = SearchEngine()
        with pytest.raises(ValueError, match="budget"):
            design_space_exploration(budget_kib=-1.0, layers="tiny", engine=engine)
        with pytest.raises(ValueError, match="max_configs"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=engine, max_configs=0
            )
        with pytest.raises(ValueError, match="unknown objectives"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB,
                layers="tiny",
                engine=engine,
                objectives=("area",),
            )
        with pytest.raises(ValueError, match="shard index"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB,
                layers="tiny",
                engine=engine,
                slice_spec=(3, 2),
            )


class TestCoSearchBatching:
    """The co-search's two engine batches and their grouped evaluation."""

    #: Three distinct shapes, so a parallel engine fans the groups out.
    LAYERS = [
        ConvLayer("a", 1, 32, 30, 30, 64, 3, 3),
        ConvLayer("b", 1, 64, 16, 16, 64, 3, 3),
        ConvLayer("c", 2, 16, 20, 20, 32, 3, 3),
    ]
    #: Six splits of one 4000-word total; on layer "b" the constrained
    #: paper dataflow wins for some of them, at a total that depends on the
    #: split.
    FAMILIES = [
        (psum, igbuf, 4000 - psum - igbuf) for psum in (1500, 2500, 3500) for igbuf in (150, 300)
    ]

    @pytest.mark.skipif(not numpy_available(), reason="the grouped path is the NumPy backend's")
    def test_mixed_split_groups_match_across_workers_and_backends(self):
        serial = co_search_families(SearchEngine(workers=1, backend="numpy"), self.LAYERS, self.FAMILIES)
        # Each layer's constrained tasks form one group holding every split;
        # a group answered with a single split would give every family the
        # same "b" row.
        assert len({tuple(rows) for rows in serial.values()}) > 2
        engine = SearchEngine(workers=2, backend="numpy")
        assert co_search_families(engine, self.LAYERS, self.FAMILIES) == serial
        assert engine.stats.grid_evaluations == len(self.LAYERS) * (1 + len(BASELINE_DATAFLOWS))
        scalar = SearchEngine(workers=1, backend="python")
        assert co_search_families(scalar, self.LAYERS, self.FAMILIES) == serial
        assert scalar.stats.as_dict() == dict(engine.stats.as_dict(), grid_evaluations=0)

    def test_two_engine_batches(self, monkeypatch):
        engine = SearchEngine()
        sizes = []
        search_tasks = engine.search_tasks

        def counting(tasks):
            tasks = list(tasks)
            sizes.append(len(tasks))
            return search_tasks(tasks)

        monkeypatch.setattr(engine, "search_tasks", counting)
        co_search_families(engine, self.LAYERS, self.FAMILIES)
        assert sizes == [
            len(BASELINE_DATAFLOWS) * len(self.LAYERS),
            len(self.FAMILIES) * len(self.LAYERS),
        ]


# -------------------------------------------------- Table I cross-check (vgg16)


class TestTableOneCrossCheck:
    @pytest.fixture(scope="class")
    def engine(self):
        pytest.importorskip("numpy")
        return SearchEngine(backend="numpy")

    def test_frontier_contains_or_dominates_each_implementation(self, engine):
        """Budget-constrained sweeps re-derive the Table I design points.

        For every paper implementation, a sweep whose budget admits exactly
        that implementation enumerates its memory split and ends with a
        frontier that contains it or dominates it.
        """
        for config in PAPER_IMPLEMENTATIONS:
            budget_kib = config.effective_on_chip_kib
            payload = design_space_exploration(
                budget_kib=budget_kib,
                layers="vgg16",
                engine=engine,
                space=TABLE1_SPACE,
            )
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
            assert config.memory_split in rows, config.name
            assert contains_or_dominates(
                payload["frontier"],
                rows[config.memory_split],
                tuple(payload["objectives"]),
            ), config.name


# ------------------------------------------------------------------ experiment


class TestDseExperimentAndCli:
    def test_dse_experiment_is_registered(self):
        from repro.orchestration.experiments import experiment_names, get_experiment

        assert "dse" in experiment_names()
        experiment = get_experiment("dse")
        assert experiment.uses_search
        defaults = experiment.default_params
        assert defaults["budget_kib"] > 0
        assert defaults["slice"] == [1, 1]

    def test_dse_cli_subcommand(self, capsys):
        assert main(["dse", "--workload", "tiny", "--budget", str(TINY_BUDGET_KIB)]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "dse-" in out

    def test_dse_cli_objectives_subset(self, capsys):
        assert main([
            "dse", "--workload", "tiny", "--budget", str(TINY_BUDGET_KIB),
            "--objectives", "dram", "energy",
        ]) == 0
        assert "Pareto frontier over (dram, energy):" in capsys.readouterr().out

    def test_dse_cli_bad_budget_exits_2(self, capsys):
        assert main(["dse", "--workload", "tiny", "--budget", "-5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_orchestrated_slices_merge_to_the_unsharded_frontier(self, tmp_path, tiny_sweep):
        spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={
                "dse": [
                    {"budget_kib": TINY_BUDGET_KIB, "slice": [1, 2]},
                    {"budget_kib": TINY_BUDGET_KIB, "slice": [2, 2]},
                ]
            },
        )
        manifest = RunManifest.from_spec(spec)
        assert len(manifest) == 2
        out_dir = str(tmp_path / "run")
        assert Runner(manifest, out_dir).run().complete
        report = merge_dse_artifacts([out_dir])
        (group,) = report["groups"]
        assert group["complete"]
        assert group["slices"] == [[1, 2], [2, 2]]
        assert group["config_count"] == tiny_sweep["config_count"]
        assert canonical(group["frontier"]) == canonical(tiny_sweep["frontier"])

    def test_frontier_cli_detects_incomplete_sweeps(self, tmp_path, capsys):
        spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": [{"budget_kib": TINY_BUDGET_KIB, "slice": [1, 2]}]},
        )
        out_dir = str(tmp_path / "run")
        assert Runner(RunManifest.from_spec(spec), out_dir).run().complete
        assert main(["frontier", out_dir]) == 1
        assert "INCOMPLETE" in capsys.readouterr().out

    def test_frontier_cli_json_document(self, tmp_path, capsys):
        spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": {"budget_kib": TINY_BUDGET_KIB}},
        )
        out_dir = str(tmp_path / "run")
        assert Runner(RunManifest.from_spec(spec), out_dir).run().complete
        assert main(["frontier", out_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-dse-frontier-v1"
        (group,) = document["groups"]
        assert group["complete"] and group["frontier"]

    def test_frontier_cli_without_dse_units_exits_2(self, tmp_path, capsys):
        spec = ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        out_dir = str(tmp_path / "run")
        Runner(RunManifest.from_spec(spec), out_dir).run()
        assert main(["frontier", out_dir]) == 2
        assert "no 'dse' unit artifacts" in capsys.readouterr().err

    def test_overlapping_slicings_merge_without_double_counting(self, tmp_path, tiny_sweep):
        """An unsliced tree merged with a 2-slice tree of the same sweep:
        rows deduplicate and the config counts come from one slicing."""
        whole_spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": {"budget_kib": TINY_BUDGET_KIB}},
        )
        sliced_spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={
                "dse": [
                    {"budget_kib": TINY_BUDGET_KIB, "slice": [1, 2]},
                    {"budget_kib": TINY_BUDGET_KIB, "slice": [2, 2]},
                ]
            },
        )
        whole_dir = str(tmp_path / "whole")
        sliced_dir = str(tmp_path / "sliced")
        assert Runner(RunManifest.from_spec(whole_spec), whole_dir).run().complete
        assert Runner(RunManifest.from_spec(sliced_spec), sliced_dir).run().complete
        report = merge_dse_artifacts([whole_dir, sliced_dir])
        (group,) = report["groups"]
        assert group["complete"]
        assert group["slices"] == [[1, 1], [1, 2], [2, 2]]
        assert group["config_count"] == tiny_sweep["config_count"]
        assert group["config_count"] <= group["config_count_total"]
        assert canonical(group["frontier"]) == canonical(tiny_sweep["frontier"])

    def test_dse_flags_without_dse_experiment_exit_2(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "fig16", "--dse-slices", "2",
        ]) == 2
        assert "add 'dse' to --experiments" in capsys.readouterr().err
        assert main([
            "reproduce-all", "--out-dir", out_dir, "--workloads", "tiny",
            "--budget", "24",
        ]) == 2
        assert "add 'dse' to --experiments" in capsys.readouterr().err


# ------------------------------------------- merge conflicts and param checks


def _run_tiny_dse(out_dir: str, params=None) -> None:
    spec = ManifestSpec(
        workloads=("tiny",),
        experiments=("dse",),
        params={"dse": params if params is not None else {"budget_kib": TINY_BUDGET_KIB}},
    )
    assert Runner(RunManifest.from_spec(spec), out_dir).run().complete


def _dse_unit_paths(out_dir: str) -> list:
    units_dir = os.path.join(out_dir, "units")
    return sorted(
        path
        for path in (os.path.join(units_dir, name) for name in os.listdir(units_dir))
        if path.endswith(".json")
        and json.load(open(path)).get("experiment") == "dse"
    )


class TestMergeConflicts:
    def test_identical_duplicate_units_dedupe(self, tmp_path, tiny_sweep):
        """The same tree twice (byte-identical unit ids) merges like once."""
        first = str(tmp_path / "first")
        _run_tiny_dse(first)
        second = str(tmp_path / "second")
        shutil.copytree(first, second)
        report = merge_dse_artifacts([first, second])
        (group,) = report["groups"]
        assert group["complete"]
        assert group["config_count"] == tiny_sweep["config_count"]
        assert canonical(group["frontier"]) == canonical(tiny_sweep["frontier"])

    def test_tampered_duplicate_unit_raises(self, tmp_path):
        """A unit id whose artifacts disagree across trees is a conflict,
        not a silent first-tree-wins (the regression this guards)."""
        first = str(tmp_path / "first")
        _run_tiny_dse(first)
        second = str(tmp_path / "second")
        shutil.copytree(first, second)
        path = _dse_unit_paths(second)[0]
        document = json.load(open(path))
        document["payload"]["gmacs"] *= 2
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="differs between run trees"):
            merge_dse_artifacts([first, second])

    def test_group_field_disagreement_raises(self, tmp_path):
        """Distinct units of one sweep whose derived payload fields disagree
        (here a tampered config_count_total) must refuse to merge instead of
        adopting whichever payload sorted first."""
        whole = str(tmp_path / "whole")
        _run_tiny_dse(whole)
        sliced = str(tmp_path / "sliced")
        _run_tiny_dse(
            sliced,
            params=[
                {"budget_kib": TINY_BUDGET_KIB, "slice": [1, 2]},
                {"budget_kib": TINY_BUDGET_KIB, "slice": [2, 2]},
            ],
        )
        path = _dse_unit_paths(sliced)[0]
        document = json.load(open(path))
        document["payload"]["config_count_total"] += 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="disagree on config_count_total"):
            merge_dse_artifacts([whole, sliced])

    def test_more_slices_than_configs_merge_cleanly(self, tmp_path):
        """--dse-slices beyond the config count leaves empty units that must
        still complete the sweep and merge to the capped frontier."""
        out_dir = str(tmp_path / "run")
        _run_tiny_dse(
            out_dir,
            params=[
                {"budget_kib": TINY_BUDGET_KIB, "max_configs": 2, "slice": [index, 5]}
                for index in range(1, 6)
            ],
        )
        report = merge_dse_artifacts([out_dir])
        (group,) = report["groups"]
        assert group["complete"]
        assert group["config_count_total"] == 2
        assert group["config_count"] <= 2
        assert group["frontier"]


class TestMixValidation:
    def test_mix_requires_a_model(self):
        with pytest.raises(ValueError, match="needs a 'model'"):
            validate_mix({})
        with pytest.raises(ValueError, match="needs a 'model'"):
            validate_mix({"model": 7})
        with pytest.raises(ValueError, match="must be a params dict"):
            validate_mix("llama_decode:32")

    def test_mix_rejects_unknown_override_keys(self):
        with pytest.raises(ValueError, match="unknown traffic-mix override keys"):
            validate_mix({"model": "llama_decode:32", "reqests": 10})

    @pytest.mark.parametrize("budget_kib", [0.0, float("inf"), float("nan")])
    def test_bad_budget_fails_before_the_mix_trace(self, budget_kib, monkeypatch):
        def never(mix):
            raise AssertionError("the mix trace was generated for an unusable budget")

        monkeypatch.setattr(explore, "_mix_layers", never)
        with pytest.raises(ValueError, match="budget|finite"):
            design_space_exploration(
                budget_kib=budget_kib, engine=SearchEngine(), mix={"model": "llama_decode:1"}
            )

    def test_zero_budget_fails_at_manifest_expansion(self):
        spec = ManifestSpec(
            workloads=("tiny",), experiments=("dse",), params={"dse": {"budget_kib": 0.0}}
        )
        with pytest.raises(ValueError, match="budget must be positive"):
            RunManifest.from_spec(spec)

    def test_sweep_surfaces_mix_errors_as_value_errors(self):
        engine = SearchEngine()
        with pytest.raises(ValueError, match="needs a 'model'"):
            design_space_exploration(
                budget_kib=TINY_BUDGET_KIB, layers="tiny", engine=engine, mix={}
            )

    def test_hand_edited_spec_fails_at_manifest_expansion(self):
        spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": {"budget_kib": TINY_BUDGET_KIB, "mix": {"model": None}}},
        )
        with pytest.raises(ValueError, match="needs a 'model'"):
            RunManifest.from_spec(spec)
        bad_explorer = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": {"budget_kib": TINY_BUDGET_KIB, "explorer": "annealing"}},
        )
        with pytest.raises(ValueError, match="unknown explorer"):
            RunManifest.from_spec(bad_explorer)

    def test_resume_with_hand_edited_bad_mix_exits_2(self, tmp_path, capsys):
        """The S2 end-to-end check: a hand-edited run.json dies at manifest
        expansion with the standard exit-2 one-liner, not a KeyError."""
        out_dir = str(tmp_path / "run")
        assert main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "dse", "--budget", str(TINY_BUDGET_KIB),
        ]) == 0
        capsys.readouterr()
        run_path = os.path.join(out_dir, "run.json")
        metadata = json.load(open(run_path))
        metadata["spec"]["params"]["dse"]["mix"] = {"wrong": 1}
        with open(run_path, "w") as handle:
            json.dump(metadata, handle)
        assert main(["resume", "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "needs a 'model'" in err
