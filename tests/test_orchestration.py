"""Tests for the run orchestrator: manifests, sharding, resume, merge.

The acceptance contract under test:

* manifest expansion is deterministic and duplicate-free;
* the union of shards equals the full unit set for several shard counts;
* a run killed mid-shard resumes with ``units_skipped`` equal to the units
  completed before the kill, recomputes zero completed units (engine stats
  stay empty on a fully-complete resume), and the final artifacts are
  bit-identical to an uninterrupted run;
* merging shard trees is bit-identical to a single unsharded run, and the
  merged goldens units diff clean against pinned golden files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.goldens import Pin, declared_pins, write_pins
from repro.cli import main
from repro.engine import CacheStats, shard_cache_filename
from repro.orchestration.experiments import (
    PAPER_EXPERIMENTS,
    experiment_names,
    get_experiment,
)
from repro.orchestration.manifest import (
    NO_BACKEND,
    ManifestSpec,
    RunManifest,
    parse_shard,
)
from repro.orchestration.merge import (
    diff_merged_goldens,
    merge_runs,
    summary_markdown,
)
from repro.orchestration.runner import Runner, unit_artifact_path, unit_status_path

#: A small spec that exercises search-based, model-only and goldens units
#: while staying fast (the tiny workload, two tiny capacities).
TINY_SPEC = dict(
    workloads=("tiny",),
    experiments=("fig13", "fig14", "fig16", "table4", "goldens"),
    params={"fig13": {"capacities_kib": [8, 16]}, "fig14": {"capacity_kib": 4}},
)


#: The goldens bundle of the tiny workload, pinned in place of the real CNN
#: bundles so merge tests stay cheap.
TINY_PIN = Pin("goldens", "tiny", {}, "tiny.json")


def tiny_manifest() -> RunManifest:
    return RunManifest.from_spec(ManifestSpec(**TINY_SPEC))


def read_tree(out_dir):
    """{relative path: bytes} of the merge-compared artifact files."""
    tree = {}
    for name in ("manifest.json",):
        with open(os.path.join(out_dir, name), "rb") as handle:
            tree[name] = handle.read()
    units_dir = os.path.join(out_dir, "units")
    for name in sorted(os.listdir(units_dir)):
        with open(os.path.join(units_dir, name), "rb") as handle:
            tree[f"units/{name}"] = handle.read()
    return tree


class TestManifest:
    def test_expansion_is_deterministic(self):
        first = tiny_manifest()
        second = tiny_manifest()
        assert [unit.unit_id for unit in first.units] == [
            unit.unit_id for unit in second.units
        ]
        assert first.to_json() == second.to_json()

    def test_expansion_is_duplicate_free(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny", "tiny"),
                experiments=("fig13", "fig13", "fig16"),
            )
        )
        ids = [unit.unit_id for unit in manifest.units]
        assert len(ids) == len(set(ids)) == 2

    def test_backend_expansion_only_for_search_experiments(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig13", "fig16"),
                backends=("numpy", "python"),
            )
        )
        by_experiment = {}
        for unit in manifest.units:
            by_experiment.setdefault(unit.experiment, []).append(unit.backend)
        assert sorted(by_experiment["fig13"]) == ["numpy", "python"]
        assert by_experiment["fig16"] == [NO_BACKEND]

    def test_full_paper_spec_covers_every_experiment(self):
        manifest = RunManifest.from_spec(ManifestSpec())
        assert {unit.experiment for unit in manifest.units} == set(PAPER_EXPERIMENTS)
        assert set(PAPER_EXPERIMENTS) <= set(experiment_names())

    def test_params_default_and_override(self):
        manifest = tiny_manifest()
        fig13 = [unit for unit in manifest.units if unit.experiment == "fig13"]
        assert fig13[0].params == {"capacities_kib": [8, 16]}
        default = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig13",))
        )
        assert default.units[0].params == dict(get_experiment("fig13").default_params)

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_shard_union_is_full_set(self, count):
        manifest = tiny_manifest()
        seen = []
        for index in range(1, count + 1):
            seen += [unit.unit_id for unit in manifest.shard(index, count)]
        assert len(seen) == len(manifest)
        assert set(seen) == manifest.unit_ids()

    def test_shard_validation(self):
        manifest = tiny_manifest()
        with pytest.raises(ValueError):
            manifest.shard(0, 2)
        with pytest.raises(ValueError):
            manifest.shard(3, 2)
        assert parse_shard("2/4") == (2, 4)
        with pytest.raises(ValueError):
            parse_shard("4/2")
        with pytest.raises(ValueError):
            parse_shard("half")

    def test_manifest_json_roundtrip(self):
        manifest = tiny_manifest()
        reloaded = RunManifest.from_json(manifest.to_json())
        assert reloaded.to_json() == manifest.to_json()


class TestRunner:
    def test_run_writes_artifacts_and_statuses(self, tmp_path):
        out_dir = str(tmp_path / "run")
        manifest = tiny_manifest()
        report = Runner(manifest, out_dir).run()
        assert report.complete
        assert report.units_completed == len(manifest)
        for unit in manifest.units:
            with open(unit_artifact_path(out_dir, unit.unit_id)) as handle:
                document = json.load(handle)
            assert document["unit_id"] == unit.unit_id
            assert document["experiment"] == unit.experiment
            assert document["payload"]
            with open(unit_status_path(out_dir, unit.unit_id)) as handle:
                assert json.load(handle)["state"] == "completed"
        # The shard-scoped engine cache persisted (resume starts warm).
        assert os.path.exists(
            os.path.join(out_dir, "cache", shard_cache_filename("auto", 1, 1))
        )

    def test_out_dir_rejects_a_different_spec(self, tmp_path):
        out_dir = str(tmp_path / "run")
        Runner(tiny_manifest(), out_dir).run()
        other = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        with pytest.raises(ValueError, match="different spec"):
            Runner(other, out_dir).run()

    def test_failed_unit_is_recorded_and_does_not_stop_the_shard(self, tmp_path):
        out_dir = str(tmp_path / "run")
        # 0.001 KB cannot fit any tiling: fig14 must fail, fig16 must pass.
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig14", "fig16"),
                params={"fig14": {"capacity_kib": 0.001}},
            )
        )
        report = Runner(manifest, out_dir).run()
        assert report.units_failed == 1
        assert report.units_completed == 1
        assert not report.ok
        assert "no tiling" in report.failures[0]["error"]
        failed_id = report.failures[0]["unit_id"]
        with open(unit_status_path(out_dir, failed_id)) as handle:
            status = json.load(handle)
        assert status["state"] == "failed"
        assert not os.path.exists(unit_artifact_path(out_dir, failed_id))


class TestKillAndResume:
    def test_interrupted_shard_resumes_without_recomputation(self, tmp_path):
        manifest = tiny_manifest()
        total = len(manifest)
        killed_dir = str(tmp_path / "killed")
        clean_dir = str(tmp_path / "clean")

        # Simulate a kill: stop after 2 fresh completions.
        before_kill = Runner(manifest, killed_dir).run(max_units=2)
        assert before_kill.units_completed == 2
        assert before_kill.units_pending == total - 2

        # Resume: exactly the completed units are skipped, the rest run.
        resumed = Runner(manifest, killed_dir).run()
        assert resumed.units_skipped == before_kill.units_completed
        assert resumed.units_completed == total - 2
        assert resumed.complete

        # A second resume recomputes zero units and never builds an engine.
        noop = Runner(manifest, killed_dir).run()
        assert noop.units_skipped == total
        assert noop.units_completed == 0
        assert noop.engine_stats == {}

        # The interrupted-then-resumed tree is bit-identical to a clean run.
        assert Runner(manifest, clean_dir).run().complete
        assert read_tree(killed_dir) == read_tree(clean_dir)

    def test_resumed_engine_starts_from_the_persisted_cache(self, tmp_path):
        # Search-based units only, so the first completed unit always has an
        # engine whose statistics we can compare across runs.
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig13", "fig14"),
                params=dict(TINY_SPEC["params"]),
            )
        )
        out_dir = str(tmp_path / "run")
        first = Runner(manifest, out_dir).run(max_units=1)
        assert first.units_completed == 1
        (first_stats,) = first.engine_stats.values()
        assert first_stats["cache_entries"] > 0
        # Force-recomputing the same unit set hits the shard cache file: the
        # resumed engine reloads every persisted entry instead of searching.
        second = Runner(manifest, out_dir).run(resume=False, max_units=1)
        (second_stats,) = second.engine_stats.values()
        assert second_stats["misses"] == 0
        assert second_stats["hits"] == first_stats["hits"] + first_stats["misses"]


class TestMerge:
    @pytest.mark.parametrize("count", [2, 5])
    def test_sharded_merge_is_bit_identical_to_unsharded(self, tmp_path, count):
        manifest = tiny_manifest()
        shard_dirs = []
        for index in range(1, count + 1):
            shard_dir = str(tmp_path / f"shard-{index}")
            report = Runner(manifest, shard_dir).run(shard=(index, count))
            assert report.complete
            shard_dirs.append(shard_dir)
        merged_dir = str(tmp_path / "merged")
        merge_report = merge_runs(shard_dirs, merged_dir)
        assert merge_report.ok
        assert merge_report.units_merged == len(manifest)

        full_dir = str(tmp_path / "full")
        assert Runner(manifest, full_dir).run().complete
        assert read_tree(merged_dir) == read_tree(full_dir)

    def test_merge_aggregates_engine_stats_across_shards(self, tmp_path):
        manifest = tiny_manifest()
        shard_dirs = []
        expected = CacheStats()
        for index in (1, 2):
            shard_dir = str(tmp_path / f"shard-{index}")
            report = Runner(manifest, shard_dir).run(shard=(index, 2))
            shard_dirs.append(shard_dir)
            for stats in report.engine_stats.values():
                expected.merge(CacheStats.from_dict(stats))
        merge_report = merge_runs(shard_dirs, str(tmp_path / "merged"))
        assert merge_report.engine_stats["auto"]["hits"] == expected.hits
        assert merge_report.engine_stats["auto"]["misses"] == expected.misses

    def test_resume_attempts_never_wipe_shard_stats(self, tmp_path):
        manifest = tiny_manifest()
        out_dir = str(tmp_path / "run")
        killed = Runner(manifest, out_dir).run(max_units=2)
        resumed = Runner(manifest, out_dir).run()
        noop = Runner(manifest, out_dir).run()
        assert noop.engine_stats == {}
        expected = CacheStats()
        for attempt in (killed, resumed):
            for stats in attempt.engine_stats.values():
                expected.merge(CacheStats.from_dict(stats))
        # The merge aggregate must see the work of *both* attempts even
        # though the last run (the no-op resume) did none.
        report = merge_runs([out_dir], str(tmp_path / "merged"))
        assert report.engine_stats["auto"]["misses"] == expected.misses
        assert report.engine_stats["auto"]["hits"] == expected.hits
        assert len(report.shard_reports) == 3

    def test_merge_reports_missing_units(self, tmp_path):
        manifest = tiny_manifest()
        shard_dir = str(tmp_path / "shard-1")
        # Only shard 1 of 2 ran: the other shard's units are missing.
        Runner(manifest, shard_dir).run(shard=(1, 2))
        report = merge_runs([shard_dir], str(tmp_path / "merged"))
        assert not report.ok
        missing = {unit.unit_id for unit in manifest.shard(2, 2)}
        assert set(report.missing) == missing

    def test_merge_detects_conflicting_duplicates(self, tmp_path):
        manifest = tiny_manifest()
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        Runner(manifest, dir_a).run()
        Runner(manifest, dir_b).run()
        victim = manifest.units[0].unit_id
        path = unit_artifact_path(dir_b, victim)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"] = {"tampered": True}
        with open(path, "w") as handle:
            json.dump(document, handle)
        report = merge_runs([dir_a, dir_b], str(tmp_path / "merged"))
        assert report.conflicts == [victim]
        assert not report.ok

    def test_remerge_rejects_an_out_dir_of_a_different_spec(self, tmp_path):
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        merged = str(tmp_path / "merged")
        Runner(tiny_manifest(), dir_a).run()
        merge_runs([dir_a], merged)
        other = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        Runner(other, dir_b).run()
        with pytest.raises(ValueError, match="different spec"):
            merge_runs([dir_b], merged)
        # The original merge is untouched: no stale mixing of the two specs.
        assert read_tree(merged) == read_tree(dir_a)

    def test_remerge_removes_stale_unit_files(self, tmp_path):
        manifest = tiny_manifest()
        shard_dir = str(tmp_path / "shard")
        merged = str(tmp_path / "merged")
        Runner(manifest, shard_dir).run()
        merge_runs([shard_dir], merged)
        stale = os.path.join(merged, "units", "zzz--stale--none--0000000000.json")
        with open(stale, "w") as handle:
            handle.write("{}")
        report = merge_runs([shard_dir], merged)
        assert report.ok
        assert not os.path.exists(stale)
        assert read_tree(merged) == read_tree(shard_dir)

    def test_merge_rejects_mismatched_manifests(self, tmp_path):
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        Runner(tiny_manifest(), dir_a).run()
        other = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        Runner(other, dir_b).run()
        with pytest.raises(ValueError, match="different specs"):
            merge_runs([dir_a, dir_b], str(tmp_path / "merged"))


class TestGoldensDiff:
    def test_merged_goldens_diff_clean_against_pinned_files(self, tmp_path, restrict_pins):
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        report = merge_runs([out_dir], merged_dir)
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert diff == {"tiny": []}
        markdown = summary_markdown(report, diff)
        assert "| tiny |" in markdown and "✅" in markdown

    def test_multi_backend_mismatch_is_never_masked(self, tmp_path, restrict_pins):
        pytest.importorskip("numpy")
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("goldens",),
                backends=("numpy", "python"),
            )
        )
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        assert diff_merged_goldens(merged_dir, goldens_dir) == {"tiny": []}
        # Corrupt only the numpy unit: the clean python unit must not mask it.
        numpy_unit = next(
            unit for unit in manifest.units if unit.backend == "numpy"
        )
        path = unit_artifact_path(merged_dir, numpy_unit.unit_id)
        with open(path) as handle:
            document = json.load(handle)
        document["payload"]["workload"] = "tampered"
        with open(path, "w") as handle:
            json.dump(document, handle)
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert any(problem.startswith("[numpy]") for problem in diff["tiny"])

    def test_diff_without_goldens_units_is_an_error_not_a_pass(self, tmp_path):
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        Runner(manifest, out_dir).run()
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        with pytest.raises(ValueError, match="no 'goldens' units"):
            diff_merged_goldens(merged_dir, str(tmp_path / "goldens"))

    def test_merge_json_stdout_is_parseable_with_diff_goldens(self, tmp_path, capsys, restrict_pins):
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        Runner(manifest, out_dir).run()
        merged_dir = str(tmp_path / "merged")
        assert main([
            "merge", out_dir, "--out-dir", merged_dir,
            "--diff-goldens", goldens_dir, "--json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)  # whole stdout is JSON
        assert document["goldens"] == {"tiny": []}

    def test_merge_diffs_a_dse_unit_matching_the_dse_pin(self, tmp_path, restrict_pins):
        pytest.importorskip("numpy")
        (dse_pin,) = [pin for pin in declared_pins() if pin.experiment == "dse"]
        # The declared pin's params, on the tiny workload (a vgg16 run would
        # also compute the expensive vgg16 goldens bundle).
        tiny_dse_pin = dse_pin._replace(workload="tiny", filename="dse_tiny.json")
        restrict_pins(TINY_PIN, tiny_dse_pin)
        goldens_dir = str(tmp_path / "goldens")
        write_pins(goldens_dir, pins=[TINY_PIN, tiny_dse_pin])
        spec = ManifestSpec(
            workloads=("tiny",), experiments=("goldens", "dse"), params={"dse": dse_pin.overrides}
        )
        out_dir = str(tmp_path / "run")
        assert Runner(RunManifest.from_spec(spec), out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        assert diff_merged_goldens(merged_dir, goldens_dir) == {"tiny": [], "dse:tiny": []}

        path = os.path.join(goldens_dir, "dse_tiny.json")
        with open(path) as handle:
            golden = json.load(handle)
        golden["budget_kib"] *= 2
        with open(path, "w") as handle:
            json.dump(golden, handle)
        problems = diff_merged_goldens(merged_dir, goldens_dir)["dse:tiny"]
        assert problems == ["dse_tiny.json:$.budget_kib: 140.0 != pinned 280.0"]

    def test_missing_pin_is_reported(self, tmp_path, restrict_pins):
        restrict_pins(TINY_PIN)
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        Runner(manifest, out_dir).run()
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        diff = diff_merged_goldens(merged_dir, str(tmp_path / "nowhere"))
        assert "no pinned golden file" in diff["tiny"][0]


class TestOrchestrationCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_run_resume_merge_roundtrip(self, tmp_path, capsys):
        s1 = str(tmp_path / "s1")
        s2 = str(tmp_path / "s2")
        merged = str(tmp_path / "merged")
        base = [
            "--workloads", "tiny", "--experiments", "fig13", "fig16",
            "--capacities", "8", "16",
        ]
        assert self.run_cli("run", "--out-dir", s1, "--shard", "1/2", *base) == 0
        assert self.run_cli("run", "--out-dir", s2, "--shard", "2/2", *base) == 0
        capsys.readouterr()

        assert self.run_cli("resume", "--out-dir", s1, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units_completed"] == 0
        assert report["units_skipped"] == report["units_total"]
        assert report["engine_stats"] == {}

        assert self.run_cli("merge", s1, s2, "--out-dir", merged, "--json") == 0
        merge_report = json.loads(capsys.readouterr().out)
        assert merge_report["ok"] is True
        assert merge_report["units_merged"] == 2  # fig13 + fig16 on tiny
        assert os.path.exists(os.path.join(merged, "manifest.json"))

    def test_reproduce_all_accepts_narrowed_spec(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert self.run_cli(
            "reproduce-all", "--out-dir", out_dir,
            "--workloads", "tiny", "--experiments", "fig16", "table4", "--json",
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units_total"] == 2
        assert report["units_failed"] == 0

    def test_merge_summary_file_gets_markdown(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        summary = str(tmp_path / "summary.md")
        assert self.run_cli(
            "run", "--out-dir", out_dir,
            "--workloads", "tiny", "--experiments", "fig16",
        ) == 0
        assert self.run_cli(
            "merge", out_dir, "--out-dir", str(tmp_path / "merged"),
            "--summary-file", summary,
        ) == 0
        capsys.readouterr()
        with open(summary) as handle:
            text = handle.read()
        assert "## Full-paper reproduction merge" in text
        assert "| units merged | 1 |" in text

    def test_resume_shard_override_is_per_invocation(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        base = ["--workloads", "tiny", "--experiments", "fig13", "fig16",
                "--capacities", "8", "16"]
        assert self.run_cli("run", "--out-dir", out_dir, "--shard", "1/2", *base) == 0
        # A one-off override runs the other shard but must not re-record
        # the out-dir: a later plain resume still targets shard 1/2.
        assert self.run_cli("resume", "--out-dir", out_dir, "--shard", "2/2") == 0
        capsys.readouterr()
        with open(os.path.join(out_dir, "run.json")) as handle:
            assert json.load(handle)["shard"] == [1, 2]
        assert self.run_cli("resume", "--out-dir", out_dir, "--json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shard"] == [1, 2]

    def test_resume_without_run_exits_2(self, tmp_path, capsys):
        assert self.run_cli("resume", "--out-dir", str(tmp_path / "empty")) == 2
        err = capsys.readouterr().err
        assert "nothing to resume" in err
        assert "Traceback" not in err

    def test_bad_shard_spec_exits_2(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--out-dir", str(tmp_path / "o"),
            "--workloads", "tiny", "--experiments", "fig16", "--shard", "9/2",
        ) == 2
        assert "shard" in capsys.readouterr().err

    def test_unknown_workload_exits_2(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--out-dir", str(tmp_path / "o"), "--workloads", "nope",
        ) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_flat_cli_experiment_aliases_are_accepted(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert self.run_cli(
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "fig15", "table3", "--json",
        ) == 0
        report = json.loads(capsys.readouterr().out)
        # Both aliases resolve (and deduplicate) to the one fig15_table3 unit.
        assert report["units_total"] == 1
        assert report["units_failed"] == 0

    def test_unknown_experiment_exits_2_without_quoting(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--out-dir", str(tmp_path / "o"), "--workloads", "tiny",
            "--experiments", "fig99",
        ) == 2
        err = capsys.readouterr().err
        assert "error: unknown experiment 'fig99'" in err
        assert 'error: "' not in err

    def test_list_experiments_needs_no_out_dir(self, capsys):
        assert self.run_cli("run", "--list-experiments") == 0
        out = capsys.readouterr().out.split()
        assert "fig13" in out and "goldens" in out

    def test_run_without_out_dir_exits_2(self, capsys):
        assert self.run_cli("run", "--workloads", "tiny") == 2
        assert "--out-dir is required" in capsys.readouterr().err

    def test_bad_workers_fails_fast_with_exit_2(self, tmp_path, capsys):
        out_dir = str(tmp_path / "o")
        assert self.run_cli(
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "fig13", "--workers", "-3",
        ) == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        # Fast fail: no per-unit failure artifacts were written.
        assert not os.path.exists(os.path.join(out_dir, "status"))


class TestManifestParamVariants:
    """A params value may be a list of override dicts: one unit per variant."""

    def test_variant_list_expands_to_one_unit_each(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("dse",),
                params={"dse": [{"slice": [1, 2]}, {"slice": [2, 2]}]},
            )
        )
        assert len(manifest) == 2
        slices = [unit.params["slice"] for unit in manifest.units]
        assert slices == [[1, 2], [2, 2]]

    def test_single_dict_stays_one_unit(self):
        listed = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig13",),
                params={"fig13": [{"capacities_kib": [8]}]},
            )
        )
        plain = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig13",),
                params={"fig13": {"capacities_kib": [8]}},
            )
        )
        assert [unit.unit_id for unit in listed.units] == [
            unit.unit_id for unit in plain.units
        ]

    def test_identical_variants_deduplicate(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("dse",),
                params={"dse": [{"slice": [1, 1]}, {"slice": [1, 1]}]},
            )
        )
        assert len(manifest) == 1

    def test_empty_variant_list_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RunManifest.from_spec(
                ManifestSpec(
                    workloads=("tiny",), experiments=("dse",), params={"dse": []}
                )
            )

    def test_variant_manifest_round_trips_through_json(self):
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("dse",),
                params={"dse": [{"slice": [1, 2]}, {"slice": [2, 2]}]},
            )
        )
        reloaded = RunManifest.from_json(manifest.to_json())
        assert reloaded.to_json() == manifest.to_json()


class TestMergeErrorPaths:
    def _two_shard_run(self, tmp_path):
        manifest = tiny_manifest()
        shard_dirs = []
        for index in (1, 2):
            shard_dir = str(tmp_path / f"shard-{index}")
            assert Runner(manifest, shard_dir).run(shard=(index, 2)).complete
            shard_dirs.append(shard_dir)
        return shard_dirs

    def test_corrupt_manifest_json_is_a_clean_error(self, tmp_path):
        shard_dirs = self._two_shard_run(tmp_path)
        with open(os.path.join(shard_dirs[0], "manifest.json"), "w") as handle:
            handle.write("{not json")
        with open(os.path.join(shard_dirs[1], "manifest.json"), "w") as handle:
            handle.write("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            merge_runs(shard_dirs, str(tmp_path / "merged"))

    def test_manifest_without_unit_list_is_a_clean_error(self, tmp_path):
        shard_dirs = self._two_shard_run(tmp_path)
        for shard_dir in shard_dirs:
            with open(os.path.join(shard_dir, "manifest.json"), "w") as handle:
                json.dump({"format": "repro-run-manifest-v1"}, handle)
        with pytest.raises(ValueError, match="no unit list"):
            merge_runs(shard_dirs, str(tmp_path / "merged"))

    def test_corrupt_shard_report_is_a_clean_error(self, tmp_path):
        shard_dirs = self._two_shard_run(tmp_path)
        reports = sorted(
            os.listdir(os.path.join(shard_dirs[0], "shards"))
        )
        with open(os.path.join(shard_dirs[0], "shards", reports[0]), "w") as handle:
            handle.write("][")
        with pytest.raises(ValueError, match="shard report .* is not valid JSON"):
            merge_runs(shard_dirs, str(tmp_path / "merged"))

    def test_malformed_engine_stats_are_a_clean_error(self, tmp_path):
        shard_dirs = self._two_shard_run(tmp_path)
        report_dir = os.path.join(shard_dirs[0], "shards")
        report_path = os.path.join(report_dir, sorted(os.listdir(report_dir))[0])
        with open(report_path) as handle:
            document = json.load(handle)
        document["engine_stats"] = {"auto": "not-a-dict"}
        with open(report_path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ValueError, match="malformed stats for backend 'auto'"):
            merge_runs(shard_dirs, str(tmp_path / "merged"))

    def test_stats_merge_tolerates_missing_counter_keys(self, tmp_path):
        """Older shard reports may lack newer counters; defaults fill in."""
        shard_dirs = self._two_shard_run(tmp_path)
        report_dir = os.path.join(shard_dirs[0], "shards")
        report_path = os.path.join(report_dir, sorted(os.listdir(report_dir))[0])
        with open(report_path) as handle:
            document = json.load(handle)
        document["engine_stats"] = {"python-old": {"hits": 7}}
        with open(report_path, "w") as handle:
            json.dump(document, handle)
        report = merge_runs(shard_dirs, str(tmp_path / "merged"))
        assert report.engine_stats["python-old"]["hits"] == 7
        assert report.engine_stats["python-old"]["misses"] == 0
        assert report.engine_stats["python-old"]["grid_evaluations"] == 0

    def test_corrupt_goldens_artifact_is_a_diff_problem_not_a_crash(self, tmp_path, restrict_pins):
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        unit = manifest.units[0]
        with open(unit_artifact_path(merged_dir, unit.unit_id), "w") as handle:
            handle.write("{broken")
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert any("is unreadable" in problem for problem in diff["tiny"])

    def test_artifact_without_payload_is_a_diff_problem(self, tmp_path, restrict_pins):
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        unit = manifest.units[0]
        with open(unit_artifact_path(merged_dir, unit.unit_id), "w") as handle:
            json.dump({"unit_id": unit.unit_id}, handle)
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert any("is unreadable" in problem for problem in diff["tiny"])

    def test_corrupt_pinned_golden_is_a_diff_problem(self, tmp_path, restrict_pins):
        goldens_dir = str(tmp_path / "goldens")
        restrict_pins(TINY_PIN)
        write_pins(goldens_dir, pins=[TINY_PIN])
        out_dir = str(tmp_path / "run")
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("goldens",))
        )
        assert Runner(manifest, out_dir).run().complete
        merged_dir = str(tmp_path / "merged")
        merge_runs([out_dir], merged_dir)
        with open(os.path.join(goldens_dir, "tiny.json"), "w") as handle:
            handle.write("{broken")
        diff = diff_merged_goldens(merged_dir, goldens_dir)
        assert any("not valid JSON" in problem for problem in diff["tiny"])


class TestShardCacheBounds:
    def test_runner_engines_are_lru_bounded_and_report_evictions(self, tmp_path):
        from repro.orchestration import runner as runner_module

        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig13",),
                params={"fig13": {"capacities_kib": [8, 16, 24]}},
            )
        )
        out_dir = str(tmp_path / "run")
        original = runner_module.SHARD_CACHE_MAX_ENTRIES
        runner_module.SHARD_CACHE_MAX_ENTRIES = 4
        try:
            report = Runner(manifest, out_dir).run()
        finally:
            runner_module.SHARD_CACHE_MAX_ENTRIES = original
        assert report.complete
        stats = report.engine_stats["auto"]
        assert stats["cache_entries"] <= 4
        assert stats["cache_evictions"] > 0
        # The persisted shard cache honours the bound too.
        from repro.engine import SearchCache

        cache_path = os.path.join(out_dir, "cache", shard_cache_filename("auto", 1, 1))
        assert os.path.exists(cache_path)
        assert 0 < len(SearchCache(path=cache_path)) <= 4

    def test_engine_stats_always_report_eviction_counts(self, tmp_path):
        manifest = tiny_manifest()
        out_dir = str(tmp_path / "run")
        report = Runner(manifest, out_dir).run()
        for stats in report.engine_stats.values():
            assert stats["cache_evictions"] == 0


class TestAttemptReportRace:
    """Regression: two report writers counting the same directory listing
    used to pick the same attempt number and silently overwrite each other
    (a resume racing a stalled original run lost the original's engine
    stats).  Allocation is now exclusive: the loser retries the next number.
    """

    def test_stale_listing_never_overwrites(self, tmp_path, monkeypatch):
        import glob as glob_module

        from repro.orchestration import runner as runner_module

        out_dir = str(tmp_path / "run")
        first = runner_module.write_attempt_report(out_dir, "shard-1of1-attempt", {"n": 1})
        # Freeze the directory listing both writers see to the pre-first
        # state: the second writer recomputes attempt=1 (the collision the
        # glob count used to turn into an overwrite) and must skip to 2.
        monkeypatch.setattr(glob_module, "glob", lambda pattern: [])
        second = runner_module.write_attempt_report(out_dir, "shard-1of1-attempt", {"n": 2})
        assert first != second
        with open(first) as handle:
            assert json.load(handle) == {"n": 1, "attempt": 1}
        with open(second) as handle:
            assert json.load(handle) == {"n": 2, "attempt": 2}

    def test_concurrent_writers_allocate_distinct_files(self, tmp_path):
        import threading

        from repro.orchestration.runner import write_attempt_report

        out_dir = str(tmp_path / "run")
        writers, reports_each = 4, 5
        barrier = threading.Barrier(writers)
        written = [[] for _ in range(writers)]

        def write(index):
            barrier.wait()
            for n in range(reports_each):
                written[index].append(
                    write_attempt_report(
                        out_dir, "shard-1of1-attempt", {"writer": index, "n": n}
                    )
                )

        threads = [
            threading.Thread(target=write, args=(index,)) for index in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        paths = [path for per_writer in written for path in per_writer]
        assert len(set(paths)) == writers * reports_each
        assert sorted(os.listdir(os.path.join(out_dir, "shards"))) == sorted(
            os.path.basename(path) for path in paths
        )
        for path in paths:  # every file is intact and self-consistent
            with open(path) as handle:
                document = json.load(handle)
            assert path.endswith(f"{document['attempt']:03d}.json")


class TestStaleArtifactMerge:
    """Regression: ``merge_runs`` trusted any ``units/*.json`` file.  A
    ``--force`` re-run whose latest attempt failed leaves the *previous*
    success's artifact next to a ``failed`` status; merging it silently
    resurrected the stale payload.  Merge now consults ``status/``.
    """

    def _fail_next_run(self, monkeypatch):
        from repro.orchestration import runner as runner_module

        def broken(name):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_module, "get_experiment", broken)

    def test_stale_artifact_is_reported_not_merged(self, tmp_path, monkeypatch):
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        out_dir = str(tmp_path / "run")
        ok = Runner(manifest, out_dir).run()
        assert ok.complete
        (unit_id,) = [unit.unit_id for unit in manifest.units]
        # Forced re-run with an injected failure: the old artifact file
        # survives on disk, but the status now says the attempt failed.
        self._fail_next_run(monkeypatch)
        forced = Runner(manifest, out_dir).run(resume=False)
        assert forced.units_failed == 1
        assert os.path.exists(unit_artifact_path(out_dir, unit_id))

        merged_dir = str(tmp_path / "merged")
        report = merge_runs([out_dir], merged_dir)
        assert not report.ok
        assert any(unit_id in entry for entry in report.stale)
        assert unit_id in report.missing  # no completed copy anywhere
        assert not os.path.exists(unit_artifact_path(merged_dir, unit_id))
        assert "1 stale" in report.describe()
        markdown = summary_markdown(report)
        assert "stale artifacts" in markdown
        assert unit_id in markdown

    def test_completed_copy_in_another_shard_still_merges(
        self, tmp_path, monkeypatch
    ):
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        good_dir = str(tmp_path / "good")
        bad_dir = str(tmp_path / "bad")
        assert Runner(manifest, good_dir).run().complete
        assert Runner(manifest, bad_dir).run().complete
        self._fail_next_run(monkeypatch)
        assert Runner(manifest, bad_dir).run(resume=False).units_failed == 1

        merged_dir = str(tmp_path / "merged")
        report = merge_runs([good_dir, bad_dir], merged_dir)
        # The stale copy is named, but the good shard completes the merge
        # -- and the stale file is never byte-compared against the good
        # one (a stale copy differing is expected, not a conflict).
        assert report.stale and not report.missing and not report.conflicts
        assert not report.ok
        (unit_id,) = [unit.unit_id for unit in manifest.units]
        assert os.path.exists(unit_artifact_path(merged_dir, unit_id))


class TestTruncatedArtifacts:
    """Regression: ``is_completed`` trusted any artifact *file*; a torn
    write surviving a crash (pre-fsync) was skipped on resume and archived
    by merge.  Unparseable artifacts now read as incomplete.
    """

    def test_truncated_artifact_is_recomputed_on_resume(self, tmp_path):
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16", "table4"))
        )
        broken_dir = str(tmp_path / "broken")
        clean_dir = str(tmp_path / "clean")
        assert Runner(manifest, broken_dir).run().complete
        assert Runner(manifest, clean_dir).run().complete

        victim = manifest.units[0].unit_id
        path = unit_artifact_path(broken_dir, victim)
        with open(path) as handle:
            torn = handle.read()[:17]  # mid-document: not valid JSON
        with open(path, "w") as handle:
            handle.write(torn)
        runner = Runner(manifest, broken_dir)
        assert not runner.is_completed(victim)

        resumed = runner.run()
        assert resumed.units_completed == 1  # exactly the torn unit
        assert resumed.units_skipped == len(manifest) - 1
        assert read_tree(broken_dir) == read_tree(clean_dir)

    def test_unparseable_status_reads_as_incomplete(self, tmp_path):
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=("tiny",), experiments=("fig16",))
        )
        out_dir = str(tmp_path / "run")
        assert Runner(manifest, out_dir).run().complete
        (unit_id,) = [unit.unit_id for unit in manifest.units]
        with open(unit_status_path(out_dir, unit_id), "w") as handle:
            handle.write("{not json")
        assert not Runner(manifest, out_dir).is_completed(unit_id)


class TestRecordedCacheStore:
    """Every search cache is SQLite; ``--cache-store`` selects nothing.

    Regression: ``fleet``'s ``set_defaults`` used to rewrite the shared
    ``--cache-store`` action, so ``run`` silently defaulted to SQLite while
    a static ``resume`` fell back to pickle and started cold next to the
    orphaned SQLite cache.  Trees written while a store could be chosen
    record it in ``run.json``; resume ignores the record.
    """

    RUN = [
        "run", "--workloads", "tiny",
        "--experiments", "fig13", "fig14", "--capacities", "66.5",
    ]

    def test_every_spec_command_defaults_to_sqlite(self):
        from repro.orchestration.cli import build_orchestration_parser

        parser = build_orchestration_parser()
        for command in ("run", "reproduce-all", "fleet"):
            assert parser.parse_args([command]).cache_store == "sqlite"
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--cache-store", "pickle"])
        with pytest.raises(SystemExit):
            parser.parse_args(["resume", "--out-dir", "x", "--cache-store", "sqlite"])

    def test_runner_rejects_the_removed_pickle_store(self, tmp_path):
        with pytest.raises(ValueError, match="pickle store was removed") as error:
            Runner(tiny_manifest(), str(tmp_path / "run"), cache_store="pickle")
        assert "\n" not in str(error.value)

    def test_static_resume_reuses_the_sqlite_cache(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main([*self.RUN, "--out-dir", out_dir, "--max-units", "1"]) == 0
        with open(os.path.join(out_dir, "run.json")) as handle:
            assert "cache_store" not in json.load(handle)
        capsys.readouterr()
        assert main(["resume", "--out-dir", out_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units_completed"] == 1
        # fig13 and fig14 share their 66.5 KB searches: the resumed unit
        # starts from the first unit's cache instead of a cold one.
        assert sum(stats["hits"] for stats in report["engine_stats"].values()) > 0
        assert os.listdir(os.path.join(out_dir, "cache")) == [shard_cache_filename("auto", 1, 1)]

    def test_resume_ignores_a_recorded_pickle_store(self, tmp_path, capsys):
        reference = str(tmp_path / "reference")
        assert main([*self.RUN, "--out-dir", reference]) == 0
        out_dir = str(tmp_path / "run")
        assert main([*self.RUN, "--out-dir", out_dir, "--max-units", "1"]) == 0
        path = os.path.join(out_dir, "run.json")
        with open(path) as handle:
            document = json.load(handle)
        document["cache_store"] = "pickle"
        with open(path, "w") as handle:
            json.dump(document, handle)
        capsys.readouterr()
        assert main(["resume", "--out-dir", out_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units_completed"] == 1 and report["units_failed"] == 0
        assert sum(stats["hits"] for stats in report["engine_stats"].values()) > 0
        assert read_tree(out_dir) == read_tree(reference)

    def test_resume_with_a_misspelled_param_key_exits_2(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main([
            "run", "--out-dir", out_dir, "--workloads", "tiny",
            "--experiments", "fig13", "--capacities", "16",
        ]) == 0
        path = os.path.join(out_dir, "run.json")
        with open(path) as handle:
            document = json.load(handle)
        document["spec"]["params"] = {"fig13": {"capacites_kib": [16]}}
        with open(path, "w") as handle:
            json.dump(document, handle)
        capsys.readouterr()
        assert main(["resume", "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "capacites_kib" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestRunMetadataValidation:
    """Regression: a hand-edited ``"shard": ["1", "4"]`` in ``run.json``
    passed the format check and exploded later as a TypeError traceback
    inside the manifest arithmetic; it must exit 2 with one clean line.
    """

    def _run_tiny(self, tmp_path):
        out_dir = str(tmp_path / "run")
        assert main([
            "run", "--out-dir", out_dir,
            "--workloads", "tiny", "--experiments", "fig16",
        ]) == 0
        return out_dir

    def _rewrite_shard(self, out_dir, shard):
        path = os.path.join(out_dir, "run.json")
        with open(path) as handle:
            document = json.load(handle)
        document["shard"] = shard
        with open(path, "w") as handle:
            json.dump(document, handle)

    @pytest.mark.parametrize(
        "shard, message",
        [
            (["1", "4"], "must be positive integers"),
            ([True, True], "must be positive integers"),
            ([0, 4], "invalid shard"),
            ([5, 4], "invalid shard"),
        ],
    )
    def test_bad_recorded_shard_exits_2(self, tmp_path, capsys, shard, message):
        out_dir = self._run_tiny(tmp_path)
        capsys.readouterr()
        self._rewrite_shard(out_dir, shard)
        assert main(["resume", "--out-dir", out_dir]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_valid_recorded_shard_still_resumes(self, tmp_path, capsys):
        out_dir = self._run_tiny(tmp_path)
        assert main(["resume", "--out-dir", out_dir]) == 0


class TestSetupPathImports:
    """Setting up ``reproduce-all`` must not import NumPy.

    The tile-exact model and the Eyeriss model pick their NumPy path at call
    time; a module-level NumPy import anywhere on this path would show up in
    every run's start-up time.  The steps are those a ``reproduce-all`` run
    takes before its first unit: build the parser, load the experiment
    registry, expand the default VGG-16 manifest and construct the
    ``Runner``.  A fresh interpreter keeps this suite's own imports out.
    """

    SCRIPT = textwrap.dedent(
        """
        import sys

        from repro.orchestration.cli import build_orchestration_parser
        from repro.orchestration.experiments import load_experiments, resolve_experiment_name
        from repro.orchestration.manifest import ManifestSpec, RunManifest
        from repro.orchestration.runner import Runner

        argv = ["reproduce-all", "--out-dir", sys.argv[1], "--workloads", "vgg16"]
        args = build_orchestration_parser().parse_args(argv)
        load_experiments()
        experiments = list(dict.fromkeys(resolve_experiment_name(name) for name in args.experiments))
        manifest = RunManifest.from_spec(
            ManifestSpec(workloads=args.workloads, experiments=experiments, backends=args.backends)
        )
        Runner(manifest, args.out_dir, workers=args.workers, cache_store=args.cache_store)
        print(len(manifest.units), "numpy" in sys.modules)
        """
    )

    def test_reproduce_all_setup_leaves_numpy_unloaded(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        units, numpy_loaded = completed.stdout.split()
        assert int(units) == len(PAPER_EXPERIMENTS)
        assert numpy_loaded == "False"
