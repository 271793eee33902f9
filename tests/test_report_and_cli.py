"""Tests for the text report helpers and the CLI."""

import json

import pytest

from repro.analysis.goldens import Pin
from repro.analysis.report import (
    format_dict_rows,
    format_energy_report,
    format_gbuf_dram_ratio,
    format_memory_sweep,
    format_table,
)
from repro.cli import build_engine, build_parser, main


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(["name", "value"], [["a", 1.23456], ["long-name", 2.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "1.235" in text
        assert lines[0].startswith("name")

    def test_format_dict_rows_defaults_to_keys(self):
        text = format_dict_rows([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5}])
        assert "a" in text and "b" in text and "4.500" in text

    def test_format_dict_rows_empty(self):
        assert format_dict_rows([]) == "(no data)"

    def test_format_memory_sweep(self):
        sweep = {"capacities_kib": [16, 32], "series": {"Ours": [1.0, 0.5], "Lower bound": [0.9, 0.4]}}
        text = format_memory_sweep(sweep)
        assert "16KB" in text and "Ours" in text

    def test_format_energy_report(self):
        report = {
            "lower_bounds": [{"capacity_words": 1024, "pj_per_mac": 5.0, "components_pj_per_mac": {}}],
            "implementations": [
                {
                    "implementation": "implementation-1",
                    "pj_per_mac": 8.0,
                    "gap": 0.6,
                    "components_pj_per_mac": {"DRAM": 2.0, "MAC units": 4.0},
                    "lower_bound_pj_per_mac": 5.0,
                    "on_chip_pj_per_mac": 6.0,
                    "eyeriss_on_chip_ratio": 3.0,
                }
            ],
        }
        text = format_energy_report(report)
        assert "implementation-1" in text and "60%" in text

    def test_format_gbuf_dram_ratio(self):
        ratio = {
            "implementation": "implementation-1",
            "inputs": {"dram_read_mb": 10, "gbuf_read_mb": 16, "gbuf_write_mb": 11,
                       "read_ratio": 1.6, "write_ratio": 1.1},
            "weights": {"dram_read_mb": 5, "gbuf_read_mb": 5, "gbuf_write_mb": 5,
                        "read_ratio": 1.0, "write_ratio": 1.0},
            "outputs": {"dram_write_mb": 3, "gbuf_read_mb": 0, "gbuf_write_mb": 0},
            "overall": {"gbuf_read_over_dram_read": 1.4, "gbuf_write_over_dram_read": 1.07},
        }
        text = format_gbuf_dram_ratio(ratio)
        assert "1.60x" in text and "implementation-1" in text


class TestCli:
    def test_parser_accepts_known_experiments(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_parser_rejects_unknown_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "implementation-1" in out
        assert "66.5" in out

    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "427.9" in out
        assert "mac" in out


class TestCliEngineFlags:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig13"])
        assert args.workers == 1
        assert args.no_cache is False
        assert args.cache_file is None

    def test_parser_accepts_engine_flags(self):
        args = build_parser().parse_args(
            ["fig13", "--workers", "4", "--no-cache", "--stats"]
        )
        assert args.workers == 4
        assert args.no_cache is True
        assert args.stats is True

    def test_build_engine_workers_and_cache(self):
        args = build_parser().parse_args(["fig13", "--workers", "3"])
        engine = build_engine(args)
        assert engine.workers == 3
        assert engine.cache is not None

    def test_build_engine_no_cache(self):
        args = build_parser().parse_args(["fig13", "--no-cache"])
        assert build_engine(args).cache is None

    def test_build_engine_rejects_conflicting_flags(self, tmp_path):
        args = build_parser().parse_args(
            ["fig13", "--no-cache", "--cache-file", str(tmp_path / "c.sqlite")]
        )
        with pytest.raises(SystemExit):
            build_engine(args)

    def test_main_with_engine_flags(self, capsys):
        assert main(["table1", "--workers", "2", "--no-cache", "--stats"]) == 0
        captured = capsys.readouterr()
        assert "implementation-1" in captured.out
        assert "engine:" in captured.err

    def test_main_saves_cache_file(self, tmp_path, capsys):
        path = tmp_path / "cache.sqlite"
        assert main(["table1", "--cache-file", str(path)]) == 0
        assert path.exists()

    def test_main_restores_default_engine(self):
        from repro.engine import get_default_engine

        before = get_default_engine()
        assert main(["table1", "--no-cache"]) == 0
        assert get_default_engine() is before


class TestCliBackendFlag:
    def test_parser_defaults_to_auto(self):
        assert build_parser().parse_args(["fig13"]).backend == "auto"

    def test_parser_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig13", "--backend", "fortran"])

    def test_build_engine_resolves_backend(self):
        args = build_parser().parse_args(["fig13", "--backend", "python"])
        assert build_engine(args).backend == "python"
        auto = build_parser().parse_args(["fig13"])
        assert build_engine(auto).backend in ("numpy", "python")

    def test_fig13_output_identical_across_backends(self, capsys):
        assert main(["fig13", "--workload", "tiny", "--capacities", "16",
                     "--backend", "python"]) == 0
        scalar_out = capsys.readouterr().out
        pytest.importorskip("numpy")
        assert main(["fig13", "--workload", "tiny", "--capacities", "16",
                     "--backend", "numpy"]) == 0
        assert capsys.readouterr().out == scalar_out

    def test_stats_mention_grid_evaluations(self, capsys):
        pytest.importorskip("numpy")
        assert main(["fig13", "--workload", "tiny", "--capacities", "16", "32",
                     "--backend", "numpy", "--stats"]) == 0
        assert "grid evaluations" in capsys.readouterr().err


class TestCliWorkloadFlag:
    def test_workloads_subcommand_lists_registry(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("vgg16", "alexnet", "resnet18", "mobilenet_v1", "googlenet", "bert_base"):
            assert name in out

    def test_fig13_accepts_workload_and_batch_spec(self, capsys):
        assert main(["fig13", "--workload", "tiny:2", "--capacities", "8"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 13" in out and "Found minimum" in out

    def test_fig14_accepts_workload_and_capacity(self, capsys):
        assert main(["fig14", "--workload", "tiny", "--capacity", "4"]) == 0
        out = capsys.readouterr().out
        assert "tiny_3x3" in out and "4.0 KB" in out

    @pytest.mark.parametrize("experiment", ["fig16", "table4", "fig17", "fig19", "fig20"])
    def test_model_experiments_accept_workload(self, experiment, capsys):
        assert main([experiment, "--workload", "tiny"]) == 0
        assert capsys.readouterr().out.strip()


class TestCliErrorPaths:
    """Operator mistakes exit non-zero with one clear line, never a traceback."""

    def test_unknown_workload_name(self, capsys):
        assert main(["fig13", "--workload", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'nope'" in err
        assert "Traceback" not in err

    def test_malformed_workload_batch(self, capsys):
        assert main(["fig13", "--workload", "vgg16:three"]) == 2
        err = capsys.readouterr().err
        assert "batch must be an integer" in err

    def test_infeasible_capacity(self, capsys):
        assert main(["fig14", "--workload", "tiny", "--capacity", "0.001"]) == 2
        err = capsys.readouterr().err
        assert "no tiling" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig13", "--workload", "tiny", "--capacities", "inf"],
            ["fig13", "--workload", "tiny", "--capacities", "nan"],
            ["dse", "--workload", "tiny", "--budget", "inf"],
            ["dse", "--workload", "tiny", "--budget", "nan"],
        ],
    )
    def test_non_finite_capacity(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite" in err
        assert "Traceback" not in err

    def test_negative_workers(self, capsys):
        assert main(["table1", "--workers", "-1"]) == 2
        err = capsys.readouterr().err
        assert "workers must be >= 1" in err
        assert "Traceback" not in err


TINY_PIN = Pin("goldens", "tiny", {}, "tiny.json")


class TestCliGoldens:
    def test_goldens_write_then_check(self, tmp_path, capsys, restrict_pins):
        restrict_pins(TINY_PIN)
        directory = str(tmp_path / "goldens")
        assert main(["goldens", "--write", "--goldens-dir", directory]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["goldens", "--goldens-dir", directory]) == 0
        assert "goldens[tiny]: ok" in capsys.readouterr().out

    def test_goldens_check_fails_on_missing_dir(self, tmp_path, capsys, restrict_pins):
        restrict_pins(TINY_PIN)
        assert main(["goldens", "--goldens-dir", str(tmp_path / "empty")]) == 1
        captured = capsys.readouterr()
        assert "missing" in captured.out
        assert "repro-experiments goldens --write" in captured.out
        assert "goldens --write" in captured.err

    def test_goldens_check_names_a_doubled_file(self, tmp_path, capsys, restrict_pins):
        restrict_pins(TINY_PIN, Pin("timing", "tiny", {}, "timing_tiny.json"))
        directory = tmp_path / "goldens"
        assert main(["goldens", "--write", "--goldens-dir", str(directory)]) == 0
        path = directory / "timing_tiny.json"
        golden = json.loads(path.read_text())
        golden["rows"][0]["total_cycles"] *= 2
        path.write_text(json.dumps(golden))
        capsys.readouterr()
        assert main(["goldens", "--goldens-dir", str(directory)]) == 1
        out = capsys.readouterr().out
        assert "goldens[tiny]: ok" in out
        assert "goldens[timing:tiny]: 1 mismatches" in out
        assert "timing_tiny.json:$.rows[0].total_cycles" in out

    @pytest.mark.parametrize("experiment", ["timing", "traffic", "fig13"])
    def test_write_needs_the_goldens_subcommand(self, experiment, capsys):
        assert main([experiment, "--write"]) == 2
        err = capsys.readouterr().err
        assert "use it with 'goldens'" in err
        assert "Traceback" not in err


class TestCliTiming:
    def test_timing_subcommand_renders_sweep(self, capsys):
        assert main(["timing", "--workload", "tiny", "--bandwidths", "3.2", "6.4"]) == 0
        out = capsys.readouterr().out
        assert "bandwidth-limited utilization sweep" in out
        assert "implementation-5" in out
        assert "steady_breakeven_gbps" in out

    def test_timing_rejects_nonpositive_bandwidths(self, capsys):
        assert main(["timing", "--workload", "tiny", "--bandwidths", "0"]) == 2
        assert "bandwidths must be positive" in capsys.readouterr().err
