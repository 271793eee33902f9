"""Experiment flags and override keys, declared once on the registry.

Each experiment declares the flags that set its params (``Param``) on its
registry entry.  Both CLIs derive their experiment flags and their
flag -> params mapping from those declarations, and the run manifest
rejects override keys that no declaration or default names.  The argv
table pins the ``ManifestSpec.params`` each orchestration command line
expanded to before the declarations existed: unit ids hash these params,
so a row may never move.
"""

from __future__ import annotations

import pytest

from repro.cli import main as flat_main
from repro.orchestration.cli import _build_spec, build_orchestration_parser
from repro.orchestration.cli import main as orchestration_main
from repro.orchestration.experiments import (
    experiment_names,
    get_experiment,
    resolve_experiment_name,
)
from repro.orchestration.manifest import ManifestSpec, RunManifest

#: Every declared experiment flag, one Param per flag.
FLAGS = sorted(
    {param.flag: param for name in experiment_names() for param in get_experiment(name).params}.values(),
    key=lambda param: param.flag,
)

#: Orchestration argv (after ``run --out-dir D --workloads tiny``) and the
#: ManifestSpec.params it expands to.  Every row but the last was recorded
#: from the flag mapping that predates the declarations; the last
#: (--traffic-mix, once a flat-CLI-only flag) expects what the flat CLI
#: built for that flag.
ARGV_TABLE = [
    (["--experiments", "fig13", "--capacities", "16", "66.5"], {"fig13": {"capacities_kib": [16.0, 66.5]}}),
    (["--experiments", "fig14", "--capacity", "32"], {"fig14": {"capacity_kib": 32.0}}),
    (["--experiments", "timing", "--bandwidths", "3.2", "6.4"], {"timing": {"bandwidths_gbps": [3.2, 6.4]}}),
    (["--experiments", "dse", "--budget", "24"], {"dse": {"budget_kib": 24.0}}),
    (["--experiments", "dse", "--objectives", "dram", "energy"], {"dse": {"objectives": ["dram", "energy"]}}),
    (["--experiments", "dse", "--explorer", "halving"], {"dse": {"explorer": "halving"}}),
    (
        ["--experiments", "dse", "--explorer", "evolution", "--seed", "3"],
        {"dse": {"explorer": "evolution", "seed": 3}},
    ),
    (["--experiments", "traffic", "--seed", "3"], {"traffic": {"seed": 3}}),
    (["--experiments", "traffic", "--requests", "8"], {"traffic": {"requests": 8}}),
    (["--experiments", "dse", "--dse-slices", "2"], {"dse": [{"slice": [1, 2]}, {"slice": [2, 2]}]}),
    (
        ["--experiments", "dse", "--budget", "24", "--objectives", "dram", "time", "--dse-slices", "2"],
        {
            "dse": [
                {"budget_kib": 24.0, "objectives": ["dram", "time"], "slice": [1, 2]},
                {"budget_kib": 24.0, "objectives": ["dram", "time"], "slice": [2, 2]},
            ]
        },
    ),
    (
        ["--experiments", "dse", "traffic", "--explorer", "exhaustive", "--seed", "3"],
        {"traffic": {"seed": 3}, "dse": {"explorer": "exhaustive"}},
    ),
    (
        ["--experiments", "traffic", "dse", "--explorer", "halving", "--seed", "3"],
        {"traffic": {"seed": 3}, "dse": {"explorer": "halving", "seed": 3}},
    ),
    (
        ["--experiments", "dse", "--explorer", "local", "--seed", "3", "--dse-slices", "2"],
        {
            "dse": [
                {"explorer": "local", "seed": 3, "slice": [1, 2]},
                {"explorer": "local", "seed": 3, "slice": [2, 2]},
            ]
        },
    ),
    (
        ["--experiments", "fig13", "fig14", "timing", "--capacities", "16", "--capacity", "8", "--bandwidths", "6.4"],
        {"fig13": {"capacities_kib": [16.0]}, "fig14": {"capacity_kib": 8.0}, "timing": {"bandwidths_gbps": [6.4]}},
    ),
    (["--seed", "5", "--requests", "4"], {"traffic": {"seed": 5, "requests": 4}}),
    (["--experiments", "fig15", "table3", "fig13", "--capacities", "66.5"], {"fig13": {"capacities_kib": [66.5]}}),
    ([], {}),
    (
        ["--experiments", "dse", "--traffic-mix", "llama_decode:32", "--seed", "1"],
        {"dse": {"mix": {"model": "llama_decode:32", "seed": 1}}},
    ),
]

#: Orchestration argv that exited 2 before the declarations, and still must.
EXIT_2_TABLE = [
    (["--experiments", "fig16", "--bandwidths", "3.2"], "add 'timing' to --experiments"),
    (["--experiments", "dse", "--seed", "3"], "--seed configures the 'traffic' experiment"),
    (["--experiments", "dse", "--explorer", "exhaustive", "--seed", "3"], "--seed configures"),
    (["--experiments", "dse", "--requests", "3"], "add 'traffic' to --experiments"),
    (["--experiments", "fig16", "--explorer", "halving"], "add 'dse' to --experiments"),
    (["--experiments", "fig16", "--dse-slices", "2"], "add 'dse' to --experiments"),
    (["--experiments", "fig16", "--budget", "24"], "add 'dse' to --experiments"),
    (["--experiments", "fig16", "--objectives", "dram"], "add 'dse' to --experiments"),
    (["--experiments", "fig16", "--seed", "1"], "--seed configures"),
    (["--experiments", "fig16", "--requests", "1"], "add 'traffic' to --experiments"),
    (["--experiments", "dse", "--dse-slices", "0"], "--dse-slices must be >= 1, got 0"),
]

RUN_PREFIX = ["run", "--out-dir", "unused", "--workloads", "tiny"]

#: Rows that run exactly one experiment, which the flat CLI can run too.
SINGLE_EXPERIMENT_ROWS = [
    (argv, params) for argv, params in ARGV_TABLE if argv[:1] == ["--experiments"] and argv[2].startswith("--")
]


def row_ids(rows) -> list:
    return [" ".join(argv) or "defaults" for argv, _ in rows]


def spec_params(argv: list) -> dict:
    return _build_spec(build_orchestration_parser().parse_args(RUN_PREFIX + argv)).params


def sample_value(param) -> str:
    return param.choices[0] if param.choices else "1"


class TestFlagDeclarations:
    def test_the_ten_experiment_flags_are_declared(self):
        assert {param.flag for param in FLAGS} == {
            "--capacities", "--capacity", "--budget", "--objectives", "--bandwidths",
            "--explorer", "--seed", "--requests", "--traffic-mix", "--dse-slices",
        }

    @pytest.mark.parametrize("param", FLAGS, ids=lambda param: param.flag)
    def test_flag_parses_on_both_clis(self, param):
        from repro.cli import build_parser

        argv = [param.flag, sample_value(param)]
        flat = build_parser().parse_args(["table1", *argv])
        orchestration = build_orchestration_parser().parse_args(RUN_PREFIX + argv)
        assert getattr(flat, param.dest) == getattr(orchestration, param.dest) is not None

    @pytest.mark.parametrize("param", FLAGS, ids=lambda param: param.flag)
    def test_flag_without_its_experiment_exits_2_alike_on_both_clis(self, param, capsys):
        argv = [param.flag, sample_value(param)]
        assert flat_main(["table1", *argv]) == 2
        flat_err = capsys.readouterr().err
        assert orchestration_main(RUN_PREFIX + ["--experiments", "table1", *argv]) == 2
        assert capsys.readouterr().err == flat_err
        assert flat_err.startswith(f"error: {param.flag} configures the ")
        assert "which is not in this run" in flat_err
        assert flat_err.count("\n") == 1


class TestArgvTable:
    @pytest.mark.parametrize("argv, params", ARGV_TABLE, ids=row_ids(ARGV_TABLE))
    def test_orchestration_params_are_pinned(self, argv, params):
        assert spec_params(argv) == params

    @pytest.mark.parametrize("argv, fragment", EXIT_2_TABLE, ids=row_ids(EXIT_2_TABLE))
    def test_orchestration_mistakes_exit_2(self, argv, fragment, capsys):
        assert orchestration_main(RUN_PREFIX + argv) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, params", SINGLE_EXPERIMENT_ROWS, ids=row_ids(SINGLE_EXPERIMENT_ROWS))
    def test_flat_cli_builds_the_same_params(self, argv, params, monkeypatch, capsys):
        name = resolve_experiment_name(argv[1])
        experiment = get_experiment(name)
        built = []
        monkeypatch.setattr(experiment, "build", lambda context: built.append(context.params) or {})
        monkeypatch.setattr(experiment, "render", lambda payload, params: "")
        assert flat_main([argv[1], "--workload", "tiny", *argv[2:]]) == 0
        overrides = params.get(name, {})
        variants = overrides if isinstance(overrides, list) else [overrides]
        assert built == [dict(experiment.default_params, **variant) for variant in variants]


class TestOverrideKeys:
    def test_misspelled_key_is_rejected_at_expansion(self):
        spec = ManifestSpec(
            workloads=("tiny",), experiments=("fig13",), params={"fig13": {"capacites_kib": [16]}}
        )
        with pytest.raises(ValueError, match=r"fig13.*unknown keys \['capacites_kib'\]"):
            RunManifest.from_spec(spec)

    def test_declared_params_outside_the_defaults_are_accepted(self):
        # dse's explorer and seed are declared Params with no default entry.
        spec = ManifestSpec(
            workloads=("tiny",), experiments=("dse",), params={"dse": {"explorer": "halving", "seed": 3}}
        )
        (unit,) = RunManifest.from_spec(spec).units
        assert unit.params["explorer"] == "halving" and unit.params["seed"] == 3

    def test_undeclared_flag_key_is_rejected_in_every_variant(self):
        spec = ManifestSpec(
            workloads=("tiny",),
            experiments=("dse",),
            params={"dse": [{"slice": [1, 2]}, {"slice": [2, 2], "requests": 3}]},
        )
        with pytest.raises(ValueError, match=r"unknown keys \['requests'\]"):
            RunManifest.from_spec(spec)
