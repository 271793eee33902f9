"""CLI for orchestrated reproductions: run / resume / merge / frontier.

These subcommands are dispatched from the main ``repro-experiments`` entry
point (:mod:`repro.cli`)::

    repro-experiments reproduce-all --out-dir out/full --shard 1/4
    repro-experiments run --out-dir out/tiny --workloads tiny \\
        --experiments fig13 fig16 --capacities 16 66.5
    repro-experiments fleet --out-dir out/fleet --fleet-workers 4
    repro-experiments resume --out-dir out/full          # zero recomputation
    repro-experiments merge out/shard-* --out-dir out/merged \\
        --diff-goldens tests/goldens --summary-file "$GITHUB_STEP_SUMMARY"
    repro-experiments frontier out/merged                # merged DSE frontier

``run``/``reproduce-all`` execute one shard of the manifest expanded from
the given spec; ``fleet`` runs the *whole* manifest with N local worker
processes draining one shared work queue (a dead or straggling worker's
units are stolen after its lease expires); ``resume`` re-executes the run
recorded in the out-dir's ``run.json`` -- static shard or fleet alike --
skipping every completed unit; ``merge`` unions shard trees,
verifies bit-identity and completeness, optionally diffs the golden units
against the pinned regression files, and can append a markdown summary for
CI job pages; ``frontier`` merges the ``dse`` units' Pareto frontiers into
whole-sweep frontiers (``--dse-slices N`` on ``run`` splits a sweep's
config space into N independently schedulable units).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine import BACKENDS, resolve_backend, resolve_workers
from repro.orchestration.experiments import (
    PAPER_EXPERIMENTS,
    add_experiment_flags,
    experiment_names,
    flag_overrides,
    get_experiment,
    resolve_experiment_name,
)
from repro.orchestration.manifest import (
    DEFAULT_WORKLOADS,
    ManifestSpec,
    RunManifest,
    parse_shard,
)
from repro.orchestration.merge import (
    diff_merged_goldens,
    merge_runs,
    summary_markdown,
)
from repro.orchestration.fleet import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_POLL_SECONDS,
    FleetConfig,
    load_fleet_config,
    read_fleet_mode,
    run_fleet,
)
from repro.orchestration.runner import Runner, load_run_metadata
from repro.orchestration.scheduler import POLICIES
from repro.workloads.registry import UnknownWorkloadError


def build_orchestration_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Sharded, resumable full-paper reproductions.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    spec_parent = argparse.ArgumentParser(add_help=False)
    spec_parent.add_argument(
        "--out-dir",
        default=None,
        help="artifact tree for this shard (manifest.json, units/, status/, "
        "cache/); required unless --list-experiments",
    )
    spec_parent.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        metavar="NAME[:batch]",
        help=f"workload specs to reproduce (default: {' '.join(DEFAULT_WORKLOADS)})",
    )
    spec_parent.add_argument(
        "--experiments",
        nargs="+",
        default=list(PAPER_EXPERIMENTS),
        metavar="NAME",
        help="experiments to include (default: the whole paper; see "
        "'repro-experiments run --list-experiments')",
    )
    spec_parent.add_argument(
        "--backends",
        nargs="+",
        choices=BACKENDS,
        default=["auto"],
        help="search backends to cross search-based experiments over "
        "(default: auto; pass 'numpy python' to archive both, bit-identical)",
    )
    add_experiment_flags(spec_parent)
    spec_parent.add_argument(
        "--shard",
        default="1/1",
        metavar="K/N",
        help="execute the K-th of N contiguous-hash shards (default 1/1)",
    )
    spec_parent.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the tiling searches (0 = all cores)",
    )
    spec_parent.add_argument(
        "--max-units",
        type=int,
        default=None,
        help="stop after computing this many fresh units (timeboxing; "
        "'resume' continues from there)",
    )
    spec_parent.add_argument(
        "--cache-store",
        choices=["sqlite"],
        default="sqlite",
        help="search-cache store; sqlite is the only one (the pickle store "
        "was removed) and the flag remains for existing invocations",
    )
    spec_parent.add_argument(
        "--force",
        action="store_true",
        help="recompute units even when a completed artifact already exists",
    )
    spec_parent.add_argument(
        "--list-experiments",
        action="store_true",
        help="list registered experiment names and exit",
    )
    spec_parent.add_argument(
        "--json",
        action="store_true",
        help="print the run report as JSON on stdout",
    )

    commands.add_parser(
        "run",
        parents=[spec_parent],
        help="execute one shard of the manifest expanded from the spec flags",
    )
    commands.add_parser(
        "reproduce-all",
        parents=[spec_parent],
        help="run with the full-paper defaults (all figures/tables x the "
        "golden workloads)",
    )

    fleet = commands.add_parser(
        "fleet",
        parents=[spec_parent],
        help="run the whole manifest with N worker processes sharing one "
        "work queue (lease-based work stealing beats static shards on "
        "stragglers and crashes)",
    )
    fleet.add_argument(
        "--fleet-workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes draining the queue (default 2); distinct "
        "from --workers, the search parallelism *inside* each worker",
    )
    fleet.add_argument(
        "--lease-seconds",
        type=float,
        default=DEFAULT_LEASE_SECONDS,
        help="claim lease duration; a worker silent this long loses its "
        f"unit to a live peer (default {DEFAULT_LEASE_SECONDS:g})",
    )
    fleet.add_argument(
        "--poll-seconds",
        type=float,
        default=DEFAULT_POLL_SECONDS,
        help="idle worker's queue re-poll interval "
        f"(default {DEFAULT_POLL_SECONDS:g})",
    )
    fleet.add_argument(
        "--policy",
        choices=list(POLICIES),
        default="fifo",
        help="claim order: manifest hash order (fifo), --priority ranks "
        "(priority), or earliest --due deadline first (edd)",
    )
    fleet.add_argument(
        "--priority",
        action="append",
        default=None,
        metavar="EXPERIMENT=P",
        help="priority rank for one experiment's units (higher runs "
        "sooner under --policy priority; repeatable; default 0)",
    )
    fleet.add_argument(
        "--due",
        action="append",
        default=None,
        metavar="EXPERIMENT=SECONDS",
        help="deadline for one experiment's units, seconds from fleet "
        "start (orders claims under --policy edd; repeatable)",
    )
    fleet.add_argument(
        "--unit-budget",
        type=int,
        default=None,
        metavar="N",
        help="execute at most N units this invocation, deferring the "
        "lowest-ranked rest (a later resume picks them up)",
    )
    fleet.add_argument(
        "--chaos-kill",
        action="append",
        default=None,
        metavar="W:K",
        help="fault injection for tests/CI: worker W SIGKILLs itself "
        "when claiming its next unit after K completions (repeatable)",
    )

    resume = commands.add_parser(
        "resume",
        help="re-execute the run recorded in --out-dir (static shard or "
        "fleet), skipping every completed unit (zero recomputation)",
    )
    resume.add_argument("--out-dir", required=True)
    resume.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="override the recorded shard (static runs only; default: the "
        "one in run.json)",
    )
    resume.add_argument("--workers", type=int, default=None)
    resume.add_argument("--max-units", type=int, default=None)
    resume.add_argument(
        "--fleet-workers",
        type=int,
        default=None,
        metavar="N",
        help="fleet runs only: override the recorded worker-process count",
    )
    resume.add_argument(
        "--unit-budget",
        type=int,
        default=None,
        metavar="N",
        help="fleet runs only: override the recorded per-invocation unit "
        "budget",
    )
    resume.add_argument(
        "--no-unit-budget",
        action="store_true",
        help="fleet runs only: drop the recorded budget and run every "
        "deferred unit",
    )
    resume.add_argument("--json", action="store_true")

    merge = commands.add_parser(
        "merge",
        help="union shard artifact trees, verify bit-identity and "
        "completeness, optionally diff the golden units",
    )
    merge.add_argument("shard_dirs", nargs="+", help="shard out-dirs to merge")
    merge.add_argument("--out-dir", required=True, help="merged artifact tree")
    merge.add_argument(
        "--diff-goldens",
        default=None,
        metavar="DIR",
        help="diff merged 'goldens' units against the pinned files in DIR",
    )
    merge.add_argument(
        "--summary-file",
        default=None,
        help="append a markdown summary (e.g. \"$GITHUB_STEP_SUMMARY\")",
    )
    merge.add_argument("--json", action="store_true")

    frontier = commands.add_parser(
        "frontier",
        help="merge the 'dse' unit artifacts of run/merged trees into "
        "whole-sweep Pareto frontiers (associative across slices)",
    )
    frontier.add_argument("run_dirs", nargs="+", help="run or merged artifact trees")
    frontier.add_argument(
        "--workload",
        default=None,
        metavar="NAME[:batch]",
        help="restrict to one workload spec (default: every workload found)",
    )
    frontier.add_argument("--json", action="store_true")
    return parser


def _build_spec(args) -> ManifestSpec:
    # Resolve every workload spec, the worker count and each backend up
    # front so a typo fails fast with one clear exit-2 message instead of
    # surfacing as N per-unit failures mid-run (the engine re-validates at
    # construction, but by then every unit would record the same error).
    from repro.workloads.registry import get_workload_spec

    for workload in args.workloads:
        get_workload_spec(workload)
    resolve_workers(args.workers)
    for backend in args.backends:
        resolve_backend(backend)
    # Accept the flat CLI's fig15/table3 aliases here too (dedup keeps the
    # pair a single unit when both are named).
    experiments = list(dict.fromkeys(resolve_experiment_name(name) for name in args.experiments))
    return ManifestSpec(
        workloads=tuple(args.workloads),
        experiments=tuple(experiments),
        backends=tuple(args.backends),
        params=flag_overrides(vars(args), experiments),
    )


def _emit_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.as_dict(), sort_keys=True, indent=2))
    else:
        print(report.describe())


def _cmd_run(args) -> int:
    if args.list_experiments:
        for name in experiment_names():
            print(name)
        return 0
    if not args.out_dir:
        raise ValueError("--out-dir is required (or pass --list-experiments)")
    manifest = RunManifest.from_spec(_build_spec(args))
    runner = Runner(manifest, args.out_dir, workers=args.workers)
    report = runner.run(
        shard=parse_shard(args.shard),
        resume=not args.force,
        max_units=args.max_units,
    )
    _emit_report(report, args.json)
    return 0 if report.ok else 1


def _parse_experiment_values(pairs, flag: str, value_type) -> dict:
    """``EXPERIMENT=VALUE`` pairs -> {resolved experiment name: value}."""
    values = {}
    for pair in pairs or []:
        name, separator, raw = pair.partition("=")
        if not separator or not name or not raw:
            raise ValueError(f"{flag} takes EXPERIMENT=VALUE, got {pair!r}")
        try:
            value = value_type(raw)
        except ValueError:
            raise ValueError(
                f"{flag} value for {name!r} must be a number, got {raw!r}"
            ) from None
        resolved = resolve_experiment_name(name)
        get_experiment(resolved)  # unknown names are an operator mistake
        values[resolved] = value
    return values


def _parse_chaos_kills(pairs) -> dict:
    """``W:K`` pairs -> {worker index: completions before the self-kill}."""
    kills = {}
    for pair in pairs or []:
        worker, separator, count = pair.partition(":")
        try:
            if not separator:
                raise ValueError(pair)
            kills[int(worker)] = int(count)
        except ValueError:
            raise ValueError(
                f"--chaos-kill takes WORKER:COMPLETIONS (two integers), "
                f"got {pair!r}"
            ) from None
    return kills


def _cmd_fleet(args) -> int:
    if args.list_experiments:
        for name in experiment_names():
            print(name)
        return 0
    if not args.out_dir:
        raise ValueError("--out-dir is required (or pass --list-experiments)")
    if args.shard != "1/1":
        raise ValueError(
            "'fleet' always runs the whole manifest -- the workers "
            "partition it dynamically; drop --shard"
        )
    if args.max_units is not None:
        raise ValueError(
            "'fleet' timeboxes with --unit-budget (deterministic deferral), "
            "not --max-units"
        )
    manifest = RunManifest.from_spec(_build_spec(args))
    config = FleetConfig(
        workers=args.fleet_workers,
        lease_seconds=args.lease_seconds,
        poll_seconds=args.poll_seconds,
        policy=args.policy,
        unit_budget=args.unit_budget,
        priorities=_parse_experiment_values(args.priority, "--priority", int),
        deadlines=_parse_experiment_values(args.due, "--due", float),
        search_workers=args.workers,
    )
    report = run_fleet(
        manifest,
        args.out_dir,
        config,
        chaos_kills=_parse_chaos_kills(args.chaos_kill),
        resume=not args.force,
    )
    _emit_report(report, args.json)
    return 0 if report.complete else 1


def _resume_fleet(args, metadata, manifest) -> int:
    if args.shard:
        raise ValueError(
            f"{args.out_dir} was produced by 'fleet'; it has no static "
            "shard to override (drop --shard)"
        )
    if args.max_units is not None:
        raise ValueError(
            "fleet runs timebox with --unit-budget, not --max-units"
        )
    config = load_fleet_config(metadata)
    overrides = {}
    if args.fleet_workers is not None:
        overrides["workers"] = args.fleet_workers
    if args.workers is not None:
        overrides["search_workers"] = args.workers
    if args.no_unit_budget:
        overrides["unit_budget"] = None
    elif args.unit_budget is not None:
        overrides["unit_budget"] = args.unit_budget
    config = FleetConfig.from_dict(dict(config.as_dict(), **overrides))
    resolve_workers(config.search_workers)
    report = run_fleet(manifest, args.out_dir, config)
    _emit_report(report, args.json)
    return 0 if report.complete else 1


def _cmd_resume(args) -> int:
    metadata = load_run_metadata(args.out_dir)
    manifest = RunManifest.from_spec(ManifestSpec.from_dict(metadata["spec"]))
    if read_fleet_mode(metadata):
        # A fleet out-dir resumes as a fleet: same artifact tree, the
        # recorded fleet configuration, completed units pre-completed.
        return _resume_fleet(args, metadata, manifest)
    for flag, value in (
        ("--fleet-workers", args.fleet_workers),
        ("--unit-budget", args.unit_budget),
        ("--no-unit-budget", args.no_unit_budget or None),
    ):
        if value is not None:
            raise ValueError(
                f"{flag} applies to fleet runs; {args.out_dir} records a "
                "static shard run"
            )
    shard = parse_shard(args.shard) if args.shard else tuple(metadata["shard"])
    workers = args.workers if args.workers is not None else metadata.get("workers", 1)
    resolve_workers(workers)
    runner = Runner(manifest, args.out_dir, workers=workers)
    report = runner.run(shard=shard, resume=True, max_units=args.max_units)
    _emit_report(report, args.json)
    return 0 if report.ok else 1


def _cmd_merge(args) -> int:
    report = merge_runs(args.shard_dirs, args.out_dir)
    goldens_report = None
    failures = 0 if report.ok else 1
    if args.diff_goldens:
        goldens_report = diff_merged_goldens(args.out_dir, args.diff_goldens)
        mismatches = sum(len(problems) for problems in goldens_report.values())
        failures += mismatches
        if not args.json:
            # With --json stdout must stay one parseable document; the
            # per-workload diff is embedded there instead.
            for workload, problems in sorted(goldens_report.items()):
                status = "ok" if not problems else f"{len(problems)} mismatches"
                print(f"goldens[{workload}]: {status}")
                for problem in problems[:10]:
                    print(f"  {problem}")
    if args.summary_file:
        # Explicit UTF-8: the summary embeds pass/fail glyphs and must not
        # depend on the locale encoding.
        with open(args.summary_file, "a", encoding="utf-8") as handle:
            handle.write(summary_markdown(report, goldens_report))
    if args.json:
        document = report.as_dict()
        if goldens_report is not None:
            document["goldens"] = goldens_report
        print(json.dumps(document, sort_keys=True, indent=2))
    else:
        print(report.describe())
    return 0 if failures == 0 else 1


def _cmd_frontier(args) -> int:
    from repro.analysis.report import format_dse_frontier
    from repro.dse.artifacts import merge_dse_artifacts

    report = merge_dse_artifacts(args.run_dirs, workload=args.workload)
    complete = all(group["complete"] for group in report["groups"])
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for group in report["groups"]:
            slices = ", ".join(f"{index}/{count}" for index, count in group["slices"])
            state = "complete" if group["complete"] else "INCOMPLETE"
            print(
                f"dse[{group['workload']}, backend {group['backend']}]: "
                f"slices {slices} ({state})"
            )
            print(format_dse_frontier(dict(group, slice=(1, 1))))
            print()
    # Incomplete sweeps still print (a partial frontier is informative) but
    # fail the command so CI never mistakes them for the real frontier.
    return 0 if complete else 1


_COMMANDS = {
    "run": _cmd_run,
    "reproduce-all": _cmd_run,
    "fleet": _cmd_fleet,
    "resume": _cmd_resume,
    "merge": _cmd_merge,
    "frontier": _cmd_frontier,
}


def main(argv: list = None) -> int:
    args = build_orchestration_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # Same convention as the flat CLI: operator mistakes (bad spec, bad
    # shard, unmergeable trees) exit 2 with one message, no traceback, and
    # so does an environment failure such as a full disk -- every artifact
    # is written atomically, so the tree it leaves resumes cleanly.  Genuine
    # internal bugs surface as other exception types and keep their
    # tracebacks.
    except (UnknownWorkloadError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
