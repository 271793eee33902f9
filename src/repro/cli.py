"""Command-line entry point: regenerate any of the paper's tables/figures.

Examples::

    repro-experiments fig13 --capacities 16 66.5 128 256
    repro-experiments fig13 --workers 8           # parallel tiling searches
    repro-experiments fig14 --workload resnet18   # any registered network
    repro-experiments fig13 --workload mobilenet_v1 --capacities 66.5
    repro-experiments workloads                   # list the registry
    repro-experiments goldens --write             # re-pin every pinned payload
    repro-experiments timing --bandwidths 3.2 6.4 # stall-accurate sweep
    repro-experiments table3 --no-cache           # force cold searches
    repro-experiments all --cache-file /tmp/repro-cache.sqlite

Every search-based experiment routes through a
:class:`repro.engine.SearchEngine`; ``--workers`` fans the exhaustive tiling
searches out across processes, ``--backend {auto,numpy,python}`` selects the
vectorized (NumPy) or scalar-reference search backend (bit-identical
results; ``auto`` uses numpy when installed), ``--no-cache`` disables
memoization, and ``--cache-file`` persists results to a SQLite file so
later invocations start warm.  ``--workload NAME[:batch]`` runs any figure on any workload
registered in :mod:`repro.workloads.registry` (default: the paper's VGG-16
at batch 3).

Full-paper reproductions are orchestrated by the ``run`` / ``resume`` /
``merge`` / ``reproduce-all`` subcommands (sharded across machines,
resumable after a kill, merged into one machine-readable artifact tree; see
:mod:`repro.orchestration.cli`)::

    repro-experiments reproduce-all --out-dir out/shard-1 --shard 1/4
    repro-experiments resume --out-dir out/shard-1
    repro-experiments merge out/shard-* --out-dir out/merged \\
        --diff-goldens tests/goldens

Hardware design-space exploration: the ``dse`` experiment sweeps candidate
accelerator configs under an SRAM budget and prints the Pareto frontier
over (DRAM traffic, energy, execution time); ``frontier`` merges the
archived slice frontiers of orchestrated sweeps::

    repro-experiments dse --budget 140 --objectives dram energy time
    repro-experiments run --out-dir out/dse --experiments dse \\
        --budget 140 --dse-slices 4 --shard 1/2
    repro-experiments frontier out/merged --workload vgg16

Searches can also be served from a long-lived daemon -- one resident engine
with request coalescing, micro-batching and a shared SQLite-backed cache
(see :mod:`repro.server`)::

    repro-experiments serve --port 8765 --cache-file cache.sqlite
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.goldens import check_pins, default_goldens_dir, write_pins
from repro.core.layer import total_macs
from repro.engine import SearchEngine, set_default_engine
from repro.orchestration.experiments import (
    EXPERIMENT_ALIASES,
    PAPER_EXPERIMENTS,
    ExperimentContext,
    add_experiment_flags,
    experiment_names,
    flag_overrides,
    get_experiment,
    resolve_experiment_name,
)
from repro.workloads.registry import (
    UnknownWorkloadError,
    get_workload_spec,
    list_workloads,
)

#: Subcommands handled by the orchestration CLI (sharded runs, merge,
#: cross-artifact frontier merges).
ORCHESTRATION_COMMANDS = (
    "run",
    "fleet",
    "resume",
    "merge",
    "reproduce-all",
    "frontier",
)

#: Subcommand handled by the server CLI (the long-lived search daemon).
SERVE_COMMAND = "serve"

def _experiment_choices() -> list:
    """Flat experiment choices, derived from the registry.

    Every registered experiment is reachable automatically; ``fig15`` and
    ``table3`` stand in for the one ``fig15_table3`` entry (the aliased
    name itself is hidden), ``goldens`` keeps its dedicated subcommand
    handling, and ``workloads`` is the registry listing.
    """
    names = set(experiment_names()) - {"goldens"} - set(EXPERIMENT_ALIASES.values())
    return sorted(names | set(EXPERIMENT_ALIASES) | {"workloads"})


def _print_workloads(layers, engine) -> None:
    """The registry listing, one block per family with its full parameter set.

    The parameters line is introspected from each builder's signature
    (:meth:`~repro.workloads.registry.Workload.parameters`), so this listing
    -- not the docs -- is the canonical source of truth for what each family
    accepts (``?`` marks a parameter whose default is derived, e.g.
    ``head_dim = hidden // heads``).
    """
    print("Registered workloads (run any figure with --workload NAME[:batch])")
    for workload in list_workloads():
        built = workload.build()
        print()
        print(f"{workload.name}: {workload.description}")
        print(
            f"    {len(built)} layers | {total_macs(built) / 1e9:.3f} GMACs | "
            f"tags: {','.join(workload.tags) or '-'}"
        )
        print(f"    params: {workload.describe_parameters()}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the HPCA'20 paper.",
        epilog="Orchestrated full-paper reproductions: the 'run', 'resume', "
        "'merge' and 'reproduce-all' subcommands shard the whole reproduction "
        "across machines with resumable, machine-readable artifact trees "
        "(see 'repro-experiments reproduce-all --help').",
    )
    parser.add_argument(
        "experiment",
        choices=_experiment_choices() + ["goldens", "all"],
        help="which table/figure to regenerate ('workloads' lists the "
        "registry, 'goldens' checks or re-pins the regression numbers)",
    )
    parser.add_argument(
        "--workload",
        default="vgg16",
        metavar="NAME[:batch]",
        help="registered workload to run the figures on (see the "
        "'workloads' subcommand; default vgg16, the paper's network)",
    )
    add_experiment_flags(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the tiling searches (0 = all cores, default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=["auto", "numpy", "python"],
        default="auto",
        help="search backend: 'numpy' evaluates each dataflow's whole "
        "candidate grid as arrays (one evaluation serves every capacity), "
        "'python' is the scalar reference loop; results are bit-identical. "
        "'auto' (default) picks numpy when installed",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable search memoization (every search runs cold)",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        help="SQLite file the search cache persists to (later runs start warm; "
        "other processes may share it)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache statistics after the run",
    )
    parser.add_argument(
        "--write",
        action="store_true",
        help="with 'goldens': re-pin every pinned JSON file instead of "
        "checking it",
    )
    parser.add_argument(
        "--goldens-dir",
        default=None,
        help="directory of the golden JSON files (default tests/goldens)",
    )
    return parser


def build_engine(args) -> SearchEngine:
    """Construct the search engine described by the parsed CLI options."""
    if args.no_cache and args.cache_file:
        raise SystemExit("--no-cache and --cache-file are mutually exclusive")
    return SearchEngine(
        workers=args.workers,
        cache=not args.no_cache,
        cache_path=args.cache_file,
        backend=args.backend,
    )


def _run_goldens(args, engine) -> int:
    directory = args.goldens_dir or default_goldens_dir()
    if args.write:
        for path in write_pins(directory, engine=engine):
            print(f"wrote {path}")
        return 0
    report = check_pins(directory, engine=engine)
    failures = 0
    for key, problems in report.items():
        status = "ok" if not problems else f"{len(problems)} mismatches"
        print(f"goldens[{key}]: {status}")
        for problem in problems[:20]:
            print(f"  {problem}")
        failures += len(problems)
    if failures:
        print(f"{failures} golden mismatches; if intentional, re-pin with "
              "`repro-experiments goldens --write`", file=sys.stderr)
        return 1
    return 0


def _flat_experiments(name: str) -> list:
    """The registered experiments one flat subcommand runs."""
    if name == "all":
        # The canonical paper order; 'goldens' keeps its own subcommand.
        return [experiment for experiment in PAPER_EXPERIMENTS if experiment != "goldens"]
    if name in ("goldens", "workloads"):
        return []
    return [resolve_experiment_name(name)]


def main(argv: list = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ORCHESTRATION_COMMANDS:
        # Orchestrated (sharded/resumable) reproductions have their own
        # subcommand parser; everything else keeps the flat experiment form.
        from repro.orchestration.cli import main as orchestration_main

        return orchestration_main(argv)
    if argv and argv[0] == SERVE_COMMAND:
        # The long-lived search daemon (request coalescing, micro-batching,
        # shared persistent cache; see repro.server).
        from repro.server.daemon import main as serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        if args.write and args.experiment != "goldens":
            raise ValueError("--write re-pins the golden files; use it with 'goldens'")
        engine = build_engine(args)
        # Resolve the workload and the flags up front so a bad name/batch or
        # a flag for another experiment fails fast with a clear message
        # instead of mid-way through a long run.
        layers = get_workload_spec(args.workload)
        overrides = flag_overrides(vars(args), _flat_experiments(args.experiment))
    except (UnknownWorkloadError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Anything routed through repro.dataflows.search without an explicit
    # engine (examples, ad-hoc imports) should see the same cache for the
    # duration of the run; the previous default is restored afterwards so
    # programmatic callers of main() keep their own engine.
    previous_engine = set_default_engine(engine)
    try:
        status = 0
        if args.experiment == "goldens":
            status = _run_goldens(args, engine)
        elif args.experiment == "workloads":
            _print_workloads(layers, engine)
        else:
            for name in _flat_experiments(args.experiment):
                _dispatch(name, args.workload, layers, engine, overrides.get(name, {}))
                if args.experiment == "all":
                    print()
        if args.cache_file:
            engine.save()
        if args.stats:
            print(f"engine: {engine.stats}", file=sys.stderr)
        return status
    # ValueError is this package's convention for infeasible user-chosen
    # parameters (capacity too small for any tiling, bad worker counts), so
    # it maps to a clean exit; genuine internal bugs surface as other
    # exception types and keep their tracebacks.
    except (UnknownWorkloadError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        set_default_engine(previous_engine)


def _dispatch(name: str, workload: str, layers, engine, overrides) -> None:
    """Compute and print one experiment through the shared registry.

    The same :class:`~repro.orchestration.experiments.Experiment` entries
    drive the orchestrated runs, so the printed figures and the archived
    JSON artifacts can never diverge.  ``overrides`` is what
    :func:`~repro.orchestration.experiments.flag_overrides` built for this
    experiment: one dict, or a list of them (``--dse-slices``) printed in
    turn.
    """
    experiment = get_experiment(name)
    for variant in overrides if isinstance(overrides, list) else [overrides]:
        params = dict(experiment.default_params, **variant)
        context = ExperimentContext(workload=workload, engine=engine, params=params)
        context.layers = layers
        print(experiment.render(experiment.build(context), params))


if __name__ == "__main__":
    sys.exit(main())
