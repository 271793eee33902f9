"""Experiment registry: every figure/table as a named, artifact-emitting unit.

This is the common API between the flat CLI (``repro-experiments fig13``),
the run orchestrator (:mod:`repro.orchestration.runner`) and the analysis
drivers: each driver registers an :class:`Experiment` whose ``build``
callable returns the plain JSON-serializable payload the driver already
produces, and whose ``render`` callable turns that payload back into the
text the CLI prints.  Orchestrated runs persist ``build`` output as JSON
artifacts; the CLI prints ``render(build(...))`` -- both paths share one
computation per experiment, so a figure can never diverge between its
printed and its archived form.

The registry is populated by the analysis modules themselves (each
registers its own figures at import time); :func:`load_experiments` imports
them all, so orchestration code can enumerate the full experiment set
without hard-coding driver names here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.workloads.registry import get_workload_spec


@dataclass
class ExperimentContext:
    """Everything a driver needs to compute one experiment payload.

    ``workload`` is the registry spec string (``"vgg16"``, ``"tiny:2"``);
    ``engine`` is ``None`` for experiments that never run tiling searches
    (``uses_search=False``).
    """

    workload: str
    engine: object
    params: dict

    @functools.cached_property
    def layers(self) -> list:
        """The workload's materialised layer list, built on first read (the
        ``traffic`` and ``llm_decode`` drivers never read it).  A caller that
        already holds the list may assign it."""
        return get_workload_spec(self.workload)


@dataclass(frozen=True)
class Param:
    """One experiment parameter that a CLI flag sets.

    ``key`` is the params key the flag writes and ``flag`` its option
    string; ``type``, ``nargs`` and ``choices`` go to ``argparse`` as they
    are.  Defaults stay in :attr:`Experiment.default_params`, because unit
    ids hash the expanded params.
    """

    key: str
    flag: str
    type: object = None
    nargs: object = None
    choices: tuple = None
    help: str = ""

    @property
    def dest(self) -> str:
        """The argparse attribute the flag parses into."""
        return self.flag.lstrip("-").replace("-", "_")


@dataclass
class Experiment:
    """One registered figure/table driver.

    ``build(ctx)`` returns a JSON-serializable payload (NaN allowed; the
    runner sanitizes it), ``render(payload, params)`` the printable text.
    ``uses_search`` marks experiments whose payload depends on the tiling
    search engine -- only those are expanded across backends by the run
    manifest, because backend choice cannot change any other payload.

    ``workloads`` optionally pins the experiment to a fixed workload tuple:
    the run manifest then expands it over these instead of the spec's
    workload list.  The ``traffic`` experiment uses this -- a serving-traffic
    mix is only meaningful on an LLM decode family, so a ``reproduce-all``
    over the CNN workloads still gets exactly one traffic unit on its pinned
    LLM workload rather than three meaningless (failing) ones.

    ``validate_params`` optionally checks one expanded params dict and
    raises ``ValueError`` on params no unit could run.  The run manifest
    calls it per variant at expansion time, so a hand-edited spec fails
    fast with one exit-2 message instead of N failed units mid-run.

    ``params`` declares each :class:`Param` a CLI flag can set; both CLIs
    derive their experiment flags from them, and the run manifest rejects
    any override key that is neither a ``default_params`` key nor declared
    here.  ``pins`` declares the payloads pinned under ``tests/goldens/``,
    one ``(workload, overrides, filename)`` triple per file: the pinned
    payload is what a unit of this experiment on that workload computes
    with ``overrides`` merged over ``default_params``
    (:mod:`repro.analysis.goldens` checks, re-pins and diffs them all).
    """

    name: str
    title: str
    build: object = field(repr=False)
    render: object = field(repr=False)
    uses_search: bool = False
    default_params: dict = field(default_factory=dict)
    workloads: tuple = None
    validate_params: object = field(default=None, repr=False)
    params: tuple = ()
    pins: tuple = ()


_REGISTRY = {}
_LOADED = False


def register_experiment(experiment: Experiment, replace: bool = False) -> Experiment:
    """Add an experiment to the registry (drivers call this at import time)."""
    if experiment.name in _REGISTRY and not replace:
        raise ValueError(f"experiment {experiment.name!r} is already registered")
    _REGISTRY[experiment.name] = experiment
    return experiment


def load_experiments() -> None:
    """Import every driver module so the registry is fully populated."""
    global _LOADED
    if _LOADED:
        return
    if "table1" not in _REGISTRY:
        _register_static_tables()
    # Each import registers that module's experiments as a side effect; the
    # modules import *this* module for register_experiment, which is safe
    # because nothing here imports repro.analysis at module level.  A failed
    # import leaves _LOADED unset so the next call retries instead of
    # silently serving a partial registry (modules that did import stay in
    # sys.modules and are simply not re-imported).
    import repro.analysis.energy_report  # noqa: F401
    import repro.analysis.eyeriss_compare  # noqa: F401
    import repro.analysis.goldens  # noqa: F401
    import repro.analysis.performance_report  # noqa: F401
    import repro.analysis.sweep  # noqa: F401
    import repro.analysis.timing_report  # noqa: F401  (tile-level timing sweeps)
    import repro.analysis.traffic_report  # noqa: F401  (LLM serving-traffic mixes)
    import repro.analysis.utilization_report  # noqa: F401
    import repro.dse.explore  # noqa: F401  (the hardware design-space sweep)

    _LOADED = True


#: Flat-CLI names accepted for registered experiments (the paper prints
#: Fig. 15 and Table III from the one ``fig15_table3`` computation).
EXPERIMENT_ALIASES = {"fig15": "fig15_table3", "table3": "fig15_table3"}


def resolve_experiment_name(name: str) -> str:
    """Map CLI aliases (``fig15``, ``table3``) to the registered name."""
    return EXPERIMENT_ALIASES.get(name, name)


def get_experiment(name: str) -> Experiment:
    load_experiments()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        # ValueError, not KeyError: an unknown name is an operator mistake
        # and the CLIs map ValueError to a clean exit-2 message.
        raise ValueError(f"unknown experiment {name!r}; registered: {known}") from None


def experiment_names() -> list:
    """Sorted names of every registered experiment."""
    load_experiments()
    return sorted(_REGISTRY)


def _declared_params() -> list:
    """``(experiment name, Param)`` for every declaration, in name order."""
    return [(name, param) for name in experiment_names() for param in _REGISTRY[name].params]


def add_experiment_flags(parser) -> None:
    """Add every declared experiment flag to ``parser``, once per flag.

    A flag that several experiments declare (``--seed``) is parsed as its
    first declaration says, and its help lists what it sets in each.
    """
    declared = {}
    for name, param in _declared_params():
        declared.setdefault(param.flag, []).append((name, param))
    for flag, uses in declared.items():
        param = uses[0][1]
        parser.add_argument(
            flag,
            type=param.type,
            nargs=param.nargs,
            choices=param.choices,
            default=None,
            help="; ".join(f"{name}: {use.help}" for name, use in uses),
        )


def flag_overrides(values: dict, experiments) -> dict:
    """Per-experiment param overrides from the parsed experiment flags.

    ``values`` maps each :attr:`Param.dest` to its parsed value (``None``
    when the flag was not passed), e.g. ``vars()`` of an argparse
    namespace; ``experiments`` are the run's resolved names.  A passed flag
    sets its key on every experiment of the run that declares it.  Both
    CLIs call this, so a flag means the same in both, and unit ids hash
    what it returns.  A passed flag that sets nothing in the run raises
    the one-line ``ValueError`` the CLIs turn into exit 2.
    """
    declared = _declared_params()
    params = {}
    for name, param in declared:
        if name in experiments and values.get(param.dest) is not None:
            params.setdefault(name, {})[param.key] = values[param.dest]
    # dse: --seed seeds only a smart --explorer (the exhaustive sweep has no
    # RNG), and --traffic-mix nests the trace's --seed/--requests.
    dse = params.get("dse", {})
    if dse.get("explorer", "exhaustive") == "exhaustive":
        dse.pop("seed", None)
    used = {param.flag for name, param in declared if param.key in params.get(name, ())}
    if "mix" in dse:
        dse["mix"] = {"model": dse["mix"]}
        for key in ("seed", "requests"):
            if values.get(key) is not None:
                dse["mix"][key] = values[key]
                used.add(f"--{key}")
    for _, param in declared:
        if values.get(param.dest) is not None and param.flag not in used:
            owners = {name: use for name, use in declared if use.flag == param.flag}
            missing = [name for name in owners if name not in experiments] or list(owners)
            names = " or ".join(repr(name) for name in missing)
            notes = "".join(
                f" (for {name!r}: {use.help})" for name, use in owners.items() if name in experiments
            )
            raise ValueError(
                f"{param.flag} configures the {names} experiment, which is not in "
                f"this run; add {names} to --experiments{notes}"
            )
    slices = dse.pop("slice", None)
    if slices is not None:
        if slices < 1:
            raise ValueError(f"--dse-slices must be >= 1, got {slices}")
        # One unit per slice of the config space, each with the same overrides.
        params["dse"] = [dict(dse, slice=[index, slices]) for index in range(1, slices + 1)]
    return {name: overrides for name, overrides in params.items() if overrides}


#: Canonical full-paper order used by ``reproduce-all`` (and ``repro all``).
PAPER_EXPERIMENTS = (
    "table1",
    "table2",
    "fig13",
    "fig14",
    "fig15_table3",
    "fig16",
    "table4",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "timing",
    "traffic",
    "goldens",
)


def _register_static_tables() -> None:
    """Tables I and II: static configuration payloads, registered here."""

    def build_table1(ctx):
        from repro.arch.config import PAPER_IMPLEMENTATIONS

        return {
            "implementations": [
                {
                    "name": config.name,
                    "pe_rows": config.pe_rows,
                    "pe_cols": config.pe_cols,
                    "lreg_words_per_pe": config.lreg_words_per_pe,
                    "gbuf_kib": config.gbuf_kib,
                    "greg_kib": config.greg_kib,
                    "effective_on_chip_kib": config.effective_on_chip_kib,
                    "described": config.describe(),
                }
                for config in PAPER_IMPLEMENTATIONS
            ]
        }

    def render_table1(payload, params):
        lines = ["Table I: implementations of our architecture"]
        for row in payload["implementations"]:
            lines.append("  " + row["described"])
        return "\n".join(lines)

    def build_table2(ctx):
        from repro.energy.model import OPERATION_ENERGY

        return {"operations_pj": dict(OPERATION_ENERGY)}

    def render_table2(payload, params):
        lines = ["Table II: energy consumption of operations (pJ)"]
        for name, value in payload["operations_pj"].items():
            lines.append(f"  {name:>14}: {value}")
        return "\n".join(lines)

    register_experiment(
        Experiment(
            name="table1",
            title="Table I: accelerator implementations",
            build=build_table1,
            render=render_table1,
        )
    )
    register_experiment(
        Experiment(
            name="table2",
            title="Table II: operation energy model",
            build=build_table2,
            render=render_table2,
        )
    )
