"""Golden-value regression suite: every pinned payload, one code path.

The figures in this repository are deterministic functions of the traffic
and search code, so their payloads can be pinned as JSON "goldens" and any
code change that moves a figure becomes a visible test failure instead of a
silent regression.  Each experiment declares its pinned files on its
registry entry (:attr:`~repro.orchestration.experiments.Experiment.pins`):
a pinned payload is exactly what a unit of that experiment computes on the
pinned workload with the pinned params.  :func:`declared_pins` collects
them all, and this module computes, writes and checks every one the same
way.  The ``goldens`` experiment registered here is the paper's bundle per
CNN -- fig13 memory-sweep totals at a capacity subset that includes the two
capacities later figures use (66.5 and 173.5 KB), fig14 per-layer traffic at
66.5 KB and the Table III Eyeriss summary -- pinned for VGG-16, AlexNet and
ResNet-18.

Re-pin every file after an *intentional* model change with::

    repro-experiments goldens --write

and review the JSON diff like any other code change.  The default directory
is ``tests/goldens`` relative to the repository root (override with
``--goldens-dir``); ``repro-experiments goldens`` checks every pin, and
``merge --diff-goldens`` diffs every merged unit that reproduces one.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

from repro.analysis.eyeriss_compare import eyeriss_comparison
from repro.analysis.sweep import memory_sweep, per_layer_dram
from repro.engine import SearchEngine
from repro.orchestration.experiments import (
    Experiment,
    ExperimentContext,
    experiment_names,
    get_experiment,
    register_experiment,
)

#: Fig. 13 capacity subset: the sweep extremes plus the capacities that
#: fig14 (66.5 KB) and table3 (173.5 KB) reuse from the engine cache.
FIG13_CAPACITIES_KIB = (16.0, 66.5, 173.5)

FIG14_CAPACITY_KIB = 66.5


def default_goldens_dir() -> str:
    """The repository's ``tests/goldens`` directory.

    Resolved relative to this source tree when running from a checkout
    (``src/repro/analysis`` -> repo root), so ``repro-experiments goldens``
    works from any working directory; for an installed package with no
    surrounding checkout it falls back to CWD-relative ``tests/goldens``.
    """
    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    )
    candidate = os.path.join(repo_root, "tests", "goldens")
    if os.path.isdir(os.path.dirname(candidate)):
        return candidate
    return os.path.join("tests", "goldens")


def _sanitize(value):
    """Map NaN (infeasible sweep points) to ``None`` for strict JSON.

    Bare ``NaN`` tokens are a Python extension: ``jq``, JavaScript and most
    CI tooling reject them, and the golden files are meant to be reviewed as
    ordinary JSON diffs.  ``None``/``NaN`` are treated as equal when diffing.
    """
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def sanitize_payload(value):
    """Public alias of the NaN-to-null JSON sanitizer.

    The run orchestrator applies the same normalisation to every unit
    artifact it writes, so orchestrated artifacts and golden files stay
    byte-compatible (and strict-JSON parseable) everywhere.
    """
    return _sanitize(value)


def diff_goldens(expected, actual, rel_tol: float = 1e-9, path: str = "$") -> list:
    """Recursive diff of two golden payloads; returns mismatch descriptions.

    Numbers compare with a relative tolerance (the figures are pure float
    arithmetic, so 1e-9 flags real model changes while tolerating platform
    libm wiggle); ``NaN`` in live output matches the ``null`` it is pinned
    as, because both mark the same infeasible sweep points.
    """
    # JSON-normalise so tuples/ints from live engine output compare cleanly
    # against the parsed golden file, with NaN mapped to null on both sides.
    expected = json.loads(json.dumps(_sanitize(expected)))
    actual = json.loads(json.dumps(_sanitize(actual)))
    return _diff(expected, actual, rel_tol, path)


def _diff(expected, actual, rel_tol: float, path: str) -> list:
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                problems.append(f"{path}.{key}: unexpected new key")
            elif key not in actual:
                problems.append(f"{path}.{key}: missing from output")
            else:
                problems += _diff(expected[key], actual[key], rel_tol, f"{path}.{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != pinned {len(expected)}"]
        problems = []
        for index, (left, right) in enumerate(zip(expected, actual)):
            problems += _diff(left, right, rel_tol, f"{path}[{index}]")
        return problems
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)) \
            and not isinstance(expected, bool) and not isinstance(actual, bool):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=rel_tol):
            return []
        return [f"{path}: {actual!r} != pinned {expected!r}"]
    if expected != actual:
        return [f"{path}: {actual!r} != pinned {expected!r}"]
    return []


# ---------------------------------------------------------------------- pins

#: One pinned file: a unit of ``experiment`` on ``workload`` with
#: ``overrides`` merged over the experiment's ``default_params``.
Pin = namedtuple("Pin", "experiment workload overrides filename")


def declared_pins() -> list:
    """Every pin the experiment registry declares, in experiment-name order."""
    return [Pin(name, *pin) for name in experiment_names() for pin in get_experiment(name).pins]


def pin_params(pin: Pin) -> dict:
    """The params a unit must carry to reproduce ``pin`` (JSON-normalised)."""
    return json.loads(json.dumps(dict(get_experiment(pin.experiment).default_params, **pin.overrides)))


def pin_key(pin: Pin) -> str:
    """Report key of a pin: the workload for the ``goldens`` bundle,
    ``experiment:workload`` for every other experiment."""
    return pin.workload if pin.experiment == "goldens" else f"{pin.experiment}:{pin.workload}"


def compute_pin(pin: Pin, engine=None) -> dict:
    """The pin's current payload, built exactly as an orchestrated unit's."""
    experiment = get_experiment(pin.experiment)
    if not experiment.uses_search:
        engine = None
    elif engine is None:
        engine = SearchEngine()
    context = ExperimentContext(workload=pin.workload, engine=engine, params=pin_params(pin))
    return experiment.build(context)


def write_pin(directory: str, pin: Pin, payload) -> str:
    """Write one pinned file (strict JSON, sorted keys); returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, pin.filename)
    with open(path, "w") as handle:
        json.dump(_sanitize(payload), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return path


def diff_pin(directory: str, pin: Pin, payload) -> list:
    """Problems of ``payload`` against the pin's file; each names the file."""
    path = os.path.join(directory, pin.filename)
    if not os.path.exists(path):
        return [f"no pinned golden file at {path} (missing); regenerate with `repro-experiments goldens --write`"]
    try:
        with open(path) as handle:
            expected = json.load(handle)
    except ValueError as error:
        return [f"pinned file {path} is not valid JSON: {error}"]
    return diff_goldens(expected, payload, path=f"{pin.filename}:$")


def write_pins(directory: str, pins=None, engine=None) -> list:
    """Re-pin every declared pin (or ``pins``); returns the paths written."""
    pins = declared_pins() if pins is None else pins
    return [write_pin(directory, pin, compute_pin(pin, engine)) for pin in pins]


def check_pins(directory: str, pins=None, engine=None) -> dict:
    """Diff every declared pin (or ``pins``) against its file.

    Returns ``{pin key: [problems]}``; a missing file is one problem that
    points at the regeneration command.
    """
    pins = declared_pins() if pins is None else pins
    return {pin_key(pin): diff_pin(directory, pin, compute_pin(pin, engine)) for pin in pins}


# ------------------------------------------------------- experiment registry


def _build_goldens(ctx):
    workload, engine = ctx.workload, ctx.engine
    return {
        "workload": workload,
        "fig13": memory_sweep(
            capacities_kib=list(FIG13_CAPACITIES_KIB), layers=workload, engine=engine
        ),
        "fig14": per_layer_dram(
            capacity_kib=FIG14_CAPACITY_KIB, layers=workload, engine=engine
        ),
        "table3": eyeriss_comparison(layers=workload, engine=engine),
    }


def _render_goldens(payload, params):
    figures = ", ".join(sorted(key for key in payload if key != "workload"))
    return f"Golden figures for {payload['workload']}: {figures}"


register_experiment(
    Experiment(
        name="goldens",
        title="Golden figures (fig13/fig14/table3)",
        build=_build_goldens,
        render=_render_goldens,
        uses_search=True,
        pins=tuple((workload, {}, f"{workload}.json") for workload in ("vgg16", "alexnet", "resnet18")),
    )
)
