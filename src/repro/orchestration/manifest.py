"""Run manifests: the full reproduction as an enumerable, shardable unit graph.

A :class:`ManifestSpec` names *what* to reproduce (experiments x workloads x
backends plus per-experiment parameter overrides); :class:`RunManifest`
expands it into a deterministic, duplicate-free list of :class:`RunUnit`\\ s.
Every unit carries a stable content-derived ID (experiment, workload,
backend and canonical-JSON parameters hashed together), so two machines
expanding the same spec agree on the exact unit set and on every artifact
file name without any coordination.

Sharding is a contiguous partition of the *hash-ordered* unit list:
units are sorted by the SHA-256 of their IDs (a deterministic shuffle that
spreads expensive workloads evenly across shards) and shard ``k/N`` takes
the ``k``-th contiguous slice.  By construction the shards are disjoint and
their union is exactly the full unit set for every ``N``.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from repro.engine import validate_shard
from repro.orchestration.experiments import (
    PAPER_EXPERIMENTS,
    get_experiment,
)

#: Workloads of the default full-paper reproduction: the paper's evaluation
#: network plus the other two golden-pinned CNNs.
DEFAULT_WORKLOADS = ("vgg16", "alexnet", "resnet18")

#: Backend pseudo-name for units whose payload never touches the search
#: engine (pure accelerator-model figures); they are not expanded across
#: backends because the backend cannot change their payload.
NO_BACKEND = "none"


def canonical_json(value) -> str:
    """Canonical JSON text: sorted keys, minimal separators, no NaN."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _slug(text: str) -> str:
    """Filesystem-safe fragment of a workload spec (``"tiny:2"`` -> ``"tiny-2"``)."""
    return re.sub(r"[^A-Za-z0-9_.-]", "-", text)


def parse_shard(text: str) -> tuple:
    """Parse a ``K/N`` shard spec into ``(k, n)`` with validation."""
    match = re.fullmatch(r"(\d+)/(\d+)", text.strip())
    if not match:
        raise ValueError(f"shard must look like K/N (e.g. 2/4), got {text!r}")
    return validate_shard(int(match.group(1)), int(match.group(2)))


@dataclass(frozen=True)
class RunUnit:
    """One executable unit: an experiment on a workload under one backend."""

    experiment: str
    workload: str
    backend: str
    params_json: str

    @property
    def params(self) -> dict:
        return json.loads(self.params_json)

    @property
    def unit_id(self) -> str:
        digest = hashlib.sha256(
            canonical_json(
                {
                    "experiment": self.experiment,
                    "workload": self.workload,
                    "backend": self.backend,
                    "params": json.loads(self.params_json),
                }
            ).encode()
        ).hexdigest()[:10]
        return (
            f"{self.experiment}--{_slug(self.workload)}--{_slug(self.backend)}"
            f"--{digest}"
        )

    def as_dict(self) -> dict:
        return {
            "unit_id": self.unit_id,
            "experiment": self.experiment,
            "workload": self.workload,
            "backend": self.backend,
            "params": self.params,
        }


@dataclass
class ManifestSpec:
    """What to reproduce: the cross product the manifest expands.

    ``params`` maps experiment names to parameter overrides merged over each
    experiment's registered defaults (e.g. ``{"fig13": {"capacities_kib":
    [16, 66.5]}}``).  A value may also be a *list* of override dicts, which
    expands that experiment into one unit per variant -- how a design-space
    sweep shards its config space across units (``{"dse": [{"slice": [1, 2]},
    {"slice": [2, 2]}]}``).  Every override key must be one of the
    experiment's ``default_params`` keys or declared ``params``.
    """

    workloads: tuple = DEFAULT_WORKLOADS
    experiments: tuple = PAPER_EXPERIMENTS
    backends: tuple = ("auto",)
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.workloads = tuple(self.workloads)
        self.experiments = tuple(self.experiments)
        self.backends = tuple(self.backends)
        if not self.workloads:
            raise ValueError("spec needs at least one workload")
        if not self.experiments:
            raise ValueError("spec needs at least one experiment")
        if not self.backends:
            raise ValueError("spec needs at least one backend")

    def as_dict(self) -> dict:
        return {
            "workloads": list(self.workloads),
            "experiments": list(self.experiments),
            "backends": list(self.backends),
            "params": json.loads(canonical_json(self.params)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ManifestSpec":
        return cls(
            workloads=tuple(data["workloads"]),
            experiments=tuple(data["experiments"]),
            backends=tuple(data["backends"]),
            params=dict(data.get("params", {})),
        )


class RunManifest:
    """Deterministic expansion of a :class:`ManifestSpec` into run units."""

    def __init__(self, spec: ManifestSpec, units: list):
        self.spec = spec
        self.units = units

    @classmethod
    def from_spec(cls, spec: ManifestSpec) -> "RunManifest":
        units = []
        seen = set()
        for experiment_name in spec.experiments:
            experiment = get_experiment(experiment_name)
            overrides = spec.params.get(experiment_name, {})
            variants = overrides if isinstance(overrides, list) else [overrides]
            if not variants:
                raise ValueError(
                    f"params for experiment {experiment_name!r} is an empty "
                    "variant list; omit the key or provide at least one dict"
                )
            # A misspelled key would otherwise expand into a unit that
            # silently runs the defaults.
            known = set(experiment.default_params) | {param.key for param in experiment.params}
            for variant in variants:
                unknown = sorted(set(variant) - known)
                if unknown:
                    raise ValueError(
                        f"params for experiment {experiment_name!r} have unknown "
                        f"keys {unknown}; known keys: {sorted(known)}"
                    )
                params = dict(experiment.default_params)
                params.update(variant)
                # Round-trip through JSON so tuples/ints normalise exactly
                # like a manifest reloaded from disk would.
                params_json = canonical_json(json.loads(canonical_json(params)))
                if experiment.validate_params is not None:
                    # Validate the normalised form -- the dict a unit will
                    # actually be built from, whether the spec came from the
                    # CLI or a hand-edited run.json.
                    experiment.validate_params(json.loads(params_json))
                backends = spec.backends if experiment.uses_search else (NO_BACKEND,)
                # An experiment may pin its own workloads (e.g. ``traffic``
                # only runs on its LLM serving mix); otherwise the spec's
                # workload list applies.
                workloads = (
                    experiment.workloads
                    if experiment.workloads is not None
                    else spec.workloads
                )
                for workload in workloads:
                    for backend in backends:
                        unit = RunUnit(
                            experiment=experiment_name,
                            workload=workload,
                            backend=backend,
                            params_json=params_json,
                        )
                        if unit.unit_id in seen:
                            continue
                        seen.add(unit.unit_id)
                        units.append(unit)
        return cls(spec, units)

    def __len__(self) -> int:
        return len(self.units)

    def unit_ids(self) -> set:
        return {unit.unit_id for unit in self.units}

    def hash_ordered(self) -> list:
        """Units sorted by the SHA-256 of their IDs (the shard order)."""
        return sorted(
            self.units,
            key=lambda unit: (
                hashlib.sha256(unit.unit_id.encode()).hexdigest(),
                unit.unit_id,
            ),
        )

    def shard(self, index: int, count: int) -> list:
        """Contiguous-hash partition: the ``index``-th of ``count`` slices."""
        validate_shard(index, count)
        ordered = self.hash_ordered()
        start = (index - 1) * len(ordered) // count
        end = index * len(ordered) // count
        return ordered[start:end]

    # ------------------------------------------------------------ persistence

    def to_json(self) -> str:
        """Deterministic manifest document (the merged-tree identity anchor)."""
        document = {
            "format": "repro-run-manifest-v1",
            "spec": self.spec.as_dict(),
            "units": [unit.as_dict() for unit in self.units],
        }
        return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        document = json.loads(text)
        if document.get("format") != "repro-run-manifest-v1":
            raise ValueError("not a repro run manifest")
        spec = ManifestSpec.from_dict(document["spec"])
        manifest = cls.from_spec(spec)
        stored = [unit["unit_id"] for unit in document["units"]]
        expanded = [unit.unit_id for unit in manifest.units]
        if stored != expanded:
            raise ValueError(
                "manifest units do not match their spec expansion; the file "
                "was hand-edited or written by an incompatible version"
            )
        return manifest
