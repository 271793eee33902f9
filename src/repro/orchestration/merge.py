"""Merge shard artifact trees into one result set and verify it.

``merge_runs`` unions the ``units/`` trees of any number of shard
directories into a merged tree that is **bit-identical** to what a single
unsharded run would have produced: all shards must carry byte-identical
``manifest.json`` files (same spec, same expansion), duplicate unit
artifacts must agree byte-for-byte, and completeness is checked against the
manifest's unit list.  Engine statistics from every shard report are
aggregated with :meth:`repro.engine.CacheStats.merge` so the merged report
shows the whole run's hit/miss/grid accounting.

``diff_merged_goldens`` diffs every merged unit that reproduces a pinned
payload against its ``tests/goldens`` file -- the CI merge job's pass/fail
signal.
"""

from __future__ import annotations

import glob
import json
import os
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.goldens import declared_pins, diff_pin, pin_key, pin_params
from repro.analysis.report import format_markdown_table
from repro.engine import CacheStats
from repro.orchestration.runner import (
    MANIFEST_FILENAME,
    SHARDS_DIRNAME,
    UNITS_DIRNAME,
    dump_document,
    unit_status_path,
    write_text_atomic,
)


@dataclass
class MergeReport:
    """Outcome of one merge: unit accounting plus aggregated engine stats."""

    shard_dirs: list = field(default_factory=list)
    units_merged: int = 0
    units_duplicate: int = 0
    missing: list = field(default_factory=list)
    conflicts: list = field(default_factory=list)
    unexpected: list = field(default_factory=list)
    stale: list = field(default_factory=list)
    shard_reports: list = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (self.missing or self.conflicts or self.unexpected or self.stale)

    def as_dict(self) -> dict:
        return {
            "shard_dirs": list(self.shard_dirs),
            "units_merged": self.units_merged,
            "units_duplicate": self.units_duplicate,
            "missing": sorted(self.missing),
            "conflicts": sorted(self.conflicts),
            "unexpected": sorted(self.unexpected),
            "stale": sorted(self.stale),
            "shard_reports": list(self.shard_reports),
            "engine_stats": dict(self.engine_stats),
            "ok": self.ok,
        }

    def describe(self) -> str:
        state = "ok" if self.ok else "FAILED"
        return (
            f"merge: {state} -- {self.units_merged} units from "
            f"{len(self.shard_dirs)} shard trees ({self.units_duplicate} "
            f"duplicates verified, {len(self.missing)} missing, "
            f"{len(self.conflicts)} conflicts, {len(self.unexpected)} "
            f"unexpected, {len(self.stale)} stale)"
        )


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _completed_in(shard_dir: str, unit_id: str) -> bool:
    """Does ``shard_dir``'s status say this unit's latest attempt completed?

    An artifact file alone is not evidence of a current result: a
    ``--force`` re-run whose latest attempt *failed* leaves the previous
    success's artifact on disk next to a ``failed`` status, and archiving
    it would silently resurrect the stale payload.  Only a parseable
    ``completed`` status makes the copy mergeable.
    """
    try:
        with open(unit_status_path(shard_dir, unit_id)) as handle:
            return json.load(handle).get("state") == "completed"
    except (OSError, ValueError):
        return False


def merge_runs(shard_dirs: list, out_dir: str) -> MergeReport:
    """Union shard trees into ``out_dir``; verify identity and completeness."""
    shard_dirs = list(shard_dirs)
    if not shard_dirs:
        raise ValueError("merge needs at least one shard directory")
    report = MergeReport(shard_dirs=shard_dirs)

    manifest_bytes = None
    for shard_dir in shard_dirs:
        path = os.path.join(shard_dir, MANIFEST_FILENAME)
        if not os.path.exists(path):
            raise ValueError(f"{path} is missing; {shard_dir!r} is not a run tree")
        data = _read_bytes(path)
        if manifest_bytes is None:
            manifest_bytes = data
        elif data != manifest_bytes:
            raise ValueError(
                f"{path} differs from the first shard's manifest; the shards "
                "were produced from different specs and cannot be merged"
            )
    try:
        manifest_document = json.loads(manifest_bytes.decode())
    except ValueError as error:
        raise ValueError(f"the shard manifests are not valid JSON ({error})") from None
    if not isinstance(manifest_document, dict) or not isinstance(
        manifest_document.get("units"), list
    ):
        raise ValueError("the shard manifests hold no unit list; corrupt run trees")
    expected_ids = {unit["unit_id"] for unit in manifest_document["units"]}

    # A merged tree must be exactly the union of *these* shards: refuse an
    # out-dir that already holds a merge of a different spec, and clear any
    # stale unit files so a re-merge can never leave leftovers behind.
    merged_manifest_path = os.path.join(out_dir, MANIFEST_FILENAME)
    if os.path.exists(merged_manifest_path):
        if _read_bytes(merged_manifest_path) != manifest_bytes:
            raise ValueError(
                f"{merged_manifest_path} holds a merge of a different spec; "
                "use a fresh --out-dir (or delete the old one)"
            )

    merged_units_dir = os.path.join(out_dir, UNITS_DIRNAME)
    os.makedirs(merged_units_dir, exist_ok=True)
    merged = {}
    for shard_dir in shard_dirs:
        for path in sorted(glob.glob(os.path.join(shard_dir, UNITS_DIRNAME, "*.json"))):
            unit_id = os.path.splitext(os.path.basename(path))[0]
            if not _completed_in(shard_dir, unit_id):
                # A stale copy is reported by name and never merged (nor
                # byte-compared -- it documents a *previous* attempt, so a
                # mismatch with a current copy would be expected, not a
                # conflict).  If no other shard holds a completed copy the
                # unit also shows up in ``missing``.
                report.stale.append(f"{unit_id} ({shard_dir})")
                continue
            data = _read_bytes(path)
            if unit_id in merged:
                report.units_duplicate += 1
                if merged[unit_id] != data:
                    report.conflicts.append(unit_id)
                continue
            merged[unit_id] = data
            if unit_id not in expected_ids:
                report.unexpected.append(unit_id)

    for name in os.listdir(merged_units_dir):
        unit_id = os.path.splitext(name)[0]
        if unit_id not in merged:
            os.unlink(os.path.join(merged_units_dir, name))
    for unit_id, data in sorted(merged.items()):
        write_text_atomic(
            os.path.join(merged_units_dir, f"{unit_id}.json"), data.decode("utf-8")
        )
    report.units_merged = len(merged)
    report.missing = sorted(expected_ids - set(merged))

    write_text_atomic(
        os.path.join(out_dir, MANIFEST_FILENAME), manifest_bytes.decode()
    )
    report.shard_reports, report.engine_stats = _aggregate_shard_reports(shard_dirs)
    write_text_atomic(
        os.path.join(out_dir, "merge.json"), dump_document(report.as_dict())
    )
    return report


def _aggregate_shard_reports(shard_dirs: list) -> tuple:
    """Collect every shard report and sum the per-backend engine stats.

    Shard reports are run metadata, not artifacts, so a corrupt one fails
    the merge with a clean message naming the file rather than a traceback;
    ``CacheStats.from_dict`` tolerates missing counter keys (older attempts
    may predate a counter), so partial stats dicts still aggregate.
    """
    shard_reports = []
    totals = {}
    for shard_dir in shard_dirs:
        for path in sorted(glob.glob(os.path.join(shard_dir, SHARDS_DIRNAME, "*.json"))):
            try:
                with open(path) as handle:
                    document = json.load(handle)
            except ValueError as error:
                raise ValueError(f"shard report {path} is not valid JSON ({error})") from None
            if not isinstance(document, dict):
                raise ValueError(f"shard report {path} is not a report object")
            shard_reports.append(
                {"path": path, "shard": document.get("shard"), "report": document}
            )
            engine_stats = document.get("engine_stats", {})
            if not isinstance(engine_stats, dict):
                raise ValueError(f"shard report {path} holds malformed engine stats")
            for backend, stats in engine_stats.items():
                if not isinstance(stats, dict):
                    raise ValueError(
                        f"shard report {path} holds malformed stats for backend {backend!r}"
                    )
                totals.setdefault(backend, CacheStats()).merge(
                    CacheStats.from_dict(stats)
                )
    return shard_reports, {backend: stats.as_dict() for backend, stats in totals.items()}


# ---------------------------------------------------------------- goldens diff


def diff_merged_goldens(merged_dir: str, goldens_dir: str) -> dict:
    """Diff every merged unit that reproduces a declared pin against its file.

    A unit reproduces a pin when its experiment, workload and params all
    match it (:func:`repro.analysis.goldens.declared_pins`); other units
    (custom grids, other workloads) pass through undiffed.  Returns
    ``{key: [problems]}`` keyed like ``repro-experiments goldens`` (the
    workload for the ``goldens`` bundle, ``experiment:workload`` for the
    rest); an empty list means the payload matches.  A pinned unit with no
    artifact, or a missing pinned file, is itself a problem.
    """
    with open(os.path.join(merged_dir, MANIFEST_FILENAME)) as handle:
        units = json.load(handle)["units"]
    pins = declared_pins()
    pinned = [
        (unit, pin)
        for unit in units
        for pin in pins
        if (unit["experiment"], unit["workload"]) == (pin.experiment, pin.workload)
        and unit["params"] == pin_params(pin)
    ]
    if not any(pin.experiment == "goldens" for _, pin in pinned):
        # A vacuous pass would read as "goldens verified" when nothing was
        # checked -- a trimmed spec must not silently disable the nightly
        # pass/fail signal.
        raise ValueError(
            "the merged manifest contains no 'goldens' units on a pinned "
            "workload to diff; include the 'goldens' experiment and one of "
            "its pinned workloads in the run spec"
        )
    # A key can carry several units (one per backend): every unit is diffed
    # and the problem lists *accumulate*, so one matching backend can never
    # mask a mismatch in another.
    unit_count = Counter(pin_key(pin) for _, pin in pinned)
    report = {}
    for unit, pin in pinned:
        key = pin_key(pin)
        prefix = f"[{unit['backend']}] " if unit_count[key] > 1 else ""
        problems = report.setdefault(key, [])
        artifact_path = os.path.join(merged_dir, UNITS_DIRNAME, unit["unit_id"] + ".json")
        if not os.path.exists(artifact_path):
            problems.append(f"{prefix}{pin.experiment} unit {unit['unit_id']} was never computed")
            continue
        # A corrupt artifact (or pinned file) is a diff problem for this
        # key, not a crash: the other keys' verdicts still matter.
        try:
            with open(artifact_path) as handle:
                actual = json.load(handle)["payload"]
        except (ValueError, KeyError) as error:
            problems.append(f"{prefix}artifact {unit['unit_id']}.json is unreadable: {error!r}")
            continue
        problems.extend(prefix + problem for problem in diff_pin(goldens_dir, pin, actual))
    return report


# ------------------------------------------------------------------- summary


def summary_markdown(report: MergeReport, goldens_report: dict = None) -> str:
    """GitHub-flavoured markdown summary for the Actions job summary page."""
    lines = ["## Full-paper reproduction merge", ""]
    lines.append(
        format_markdown_table(
            ["metric", "value"],
            [
                ["shard trees", len(report.shard_dirs)],
                ["units merged", report.units_merged],
                ["duplicates verified identical", report.units_duplicate],
                ["missing units", len(report.missing)],
                ["conflicting units", len(report.conflicts)],
                ["unexpected units", len(report.unexpected)],
                ["stale artifacts", len(report.stale)],
                ["merge status", "✅ pass" if report.ok else "❌ fail"],
            ],
        )
    )
    if report.engine_stats:
        lines += ["", "### Engine statistics (all shards)", ""]
        lines.append(
            format_markdown_table(
                ["backend", "hits", "misses", "hit rate", "grid evaluations"],
                [
                    [
                        backend,
                        stats["hits"],
                        stats["misses"],
                        f"{stats['hit_rate']:.1%}",
                        stats["grid_evaluations"],
                    ]
                    for backend, stats in sorted(report.engine_stats.items())
                ],
            )
        )
    if goldens_report is not None:
        lines += ["", "### Golden figures vs `tests/goldens/`", ""]
        rows = []
        for workload, problems in sorted(goldens_report.items()):
            status = "✅ pass" if not problems else "❌ fail"
            detail = "" if not problems else "; ".join(problems[:3])
            rows.append([workload, status, len(problems), detail])
        lines.append(
            format_markdown_table(["workload", "status", "mismatches", "detail"], rows)
        )
    if report.missing:
        lines += ["", "Missing units: " + ", ".join(f"`{uid}`" for uid in report.missing[:10])]
    if report.conflicts:
        lines += ["", "Conflicting units: " + ", ".join(f"`{uid}`" for uid in report.conflicts[:10])]
    if report.stale:
        lines += ["", "Stale artifacts: " + ", ".join(f"`{uid}`" for uid in report.stale[:10])]
    return "\n".join(lines) + "\n"
