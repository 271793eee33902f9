"""Shard runner: execute manifest units with per-unit checkpoints and resume.

Every completed unit leaves two files under ``out_dir``:

* ``units/<unit_id>.json`` -- the machine-readable artifact (unit identity +
  NaN-sanitized payload, sorted keys, 2-space indent, trailing newline), the
  only files the merge step compares for bit-identity;
* ``status/<unit_id>.json`` -- run metadata (state, elapsed seconds, error),
  which may differ between runs and is deliberately *not* part of the
  artifact identity.

On restart the runner skips any unit whose artifact and ``completed`` status
already exist, so resuming after a kill recomputes nothing that finished.
Search results of *completed* units also persist: each backend's engine
writes its :class:`~repro.engine.SearchCache` to a shard-scoped pickle
(:func:`repro.engine.shard_cache_filename`) after every unit -- or, with
``cache_store="sqlite"``, through a write-through SQLite store -- so even
the units that were still pending at the kill restart against a warm cache.

The actual unit computation lives in :class:`UnitExecutor`, which the
static-shard :class:`Runner` and the work-queue fleet workers
(:mod:`repro.orchestration.fleet`) share: both paths produce byte-identical
``units/`` trees because they run literally the same executor code.
"""

from __future__ import annotations

import glob
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from repro import __version__
from repro.analysis.goldens import sanitize_payload
from repro.engine import SearchEngine, shard_cache_filename, validate_shard
from repro.orchestration.experiments import ExperimentContext, get_experiment
from repro.orchestration.manifest import NO_BACKEND, RunManifest

#: LRU bound of each per-backend shard cache.  Shard caches persist across
#: resumes (and are reloaded on every restart), so without a bound they
#: accrete entries from every attempt forever; the limit comfortably covers
#: any single unit's working set while capping the pickle's growth.
SHARD_CACHE_MAX_ENTRIES = 100_000

MANIFEST_FILENAME = "manifest.json"
RUN_FILENAME = "run.json"
UNITS_DIRNAME = "units"
STATUS_DIRNAME = "status"
CACHE_DIRNAME = "cache"
SHARDS_DIRNAME = "shards"


def fsync_directory(path: str) -> None:
    """Flush a directory's entry table (the rename itself) to disk.

    Best effort: some filesystems refuse ``fsync`` on directory handles;
    losing the *name* durability there is no worse than before, while the
    data durability of the file itself is already guaranteed by the caller.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically *and durably*.

    Atomicity comes from the tmp-file + rename; durability needs two
    explicit fsyncs -- the file's bytes before the rename (or a crash can
    surface the new name over an empty inode) and the directory after it
    (or the rename itself can vanish).  Without the first, a checkpointed
    artifact can read back truncated after a power loss even though its
    ``completed`` status survived, and the merge step would archive it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        # Explicit UTF-8: artifact bytes are part of the bit-identity
        # contract and must not vary with the locale encoding.
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_directory(directory)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def dump_document(document) -> str:
    """The one JSON serialisation used for every artifact (deterministic)."""
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def unit_artifact_path(out_dir: str, unit_id: str) -> str:
    return os.path.join(out_dir, UNITS_DIRNAME, f"{unit_id}.json")


def unit_status_path(out_dir: str, unit_id: str) -> str:
    return os.path.join(out_dir, STATUS_DIRNAME, f"{unit_id}.json")


def unit_is_completed(out_dir: str, unit_id: str) -> bool:
    """A unit is complete when its status says so *and* its artifact parses.

    The JSON check matters after a crash: even with fsync-before-rename a
    hand-copied or tampered tree can pair a ``completed`` status with a
    truncated artifact, and accepting it would archive garbage forever
    (resume would skip the unit, merge would union the broken file).
    """
    artifact = unit_artifact_path(out_dir, unit_id)
    status = unit_status_path(out_dir, unit_id)
    if not (os.path.exists(artifact) and os.path.exists(status)):
        return False
    try:
        with open(status) as handle:
            if json.load(handle).get("state") != "completed":
                return False
        with open(artifact) as handle:
            json.load(handle)
    except (OSError, ValueError):
        return False
    return True


def write_attempt_report(out_dir: str, base: str, document: dict) -> str:
    """Write the next ``<base>NNN.json`` attempt file; never overwrite one.

    The attempt number starts from a directory listing, but the listing is
    only a hint: two concurrent attempts (a resume racing a stalled original
    run, or two fleet workers flushing reports together) can count the same
    files and pick the same number.  The file is therefore *allocated* with
    a hard-link -- ``os.link`` fails with ``FileExistsError`` when the name
    is taken, atomically and with the full content already durable -- and
    the loser retries with the next number.  Returns the path written; the
    written document carries its final ``attempt`` number.
    """
    directory = os.path.join(out_dir, SHARDS_DIRNAME)
    os.makedirs(directory, exist_ok=True)
    attempt = len(glob.glob(os.path.join(directory, f"{base}*.json"))) + 1
    while True:
        path = os.path.join(directory, f"{base}{attempt:03d}.json")
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(dump_document(dict(document, attempt=attempt)))
                handle.flush()
                os.fsync(handle.fileno())
            try:
                os.link(tmp_path, path)
            except FileExistsError:
                attempt += 1
                continue
            fsync_directory(directory)
            return path
        finally:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)


def write_unit_status(
    out_dir: str, unit_id: str, state: str, started: float, error: str = None
) -> None:
    """Checkpoint one unit's run state (not part of the artifact identity)."""
    document = {
        "unit_id": unit_id,
        "state": state,
        "elapsed_seconds": round(time.monotonic() - started, 6),
    }
    if error is not None:
        document["error"] = error
    write_text_atomic(unit_status_path(out_dir, unit_id), dump_document(document))


def write_manifest(manifest: RunManifest, out_dir: str) -> None:
    """Record the manifest in ``out_dir``; reject a mismatched existing one."""
    path = os.path.join(out_dir, MANIFEST_FILENAME)
    text = manifest.to_json()
    if os.path.exists(path):
        with open(path) as handle:
            if handle.read() != text:
                raise ValueError(
                    f"{path} was written for a different spec; use a fresh "
                    "--out-dir (or delete the old one) instead of mixing runs"
                )
        return
    write_text_atomic(path, text)


def write_run_metadata(
    out_dir: str, spec_dict: dict, shard, workers: int, extra: dict = None
) -> None:
    """First write wins: ``run.json`` describes the run that created the dir.

    A one-off ``resume --shard K/N`` override applies to that invocation
    only and never re-records the directory as a different shard (a later
    plain ``resume`` still finishes the original shard).  A *different
    spec* never reaches this point -- :func:`write_manifest` has already
    rejected it.
    """
    path = os.path.join(out_dir, RUN_FILENAME)
    if os.path.exists(path):
        return
    document = {
        "format": "repro-run-v1",
        "spec": spec_dict,
        "shard": list(shard),
        "workers": workers,
        "version": __version__,
    }
    if extra:
        document.update(extra)
    write_text_atomic(path, dump_document(document))


class UnitExecutor:
    """Compute manifest units into an artifact tree (one unit at a time).

    The executor owns the lazily-built per-backend engines and their
    persistent caches; ``cache_filename`` maps a backend name to the cache
    file under ``out_dir/cache`` (shard-scoped for the static runner,
    fleet-scoped for queue workers).  Both the static and the fleet path
    execute units through this one class, which is what makes their
    ``units/`` trees byte-identical by construction.
    """

    def __init__(
        self,
        out_dir: str,
        workers: int = 1,
        cache_store: str = "pickle",
        cache_filename=None,
    ):
        if cache_store not in ("pickle", "sqlite"):
            raise ValueError(
                f"cache_store must be 'pickle' or 'sqlite', got {cache_store!r}"
            )
        self.out_dir = out_dir
        self.workers = workers
        self.cache_store = cache_store
        self._cache_filename = cache_filename or (
            lambda backend: shard_cache_filename(backend, 1, 1, store=cache_store)
        )
        self._engines = {}

    def execute(self, unit) -> None:
        """Compute one unit's payload and checkpoint its artifact (raises on
        failure; the caller records the status file either way)."""
        experiment = get_experiment(unit.experiment)
        engine = self._engine_for(unit.backend)
        context = ExperimentContext(workload=unit.workload, engine=engine, params=unit.params)
        payload = sanitize_payload(experiment.build(context))
        document = dict(unit.as_dict(), payload=payload)
        write_text_atomic(
            unit_artifact_path(self.out_dir, unit.unit_id), dump_document(document)
        )
        if engine is not None:
            # Checkpoint after every unit so a kill loses at most one unit's
            # worth of search results.
            engine.save()

    def _engine_for(self, backend: str):
        if backend == NO_BACKEND:
            return None
        if backend not in self._engines:
            cache_path = os.path.join(
                self.out_dir, CACHE_DIRNAME, self._cache_filename(backend)
            )
            self._engines[backend] = SearchEngine(
                workers=self.workers,
                cache_path=cache_path,
                backend=backend,
                cache_max_entries=SHARD_CACHE_MAX_ENTRIES,
                cache_store=self.cache_store,
            )
        return self._engines[backend]

    def engine_stats(self) -> dict:
        """Per-backend engine statistics of the units executed so far."""
        return {
            backend: dict(
                engine.stats.as_dict(),
                cache_entries=len(engine.cache),
                cache_evictions=engine.cache.evictions,
            )
            for backend, engine in self._engines.items()
        }

    def close(self) -> None:
        """Release persistent cache handles (SQLite connections)."""
        for engine in self._engines.values():
            if engine.cache is not None:
                engine.cache.close()


@dataclass
class RunReport:
    """Outcome of one :meth:`Runner.run` call (one shard attempt)."""

    shard: tuple = (1, 1)
    units_total: int = 0
    units_completed: int = 0
    units_skipped: int = 0
    units_failed: int = 0
    units_pending: int = 0
    failures: list = field(default_factory=list)
    engine_stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.units_failed == 0

    @property
    def complete(self) -> bool:
        return self.ok and self.units_pending == 0

    def as_dict(self) -> dict:
        return {
            "shard": list(self.shard),
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_skipped": self.units_skipped,
            "units_failed": self.units_failed,
            "units_pending": self.units_pending,
            "failures": list(self.failures),
            "engine_stats": dict(self.engine_stats),
            "version": __version__,
        }

    def describe(self) -> str:
        index, count = self.shard
        state = "ok" if self.complete else ("failed" if not self.ok else "partial")
        return (
            f"shard {index}/{count}: {state} -- {self.units_completed} computed, "
            f"{self.units_skipped} skipped, {self.units_failed} failed, "
            f"{self.units_pending} pending of {self.units_total} units"
        )


class Runner:
    """Execute one shard of a manifest into an artifact tree under ``out_dir``.

    ``cache_store`` selects the persistence backend of the per-backend shard
    caches: ``"pickle"`` (the default, one atomic payload written after
    every unit) or ``"sqlite"`` (write-through, multi-process safe -- the
    store the :mod:`repro.server` daemon shares with orchestrated runs).
    """

    def __init__(
        self,
        manifest: RunManifest,
        out_dir: str,
        workers: int = 1,
        cache_store: str = "pickle",
    ):
        if cache_store not in ("pickle", "sqlite"):
            raise ValueError(
                f"cache_store must be 'pickle' or 'sqlite', got {cache_store!r}"
            )
        self.manifest = manifest
        self.out_dir = out_dir
        self.workers = workers
        self.cache_store = cache_store

    # ------------------------------------------------------------- execution

    def run(
        self,
        shard=(1, 1),
        resume: bool = True,
        max_units: int = None,
        progress=None,
    ) -> RunReport:
        """Run the shard; checkpoint every unit; skip completed ones on resume.

        ``resume=False`` recomputes every unit of the shard from scratch
        (artifacts are overwritten in place, still atomically).  ``max_units``
        stops after that many fresh completions, leaving the rest pending --
        the mechanism tests use to simulate a mid-shard kill, and a way to
        timebox a run; the next ``resume`` picks up exactly where it stopped.

        ``progress``, when given, is called once per unit *as it resolves*
        with a JSON-serializable event dict (``unit_id``, ``state`` of
        ``completed``/``skipped``/``failed``, ``elapsed_seconds``, running
        completion counts) -- the hook the serving daemon streams to
        clients.  Progress callbacks must not raise; an exception from one
        propagates and aborts the shard like any internal error.
        """
        index, count = shard
        units = self.manifest.shard(index, count)
        write_manifest(self.manifest, self.out_dir)
        write_run_metadata(
            self.out_dir,
            self.manifest.spec.as_dict(),
            shard,
            self.workers,
            extra={"cache_store": self.cache_store},
        )
        report = RunReport(shard=(index, count), units_total=len(units))
        executor = UnitExecutor(
            self.out_dir,
            workers=self.workers,
            cache_store=self.cache_store,
            cache_filename=lambda backend: shard_cache_filename(
                backend, index, count, store=self.cache_store
            ),
        )

        def _emit(unit, state, started, error=None):
            if progress is None:
                return
            event = {
                "event": "unit",
                "unit_id": unit.unit_id,
                "experiment": unit.experiment,
                "workload": unit.workload,
                "state": state,
                "elapsed_seconds": (
                    0.0 if started is None else round(time.monotonic() - started, 6)
                ),
                "units_done": report.units_completed + report.units_skipped,
                "units_failed": report.units_failed,
                "units_total": report.units_total,
            }
            if error is not None:
                event["error"] = error
            progress(event)

        try:
            for unit in units:
                if resume and self.is_completed(unit.unit_id):
                    report.units_skipped += 1
                    _emit(unit, "skipped", None)
                    continue
                if max_units is not None and report.units_completed >= max_units:
                    report.units_pending += 1
                    continue
                started = time.monotonic()
                try:
                    executor.execute(unit)
                except Exception as error:  # noqa: BLE001 - one bad unit must
                    # not take the shard down; the failure is recorded and
                    # merge/CI surface it.
                    report.units_failed += 1
                    report.failures.append(
                        {"unit_id": unit.unit_id, "error": str(error)}
                    )
                    write_unit_status(
                        self.out_dir, unit.unit_id, "failed", started,
                        error=str(error),
                    )
                    _emit(unit, "failed", started, error=str(error))
                    continue
                report.units_completed += 1
                write_unit_status(self.out_dir, unit.unit_id, "completed", started)
                _emit(unit, "completed", started)
            report.engine_stats = executor.engine_stats()
        finally:
            executor.close()
        self._write_shard_report(report)
        return report

    def is_completed(self, unit_id: str) -> bool:
        """A unit is complete when both its artifact and status say so."""
        return unit_is_completed(self.out_dir, unit_id)

    # ----------------------------------------------------------- bookkeeping

    def _write_shard_report(self, report: RunReport) -> None:
        # One report file per *attempt*, never overwritten: a kill-then-resume
        # (or the CI resume-is-a-no-op check) must not wipe the engine
        # statistics of the attempt that did the work -- the merge step sums
        # every report file it finds, so the aggregate always reflects all
        # search work performed across attempts.
        index, count = report.shard
        write_attempt_report(
            self.out_dir, f"shard-{index}of{count}-attempt", report.as_dict()
        )


def load_run_metadata(out_dir: str) -> dict:
    """Read ``run.json`` (spec + shard) for ``resume``; raises when absent."""
    path = os.path.join(out_dir, RUN_FILENAME)
    if not os.path.exists(path):
        raise ValueError(
            f"{path} not found: nothing to resume (run "
            "'repro-experiments run' or 'reproduce-all' into this directory first)"
        )
    with open(path) as handle:
        document = json.load(handle)
    if document.get("format") != "repro-run-v1" or not (
        isinstance(document.get("spec"), dict)
        and isinstance(document.get("shard"), list)
        and len(document["shard"]) == 2
    ):
        raise ValueError(
            f"{path} is not a complete repro run description; re-run "
            "'repro-experiments run' to rewrite it"
        )
    # Both entries must be genuine positive ints: a hand-edited
    # '"shard": ["1", "4"]' passes the length check above but would later
    # explode as a TypeError inside manifest.shard -- a traceback where an
    # operator mistake deserves one clean exit-2 line.
    shard = document["shard"]
    if not all(
        isinstance(part, int) and not isinstance(part, bool) for part in shard
    ):
        raise ValueError(
            f"{path} records shard {shard!r}; both entries must be positive "
            "integers -- fix the file or re-run 'repro-experiments run'"
        )
    try:
        validate_shard(*shard)
    except ValueError as error:
        raise ValueError(f"{path} records an invalid shard: {error}") from None
    return document
