"""Fleet execution: N worker processes draining one shared work queue.

Where ``--shard K/N`` decides up front which worker computes which unit,
a fleet binds late: :func:`run_fleet` populates one
:class:`~repro.orchestration.scheduler.WorkQueue` from the manifest and
spawns N :class:`FleetWorker` processes that each loop *claim -> execute ->
complete* until the queue drains.  A worker that dies mid-unit simply stops
heartbeating; after ``lease_seconds`` any live peer steals the unit, so one
straggler or crash no longer holds the whole run hostage.

Workers execute units through the same
:class:`~repro.orchestration.runner.UnitExecutor` as the static runner and
checkpoint the same ``units/`` + ``status/`` files, which is why a fleet
out-dir is interchangeable with a sharded one: it resumes with the same
command, merges with the same tool, and its merged tree is byte-identical
to a static run's.  The queue file itself is rebuilt from the artifact
tree on every invocation -- all durable state lives in the artifacts.

Fault injection for tests and CI lives here too: ``chaos_kills`` makes a
chosen worker SIGKILL itself after completing a chosen number of units,
*after claiming* its next unit -- the worst moment, leaving a live lease
that only expiry-based stealing can recover.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro import __version__
from repro.engine import fleet_cache_filename
from repro.orchestration.manifest import RunManifest
from repro.orchestration.runner import (
    MANIFEST_FILENAME,
    RunReport,
    UnitExecutor,
    unit_is_completed,
    write_attempt_report,
    write_manifest,
    write_run_metadata,
    write_unit_status,
)
from repro.orchestration.scheduler import (
    WorkQueue,
    queue_path,
    validate_policy,
)

DEFAULT_LEASE_SECONDS = 30.0
DEFAULT_POLL_SECONDS = 0.2


@dataclass
class FleetConfig:
    """Fleet invocation parameters, recorded in ``run.json`` for ``resume``.

    ``priorities`` and ``deadlines`` are keyed by *experiment name* (the
    operator-facing granularity); deadlines are seconds from fleet start,
    converted to absolute due timestamps at populate time so a resume
    restarts the clock rather than inheriting long-expired deadlines.
    """

    workers: int = 2
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    poll_seconds: float = DEFAULT_POLL_SECONDS
    policy: str = "fifo"
    unit_budget: int = None
    priorities: dict = field(default_factory=dict)
    deadlines: dict = field(default_factory=dict)
    search_workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be > 0, got {self.lease_seconds}"
            )
        validate_policy(self.policy)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "lease_seconds": self.lease_seconds,
            "poll_seconds": self.poll_seconds,
            "policy": self.policy,
            "unit_budget": self.unit_budget,
            "priorities": dict(self.priorities),
            "deadlines": dict(self.deadlines),
            "search_workers": self.search_workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetConfig":
        if not isinstance(data, dict):
            raise ValueError("fleet configuration must be an object")
        # Other keys are ignored, such as the "cache_store" older trees
        # recorded when a fleet could choose its store.
        known = {
            key: data[key]
            for key in (
                "workers", "lease_seconds", "poll_seconds", "policy",
                "unit_budget", "priorities", "deadlines", "search_workers",
            )
            if key in data
        }
        return cls(**known)


class _Heartbeat:
    """Background lease extender for one claim (daemon thread).

    Runs while the claimed unit computes; a worker that is *stalled* (not
    dead) keeps its lease this way, and a worker that is SIGKILLed takes
    the thread down with it -- which is exactly what lets peers steal.
    """

    def __init__(self, queue: WorkQueue, claim, lease_seconds: float, interval: float):
        self._queue = queue
        self._claim = claim
        self._lease_seconds = lease_seconds
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._queue.heartbeat(self._claim, self._lease_seconds):
                return  # lease lost; stop renewing, the executor's
                # complete() call will observe the steal and return False

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


class FleetWorker:
    """One worker of a fleet: claim units under lease until the queue drains.

    ``queue=None`` (the normal path) opens the worker's own connection to
    the out-dir's queue file; tests inject a shared in-process queue with a
    virtual clock instead.  ``heartbeat_interval=None`` derives the default
    (a third of the lease); ``0`` disables heartbeating entirely, which is
    how tests force a lease to expire mid-execution.
    """

    def __init__(
        self,
        manifest: RunManifest,
        out_dir: str,
        worker_index: int,
        queue: WorkQueue = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        search_workers: int = 1,
        heartbeat_interval: float = None,
        chaos_kill_after: int = None,
        clock=time.time,
    ):
        self.out_dir = out_dir
        self.worker_index = worker_index
        self.name = f"worker-{worker_index:03d}"
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.chaos_kill_after = chaos_kill_after
        self._owns_queue = queue is None
        self.queue = queue or WorkQueue(queue_path(out_dir), clock=clock)
        self._heartbeat_interval = (
            lease_seconds / 3.0 if heartbeat_interval is None else heartbeat_interval
        )
        self.units = {unit.unit_id: unit for unit in manifest.units}
        self.executor = UnitExecutor(
            out_dir, workers=search_workers, cache_filename=fleet_cache_filename
        )
        self.report = RunReport(shard=(1, 1), units_total=len(self.units))

    # ------------------------------------------------------------- unit loop

    def step(self) -> dict:
        """Claim and execute one unit; ``None`` when nothing is claimable."""
        claim = self.queue.claim(self.name, self.lease_seconds)
        if claim is None:
            return None
        if (
            self.chaos_kill_after is not None
            and self.report.units_completed >= self.chaos_kill_after
        ):
            # Fault injection: die *holding* the claim, before any work --
            # recovery must come from lease expiry, not graceful handoff.
            os.kill(os.getpid(), signal.SIGKILL)
        return self.execute(claim)

    def execute(self, claim) -> dict:
        unit = self.units.get(claim.unit_id)
        if unit is None:
            # Queue and manifest disagree -- a corrupt queue file; fail the
            # claim so the unit lands terminal instead of looping forever.
            self.queue.fail(claim, f"unit {claim.unit_id} is not in the manifest")
            return {"unit_id": claim.unit_id, "state": "failed"}
        started = time.monotonic()
        if not self.queue.mark_executing(claim):
            return {"unit_id": claim.unit_id, "state": "superseded"}
        heartbeat = (
            _Heartbeat(self.queue, claim, self.lease_seconds, self._heartbeat_interval)
            if self._heartbeat_interval and self._heartbeat_interval > 0
            else None
        )
        try:
            self.executor.execute(unit)
        except Exception as error:  # noqa: BLE001 - one bad unit must not
            # take the worker down; the failure is audited and surfaced.
            if heartbeat is not None:
                heartbeat.stop()
            if self.queue.fail(claim, str(error)):
                write_unit_status(
                    self.out_dir, unit.unit_id, "failed", started, error=str(error)
                )
                self.report.units_failed += 1
                self.report.failures.append(
                    {"unit_id": unit.unit_id, "error": str(error)}
                )
                return {"unit_id": unit.unit_id, "state": "failed"}
            return {"unit_id": unit.unit_id, "state": "superseded"}
        if heartbeat is not None:
            heartbeat.stop()
        if self.queue.complete(claim):
            # Status is written only by the claim that *won*: a stale worker
            # finishing after a steal wrote a byte-identical artifact (the
            # executor is deterministic) but must not double-record the unit.
            write_unit_status(self.out_dir, unit.unit_id, "completed", started)
            self.report.units_completed += 1
            return {"unit_id": unit.unit_id, "state": "completed"}
        return {"unit_id": unit.unit_id, "state": "superseded"}

    def run(self) -> RunReport:
        """Drain the queue: claim until empty, then wait out in-flight leases.

        An empty claim does not mean the run is over -- a peer may still
        die and return its unit to the pool -- so the worker only exits
        when no unit is ``pending`` or ``claimed`` anymore.
        """
        try:
            while True:
                if self.step() is not None:
                    continue
                if self.queue.unfinished() == 0:
                    break
                time.sleep(self.poll_seconds)
            self.report.engine_stats = self.executor.engine_stats()
        finally:
            self.executor.close()
        write_attempt_report(
            self.out_dir,
            f"fleet-{self.name}-attempt",
            dict(self.report.as_dict(), worker=self.name),
        )
        if self._owns_queue:
            self.queue.close()
        return self.report


@dataclass
class FleetReport:
    """Outcome of one :func:`run_fleet` invocation (whole-fleet view)."""

    workers: int = 0
    units_total: int = 0
    units_completed: int = 0
    units_skipped: int = 0
    units_failed: int = 0
    units_deferred: int = 0
    units_pending: int = 0
    failures: list = field(default_factory=list)
    stolen_claims: int = 0
    audit_problems: list = field(default_factory=list)
    worker_exit_codes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.units_failed == 0 and not self.audit_problems

    @property
    def complete(self) -> bool:
        # Deferred units are an *intentional* budget outcome, not a gap;
        # pending/claimed leftovers mean every worker died before draining.
        return self.ok and self.units_pending == 0

    def as_dict(self) -> dict:
        return {
            "mode": "fleet",
            "workers": self.workers,
            "units_total": self.units_total,
            "units_completed": self.units_completed,
            "units_skipped": self.units_skipped,
            "units_failed": self.units_failed,
            "units_deferred": self.units_deferred,
            "units_pending": self.units_pending,
            "failures": list(self.failures),
            "stolen_claims": self.stolen_claims,
            "audit_problems": list(self.audit_problems),
            "worker_exit_codes": list(self.worker_exit_codes),
            "version": __version__,
        }

    def describe(self) -> str:
        state = "ok" if self.complete else ("failed" if not self.ok else "partial")
        line = (
            f"fleet ({self.workers} workers): {state} -- "
            f"{self.units_completed} computed, {self.units_skipped} skipped, "
            f"{self.units_failed} failed, {self.units_deferred} deferred, "
            f"{self.units_pending} pending of {self.units_total} units"
        )
        if self.stolen_claims:
            steals = "steal" if self.stolen_claims == 1 else "steals"
            line += f"; {self.stolen_claims} lease {steals}"
        return line


def _worker_entry(out_dir: str, worker_index: int, config_dict: dict, chaos_kill_after):
    """Worker process main (top-level so the spawn context can pickle it)."""
    config = FleetConfig.from_dict(config_dict)
    with open(os.path.join(out_dir, MANIFEST_FILENAME)) as handle:
        manifest = RunManifest.from_json(handle.read())
    worker = FleetWorker(
        manifest,
        out_dir,
        worker_index,
        lease_seconds=config.lease_seconds,
        poll_seconds=config.poll_seconds,
        search_workers=config.search_workers,
        chaos_kill_after=chaos_kill_after,
    )
    report = worker.run()
    raise SystemExit(0 if report.ok else 1)


def build_schedule(manifest: RunManifest, config: FleetConfig, start: float) -> dict:
    """Expand experiment-keyed priorities/deadlines to unit-keyed maps."""
    priorities, deadlines = {}, {}
    for unit in manifest.units:
        if unit.experiment in config.priorities:
            priorities[unit.unit_id] = int(config.priorities[unit.experiment])
        if unit.experiment in config.deadlines:
            deadlines[unit.unit_id] = start + float(
                config.deadlines[unit.experiment]
            )
    return {"priorities": priorities, "deadlines": deadlines}


def run_fleet(
    manifest: RunManifest,
    out_dir: str,
    config: FleetConfig,
    chaos_kills: dict = None,
    resume: bool = True,
    progress=None,
) -> FleetReport:
    """Run the whole manifest with ``config.workers`` local worker processes.

    Populates a fresh queue (completed units enter pre-completed, exactly
    like the static runner's resume skip; ``resume=False`` recomputes
    everything), spawns the workers, waits for all of them, and reports
    the queue's final state plus the exactly-once audit.  ``chaos_kills``
    maps worker index -> unit count for fault injection (see
    :class:`FleetWorker`).  ``progress``, when given, is called with one
    ``{"event": "fleet", ...}`` dict after population and after the
    workers exit.
    """
    chaos_kills = chaos_kills or {}
    os.makedirs(out_dir, exist_ok=True)
    write_manifest(manifest, out_dir)
    write_run_metadata(
        out_dir,
        manifest.spec.as_dict(),
        (1, 1),
        config.search_workers,
        extra={"mode": "fleet", "fleet": config.as_dict()},
    )
    ordered = [unit.unit_id for unit in manifest.hash_ordered()]
    completed = (
        [unit_id for unit_id in ordered if unit_is_completed(out_dir, unit_id)]
        if resume
        else []
    )
    start = time.time()
    schedule = build_schedule(manifest, config, start)
    queue = WorkQueue.fresh(queue_path(out_dir))
    report = FleetReport(workers=config.workers, units_total=len(ordered))
    try:
        counts = queue.populate(
            ordered,
            completed=completed,
            priorities=schedule["priorities"],
            deadlines=schedule["deadlines"],
            policy=config.policy,
            unit_budget=config.unit_budget,
        )
        if progress is not None:
            progress(
                {
                    "event": "fleet",
                    "phase": "populated",
                    "counts": counts,
                    "workers": config.workers,
                }
            )
        if counts.get("pending", 0):
            context = multiprocessing.get_context("spawn")
            processes = [
                context.Process(
                    target=_worker_entry,
                    args=(out_dir, index, config.as_dict(), chaos_kills.get(index)),
                )
                for index in range(config.workers)
            ]
            for process in processes:
                process.start()
            for process in processes:
                process.join()
            report.worker_exit_codes = [process.exitcode for process in processes]
        final = queue.counts()
        report.units_skipped = len(completed)
        report.units_completed = final.get("completed", 0) - len(completed)
        report.units_failed = final.get("failed", 0)
        report.units_deferred = final.get("deferred", 0)
        report.units_pending = final.get("pending", 0) + final.get("claimed", 0)
        report.failures = queue.failures()
        report.stolen_claims = queue.stolen_claims()
        report.audit_problems = queue.audit_problems()
    finally:
        queue.close()
    if progress is not None:
        progress(
            {"event": "fleet", "phase": "finished", "report": report.as_dict()}
        )
    return report


def load_fleet_config(metadata: dict) -> FleetConfig:
    """Rebuild the :class:`FleetConfig` recorded in a fleet run's ``run.json``."""
    document = metadata.get("fleet")
    if document is None:
        raise ValueError(
            "run.json says mode=fleet but records no fleet configuration; "
            "re-run 'repro-experiments fleet' to rewrite it"
        )
    try:
        return FleetConfig.from_dict(document)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"run.json holds an invalid fleet configuration: {error}"
        ) from None


def read_fleet_mode(metadata: dict) -> bool:
    """Was this out-dir produced by ``repro-experiments fleet``?"""
    return metadata.get("mode") == "fleet"


__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "DEFAULT_POLL_SECONDS",
    "FleetConfig",
    "FleetReport",
    "FleetWorker",
    "build_schedule",
    "load_fleet_config",
    "read_fleet_mode",
    "run_fleet",
]
