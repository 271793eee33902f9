"""Tests for the fleet scheduler: work queue, leases, stealing, byte-identity.

The acceptance contract under test:

* any fleet schedule -- any worker count, any kill schedule, any lease
  timeout -- produces a ``units/`` tree byte-identical to the 1/1 static
  run, with every unit completed and the claim audit showing exactly one
  completed claim per unit (no duplicate execution);
* a live worker steals a dead peer's unit after its lease expires, and the
  dead peer's late ``complete()`` is rejected;
* the ``priority`` and ``edd`` policies order claims deterministically and
  ``--unit-budget`` defers the lowest-ranked units to a later resume;
* workers shut down when the queue drains, including the degenerate
  already-complete (resume no-op) case.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.orchestration.fleet import (
    FleetConfig,
    FleetWorker,
    build_schedule,
    run_fleet,
)
from repro.orchestration.manifest import ManifestSpec, RunManifest
from repro.orchestration.runner import (
    Runner,
    unit_status_path,
    write_manifest,
    write_run_metadata,
)
from repro.orchestration import scheduler
from repro.orchestration.scheduler import (
    WorkQueue,
    queue_path,
    validate_policy,
)

#: Small but heterogeneous: a search-based unit, a model-only unit and a
#: goldens unit, so the fleet exercises engines, caches and no-backend
#: units alike while staying fast.
FLEET_SPEC = dict(workloads=("tiny",), experiments=("fig14", "fig16", "goldens"))


def fleet_manifest() -> RunManifest:
    return RunManifest.from_spec(ManifestSpec(**FLEET_SPEC))


def read_tree(out_dir):
    """{relative path: bytes} of the merge-compared artifact files."""
    tree = {}
    with open(os.path.join(out_dir, "manifest.json"), "rb") as handle:
        tree["manifest.json"] = handle.read()
    units_dir = os.path.join(out_dir, "units")
    for name in sorted(os.listdir(units_dir)):
        with open(os.path.join(units_dir, name), "rb") as handle:
            tree[f"units/{name}"] = handle.read()
    return tree


@pytest.fixture(scope="module")
def static_tree(tmp_path_factory):
    """The 1/1 static run's tree: the byte-identity target for every fleet."""
    out_dir = str(tmp_path_factory.mktemp("static") / "run")
    report = Runner(fleet_manifest(), out_dir).run()
    assert report.complete
    return read_tree(out_dir)


class VirtualClock:
    """Deterministic time source shared by a queue and its virtual workers."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def simulate_fleet(out_dir, worker_count, kill_schedule, lease_seconds):
    """Run a virtual fleet to completion under a deterministic schedule.

    Workers run in-process against one shared queue and a virtual clock,
    stepping round-robin (one claim + execution per turn).  A worker whose
    ``(worker, nth claim)`` appears in ``kill_schedule`` "dies" holding
    that claim: it vanishes from the rotation without executing, failing
    or releasing -- exactly what SIGKILL leaves behind -- and recovery can
    only come from lease expiry.  When every worker is dead, a replacement
    spawns (the operator restarting the fleet).  Returns the queue for
    auditing; the caller closes it.
    """
    manifest = fleet_manifest()
    clock = VirtualClock()
    queue = WorkQueue.fresh(queue_path(out_dir), clock=clock)
    write_manifest(manifest, out_dir)
    write_run_metadata(out_dir, manifest.spec.as_dict(), (1, 1), 1)
    queue.populate([unit.unit_id for unit in manifest.hash_ordered()])

    kill_points = set(kill_schedule)
    next_index = worker_count
    workers, claims_made = {}, {}

    def spawn(index):
        workers[index] = FleetWorker(
            fleet_manifest(),
            out_dir,
            index,
            queue=queue,
            lease_seconds=lease_seconds,
            heartbeat_interval=0,  # no renewal: kills must expire naturally
        )
        claims_made[index] = 0

    for index in range(worker_count):
        spawn(index)
    alive = set(range(worker_count))
    try:
        while queue.unfinished() > 0:
            progressed = False
            for index in sorted(alive):
                claim = queue.claim(workers[index].name, lease_seconds)
                if claim is None:
                    continue
                claims_made[index] += 1
                clock.advance(0.25)  # execution takes (virtual) time
                if (index, claims_made[index]) in kill_points:
                    alive.discard(index)  # died holding the claim
                    progressed = True
                    continue
                workers[index].execute(claim)
                progressed = True
            if not alive:
                spawn(next_index)
                alive = {next_index}
                next_index += 1
            if not progressed:
                # Only expired leases remain claimable: let them expire.
                clock.advance(lease_seconds + 1.0)
    finally:
        for worker in workers.values():
            worker.executor.close()
    return queue


class TestSimulatedFleet:
    @settings(max_examples=6, deadline=None)
    @given(
        worker_count=st.integers(min_value=1, max_value=3),
        kill_schedule=st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=3),
            ),
            max_size=3,
        ),
        lease_seconds=st.floats(min_value=1.0, max_value=120.0),
    )
    def test_any_schedule_matches_the_static_run(
        self, static_tree, worker_count, kill_schedule, lease_seconds
    ):
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = os.path.join(tmp, "fleet")
            queue = simulate_fleet(
                out_dir, worker_count, kill_schedule, lease_seconds
            )
            try:
                counts = queue.counts()
                total = len(static_tree) - 1  # minus manifest.json
                # Completeness: every unit completed, none failed/stuck.
                assert counts == {"completed": total}
                # Byte-identity with the 1/1 static run.
                assert read_tree(out_dir) == static_tree
                # Exactly-once: the claim audit is clean, with exactly one
                # completed claim per unit and a completed status for each.
                assert queue.audit_problems() == []
                audit = queue.audit()
                completed = [c for c in audit if c["state"] == "completed"]
                assert len(completed) == total
                assert len({c["unit_id"] for c in completed}) == total
                assert all(c["executed"] for c in completed)
            finally:
                queue.close()

    def test_killed_workers_force_steals(self, static_tree):
        # A deterministic pin of the property: worker 0 dies on its first
        # claim, so its unit *must* be stolen after the lease expires.
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = os.path.join(tmp, "fleet")
            queue = simulate_fleet(
                out_dir, worker_count=2, kill_schedule={(0, 1)}, lease_seconds=30.0
            )
            try:
                assert queue.stolen_claims() >= 1
                assert queue.audit_problems() == []
                assert read_tree(out_dir) == static_tree
            finally:
                queue.close()


class TestLeases:
    def _queue(self, tmp_path, unit_ids=("u1", "u2"), policy="fifo", **populate):
        clock = VirtualClock()
        queue = WorkQueue.fresh(str(tmp_path / "queue.sqlite"), clock=clock)
        queue.populate(list(unit_ids), policy=policy, **populate)
        return queue, clock

    def test_expired_lease_is_stolen_and_late_complete_rejected(self, tmp_path):
        queue, clock = self._queue(tmp_path)
        slow = queue.claim("worker-000", lease_seconds=10.0)
        assert queue.mark_executing(slow)
        # Still leased: the peer gets the *other* unit, not a steal.
        other = queue.claim("worker-001", lease_seconds=10.0)
        assert other.unit_id != slow.unit_id
        assert queue.mark_executing(other)
        assert queue.complete(other)
        clock.advance(11.0)  # worker-000 went silent past its lease
        stolen = queue.claim("worker-001", lease_seconds=10.0)
        assert stolen.unit_id == slow.unit_id
        assert queue.stolen_claims() == 1
        assert queue.mark_executing(stolen)
        assert queue.complete(stolen)
        # The original claimant wakes up late: every verb now rejects it.
        assert not queue.heartbeat(slow, 10.0)
        assert not queue.complete(slow)
        assert queue.audit_problems() == []

    def test_heartbeat_keeps_a_slow_claim_alive(self, tmp_path):
        queue, clock = self._queue(tmp_path, unit_ids=("u1",))
        claim = queue.claim("worker-000", lease_seconds=10.0)
        for _ in range(5):  # 40 virtual seconds, renewed every 8
            clock.advance(8.0)
            assert queue.heartbeat(claim, 10.0)
            assert queue.claim("worker-001", lease_seconds=10.0) is None
        assert queue.complete(claim)
        assert queue.stolen_claims() == 0

    def test_empty_queue_shuts_workers_down(self, tmp_path):
        queue, _ = self._queue(tmp_path, unit_ids=("u1",), completed=["u1"])
        assert queue.claim("worker-000", lease_seconds=10.0) is None
        assert queue.unfinished() == 0  # the worker loop's exit condition
        assert queue.audit_problems() == []


class TestPolicies:
    def _drain_order(self, tmp_path, policy, **populate):
        clock = VirtualClock()
        queue = WorkQueue.fresh(str(tmp_path / "queue.sqlite"), clock=clock)
        queue.populate(["a", "b", "c", "d"], policy=policy, **populate)
        order = []
        while True:
            claim = queue.claim("w", lease_seconds=10.0)
            if claim is None:
                break
            queue.mark_executing(claim)
            queue.complete(claim)
            order.append(claim.unit_id)
        queue.close()
        return order

    def test_fifo_follows_population_order(self, tmp_path):
        assert self._drain_order(tmp_path, "fifo") == ["a", "b", "c", "d"]

    def test_priority_serves_high_ranks_first(self, tmp_path):
        order = self._drain_order(
            tmp_path, "priority", priorities={"c": 2, "d": 1}
        )
        assert order == ["c", "d", "a", "b"]  # then population order

    def test_edd_serves_earliest_deadline_first(self, tmp_path):
        order = self._drain_order(
            tmp_path, "edd", deadlines={"d": 50.0, "b": 20.0}
        )
        # Dated units by due date, undated ones after in population order.
        assert order == ["b", "d", "a", "c"]

    def test_unknown_policy_is_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            validate_policy("sjf")


class TestBudget:
    def test_budget_defers_lowest_ranked_units(self, tmp_path):
        queue = WorkQueue.fresh(str(tmp_path / "queue.sqlite"))
        counts = queue.populate(
            ["a", "b", "c", "d"],
            policy="priority",
            priorities={"c": 2, "d": 1},
            unit_budget=2,
        )
        assert counts == {"pending": 2, "deferred": 2}
        assert queue.deferred_ids() == ["a", "b"]  # the rank-3rd and -4th
        drained = []
        while True:
            claim = queue.claim("w", lease_seconds=10.0)
            if claim is None:
                break
            queue.mark_executing(claim)
            queue.complete(claim)
            drained.append(claim.unit_id)
        assert drained == ["c", "d"]  # deferred units are never claimable
        queue.close()

    def test_budget_counts_only_fresh_work(self, tmp_path):
        queue = WorkQueue.fresh(str(tmp_path / "queue.sqlite"))
        counts = queue.populate(
            ["a", "b", "c"], completed=["a", "b"], unit_budget=1
        )
        # Precompleted units do not consume budget: the one pending unit runs.
        assert counts == {"completed": 2, "pending": 1}
        queue.close()

    def test_negative_budget_is_rejected(self, tmp_path):
        queue = WorkQueue.fresh(str(tmp_path / "queue.sqlite"))
        with pytest.raises(ValueError, match="unit_budget"):
            queue.populate(["a"], unit_budget=-1)
        queue.close()


class TestLockedQueue:
    """A queue lock held past the busy timeout is one ``ValueError`` line
    naming the queue file, never a raw ``sqlite3.OperationalError``."""

    @pytest.fixture
    def locked_queue(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scheduler, "SQLITE_BUSY_TIMEOUT_S", 0.2)
        path = str(tmp_path / "queue.sqlite")
        queue = WorkQueue.fresh(path)
        holder = sqlite3.connect(path, isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        yield queue, path
        holder.close()
        queue.close()

    @staticmethod
    def assert_one_line_lock_error(error, path):
        message = str(error.value)
        assert "locked" in message and repr(path) in message and "\n" not in message

    def test_populate_under_a_held_lock(self, locked_queue):
        queue, path = locked_queue
        with pytest.raises(ValueError) as error:
            queue.populate(["a", "b"])
        self.assert_one_line_lock_error(error, path)

    def test_claim_under_a_held_lock(self, locked_queue):
        queue, path = locked_queue
        with pytest.raises(ValueError) as error:
            queue.claim("w", lease_seconds=10.0)
        self.assert_one_line_lock_error(error, path)


class TestFullQueue:
    """A queue file that cannot grow (SQLITE_FULL) is one ``ValueError``
    line naming it, and the failed transaction leaves the queue usable."""

    def test_populate_past_the_page_cap(self, full_sqlite, tmp_path):
        path = str(tmp_path / "queue.sqlite")
        queue = WorkQueue.fresh(path)
        with pytest.raises(ValueError) as error:
            queue.populate([f"unit-{index:04d}" for index in range(2_000)])
        message = str(error.value)
        assert "database or disk is full" in message and repr(path) in message
        assert "\n" not in message
        assert not queue._connection.in_transaction
        assert queue.counts() == {}
        assert queue.populate(["a", "b"]) == {"pending": 2}
        queue.close()


class TestFleetConfig:
    def test_roundtrips_through_run_json_dict(self):
        config = FleetConfig(
            workers=3,
            lease_seconds=12.5,
            policy="edd",
            unit_budget=7,
            priorities={"fig14": 2},
            deadlines={"goldens": 60.0},
        )
        assert FleetConfig.from_dict(config.as_dict()) == config

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="workers"):
            FleetConfig(workers=0)
        with pytest.raises(ValueError, match="lease_seconds"):
            FleetConfig(lease_seconds=0)
        with pytest.raises(ValueError, match="policy"):
            FleetConfig(policy="lifo")

    def test_recorded_cache_store_is_ignored(self):
        """Older fleet trees recorded the store they could choose."""
        config = FleetConfig(workers=3)
        assert FleetConfig.from_dict(dict(config.as_dict(), cache_store="pickle")) == config

    def test_build_schedule_expands_experiments_to_units(self):
        manifest = fleet_manifest()
        config = FleetConfig(
            priorities={"fig14": 3}, deadlines={"goldens": 30.0}, policy="edd"
        )
        schedule = build_schedule(manifest, config, start=1000.0)
        by_experiment = {unit.experiment: unit.unit_id for unit in manifest.units}
        assert schedule["priorities"] == {by_experiment["fig14"]: 3}
        assert schedule["deadlines"] == {by_experiment["goldens"]: 1030.0}


class TestFleetProcesses:
    """End-to-end fleets with real worker *processes* (spawn)."""

    def test_fleet_tree_matches_static_and_resumes_noop(
        self, tmp_path, static_tree, capsys
    ):
        out_dir = str(tmp_path / "fleet")
        base = ["--workloads", "tiny", "--experiments", "fig14", "fig16", "goldens"]
        assert main([
            "fleet", "--out-dir", out_dir, "--fleet-workers", "2", "--json", *base,
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units_completed"] == report["units_total"]
        assert report["audit_problems"] == []
        assert report["worker_exit_codes"] == [0, 0]
        assert read_tree(out_dir) == static_tree
        for name in static_tree:
            if name.startswith("units/"):
                unit_id = os.path.splitext(os.path.basename(name))[0]
                with open(unit_status_path(out_dir, unit_id)) as handle:
                    assert json.load(handle)["state"] == "completed"

        # Resume: fleet out-dirs resume like sharded ones -- zero work.
        assert main(["resume", "--out-dir", out_dir, "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["mode"] == "fleet"
        assert resumed["units_completed"] == 0
        assert resumed["units_skipped"] == resumed["units_total"]
        assert resumed["worker_exit_codes"] == []  # no workers even spawned
        assert read_tree(out_dir) == static_tree

    def test_resume_of_a_recorded_pickle_store_finishes_on_sqlite(
        self, tmp_path, static_tree, capsys
    ):
        out_dir = str(tmp_path / "fleet")
        base = ["--workloads", "tiny", "--experiments", "fig14", "fig16", "goldens"]
        assert main([
            "fleet", "--out-dir", out_dir, "--fleet-workers", "1",
            "--unit-budget", "1", "--json", *base,
        ]) == 0
        assert json.loads(capsys.readouterr().out)["units_deferred"] == 2
        path = os.path.join(out_dir, "run.json")
        with open(path) as handle:
            document = json.load(handle)
        document["fleet"]["cache_store"] = "pickle"
        with open(path, "w") as handle:
            json.dump(document, handle)
        capsys.readouterr()
        assert main(["resume", "--out-dir", out_dir, "--no-unit-budget", "--json"]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["mode"] == "fleet"
        assert resumed["units_completed"] == 2 and resumed["units_failed"] == 0
        assert read_tree(out_dir) == static_tree
        assert os.listdir(os.path.join(out_dir, "cache")) == ["search-auto-fleet.sqlite"]

    def test_chaos_killed_worker_is_stolen_from(self, tmp_path, static_tree):
        out_dir = str(tmp_path / "fleet")
        manifest = fleet_manifest()
        config = FleetConfig(workers=2, lease_seconds=2.0, poll_seconds=0.05)
        report = run_fleet(manifest, out_dir, config, chaos_kills={0: 0})
        assert report.complete
        assert report.worker_exit_codes[0] == -9  # SIGKILLed mid-claim
        assert report.stolen_claims >= 1
        assert report.audit_problems == []
        assert read_tree(out_dir) == static_tree

    def test_failed_unit_fails_the_fleet_but_not_the_run(self, tmp_path):
        # 0.001 KB fits no tiling: fig14 fails, the other units complete.
        manifest = RunManifest.from_spec(
            ManifestSpec(
                workloads=("tiny",),
                experiments=("fig14", "fig16"),
                params={"fig14": {"capacity_kib": 0.001}},
            )
        )
        out_dir = str(tmp_path / "fleet")
        report = run_fleet(manifest, out_dir, FleetConfig(workers=2))
        assert not report.ok
        assert report.units_failed == 1
        assert report.units_completed == 1
        assert "no tiling" in report.failures[0]["error"]
        assert report.audit_problems == []


class TestFleetCliValidation:
    def test_bad_priority_pair_exits_2(self, tmp_path, capsys):
        assert main([
            "fleet", "--out-dir", str(tmp_path / "o"),
            "--workloads", "tiny", "--experiments", "fig16",
            "--priority", "fig16",
        ]) == 2
        assert "EXPERIMENT=VALUE" in capsys.readouterr().err

    def test_unknown_priority_experiment_exits_2(self, tmp_path, capsys):
        assert main([
            "fleet", "--out-dir", str(tmp_path / "o"),
            "--workloads", "tiny", "--experiments", "fig16",
            "--priority", "nope=3",
        ]) == 2
        assert "nope" in capsys.readouterr().err

    def test_bad_chaos_kill_pair_exits_2(self, tmp_path, capsys):
        assert main([
            "fleet", "--out-dir", str(tmp_path / "o"),
            "--workloads", "tiny", "--experiments", "fig16",
            "--chaos-kill", "zero",
        ]) == 2
        assert "WORKER:COMPLETIONS" in capsys.readouterr().err

    def test_fleet_rejects_max_units(self, tmp_path, capsys):
        assert main([
            "fleet", "--out-dir", str(tmp_path / "o"),
            "--workloads", "tiny", "--experiments", "fig16",
            "--max-units", "1",
        ]) == 2
        assert "--unit-budget" in capsys.readouterr().err

    def test_resume_rejects_fleet_flags_on_static_runs(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        assert main([
            "run", "--out-dir", out_dir,
            "--workloads", "tiny", "--experiments", "fig16",
        ]) == 0
        capsys.readouterr()
        assert main(["resume", "--out-dir", out_dir, "--fleet-workers", "2"]) == 2
        assert "static shard run" in capsys.readouterr().err
