"""Fleet work queue: atomic lease claims, work stealing, policies, audit.

The static ``--shard K/N`` partition fixes each worker's unit set up front,
so one slow or killed shard straggles the whole run.  :class:`WorkQueue`
replaces the partition with *late binding*: every manifest unit sits in one
shared SQLite table and workers claim the next eligible unit atomically
under a **lease** -- a worker that stops heartbeating (killed, stalled,
wedged) loses its lease after ``lease_seconds`` and any live peer steals
the unit.  The queue borrows the WAL + ``BEGIN IMMEDIATE`` + busy-timeout
conventions of :class:`repro.engine.cache.SqliteStore`, so any number of
worker processes can share one ``queue.sqlite`` file safely.

Scheduling **policies** order the eligible units: ``fifo`` keeps the
manifest's deterministic hash order, ``priority`` serves higher-priority
units first, and ``edd`` (earliest due date) serves the unit whose deadline
expires soonest.  A **unit budget** defers the lowest-ranked units
entirely -- the throttle mode for runs that must not spend more than N
units' worth of compute; a later unbudgeted resume picks the deferred
units up.

Every claim is recorded in an append-only **audit table** with its outcome
(``completed``, ``failed``, ``expired``, ``superseded``) and whether the
claimant actually started computing the payload (``executed``).  The audit
is what turns "the merged tree looks right" into a checkable exactly-once
statement: a correct fleet run shows exactly one *completed* claim per
unit, each backed by exactly one execution.

The queue is **coordination state, not run state**: it is rebuilt from the
artifact tree (``unit_is_completed``) on every fleet invocation, so a
crashed fleet -- even one killed inside a queue transaction -- resumes
from the artifacts exactly like a static shard does, and the queue file
itself needs no crash-recovery story beyond SQLite's own journal.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.engine.cache import SQLITE_BUSY_TIMEOUT_S, _lock_errors, _SqliteTransaction

#: On-disk marker of the queue schema; bump when the table layout changes.
QUEUE_FORMAT = "repro-fleet-queue-v1"

#: The queue database's file name inside a fleet out-dir.
QUEUE_FILENAME = "queue.sqlite"

#: Accepted scheduling policies (the ORDER BY of :meth:`WorkQueue.claim`).
POLICIES = ("fifo", "priority", "edd")

#: ORDER BY clause per policy.  ``seq`` (the manifest hash order) is always
#: the final tie-break, so every policy stays deterministic.
_POLICY_ORDER = {
    "fifo": "seq",
    "priority": "priority DESC, seq",
    "edd": "(due IS NULL), due, seq",
}


def queue_path(out_dir: str) -> str:
    return os.path.join(out_dir, QUEUE_FILENAME)


def validate_policy(policy: str) -> str:
    if policy not in POLICIES:
        choices = ", ".join(repr(choice) for choice in POLICIES)
        raise ValueError(f"policy must be one of {choices}, got {policy!r}")
    return policy


@dataclass(frozen=True)
class Claim:
    """One granted lease: the unit, its claim row, and the lease expiry."""

    unit_id: str
    claim_id: int
    worker: str
    lease_expires: float


class WorkQueue:
    """Shared SQLite-backed unit queue with lease claims and an audit trail.

    ``clock`` is the time source for leases (``time.time`` by default);
    tests inject a virtual clock to expire leases deterministically.  One
    connection per process, serialized behind a lock within the process and
    behind SQLite's WAL/busy-timeout across processes.
    """

    def __init__(self, path: str, clock=time.time):
        self.path = path
        self._clock = clock
        self._lock = threading.RLock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # A lock held past the busy timeout is one ValueError naming the path.
        with _lock_errors(path):
            self._connection = sqlite3.connect(
                path,
                timeout=SQLITE_BUSY_TIMEOUT_S,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions are explicit
            )
            self._initialise()

    @classmethod
    def fresh(cls, path: str, clock=time.time) -> "WorkQueue":
        """Create a queue at ``path``, discarding any previous queue file.

        The queue is per-invocation coordination state: a stale file from a
        crashed fleet holds dangling claims whose workers are gone, and the
        artifact tree (not the queue) is the durable record of progress.
        """
        for suffix in ("", "-wal", "-shm"):
            stale = path + suffix
            if os.path.exists(stale):
                os.unlink(stale)
        return cls(path, clock=clock)

    def _initialise(self) -> None:
        connection = self._connection
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        connection.execute(f"PRAGMA busy_timeout={int(SQLITE_BUSY_TIMEOUT_S * 1000)}")
        with self._transaction():
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta (name TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS units ("
                "  unit_id TEXT PRIMARY KEY,"
                "  seq INTEGER NOT NULL,"        # manifest hash order
                "  priority INTEGER NOT NULL,"   # higher = sooner ('priority')
                "  due REAL,"                    # deadline seconds ('edd')
                "  state TEXT NOT NULL,"         # pending|claimed|completed|
                "                              "  # failed|deferred
                "  precompleted INTEGER NOT NULL,"  # done before this fleet run
                "  owner TEXT,"                  # current claim's worker
                "  claim_id INTEGER,"            # current claim row
                "  lease_expires REAL"
                ")"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS claims ("
                "  claim_id INTEGER PRIMARY KEY AUTOINCREMENT,"
                "  unit_id TEXT NOT NULL,"
                "  worker TEXT NOT NULL,"
                "  claimed_at REAL NOT NULL,"
                "  lease_expires REAL NOT NULL,"
                "  executed INTEGER NOT NULL DEFAULT 0,"
                "  state TEXT NOT NULL,"         # claimed|completed|failed|
                "                              "  # expired
                "  error TEXT"
                ")"
            )
            connection.execute(
                "CREATE INDEX IF NOT EXISTS units_state ON units(state)"
            )
            connection.execute(
                "INSERT OR IGNORE INTO meta (name, value) VALUES ('format', ?)",
                (QUEUE_FORMAT,),
            )
            stored = connection.execute(
                "SELECT value FROM meta WHERE name = 'format'"
            ).fetchone()
        if stored[0] != QUEUE_FORMAT:
            raise ValueError(
                f"work queue at {self.path!r} has format {stored[0]!r}, "
                f"not {QUEUE_FORMAT!r}"
            )

    @contextlib.contextmanager
    def _transaction(self):
        with _lock_errors(self.path), _SqliteTransaction(self._connection, self._lock) as connection:
            yield connection

    # ------------------------------------------------------------ population

    def populate(
        self,
        unit_ids,
        completed=(),
        priorities: dict = None,
        deadlines: dict = None,
        policy: str = "fifo",
        unit_budget: int = None,
    ) -> dict:
        """Fill the queue from a manifest's hash-ordered unit list.

        ``unit_ids`` must be the manifest's :meth:`hash_ordered` IDs (their
        position becomes ``seq``, the deterministic tie-break).  IDs in
        ``completed`` enter as already-``completed`` (resume: claimed by no
        one, audited as ``precompleted``).  ``priorities`` / ``deadlines``
        map unit IDs to an int priority (default 0) / a due timestamp.

        ``unit_budget`` caps how many units this fleet invocation may
        execute: units ranked beyond the budget *in policy order* enter as
        ``deferred`` and are never claimed -- the budget throttle that
        defers low-priority work.  Returns the state counts after
        population.
        """
        validate_policy(policy)
        if unit_budget is not None and unit_budget < 0:
            raise ValueError(f"unit_budget must be >= 0, got {unit_budget}")
        priorities = priorities or {}
        deadlines = deadlines or {}
        completed = set(completed)
        rows = []
        for seq, unit_id in enumerate(unit_ids):
            rows.append(
                (
                    unit_id,
                    seq,
                    int(priorities.get(unit_id, 0)),
                    deadlines.get(unit_id),
                    "completed" if unit_id in completed else "pending",
                    1 if unit_id in completed else 0,
                )
            )
        # Budget ranking happens here, deterministically, not claim-time:
        # the deferred set must not depend on worker interleaving.
        if unit_budget is not None:
            runnable = [row for row in rows if row[4] == "pending"]
            key = {
                "fifo": lambda row: row[1],
                "priority": lambda row: (-row[2], row[1]),
                "edd": lambda row: (row[3] is None, row[3] or 0.0, row[1]),
            }[policy]
            deferred = {row[0] for row in sorted(runnable, key=key)[unit_budget:]}
            rows = [
                (
                    unit_id,
                    seq,
                    priority,
                    due,
                    "deferred" if unit_id in deferred else state,
                    pre,
                )
                for unit_id, seq, priority, due, state, pre in rows
            ]
        with self._transaction():
            self._connection.execute("DELETE FROM units")
            self._connection.executemany(
                "INSERT INTO units (unit_id, seq, priority, due, state, "
                "precompleted, owner, claim_id, lease_expires) "
                "VALUES (?, ?, ?, ?, ?, ?, NULL, NULL, NULL)",
                rows,
            )
            self._connection.execute(
                "INSERT OR REPLACE INTO meta (name, value) VALUES ('policy', ?)",
                (policy,),
            )
        return self.counts()

    def policy(self) -> str:
        with self._lock:
            row = self._connection.execute(
                "SELECT value FROM meta WHERE name = 'policy'"
            ).fetchone()
        return row[0] if row else "fifo"

    # -------------------------------------------------------------- claiming

    def claim(self, worker: str, lease_seconds: float) -> Claim:
        """Atomically claim the next eligible unit; ``None`` when there is none.

        Eligible: any ``pending`` unit, or any ``claimed`` unit whose lease
        has expired (work stealing -- the previous claim is audited as
        ``expired`` in the same transaction, so there is never a moment
        with two live claims on one unit).
        """
        now = self._clock()
        order = _POLICY_ORDER[validate_policy(self.policy())]
        expires = now + lease_seconds
        with self._transaction():
            row = self._connection.execute(
                "SELECT unit_id, state, claim_id FROM units "
                "WHERE state = 'pending' "
                "   OR (state = 'claimed' AND lease_expires < ?) "
                f"ORDER BY {order} LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            unit_id, state, old_claim_id = row
            if state == "claimed":
                self._connection.execute(
                    "UPDATE claims SET state = 'expired' "
                    "WHERE claim_id = ? AND state = 'claimed'",
                    (old_claim_id,),
                )
            cursor = self._connection.execute(
                "INSERT INTO claims (unit_id, worker, claimed_at, "
                "lease_expires, executed, state) VALUES (?, ?, ?, ?, 0, 'claimed')",
                (unit_id, worker, now, expires),
            )
            claim_id = cursor.lastrowid
            self._connection.execute(
                "UPDATE units SET state = 'claimed', owner = ?, claim_id = ?, "
                "lease_expires = ? WHERE unit_id = ?",
                (worker, claim_id, expires, unit_id),
            )
        return Claim(unit_id, claim_id, worker, expires)

    def heartbeat(self, claim: Claim, lease_seconds: float) -> bool:
        """Extend a live claim's lease; ``False`` when it was already lost."""
        expires = self._clock() + lease_seconds
        with self._transaction():
            cursor = self._connection.execute(
                "UPDATE claims SET lease_expires = ? "
                "WHERE claim_id = ? AND state = 'claimed'",
                (expires, claim.claim_id),
            )
            if cursor.rowcount == 0:
                return False
            self._connection.execute(
                "UPDATE units SET lease_expires = ? WHERE claim_id = ?",
                (expires, claim.claim_id),
            )
        return True

    def mark_executing(self, claim: Claim) -> bool:
        """Record that this claim's payload computation is starting.

        The flag is what lets the audit distinguish "claimed but died before
        doing any work" (steal recomputes, no duplicate execution) from an
        actual execution.  Returns ``False`` when the lease was already
        stolen -- the caller should drop the unit without computing.
        """
        with self._transaction():
            cursor = self._connection.execute(
                "UPDATE claims SET executed = 1 "
                "WHERE claim_id = ? AND state = 'claimed'",
                (claim.claim_id,),
            )
            return cursor.rowcount > 0

    def complete(self, claim: Claim) -> bool:
        """Resolve a claim as completed; ``False`` when it was stolen.

        A stale worker that finishes *after* losing its lease gets
        ``False`` -- its artifact write was harmless (artifacts are
        deterministic and written atomically) but it must not record a
        second completion: the audit invariant is exactly one completed
        claim per unit.
        """
        return self._resolve(claim, "completed", None)

    def fail(self, claim: Claim, error: str) -> bool:
        """Resolve a claim as failed (the unit becomes terminal ``failed``)."""
        return self._resolve(claim, "failed", str(error))

    def _resolve(self, claim: Claim, state: str, error) -> bool:
        with self._transaction():
            cursor = self._connection.execute(
                "UPDATE claims SET state = ?, error = ? "
                "WHERE claim_id = ? AND state = 'claimed'",
                (state, error, claim.claim_id),
            )
            if cursor.rowcount == 0:
                return False
            self._connection.execute(
                "UPDATE units SET state = ?, owner = NULL, claim_id = NULL, "
                "lease_expires = NULL WHERE claim_id = ?",
                (state, claim.claim_id),
            )
        return True

    # ------------------------------------------------------------ inspection

    def counts(self) -> dict:
        """``{state: unit count}`` snapshot (absent states omitted)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT state, COUNT(*) FROM units GROUP BY state"
            ).fetchall()
        return dict(rows)

    def unfinished(self) -> int:
        """Units still in flight: pending or claimed.

        ``deferred`` (budget) and ``failed`` are terminal for this
        invocation -- a worker loop exits when this reaches zero.
        """
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM units WHERE state IN ('pending', 'claimed')"
            ).fetchone()[0]

    def deferred_ids(self) -> list:
        with self._lock:
            rows = self._connection.execute(
                "SELECT unit_id FROM units WHERE state = 'deferred' ORDER BY seq"
            ).fetchall()
        return [unit_id for (unit_id,) in rows]

    def failures(self) -> list:
        """``[{unit_id, error}]`` of failed claims, in claim order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT unit_id, error FROM claims WHERE state = 'failed' "
                "ORDER BY claim_id"
            ).fetchall()
        return [{"unit_id": unit_id, "error": error} for unit_id, error in rows]

    def audit(self) -> list:
        """Every claim ever granted, as dicts, in grant order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT claim_id, unit_id, worker, claimed_at, lease_expires, "
                "executed, state, error FROM claims ORDER BY claim_id"
            ).fetchall()
        keys = (
            "claim_id", "unit_id", "worker", "claimed_at", "lease_expires",
            "executed", "state", "error",
        )
        return [dict(zip(keys, row)) for row in rows]

    def audit_problems(self) -> list:
        """Exactly-once violations, as human-readable strings (empty = clean).

        Checked invariants: a completed unit has exactly one completed
        claim (zero is fine only for units completed *before* this fleet
        run); no unit ever has two completed claims (duplicate execution);
        every completed claim actually executed its payload.
        """
        problems = []
        with self._lock:
            units = self._connection.execute(
                "SELECT unit_id, state, precompleted FROM units ORDER BY seq"
            ).fetchall()
            claims = self._connection.execute(
                "SELECT unit_id, state, executed FROM claims"
            ).fetchall()
        completed_claims = {}
        for unit_id, state, executed in claims:
            if state == "completed":
                completed_claims[unit_id] = completed_claims.get(unit_id, 0) + 1
                if not executed:
                    problems.append(
                        f"{unit_id}: completed claim never marked executing"
                    )
        for unit_id, count in completed_claims.items():
            if count > 1:
                problems.append(
                    f"{unit_id}: {count} completed claims (duplicate execution)"
                )
        for unit_id, state, precompleted in units:
            done = completed_claims.get(unit_id, 0)
            if state == "completed" and not precompleted and done != 1:
                problems.append(
                    f"{unit_id}: completed with {done} completed claims"
                )
            if state != "completed" and done:
                problems.append(
                    f"{unit_id}: {done} completed claims but unit state is {state!r}"
                )
        return problems

    def stolen_claims(self) -> int:
        """Claims that lost their lease to a peer (the steal counter)."""
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM claims WHERE state = 'expired'"
            ).fetchone()[0]

    def close(self) -> None:
        if getattr(self, "_connection", None) is not None:
            self._connection.close()
            self._connection = None
