"""SQLite-WAL claim queue: a campaign as a shared work pool.

The queue is the *coordination* half of a campaign.  It keeps one row
per sweep unit and owns the append-only :class:`~repro.campaign.
manifest.Manifest` journal it writes to.  On disk it lives beside
``manifest.jsonl`` as ``claims.sqlite`` and lets any number of worker
processes (``repro sweep worker``, or the children behind
``--workers N``) pull open units concurrently.  An in-memory campaign
and the tuner drain the same table on ``ClaimQueue(":memory:")`` with
an in-memory journal, so every campaign runs one claim loop:

* **claiming** is an atomic ``open -> claimed`` transition inside a
  ``BEGIN IMMEDIATE`` transaction, stamped with the claimer's identity
  (``host:pid:nonce``) and a **lease** deadline;
* **heartbeats** extend the lease between units, so a healthy worker
  never loses work, while a SIGKILLed or hung worker's units return to
  the queue — immediately when the owner pid is visibly dead on the
  same host, or at lease expiry otherwise;
* **completion** is exactly-once: the ``claimed -> done`` transition is
  a conditional UPDATE guarded by the owner identity, and the queue's
  manifest append runs *inside* the same transaction — a worker whose
  lease was reclaimed loses the UPDATE and therefore never journals;
* **reconciliation** (:meth:`ClaimQueue.reconcile`) repairs the one
  crash window the above leaves (journal appended, claim-row commit
  lost): the manifest journal is the authority, so manifest-``done``
  units are forced ``done`` in the claim table without re-journaling,
  and claim-table-``done`` units missing from the journal are reopened
  (they re-resolve through the warm cache and journal once).

Failed units keep their error and attempt count in the claim row (and
the journal) and reopen after a ``not_before`` backoff while attempts
remain; ``reconcile(reset_failed=True)`` — the resume path — reopens
terminal failures, mirroring the PyExperimenter "reset failed
experiments" workflow.

The queue never holds results: simulation outputs travel through the
content-addressed :mod:`repro.runtime.cache` exactly as before, so the
claim table adds coordination without forking cache keys.
"""

from __future__ import annotations

import os
import socket
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Union

from repro.campaign.manifest import Manifest

CLAIMS_NAME = "claims.sqlite"

#: Claim-row status values.
OPEN = "open"
CLAIMED = "claimed"
DONE = "done"
FAILED = "failed"

#: Default lease (seconds) a claim stays valid without a heartbeat, and
#: how long an idle worker sleeps before re-polling the queue.
DEFAULT_LEASE = 120.0
DEFAULT_POLL = 0.5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS units (
    unit_id       TEXT PRIMARY KEY,
    status        TEXT NOT NULL DEFAULT 'open',
    owner         TEXT,
    owner_host    TEXT,
    owner_pid     INTEGER,
    lease_expires REAL NOT NULL DEFAULT 0,
    heartbeat     REAL NOT NULL DEFAULT 0,
    not_before    REAL NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    digest        TEXT
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
"""


class QueueError(RuntimeError):
    """A claim-queue usage error (e.g. attaching with the wrong spec)."""


def _pid_alive(pid: Optional[int]) -> bool:
    """Best-effort liveness probe for a same-host pid."""
    if not pid:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        # EPERM etc.: the pid exists but is not ours — treat as alive.
        return True
    return True


@dataclass(frozen=True)
class ClaimedUnit:
    """One successful claim: the unit and which attempt this is."""

    unit_id: str
    attempt: int


@dataclass(frozen=True)
class QueueCounts:
    """Row counts per status (one ``counts()`` snapshot).

    ``retry_in`` is how many seconds, on the queue's clock, until the
    earliest ``open`` row passes its retry backoff (0 when one is
    claimable now, ``None`` when no row is open) — how long an idle
    worker may sleep before a retry becomes claimable.
    """

    open: int = 0
    claimed: int = 0
    done: int = 0
    failed: int = 0
    retry_in: Optional[float] = None

    @property
    def total(self) -> int:
        return self.open + self.claimed + self.done + self.failed

    @property
    def active(self) -> int:
        """Units not yet in a terminal state."""
        return self.open + self.claimed


class ClaimQueue:
    """The claim table of one campaign (``claims.sqlite``, or
    ``":memory:"`` for a campaign without a directory).

    ``manifest`` is the journal :meth:`complete`/:meth:`fail` append to
    inside their transactions and :meth:`reconcile`/:meth:`done_ids`
    read; a queue without one only runs the lease protocol (status
    views, tests).  ``worker_id`` defaults to a fresh
    ``host:pid:nonce`` identity; ``clock`` is injectable so lease
    expiry is testable without sleeping.  Every mutating method is one
    WAL transaction, so any number of queues (processes) may point at
    the same file.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        manifest: Optional[Manifest] = None,
        worker_id: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        busy_timeout: float = 30.0,
        check_same_thread: bool = True,
    ):
        self.path = Path(path)
        self.manifest = manifest
        self.clock = clock
        self.host = socket.gethostname()
        self.pid = os.getpid()
        self.worker_id = worker_id or (
            f"{self.host}:{self.pid}:{uuid.uuid4().hex[:6]}"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # ``check_same_thread=False`` lets the claim server's HTTP
        # threads share per-worker connections; the server serializes
        # every dispatch behind one lock, so sqlite never sees
        # concurrent use of a connection.
        self._db = sqlite3.connect(
            str(self.path), timeout=busy_timeout, isolation_level=None,
            check_same_thread=check_same_thread,
        )
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)

    def close(self) -> None:
        self._db.close()

    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self):
        """One ``BEGIN IMMEDIATE`` write transaction (commit on exit).

        IMMEDIATE takes the write lock up front, so a transaction that
        read row state never loses a race before its UPDATE commits.
        """
        self._db.execute("BEGIN IMMEDIATE")
        try:
            yield self._db
        except BaseException:
            self._db.execute("ROLLBACK")
            raise
        else:
            self._db.execute("COMMIT")

    # ------------------------------------------------------------------
    # filling and repairing the table
    # ------------------------------------------------------------------
    def populate(
        self,
        unit_ids: Sequence[str],
        *,
        spec_digest: Optional[str] = None,
    ) -> int:
        """Insert missing units as ``open`` (idempotent).

        Row order is spec-expansion order, so single-worker claim order
        matches the pre-queue execution order.  ``spec_digest`` guards
        against attaching a queue to the wrong campaign.
        """
        added = 0
        with self.transaction() as db:
            if spec_digest is not None:
                row = db.execute(
                    "SELECT value FROM meta WHERE key='spec_digest'"
                ).fetchone()
                if row is None:
                    db.execute(
                        "INSERT INTO meta(key, value) "
                        "VALUES('spec_digest', ?)",
                        (spec_digest,),
                    )
                elif row[0] != spec_digest:
                    raise QueueError(
                        f"claim queue {self.path} belongs to a campaign "
                        f"with spec digest {row[0]}, not {spec_digest}"
                    )
            for uid in unit_ids:
                cur = db.execute(
                    "INSERT OR IGNORE INTO units(unit_id) VALUES (?)",
                    (uid,),
                )
                added += cur.rowcount
        return added

    def _journal(self) -> Manifest:
        if self.manifest is None:
            raise QueueError(
                f"claim queue {self.path} has no journal (manifest=)"
            )
        return self.manifest

    def reconcile(self, *, reset_failed: bool = False) -> dict:
        """Repair claim/journal divergence; the journal is the authority.

        The queue's manifest is re-read from disk inside the
        transaction, so the repair sees every committed journal line.
        Two crash windows are repaired:

        * journal says ``done`` but the claim row does not (a writer
          died after the manifest append, before the claim commit):
          force the row ``done`` *without* journaling again;
        * claim row says ``done`` but the journal does not (the journal
          was truncated/restored): reopen the row — the unit re-resolves
          through the warm cache and journals exactly once.

        ``reset_failed=True`` (the resume path) additionally reopens
        terminally failed units with a fresh attempt budget.
        """
        journal = self._journal()
        with self.transaction() as db:
            done = journal.reload(repair=True).done_ids()
            repaired = reopened = reset = 0
            rows = db.execute("SELECT unit_id, status FROM units").fetchall()
            for uid, status in rows:
                if uid in done and status != DONE:
                    db.execute(
                        "UPDATE units SET status=?, owner=NULL,"
                        " owner_host=NULL, owner_pid=NULL, error=NULL"
                        " WHERE unit_id=?",
                        (DONE, uid),
                    )
                    repaired += 1
                elif status == DONE and uid not in done:
                    db.execute(
                        "UPDATE units SET status=?, owner=NULL,"
                        " owner_host=NULL, owner_pid=NULL, digest=NULL,"
                        " attempts=0, not_before=0 WHERE unit_id=?",
                        (OPEN, uid),
                    )
                    reopened += 1
                elif reset_failed and status == FAILED:
                    db.execute(
                        "UPDATE units SET status=?, owner=NULL,"
                        " owner_host=NULL, owner_pid=NULL, attempts=0,"
                        " error=NULL, not_before=0 WHERE unit_id=?",
                        (OPEN, uid),
                    )
                    reset += 1
        return {
            "repaired_done": repaired,
            "reopened": reopened,
            "reset_failed": reset,
        }

    # ------------------------------------------------------------------
    # the worker protocol: claim -> heartbeat -> complete/fail
    # ------------------------------------------------------------------
    def claim(self, limit: int, *, lease: float) -> List[ClaimedUnit]:
        """Atomically claim up to ``limit`` units for ``lease`` seconds.

        Eligible units are ``open`` rows past their retry backoff, plus
        ``claimed`` rows whose owner is provably gone — lease expired,
        or a same-host owner pid that no longer exists (which is what
        makes recovery from a SIGKILLed worker immediate rather than a
        lease-timeout wait).
        """
        if limit <= 0:
            return []
        now = self.clock()
        out: List[ClaimedUnit] = []
        with self.transaction() as db:
            rows = db.execute(
                "SELECT unit_id, status, owner, owner_host, owner_pid,"
                " lease_expires, not_before, attempts FROM units"
                " WHERE status=? OR status=? ORDER BY rowid",
                (OPEN, CLAIMED),
            ).fetchall()
            for (uid, status, owner, ohost, opid, expires, not_before,
                 attempts) in rows:
                if len(out) >= limit:
                    break
                if status == OPEN:
                    if not_before > now:
                        continue
                elif owner == self.worker_id:
                    continue  # already ours and in flight
                elif expires > now and not (
                    ohost == self.host and not _pid_alive(opid)
                ):
                    continue  # someone else holds a live lease
                db.execute(
                    "UPDATE units SET status=?, owner=?, owner_host=?,"
                    " owner_pid=?, lease_expires=?, heartbeat=?,"
                    " attempts=attempts+1 WHERE unit_id=?",
                    (CLAIMED, self.worker_id, self.host, self.pid,
                     now + lease, now, uid),
                )
                out.append(ClaimedUnit(uid, attempts + 1))
        return out

    def heartbeat(self, unit_ids: Iterable[str], *, lease: float) -> int:
        """Extend the lease on units we still own; returns how many."""
        now = self.clock()
        renewed = 0
        with self.transaction() as db:
            for uid in unit_ids:
                cur = db.execute(
                    "UPDATE units SET lease_expires=?, heartbeat=?"
                    " WHERE unit_id=? AND status=? AND owner=?",
                    (now + lease, now, uid, CLAIMED, self.worker_id),
                )
                renewed += cur.rowcount
        return renewed

    def complete(
        self,
        unit_id: str,
        digest: Optional[str],
        *,
        wall: float = 0.0,
        attempt: int = 1,
        session: int = 0,
        result=None,
    ) -> bool:
        """``claimed -> done`` if we still own the unit; exactly-once.

        The manifest's ``done`` line (``wall``/``attempt``/``session``)
        is appended *inside* the claim transaction, after the
        owner-guarded UPDATE wins — so a worker whose lease was
        reclaimed never journals, and a crash between the journal
        append and the commit leaves the journal ahead of the table,
        which :meth:`reconcile` repairs without re-running.  ``result``
        needs no shipping here: it already sits in the runner's cache
        layers, which every local worker shares.  Returns False when
        the lease was lost (nothing else to do).
        """
        with self.transaction() as db:
            cur = db.execute(
                "UPDATE units SET status=?, digest=?, error=NULL"
                " WHERE unit_id=? AND status=? AND owner=?",
                (DONE, digest, unit_id, CLAIMED, self.worker_id),
            )
            if cur.rowcount != 1:
                return False
            if self.manifest is not None:
                self.manifest.record_done(
                    unit_id, digest, wall, attempt, session
                )
        return True

    def fail(
        self,
        unit_id: str,
        error: str,
        *,
        max_attempts: int,
        backoff: float = 0.0,
        attempt: int = 1,
        session: int = 0,
    ) -> str:
        """Record one failed attempt; returns ``retry|failed|lost``.

        Below the attempt cap the unit reopens with a ``not_before``
        backoff (any worker may pick up the retry); at the cap it turns
        terminally ``failed`` (resettable via ``reconcile``).  Like
        :meth:`complete`, the journal's ``failed`` line commits with
        the row, and a lost lease journals nothing.
        """
        now = self.clock()
        with self.transaction() as db:
            row = db.execute(
                "SELECT attempts FROM units"
                " WHERE unit_id=? AND status=? AND owner=?",
                (unit_id, CLAIMED, self.worker_id),
            ).fetchone()
            if row is None:
                return "lost"
            terminal = row[0] >= max_attempts
            if terminal:
                db.execute(
                    "UPDATE units SET status=?, owner=NULL,"
                    " owner_host=NULL, owner_pid=NULL, error=?"
                    " WHERE unit_id=?",
                    (FAILED, str(error)[:500], unit_id),
                )
            else:
                db.execute(
                    "UPDATE units SET status=?, owner=NULL,"
                    " owner_host=NULL, owner_pid=NULL, error=?,"
                    " not_before=? WHERE unit_id=?",
                    (OPEN, str(error)[:500], now + backoff, unit_id),
                )
            if self.manifest is not None:
                self.manifest.record_failed(
                    unit_id, error, attempt, session
                )
        return "failed" if terminal else "retry"

    def mark_done(self, unit_id: str) -> None:
        """Force a unit ``done`` without journaling.

        Used when a claimed unit turns out to be journaled already (the
        reconcile crash window hit mid-flight): the journal has its done
        line, the result is in the cache — only the row needs repair.
        """
        with self.transaction() as db:
            db.execute(
                "UPDATE units SET status=?, owner=NULL, owner_host=NULL,"
                " owner_pid=NULL, error=NULL WHERE unit_id=? AND status!=?",
                (DONE, unit_id, DONE),
            )

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def done_ids(self) -> set:
        """Unit ids the journal (re-read from disk) marks ``done``."""
        return self._journal().reload().done_ids()

    def fetch_result(self, digest: str) -> None:
        """Results never live in the claim table: a local worker reads
        them from the cache layers it shares with every other one."""
        return None

    def counts(self) -> QueueCounts:
        rows = dict(
            self._db.execute(
                "SELECT status, COUNT(*) FROM units GROUP BY status"
            ).fetchall()
        )
        (not_before,) = self._db.execute(
            "SELECT MIN(not_before) FROM units WHERE status=?", (OPEN,)
        ).fetchone()
        return QueueCounts(
            open=rows.get(OPEN, 0),
            claimed=rows.get(CLAIMED, 0),
            done=rows.get(DONE, 0),
            failed=rows.get(FAILED, 0),
            retry_in=(
                None if not_before is None
                else max(0.0, not_before - self.clock())
            ),
        )

    def live_leases(self) -> int:
        """Claimed units whose owner is plausibly still working."""
        now = self.clock()
        live = 0
        for ohost, opid, expires in self._db.execute(
            "SELECT owner_host, owner_pid, lease_expires FROM units"
            " WHERE status=?",
            (CLAIMED,),
        ).fetchall():
            if ohost == self.host:
                live += 1 if _pid_alive(opid) else 0
            elif expires > now:
                live += 1
        return live

    def rows(self) -> List[dict]:
        """Every claim row as a dict (tests and ``sweep status``)."""
        cols = (
            "unit_id", "status", "owner", "owner_host", "owner_pid",
            "lease_expires", "heartbeat", "not_before", "attempts",
            "error", "digest",
        )
        return [
            dict(zip(cols, row))
            for row in self._db.execute(
                f"SELECT {', '.join(cols)} FROM units ORDER BY rowid"
            ).fetchall()
        ]
