"""Multi-worker campaign execution: the crash-and-race harness.

The claim queue (``claims.sqlite``) turns a campaign directory into a
shared work pool.  This suite pins its contract from three directions:

* **protocol** — :class:`TestClaimQueue` drives the lease state machine
  in-process with a fake clock: atomic claims, owner-guarded
  heartbeats, exactly-once completion (a worker whose lease was
  reclaimed must *never* journal), retry backoff, and both directions
  of claim/journal reconciliation;
* **crash windows** — fabricated divergence between the journal and the
  claim table (exactly what a SIGKILL between the manifest append and
  the sqlite commit leaves behind) must repair without double-running
  or double-journaling any unit;
* **real processes** — ``slow``-marked tests spawn actual workers,
  SIGKILL one mid-flight, leave one hung on a stale lease, and assert
  the survivors drain the queue with no unit double-done, lost, or
  re-simulated against a warm cache — and that a 3-worker run renders
  ``summary.json`` / ``report.txt`` byte-identical to a single-process
  run of the same spec.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import FakeClock

from repro.campaign import (
    CLAIMS_NAME,
    CampaignError,
    CampaignRunner,
    ClaimQueue,
    Manifest,
    QueueError,
    RunRegistry,
    SweepSpec,
)
from repro.campaign.queue import DONE, OPEN
from repro.config import DEFAULT_CONFIG
from repro.runtime import RuntimeOptions
from repro.runtime.cache import ResultCache

SCALE = 0.08

SPEC2 = dict(name="mw", benchmarks=("fft",), schemes=("oracle",),
             scales=(SCALE,))
SPEC6 = dict(name="mw6", benchmarks=("fft", "swim"),
             schemes=("oracle", "algorithm-1"), scales=(SCALE,))


def _dead_pid() -> int:
    """A pid that provably does not exist right now."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _done_rows(manifest_path: Path) -> dict:
    """unit_id -> number of ``done`` journal rows (double-done probe)."""
    counts: dict = {}
    for line in manifest_path.read_text().splitlines():
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            continue
        if event.get("event") == "unit" and event.get("status") == "done":
            counts[event["unit"]] = counts.get(event["unit"], 0) + 1
    return counts


def _opts(tmp_path, **kw) -> RuntimeOptions:
    return RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache"), **kw)


# ======================================================================
# the lease protocol, in-process with a fake clock
# ======================================================================

class TestClaimQueue:
    UNITS = ["u1", "u2", "u3"]

    def _queue(self, tmp_path, clock, worker_id="w1",
               manifest=None) -> ClaimQueue:
        return ClaimQueue(
            tmp_path / CLAIMS_NAME, manifest=manifest,
            worker_id=worker_id, clock=clock,
        )

    @staticmethod
    def _journal(tmp_path) -> Manifest:
        return Manifest(tmp_path / "manifest.jsonl")

    @staticmethod
    def _unit_events(tmp_path) -> list:
        """Every unit line on disk: (unit, status, error or digest)."""
        return [
            (e["unit"], e["status"], e.get("digest") or e.get("error"))
            for e in Manifest(tmp_path / "manifest.jsonl")._lines
            if e.get("event") == "unit"
        ]

    def test_populate_is_idempotent_and_ordered(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        assert q.populate(self.UNITS) == 3
        assert q.populate(self.UNITS) == 0
        assert q.counts().open == 3
        claimed = q.claim(3, lease=60)
        assert [c.unit_id for c in claimed] == self.UNITS
        assert all(c.attempt == 1 for c in claimed)

    def test_claim_skips_own_inflight_units(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(self.UNITS)
        assert len(q.claim(3, lease=60)) == 3
        assert q.claim(3, lease=60) == []
        assert q.counts().claimed == 3

    def test_live_lease_blocks_until_expiry(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        (c1,) = q1.claim(1, lease=60)
        # w1 is this very process: its pid is alive, its lease is
        # live — w2 must not steal the unit.
        assert q2.claim(1, lease=60) == []
        # A hung worker heartbeats nothing; once the lease lapses the
        # unit goes back to the pool, attempt count advancing.
        clock.advance(61)
        (c2,) = q2.claim(1, lease=60)
        assert c2.unit_id == c1.unit_id and c2.attempt == 2

    def test_dead_owner_reclaimed_before_lease_expiry(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        q1.claim(1, lease=3600)
        q1._db.execute(
            "UPDATE units SET owner_pid=? WHERE status='claimed'",
            (_dead_pid(),),
        )
        clock.advance(1)  # far inside the lease
        (c2,) = q2.claim(1, lease=60)
        assert c2.unit_id == "u1"

    def test_heartbeat_is_owner_guarded(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1")
        q2 = self._queue(tmp_path, clock, "w2")
        q1.populate(["u1"])
        q1.claim(1, lease=60)
        assert q2.heartbeat(["u1"], lease=9999) == 0
        clock.advance(50)
        assert q1.heartbeat(["u1"], lease=60) == 1
        clock.advance(50)  # would be past the original lease
        assert q2.claim(1, lease=60) == []
        clock.advance(50)  # now past the renewed one
        assert len(q2.claim(1, lease=60)) == 1
        assert q1.heartbeat(["u1"], lease=60) == 0

    def test_complete_is_exactly_once(self, tmp_path):
        clock = FakeClock()
        q1 = self._queue(tmp_path, clock, "w1", self._journal(tmp_path))
        q2 = self._queue(tmp_path, clock, "w2", self._journal(tmp_path))
        q1.populate(["u1"])
        q1.claim(1, lease=10)
        clock.advance(11)
        (c2,) = q2.claim(1, lease=60)
        assert q2.complete("u1", "d2", wall=0.5, attempt=c2.attempt,
                           session=2)
        # w1 lost its lease mid-run: its complete must refuse AND must
        # not append to the queue's journal — the exactly-once
        # guarantee.
        assert not q1.complete("u1", "d1", wall=0.5, attempt=1, session=1)
        assert self._unit_events(tmp_path) == [("u1", "done", "d2")]
        st = self._journal(tmp_path).state().unit("u1")
        assert st.attempts == 1 and st.session == 2
        assert q1.counts().done == 1
        assert q1.rows()[0]["digest"] == "d2"

    def test_fail_retries_with_backoff_then_terminal(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1"])
        (c,) = q.claim(1, lease=60)
        assert c.attempt == 1
        assert q.fail("u1", "boom", max_attempts=2, backoff=30) == "retry"
        assert q.counts().open == 1
        assert q.claim(1, lease=60) == []  # still inside the backoff
        clock.advance(31)
        (c,) = q.claim(1, lease=60)
        assert c.attempt == 2
        assert q.fail("u1", "boom2", max_attempts=2) == "failed"
        assert q.counts().failed == 1
        assert q.rows()[0]["error"] == "boom2"
        # Failing a unit we do not own reports the lost lease.
        assert q.fail("u1", "zombie", max_attempts=2) == "lost"

    def test_counts_report_time_to_the_earliest_retry(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1", "u2"])
        assert q.counts().retry_in == 0  # open rows, claimable now
        q.claim(2, lease=60)
        assert q.counts().retry_in is None  # nothing open
        q.fail("u1", "boom", max_attempts=3, backoff=30)
        q.fail("u2", "boom", max_attempts=3, backoff=10)
        assert q.counts().retry_in == 10
        clock.advance(4)
        assert q.counts().retry_in == 6
        clock.advance(20)
        assert q.counts().retry_in == 0

    def test_fail_journal_commits_with_the_row(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock, "w1", self._journal(tmp_path))
        other = self._queue(tmp_path, clock, "w2", self._journal(tmp_path))
        q.populate(["u1"])
        q.claim(1, lease=60)
        assert q.fail("u1", "boom", max_attempts=3) == "retry"
        assert self._unit_events(tmp_path) == [("u1", "failed", "boom")]
        # A fail from a worker that does not own the unit (its lease
        # was lost) journals nothing.
        clock.advance(1)
        q.claim(1, lease=60)
        assert other.fail("u1", "zombie", max_attempts=3) == "lost"
        assert self._unit_events(tmp_path) == [("u1", "failed", "boom")]

    def test_reconcile_journal_ahead_of_table(self, tmp_path):
        """Crash window: journal says done, claim row stuck claimed."""
        clock = FakeClock()
        journal = Manifest(None)
        q = self._queue(tmp_path, clock, manifest=journal)
        q.populate(self.UNITS)
        q.claim(1, lease=60)  # u1 in flight at the "crash"
        journal.record_done("u1", "d1", 0.1, 1, 1)
        out = q.reconcile()
        assert out["repaired_done"] == 1 and out["reopened"] == 0
        assert q.rows()[0]["status"] == DONE

    def test_reconcile_table_ahead_of_journal(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock, manifest=self._journal(tmp_path))
        q.populate(self.UNITS)
        q.claim(1, lease=60)
        q.complete("u1", "d1")
        # The journal is truncated (restored from an older copy).
        (tmp_path / "manifest.jsonl").write_text("")
        out = q.reconcile()
        assert out["reopened"] == 1
        row = q.rows()[0]
        assert row["status"] == OPEN and row["attempts"] == 0

    def test_reconcile_reset_failed(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock, manifest=Manifest(None))
        q.populate(["u1"])
        q.claim(1, lease=60)
        q.fail("u1", "boom", max_attempts=1)
        assert q.counts().failed == 1
        assert q.reconcile()["reset_failed"] == 0
        out = q.reconcile(reset_failed=True)
        assert out["reset_failed"] == 1
        (c,) = q.claim(1, lease=60)
        assert c.attempt == 1  # fresh attempt budget

    def test_spec_digest_guard(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(["u1"], spec_digest="aaa")
        q.populate(["u1"], spec_digest="aaa")  # same spec: fine
        with pytest.raises(QueueError, match="spec digest"):
            q.populate(["u1"], spec_digest="bbb")

    def test_counts_and_live_leases(self, tmp_path):
        clock = FakeClock()
        q = self._queue(tmp_path, clock)
        q.populate(self.UNITS)
        q.claim(1, lease=60)
        q.rows()  # smoke: the debug view never throws
        counts = q.counts()
        assert (counts.open, counts.claimed) == (2, 1)
        assert counts.active == 3 and counts.total == 3
        assert q.live_leases() == 1  # our own live pid
        clock.advance(61)
        # The lease lapsed but the owner pid (us) is alive on this
        # host, so the lease still reads as live for gc purposes...
        assert q.live_leases() == 1
        q._db.execute(
            "UPDATE units SET owner_pid=? WHERE status='claimed'",
            (_dead_pid(),),
        )
        assert q.live_leases() == 0


# ======================================================================
# crash-window reconciliation, end to end on a real campaign dir
# ======================================================================

class TestCrashReconciliation:
    def test_journal_ahead_resume_never_rejournals(self, tmp_path):
        """Fabricate the SIGKILL-between-append-and-commit state: the
        manifest has the done line, the claim row is stuck ``claimed``
        by a dead worker.  Resume must repair the row, journal nothing
        new for that unit, and finish the rest."""
        spec = SweepSpec(**SPEC2)
        units = spec.expand()
        first = units[0]
        root = tmp_path / "runs"
        cdir = root / spec.campaign_id
        cdir.mkdir(parents=True)
        (cdir / "spec.json").write_text(
            json.dumps(spec.to_json_dict(), indent=2, sort_keys=True)
        )
        manifest = Manifest(cdir / "manifest.jsonl")
        manifest.write_header(spec.campaign_id, spec.spec_digest(),
                              len(units))
        manifest.start_session()
        digest = first.job_key(DEFAULT_CONFIG).cache_digest()
        manifest.record_done(first.unit_id, digest, 0.1, 1, 1)

        q = ClaimQueue(cdir / CLAIMS_NAME, worker_id="crashed")
        q.populate(spec.unit_ids(), spec_digest=spec.spec_digest())
        assert [c.unit_id for c in q.claim(1, lease=3600)] \
            == [first.unit_id]
        q._db.execute(
            "UPDATE units SET owner_pid=? WHERE status='claimed'",
            (_dead_pid(),),
        )
        q.close()

        result = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        ).run(resume=True)
        assert result.ok
        assert set(result.state.done_ids) == {u.unit_id for u in units}
        rows = _done_rows(cdir / "manifest.jsonl")
        assert rows[first.unit_id] == 1, \
            "the crash-window unit must not be journaled again"
        assert all(n == 1 for n in rows.values())
        q = ClaimQueue(cdir / CLAIMS_NAME)
        assert q.counts().done == len(units)
        assert q.counts().active == 0
        q.close()

    def test_table_ahead_rejournals_once_from_warm_cache(self, tmp_path):
        """The opposite divergence (journal line lost, claim row done):
        the unit reopens, resolves through the warm cache with zero
        simulation, and is journaled exactly once."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        first = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        ).run()
        assert first.ok
        cdir = root / spec.campaign_id
        victim = spec.expand()[-1].unit_id
        summary_before = (cdir / "summary.json").read_bytes()

        lines = [
            line
            for line in (cdir / "manifest.jsonl").read_text().splitlines()
            if f'"{victim}"' not in line or '"done"' not in line
        ]
        (cdir / "manifest.jsonl").write_text("\n".join(lines) + "\n")

        resumed = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        ).run(resume=True)
        assert resumed.ok
        assert resumed.stats.executed == 0, \
            "re-journaling must ride the warm cache, not re-simulate"
        rows = _done_rows(cdir / "manifest.jsonl")
        assert all(n == 1 for n in rows.values())
        assert (cdir / "summary.json").read_bytes() == summary_before


# ======================================================================
# invariants of the queue-backed runner (PR-5 carryovers)
# ======================================================================

class TestQueueRunnerInvariants:
    def test_digest_parity_queue_manifest_jobkey_cache(self, tmp_path):
        """One namespace, never forked: the digest the queue rows and
        the journal record is the JobKey digest, and the cache holds an
        entry for it (so any interactive driver is a warm hit)."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        result = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        ).run()
        assert result.ok
        cdir = root / spec.campaign_id
        state = Manifest(cdir / "manifest.jsonl").state()
        cache = ResultCache(tmp_path / "cache")
        q = ClaimQueue(cdir / CLAIMS_NAME)
        by_row = {row["unit_id"]: row for row in q.rows()}
        q.close()
        for unit in spec.expand():
            expect = unit.job_key(DEFAULT_CONFIG).cache_digest()
            assert state.units[unit.unit_id].digest == expect
            assert by_row[unit.unit_id]["digest"] == expect
            assert cache.path(expect).exists()

    def test_workers_require_directory_and_cache(self, tmp_path):
        spec = SweepSpec(**SPEC2)
        with pytest.raises(CampaignError, match="on-disk"):
            CampaignRunner(spec, options=_opts(tmp_path)).run(workers=2)
        with pytest.raises(CampaignError, match="cache"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=RuntimeOptions(jobs=1),
            ).run(workers=2)
        with pytest.raises(CampaignError, match="trace"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=_opts(
                    tmp_path, trace_events=str(tmp_path / "t.jsonl")
                ),
            ).run(workers=2)

    def test_attach_worker_requires_directory_and_cache(self, tmp_path):
        spec = SweepSpec(**SPEC2)
        with pytest.raises(CampaignError, match="on-disk"):
            CampaignRunner(spec, options=_opts(tmp_path)).attach_worker()
        with pytest.raises(CampaignError, match="cache"):
            CampaignRunner(
                spec, root=tmp_path / "runs",
                options=RuntimeOptions(jobs=1),
            ).attach_worker()

    def test_attach_worker_finalizes_idempotently(self, tmp_path):
        """A late worker on a finished campaign does no work and
        re-renders byte-identical artifacts (pure function of results)."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        CampaignRunner(spec, root=root, options=_opts(tmp_path)).run()
        cdir = root / spec.campaign_id
        summary = (cdir / "summary.json").read_bytes()
        report = (cdir / "report.txt").read_bytes()

        runner = CampaignRunner(
            spec, root=root, options=_opts(tmp_path),
        )
        out = runner.attach_worker(finalize=True)
        assert out.finalized
        assert out.results == {}  # nothing left to claim
        assert runner.stats.executed == 0
        assert (cdir / "summary.json").read_bytes() == summary
        assert (cdir / "report.txt").read_bytes() == report


# ======================================================================
# registry under workers (gc safety, corrupt dirs, concurrent ls)
# ======================================================================

class TestRegistryUnderWorkers:
    def _finished_campaign(self, tmp_path, name="done-camp"):
        spec = SweepSpec(**{**SPEC2, "name": name})
        root = tmp_path / "runs"
        CampaignRunner(spec, root=root, options=_opts(tmp_path)).run()
        return RunRegistry(root), spec

    def test_gc_never_collects_live_lease_campaigns(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        # A second, in-flight campaign: manifest present, one unit
        # claimed by this (live) process.
        live = registry.root / "live-camp"
        live.mkdir()
        Manifest(live / "manifest.jsonl").write_header("live-camp", "d", 2)
        q = ClaimQueue(live / CLAIMS_NAME, worker_id="w")
        q.populate(["u1", "u2"])
        q.claim(1, lease=3600)

        assert registry.info("live-camp").status == "running"
        removed = registry.gc(dry_run=True)
        assert "live-camp" not in removed
        assert spec.campaign_id in removed
        # Even an explicit id must not delete a live campaign.
        assert registry.gc(ids=["live-camp"]) == []
        assert live.exists()
        # Once the worker releases its lease, the campaign is fair game.
        q.complete("u1", "d1")
        q.close()
        assert "live-camp" in registry.gc(ids=["live-camp"], dry_run=True)

    def test_gc_missing_and_corrupt_dirs_are_not_fatal(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        assert registry.gc(ids=["no-such-campaign"]) == []
        # A manifest that cannot be parsed as a file at all: status
        # reports corrupt, ls and gc keep working.
        bad = registry.root / "bad-camp"
        (bad / "manifest.jsonl").mkdir(parents=True)
        info = registry.info("bad-camp")
        assert info.status == "corrupt" and info.error
        ids = [i.campaign_id for i in registry.list()]
        assert "bad-camp" in ids and spec.campaign_id in ids
        assert "bad-camp" not in registry.gc(
            complete_only=True, dry_run=True
        )

    def test_empty_campaign_dir_reports_empty(self, tmp_path):
        registry, _ = self._finished_campaign(tmp_path)
        empty = registry.root / "empty-camp"
        empty.mkdir()
        (empty / "manifest.jsonl").write_text("")
        assert registry.info("empty-camp").status == "empty"
        assert any(
            i.campaign_id == "empty-camp" for i in registry.list()
        )

    def test_ls_stable_under_concurrent_workers(self, tmp_path):
        registry, spec = self._finished_campaign(tmp_path)
        live = registry.root / "live-camp"
        live.mkdir()
        Manifest(live / "manifest.jsonl").write_header("live-camp", "d", 2)
        q = ClaimQueue(live / CLAIMS_NAME, worker_id="w")
        q.populate(["u1", "u2"])
        q.claim(1, lease=3600)
        # Two listings while a worker holds a lease agree with each
        # other and show both campaigns with sensible statuses.
        a = {i.campaign_id: i.status for i in registry.list()}
        b = {i.campaign_id: i.status for i in registry.list()}
        assert a == b
        assert a["live-camp"] == "running"
        assert a[spec.campaign_id] == "complete"
        blob = registry.status("live-camp")
        assert blob["queue"]["claimed"] == 1
        assert blob["queue"]["live_leases"] == 1
        q.close()


# ======================================================================
# real worker processes: kill, hang, race (slow)
# ======================================================================

#: Child: one worker attached to an existing campaign, with a journal
#: that naps inside the exactly-once transaction — so a SIGKILL lands
#: either mid-simulation (unit reruns) or inside the crash window
#: (journal ahead of the claim table; reconcile must repair it).
WORKER_SCRIPT = """
import sys, time
from repro.campaign import manifest as M
from repro.campaign import CampaignRunner, SweepSpec
from repro.runtime import RuntimeOptions

_orig = M.Manifest.record_done
def _slow(self, *a, **k):
    _orig(self, *a, **k)
    time.sleep(0.4)
M.Manifest.record_done = _slow

spec = SweepSpec.load(sys.argv[1] + "/" + sys.argv[3] + "/spec.json")
CampaignRunner(
    spec, root=sys.argv[1], campaign_id=sys.argv[3],
    options=RuntimeOptions(jobs=1, cache_dir=sys.argv[2]),
    chunk_size=1,
).attach_worker(poll=0.05)
"""


def _spawn_worker(root, cache, campaign_id):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", WORKER_SCRIPT, str(root), str(cache),
         campaign_id],
        cwd=str(Path(__file__).resolve().parent.parent),
        env=env,
    )


def _prepare_campaign(spec, root, tmp_path):
    """Materialize spec.json + header so workers can attach."""
    runner = CampaignRunner(spec, root=root, options=_opts(tmp_path))
    runner._prepare_dir(runner.dir, resume=False)
    runner.manifest.write_header(
        spec.campaign_id, spec.spec_digest(), len(spec.expand())
    )
    return runner


@pytest.mark.slow
class TestWorkerProcesses:
    def test_three_workers_byte_identical_to_single(self, tmp_path):
        """The acceptance bar: same spec, 3 workers vs 1 process —
        identical summary.json/report.txt bytes, every unit journaled
        exactly once, and a pure-cache resume afterwards."""
        spec = SweepSpec(**SPEC6)
        control_root = tmp_path / "runs-control"
        multi_root = tmp_path / "runs-multi"

        control = CampaignRunner(
            spec, root=control_root,
            options=RuntimeOptions(
                jobs=1, cache_dir=str(tmp_path / "cache-control")
            ),
        ).run()
        assert control.ok

        multi_opts = RuntimeOptions(
            jobs=1, cache_dir=str(tmp_path / "cache-multi")
        )
        multi = CampaignRunner(
            spec, root=multi_root, options=multi_opts,
        ).run(workers=3)
        assert multi.ok
        assert len(multi.results) == len(spec.expand())

        name = spec.campaign_id
        assert (multi_root / name / "summary.json").read_bytes() \
            == (control_root / name / "summary.json").read_bytes()
        assert (multi_root / name / "report.txt").read_bytes() \
            == (control_root / name / "report.txt").read_bytes()

        rows = _done_rows(multi_root / name / "manifest.jsonl")
        assert all(n == 1 for n in rows.values()), rows
        assert len(rows) == len(spec.expand())

        again = CampaignRunner(
            spec, root=multi_root, options=multi_opts,
        ).run(resume=True)
        assert again.stats.executed == 0, \
            "a multi-worker campaign must resume purely from cache"
        assert (multi_root / name / "summary.json").read_bytes() \
            == (control_root / name / "summary.json").read_bytes()

    def test_sigkill_worker_survivors_drain(self, tmp_path):
        """SIGKILL a real worker mid-flight; a second worker must
        reclaim its units immediately (dead pid — no lease wait) and
        drain the queue with no unit double-done or lost."""
        spec = SweepSpec(**SPEC6)
        root = tmp_path / "runs"
        cache = tmp_path / "cache"
        _prepare_campaign(spec, root, tmp_path)
        name = spec.campaign_id
        manifest_path = root / name / "manifest.jsonl"
        total = len(spec.expand())

        victim = _spawn_worker(root, cache, name)
        try:
            deadline = time.time() + 180
            while time.time() < deadline:
                if _done_rows(manifest_path) or victim.poll() is not None:
                    break
                time.sleep(0.02)
            assert victim.poll() is None, \
                "worker finished before the kill could land"
            victim.send_signal(signal.SIGKILL)
        finally:
            victim.wait(timeout=60)

        pre = _done_rows(manifest_path)
        assert 1 <= len(pre) < total

        # The survivor attaches in-process.  The victim's claims are
        # held by a dead pid: with the default 120 s lease, finishing
        # quickly at all proves the dead-owner fast path reclaims them
        # (a lease wait would stall the drain for minutes).
        t0 = time.time()
        runner = CampaignRunner(
            spec, root=root, campaign_id=name,
            options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
        )
        out = runner.attach_worker(poll=0.05, finalize=True)
        assert time.time() - t0 < 100
        assert out.finalized

        rows = _done_rows(manifest_path)
        assert len(rows) == total, "no unit may be lost"
        assert all(n == 1 for n in rows.values()), \
            f"double-done units: {rows}"
        for uid in pre:
            assert uid not in out.results, \
                "journaled units must not be re-run by the survivor"
        q = ClaimQueue(root / name / CLAIMS_NAME)
        counts = q.counts()
        q.close()
        assert counts.done == total and counts.active == 0

        resumed = CampaignRunner(
            spec, root=root, campaign_id=name,
            options=RuntimeOptions(jobs=1, cache_dir=str(cache)),
        ).run(resume=True)
        assert resumed.ok and resumed.stats.executed == 0

    def test_hung_worker_stale_lease_reclaimed(self, tmp_path):
        """A worker that claims and then hangs (no heartbeat, pid very
        much alive) blocks its unit only until the lease expires; the
        healthy worker then reclaims and completes it, and the hung
        worker's late ``complete`` is refused without journaling."""
        spec = SweepSpec(**SPEC2)
        root = tmp_path / "runs"
        _prepare_campaign(spec, root, tmp_path)
        name = spec.campaign_id
        cdir = root / name

        hung = ClaimQueue(
            cdir / CLAIMS_NAME, worker_id="hung-worker",
            manifest=Manifest(cdir / "manifest.jsonl"),
        )
        hung.populate(spec.unit_ids(), spec_digest=spec.spec_digest())
        claimed = hung.claim(1, lease=1.0)
        assert len(claimed) == 1
        stuck = claimed[0].unit_id

        runner = CampaignRunner(
            spec, root=root, campaign_id=name, options=_opts(tmp_path),
        )
        out = runner.attach_worker(poll=0.05, finalize=True)
        assert out.finalized
        assert stuck in out.results, \
            "the healthy worker must reclaim the stale lease"

        assert not hung.complete(stuck, "stale", attempt=1, session=1)
        assert "stale" not in (cdir / "manifest.jsonl").read_text(), \
            "a reclaimed worker must never journal its unit"
        hung.close()

        rows = _done_rows(cdir / "manifest.jsonl")
        assert len(rows) == len(spec.expand())
        assert all(n == 1 for n in rows.values())
