"""Campaign execution: drive a sweep through the parallel runtime.

:class:`CampaignRunner` turns a :class:`~repro.campaign.spec.SweepSpec`
into results.  It owns no simulation logic — every unit resolves to the
same :class:`~repro.runtime.keys.JobKey` an interactive driver would
use and goes through the same :class:`~repro.runtime.ParallelRunner`
(memory -> disk cache -> execution), so campaigns and ad-hoc runs share
one cache namespace.  What the campaign layer adds:

* a **persistent manifest** (``manifest.jsonl``) appended as units
  finish, so a ``SIGKILL``-ed campaign resumes exactly where it
  stopped: manifest-``done`` units are never re-simulated (their
  results come back through the warm disk cache), in-flight units
  simply rerun;
* a **claim queue** (``claims.sqlite``, :mod:`repro.campaign.queue`)
  beside the journal, turning an on-disk campaign into a shared work
  pool: any number of workers (``repro sweep worker`` processes, or
  the children behind ``run(workers=N)``) atomically claim open units
  under a heartbeat lease, so a killed or hung worker's units return
  to the queue and each completion is journaled exactly once;
* **chunked** execution bounding how much work an interruption can
  lose (eight units when serial, twice the worker count when pooled;
  every chunk's units share one trace per benchmark and variant
  through the runtime's one trace source, :mod:`repro.runtime.batch`);
* per-unit **failure isolation** with capped exponential-backoff
  retries — one diverging simulation fails its unit, not the campaign;
* a deterministic **summary** (``summary.json`` / ``report.txt``):
  a pure function of the results, so the artifacts are byte-identical
  regardless of worker count, interruption, or claim order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.analysis.characterize import characterize_result, class_winners
from repro.analysis.metrics import geomean_improvement
from repro.analysis.report import format_bottleneck_tables, format_table
from repro.arch import OPTIMIZED
from repro.arch.simulator import SimulationResult
from repro.arch.stats import improvement_percent
from repro.campaign.manifest import Manifest, ManifestState
from repro.campaign.queue import (
    CLAIMS_NAME,
    DEFAULT_LEASE,
    DEFAULT_POLL,
    ClaimedUnit,
    ClaimQueue,
)
from repro.campaign.spec import BASELINE_LABEL, SweepSpec, SweepUnit
from repro.config import DEFAULT_CONFIG, ArchConfig
from repro.runtime import JobKey, ParallelRunner, RunnerStats, RuntimeOptions
from repro.runtime.backoff import backoff_delay

SPEC_NAME = "spec.json"
SUMMARY_NAME = "summary.json"
REPORT_NAME = "report.txt"


def _write_atomic(path: Path, text: str) -> None:
    """Write-to-temp + ``os.replace`` so concurrent readers (and a
    finalizing ``sweep worker`` racing the parent) never see a torn
    artifact — both writers produce identical bytes anyway."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_or_verify_spec(cdir: Path, spec: SweepSpec) -> bool:
    """Create ``cdir/spec.json`` from ``spec``, or check the one there.

    Returns ``False`` when the directory was created from a different
    spec (digest mismatch); the caller words the refusal.  The write
    is atomic, so a campaign killed mid-create never leaves a torn
    spec behind.
    """
    cdir.mkdir(parents=True, exist_ok=True)
    spec_path = cdir / SPEC_NAME
    if spec_path.exists():
        return SweepSpec.load(spec_path).spec_digest() == spec.spec_digest()
    _write_atomic(
        spec_path,
        json.dumps(spec.to_json_dict(), indent=2, sort_keys=True) + "\n",
    )
    return True


class CampaignError(RuntimeError):
    """A campaign-level usage error (bad resume, spec mismatch, ...)."""


@dataclass
class CampaignResult:
    """Everything one :meth:`CampaignRunner.run` produced."""

    campaign_id: str
    root: Optional[Path]
    spec: SweepSpec
    results: Dict[str, SimulationResult]   #: unit_id -> result
    summary: dict
    report: str
    stats: RunnerStats
    state: ManifestState

    @property
    def ok(self) -> bool:
        return not self.summary.get("failed")


@dataclass
class WorkerResult:
    """What one :meth:`CampaignRunner.attach_worker` drain produced."""

    campaign_id: str
    worker_id: str
    results: Dict[str, SimulationResult]   #: unit_id -> result (ours)
    stats: RunnerStats
    finalized: bool                        #: this worker wrote summary


class CampaignRunner:
    """Execute sweep units with manifest journaling and retries.

    ``root=None`` (with ``manifest=None``) runs fully in memory — no
    campaign directory, an in-memory journal — which is exactly what
    the tuner's candidate evaluations need.  ``engine`` optionally
    injects an existing :class:`ParallelRunner` (shares its in-memory
    result table); otherwise engines are created lazily per
    ``(mesh, engine_profile)``.
    """

    def __init__(
        self,
        spec: Optional[SweepSpec] = None,
        *,
        root: Union[None, str, Path] = None,
        campaign_id: Optional[str] = None,
        options: Optional[RuntimeOptions] = None,
        base_cfg: ArchConfig = DEFAULT_CONFIG,
        engine: Optional[ParallelRunner] = None,
        manifest: Optional[Manifest] = None,
        stats: Optional[RunnerStats] = None,
        chunk_size: Optional[int] = None,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.spec = spec
        self.root = Path(root) if root is not None else None
        self.campaign_id = campaign_id or (
            spec.campaign_id if spec is not None else None
        )
        self.base_cfg = base_cfg
        self.options = options or RuntimeOptions()
        self.stats = (
            stats if stats is not None
            else (engine.stats if engine is not None else RunnerStats())
        )
        self._shared_engine = engine
        self._engines: Dict[tuple, ParallelRunner] = {}
        self.chunk_size = chunk_size
        self.max_attempts = max(1, int(max_attempts))
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        if manifest is not None:
            self.manifest = manifest
        elif self.dir is not None:
            self.manifest = Manifest(self.dir / "manifest.jsonl")
        else:
            self.manifest = Manifest(None)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def dir(self) -> Optional[Path]:
        if self.root is None or self.campaign_id is None:
            return None
        return self.root / self.campaign_id

    def engine_for(self, unit: SweepUnit) -> ParallelRunner:
        if self._shared_engine is not None:
            return self._shared_engine
        key = (unit.mesh, unit.engine_profile)
        eng = self._engines.get(key)
        if eng is None:
            opts = dataclasses.replace(
                self.options, engine_profile=unit.engine_profile
            )
            eng = ParallelRunner(
                unit.config(self.base_cfg), opts, stats=self.stats
            )
            self._engines[key] = eng
        return eng

    def _effective_chunk(self) -> int:
        if self.chunk_size is not None:
            return max(1, int(self.chunk_size))
        if not self.options.parallel:
            # A small serial chunk bounds how much an interruption can
            # lose while claiming several units per queue round trip;
            # traces are shared process-wide (tracegen's cache)
            # whatever the chunk size.
            return 8
        return max(1, 2 * self.options.effective_jobs)

    def _backoff(self, attempt: int) -> float:
        return backoff_delay(
            attempt, base=self.backoff_base, cap=self.backoff_cap
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit(
        self,
        units: Sequence[SweepUnit],
        *,
        session: Optional[int] = None,
        record: bool = True,
    ) -> Dict[str, SimulationResult]:
        """Resolve every unit to a result; journal as units finish.

        Units the manifest already marks ``done`` are *not* counted as
        new work — they resolve through the (warm) cache layers without
        a fresh journal entry, which is what makes resume idempotent.
        Returns ``unit_id -> SimulationResult`` for every unit that
        succeeded (failed units are journaled and skipped).
        """
        done_ids = self.manifest.done_ids() if record else set()
        if session is None and record:
            session = self.manifest.start_session()

        by_unit: Dict[str, SweepUnit] = {}
        finished: List[SweepUnit] = []
        pending: List[SweepUnit] = []
        for unit in units:
            if unit.unit_id in by_unit:
                continue
            by_unit[unit.unit_id] = unit
            (finished if unit.unit_id in done_ids else pending).append(unit)

        results: Dict[str, SimulationResult] = {}

        # Already-done units: resolve through the cache (no new journal
        # rows; a cold cache transparently recomputes, which only costs
        # time — the journal stays truthful either way).
        for unit in finished:
            engine = self.engine_for(unit)
            results[unit.unit_id] = engine.run(unit.job_key(self.base_cfg))

        attempts: Dict[str, int] = {}
        round_no = 0
        while pending and round_no < self.max_attempts:
            round_no += 1
            if round_no > 1:
                self._sleep(self._backoff(round_no - 1))
            failed_this_round: List[SweepUnit] = []
            chunk = self._effective_chunk()
            for start in range(0, len(pending), chunk):
                batch = pending[start:start + chunk]
                self._run_batch(
                    batch, results, failed_this_round, attempts,
                    session, record,
                )
            pending = failed_this_round
        return results

    def _run_batch(
        self,
        batch: Sequence[SweepUnit],
        results: Dict[str, SimulationResult],
        failed: List[SweepUnit],
        attempts: Dict[str, int],
        session: Optional[int],
        record: bool,
    ) -> None:
        """One chunk, grouped per engine; journal each unit's outcome."""
        groups: Dict[tuple, List[SweepUnit]] = {}
        for unit in batch:
            groups.setdefault((unit.mesh, unit.engine_profile), []).append(unit)
        for units in groups.values():
            engine = self.engine_for(units[0])
            keys = [u.job_key(self.base_cfg) for u in units]
            outcomes = self._resolve_chunk(engine, keys)
            for unit, (key, result, wall) in zip(units, outcomes):
                attempts[unit.unit_id] = attempts.get(unit.unit_id, 0) + 1
                if isinstance(result, Exception):  # journal + retry
                    if record:
                        self.manifest.record_failed(
                            unit.unit_id,
                            f"{type(result).__name__}: {result}",
                            attempts[unit.unit_id], session or 0,
                        )
                    failed.append(unit)
                    continue
                results[unit.unit_id] = result
                if record:
                    self.manifest.record_done(
                        unit.unit_id, key.cache_digest(), wall,
                        attempts[unit.unit_id], session or 0,
                    )

    def _resolve_chunk(
        self,
        engine: ParallelRunner,
        keys: Sequence[JobKey],
        tick: Optional[Callable[[], None]] = None,
    ) -> Iterator[tuple]:
        """Resolve one chunk of keys; yield ``(key, outcome, wall)``
        in order.

        ``run_many`` runs the chunk first.  It aborts on the first
        in-process error, so then every key is resolved again one by
        one (finished ones are memory hits), and one diverging
        simulation fails one unit, not its chunk-mates.  ``outcome``
        is the result, or the exception for a failed unit.  ``wall``
        is the unit's simulated seconds (0.0 for a cache hit); it is
        read after the unit resolves, so a unit that only ran in the
        rerun still reports its own time.  ``tick`` runs before each
        unit resolves (lease heartbeats).
        """
        start = len(self.stats.job_times)
        try:
            out = engine.run_many(keys)
        except Exception:
            out = None
        for key in keys:
            if tick is not None:
                tick()
            try:
                result = out[key] if out is not None else engine.run(key)
            except Exception as exc:
                yield key, exc, 0.0
                continue
            walls = dict(self.stats.job_times[start:])
            yield key, result, walls.get(key.describe(), 0.0)

    # ------------------------------------------------------------------
    # queue-based execution (every on-disk campaign)
    # ------------------------------------------------------------------
    def _drain(
        self,
        queue: ClaimQueue,
        by_id: Dict[str, SweepUnit],
        results: Dict[str, SimulationResult],
        session: int,
        lease: float,
        poll: float,
    ) -> None:
        """Claim-and-run until no unit is ``open`` or ``claimed``.

        An empty claim with active units left means other workers hold
        live leases — poll until they finish (or their leases lapse and
        the units come back to us).
        """
        while True:
            batch = queue.claim(self._effective_chunk(), lease=lease)
            if not batch:
                if queue.counts().active == 0:
                    return
                self._sleep(poll)
                continue
            self._work_claimed(queue, batch, by_id, results, session, lease)

    def _work_claimed(
        self,
        queue: ClaimQueue,
        batch: Sequence[ClaimedUnit],
        by_id: Dict[str, SweepUnit],
        results: Dict[str, SimulationResult],
        session: int,
        lease: float,
    ) -> None:
        """Run one claimed batch; journal through the queue's
        exactly-once ``complete``/``fail`` transactions.

        Works against either claim backend: the local SQLite queue
        journals through ``journal=`` callbacks inside its own
        transaction, while a backend with ``journals_remotely`` ships
        results plus structured journal fields and the *server*
        appends (see :mod:`repro.campaign.remote`).
        """
        remote = getattr(queue, "journals_remotely", False)
        # Crash-window repair: a unit can be journaled ``done`` while
        # its claim-row commit was lost (the writer died between the
        # manifest append and the sqlite COMMIT).  The journal is the
        # authority — repair the row and resolve through the warm cache
        # instead of re-running and double-journaling.
        done_now = (
            queue.done_ids() if remote
            else self.manifest.reload().done_ids()
        )
        todo: List[tuple] = []
        for cu in batch:
            unit = by_id.get(cu.unit_id)
            if unit is None:
                queue.fail(cu.unit_id, "unit not in spec", max_attempts=0)
                continue
            if cu.unit_id in done_now:
                queue.mark_done(cu.unit_id)
                results[cu.unit_id] = self._resolve_done(queue, unit, remote)
                continue
            todo.append((cu, unit))

        groups: Dict[tuple, List[tuple]] = {}
        for cu, unit in todo:
            groups.setdefault(
                (unit.mesh, unit.engine_profile), []
            ).append((cu, unit))
        for members in groups.values():
            engine = self.engine_for(members[0][1])
            keys = [u.job_key(self.base_cfg) for _, u in members]
            ours = [cu.unit_id for cu, _ in members]
            queue.heartbeat(ours, lease=lease)
            outcomes = self._resolve_chunk(
                engine, keys,
                tick=lambda: queue.heartbeat(ours, lease=lease),
            )
            for (cu, _), (key, result, wall) in zip(members, outcomes):
                if isinstance(result, Exception):
                    msg = f"{type(result).__name__}: {result}"
                    if remote:
                        queue.fail(
                            cu.unit_id, msg,
                            max_attempts=self.max_attempts,
                            backoff=self._backoff(cu.attempt),
                            attempt=cu.attempt, session=session,
                        )
                    else:
                        queue.fail(
                            cu.unit_id, msg,
                            max_attempts=self.max_attempts,
                            backoff=self._backoff(cu.attempt),
                            journal=lambda: self.manifest.record_failed(
                                cu.unit_id, msg, cu.attempt, session
                            ),
                        )
                    continue
                if remote:
                    # Ship before complete: the server refuses a done
                    # unit whose result bytes it does not hold.
                    queue.ship_result(key.cache_digest(), result)
                    committed = queue.complete(
                        cu.unit_id, key.cache_digest(), wall=wall,
                        attempt=cu.attempt, session=session,
                    )
                else:
                    committed = queue.complete(
                        cu.unit_id, key.cache_digest(),
                        journal=lambda: self.manifest.record_done(
                            cu.unit_id, key.cache_digest(), wall,
                            cu.attempt, session
                        ),
                    )
                if committed:
                    results[cu.unit_id] = result
                # else: our lease was reclaimed mid-run — the winner
                # journals; our result stays in the shared cache.

    def _resolve_done(self, queue, unit: SweepUnit,
                      remote: bool) -> SimulationResult:
        """Resolve an already-journaled unit to its result.

        Locally the warm shared cache answers.  Remotely the bytes may
        only exist on the server — fetch them (priming our cache when
        we have one) rather than re-simulating.
        """
        key = unit.job_key(self.base_cfg)
        engine = self.engine_for(unit)
        if remote:
            fetched = queue.fetch_result(key.cache_digest())
            if fetched is not None:
                engine.cache.store(key.cache_digest(), fetched)
                return fetched
        return engine.run(key)

    def _run_shared(
        self,
        units: Sequence[SweepUnit],
        *,
        session: int,
        workers: int,
        lease: float = DEFAULT_LEASE,
        poll: float = DEFAULT_POLL,
    ) -> Dict[str, SimulationResult]:
        """Drive an on-disk campaign through the claim queue."""
        by_id = {u.unit_id: u for u in units}
        results: Dict[str, SimulationResult] = {}
        queue = ClaimQueue(self.dir / CLAIMS_NAME)
        try:
            queue.populate(
                [u.unit_id for u in units],
                spec_digest=self.spec.spec_digest(),
            )
            queue.reconcile(self.manifest, reset_failed=True)
            if workers > 1:
                self._spawn_workers(workers, lease, poll)
                queue.reconcile(self.manifest)
            # Drain (sole worker when workers == 1; the safety net that
            # reclaims a crashed child's leftovers otherwise).
            self._drain(queue, by_id, results, session, lease, poll)
        finally:
            queue.close()
        # Units completed by other workers or earlier sessions: resolve
        # through the (warm) cache so the summary covers every done unit.
        done = self.manifest.reload().done_ids()
        for unit in units:
            if unit.unit_id in done and unit.unit_id not in results:
                results[unit.unit_id] = self.engine_for(unit).run(
                    unit.job_key(self.base_cfg)
                )
        return results

    def _spawn_workers(self, workers: int, lease: float,
                       poll: float) -> None:
        """Fork ``workers`` child worker processes and join them."""
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(
                target=_worker_process,
                args=(str(self.root),
                      self.campaign_id or self.spec.campaign_id,
                      self.options, self.base_cfg, self.max_attempts,
                      lease, poll),
            )
            for _ in range(workers)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()

    def attach_worker(
        self,
        *,
        lease: Optional[float] = None,
        poll: Optional[float] = None,
        finalize: bool = False,
        worker_id: Optional[str] = None,
    ) -> WorkerResult:
        """Attach to an existing on-disk campaign as one more worker.

        Claims and runs units until the queue has no open or claimed
        units left, then returns.  ``finalize=True`` (the ``repro sweep
        worker`` CLI) additionally materializes ``summary.json`` /
        ``report.txt`` when every unit is terminal — the artifacts are
        a pure function of the results, so a parent runner writing them
        concurrently produces identical bytes.
        """
        if self.spec is None:
            raise CampaignError("attach_worker needs a SweepSpec")
        cdir = self.dir
        if cdir is None:
            raise CampaignError(
                "attach_worker needs an on-disk campaign (root=)"
            )
        if not self.options.cache_dir:
            raise CampaignError(
                "worker attach needs the persistent result cache "
                "(set cache_dir; --no-cache cannot share results)"
            )
        lease = DEFAULT_LEASE if lease is None else float(lease)
        poll = DEFAULT_POLL if poll is None else float(poll)
        units = self.spec.expand()
        by_id = {u.unit_id: u for u in units}
        self.manifest.write_header(
            self.campaign_id or self.spec.campaign_id,
            self.spec.spec_digest(), len(units),
        )
        session = self.manifest.start_session(resume=True)
        results: Dict[str, SimulationResult] = {}
        queue = ClaimQueue(cdir / CLAIMS_NAME, worker_id=worker_id)
        try:
            queue.populate(
                [u.unit_id for u in units],
                spec_digest=self.spec.spec_digest(),
            )
            queue.reconcile(self.manifest, reset_failed=True)
            self._drain(queue, by_id, results, session, lease, poll)
        finally:
            queue.close()
        finalized = False
        if finalize:
            finalized = self._finalize(units, session)
        return WorkerResult(
            campaign_id=self.campaign_id,
            worker_id=queue.worker_id, results=results,
            stats=self.stats, finalized=finalized,
        )

    def attach_remote(
        self,
        server,
        *,
        lease: Optional[float] = None,
        poll: Optional[float] = None,
        worker_id: Optional[str] = None,
        timeout: float = 10.0,
    ) -> WorkerResult:
        """Attach to a campaign served over the network as one worker.

        ``server`` is an ``http://host:port`` URL, a
        :class:`~repro.campaign.transport.Transport`, or an already
        constructed :class:`~repro.campaign.remote.RemoteClaimQueue`.
        Unlike :meth:`attach_worker`, no campaign directory and no
        shared cache are required: the spec arrives in the ``hello``
        reply, results ship to the server as pickled blobs, and every
        journal append happens server-side inside the claim
        transaction.
        """
        from repro.campaign.remote import RemoteClaimQueue

        if isinstance(server, RemoteClaimQueue):
            queue = server
        else:
            queue = RemoteClaimQueue(
                server, worker_id=worker_id, timeout=timeout
            )
        lease = DEFAULT_LEASE if lease is None else float(lease)
        poll = DEFAULT_POLL if poll is None else float(poll)
        try:
            hello = queue.hello(
                spec_digest=(
                    self.spec.spec_digest()
                    if self.spec is not None else None
                ),
            )
            if self.spec is None:
                self.spec = SweepSpec.from_dict(hello["spec"])
            self.campaign_id = hello["campaign"]
            session = int(hello["session"])
            units = self.spec.expand()
            by_id = {u.unit_id: u for u in units}
            results: Dict[str, SimulationResult] = {}
            self._drain(queue, by_id, results, session, lease, poll)
        finally:
            queue.close()
        return WorkerResult(
            campaign_id=self.campaign_id,
            worker_id=queue.worker_id, results=results,
            stats=self.stats, finalized=False,
        )

    def _finalize(self, units: Sequence[SweepUnit], session: int) -> bool:
        """Write summary/report if every unit is terminal (else False)."""
        state = self.manifest.reload().state()
        terminal = {
            uid for uid, st in state.units.items()
            if st.status in ("done", "failed")
        }
        if any(u.unit_id not in terminal for u in units):
            return False
        results: Dict[str, SimulationResult] = {}
        for unit in units:
            if state.units[unit.unit_id].done:
                results[unit.unit_id] = self.engine_for(unit).run(
                    unit.job_key(self.base_cfg)
                )
        summary = self._summarize(units, results, state)
        _write_atomic(
            self.dir / SUMMARY_NAME,
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
        )
        _write_atomic(
            self.dir / REPORT_NAME, self._render_report(summary) + "\n"
        )
        self.manifest.record_complete(session, {
            "units": len(units),
            "done": len(results),
            "failed": len(units) - len(results),
            "executed": self.stats.executed,
            "disk_hits": self.stats.disk_hits,
            "mem_hits": self.stats.mem_hits,
        })
        return True

    # ------------------------------------------------------------------
    # the campaign entrypoint
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False,
            workers: int = 1) -> CampaignResult:
        """Run (or resume) the full campaign and materialize artifacts.

        ``workers=N`` (N > 1) spawns N worker processes that drain the
        claim queue concurrently; the parent then reclaims anything a
        crashed child left behind and writes the summary.  Requires an
        on-disk campaign and the persistent cache (results travel
        between processes through it).
        """
        if self.spec is None:
            raise CampaignError("CampaignRunner.run needs a SweepSpec")
        workers = max(1, int(workers))
        cdir = self.dir
        if workers > 1:
            if cdir is None:
                raise CampaignError(
                    "multi-worker execution needs an on-disk campaign "
                    "(root=)"
                )
            if not self.options.cache_dir:
                raise CampaignError(
                    "multi-worker execution needs the persistent result "
                    "cache (set cache_dir; --no-cache cannot share "
                    "results between workers)"
                )
            if self.options.trace_events:
                raise CampaignError(
                    "--trace-events is process-local; it cannot be "
                    "combined with --workers"
                )
        if cdir is not None:
            self._prepare_dir(cdir, resume)
        elif resume:
            raise CampaignError("resume needs a campaign directory (root=)")

        units = self.spec.expand()
        self.manifest.write_header(
            self.campaign_id or self.spec.campaign_id,
            self.spec.spec_digest(), len(units),
        )
        session = self.manifest.start_session(resume=resume)
        if cdir is None:
            results = self.submit(units, session=session)
        else:
            results = self._run_shared(
                units, session=session, workers=workers
            )

        state = self.manifest.reload().state()
        summary = self._summarize(units, results, state)
        report = self._render_report(summary)
        if cdir is not None:
            _write_atomic(
                cdir / SUMMARY_NAME,
                json.dumps(summary, indent=2, sort_keys=True) + "\n",
            )
            _write_atomic(cdir / REPORT_NAME, report + "\n")
        self.manifest.record_complete(session, {
            "units": len(units),
            "done": len(results),
            "failed": len(units) - len(results),
            "executed": self.stats.executed,
            "disk_hits": self.stats.disk_hits,
            "mem_hits": self.stats.mem_hits,
        })
        return CampaignResult(
            campaign_id=self.campaign_id or self.spec.campaign_id,
            root=cdir, spec=self.spec, results=results,
            summary=summary, report=report, stats=self.stats, state=state,
        )

    def _prepare_dir(self, cdir: Path, resume: bool) -> None:
        if not write_or_verify_spec(cdir, self.spec):
            raise CampaignError(
                f"campaign {cdir.name!r} was created from a different "
                "spec; pick a new --name or delete the directory"
            )
        has_progress = bool(self.manifest.state().units)
        if has_progress and not resume:
            raise CampaignError(
                f"campaign {cdir.name!r} already has progress; use "
                "'repro sweep resume' to continue it"
            )
        if resume and not (cdir / "manifest.jsonl").exists():
            raise CampaignError(
                f"campaign {cdir.name!r} has no manifest to resume"
            )

    # ------------------------------------------------------------------
    # summary (a pure function of the results: no timestamps, no walls)
    # ------------------------------------------------------------------
    def _summarize(
        self,
        units: Sequence[SweepUnit],
        results: Dict[str, SimulationResult],
        state: ManifestState,
    ) -> dict:
        baselines: Dict[tuple, int] = {}
        base_profiles: Dict[tuple, object] = {}
        for unit in units:
            if unit.label == BASELINE_LABEL and unit.unit_id in results:
                ctx = (unit.bench, unit.scale, unit.mesh, unit.engine_profile)
                baselines[ctx] = results[unit.unit_id].cycles
                base_profiles[ctx] = characterize_result(
                    results[unit.unit_id]
                )

        unit_rows: List[dict] = []
        failed: List[dict] = []
        groups: Dict[tuple, Dict[str, Dict[str, float]]] = {}
        scheme_profiles: Dict[tuple, object] = {}
        for unit in units:
            if unit.unit_id not in results:
                st = state.unit(unit.unit_id)
                failed.append({
                    "unit_id": unit.unit_id,
                    "describe": unit.describe(),
                    "error": st.error,
                    "attempts": st.attempts,
                })
                continue
            cycles = results[unit.unit_id].cycles
            row = dict(unit.to_json_dict())
            row["unit_id"] = unit.unit_id
            row["cycles"] = cycles
            ctx = (unit.bench, unit.scale, unit.mesh, unit.engine_profile)
            if unit.label == BASELINE_LABEL:
                profile = base_profiles[ctx]
            else:
                profile = characterize_result(results[unit.unit_id])
                scheme_profiles[
                    (unit.group_key, unit.bench, unit.label)
                ] = profile
            row["bottleneck"] = profile.bottleneck_class
            if unit.label != BASELINE_LABEL:
                base = baselines.get(ctx)
                if base is not None:
                    imp = improvement_percent(base, cycles)
                    row["improvement_pct"] = round(imp, 4)
                    per_bench = groups.setdefault(
                        unit.group_key, {}
                    ).setdefault(unit.bench, {})
                    per_bench[unit.label] = imp
            unit_rows.append(row)

        group_rows: List[dict] = []
        for key in sorted(groups, key=_group_sort_key):
            scale, mesh, profile, tun = key
            per_bench = groups[key]
            labels = sorted({lbl for row in per_bench.values() for lbl in row})
            geo = {
                lbl: round(geomean_improvement([
                    per_bench[b][lbl] for b in per_bench if lbl in per_bench[b]
                ]), 4)
                for lbl in labels
            }
            # DAMOV-style characterization: each benchmark is classified
            # by its *baseline* run's bottleneck, and per-class winners
            # aggregate scheme improvements over the class members.
            bottlenecks = {
                b: base_profiles[(b, scale, mesh, profile)].bottleneck_class
                for b in per_bench
                if (b, scale, mesh, profile) in base_profiles
            }
            profiles_json: Dict[str, Dict[str, dict]] = {}
            for b in sorted(per_bench):
                ctx = (b, scale, mesh, profile)
                per_label: Dict[str, dict] = {}
                if ctx in base_profiles:
                    per_label[BASELINE_LABEL] = _profile_json(
                        base_profiles[ctx]
                    )
                for lbl in sorted(per_bench[b]):
                    p = scheme_profiles.get((key, b, lbl))
                    if p is not None:
                        per_label[lbl] = _profile_json(p)
                if per_label:
                    profiles_json[b] = per_label
            group_rows.append({
                "scale": scale,
                "mesh": None if mesh is None else list(mesh),
                "engine_profile": profile,
                "tunables": dict(tun) if tun is not None else None,
                "per_benchmark": {
                    b: {lbl: round(v, 4) for lbl, v in row.items()}
                    for b, row in sorted(per_bench.items())
                },
                "geomean": geo,
                "bottlenecks": dict(sorted(bottlenecks.items())),
                "class_winners": class_winners(bottlenecks, per_bench),
                "profiles": profiles_json,
            })

        return {
            "campaign": self.campaign_id or self.spec.campaign_id,
            "spec_digest": self.spec.spec_digest(),
            "total_units": len(units),
            "completed_units": len(results),
            "failed": failed,
            "groups": group_rows,
            "units": unit_rows,
        }

    def _render_report(self, summary: dict) -> str:
        blocks: List[str] = [
            f"campaign {summary['campaign']} "
            f"({summary['completed_units']}/{summary['total_units']} units)",
        ]
        for group in summary["groups"]:
            title = f"scale {group['scale']:g}"
            if group["mesh"]:
                title += f" · mesh {group['mesh'][0]}x{group['mesh'][1]}"
            if group["engine_profile"] != OPTIMIZED:
                title += f" · {group['engine_profile']} engine"
            if group["tunables"]:
                title += " · tunables " + ",".join(
                    f"{k}={v}" for k, v in sorted(group["tunables"].items())
                )
            labels = sorted(group["geomean"])
            rows = [
                [bench, *(row.get(lbl, "-") for lbl in labels)]
                for bench, row in group["per_benchmark"].items()
            ]
            rows.append(
                ["geomean", *(group["geomean"][lbl] for lbl in labels)]
            )
            blocks.append(format_table(
                ["benchmark", *labels], rows,
                title=f"improvement % over baseline — {title}",
            ))
            prof_rows = [
                [bench, lbl, d["class"], d["row_conflict_rate"],
                 d["l1_miss_rate"], d["noc_stall_share"],
                 d["l2_stall_share"], d["dram_stall_share"]]
                for bench, per_label in group.get("profiles", {}).items()
                for lbl, d in per_label.items()
            ]
            tables = format_bottleneck_tables(
                prof_rows, group.get("class_winners", ()),
                title_suffix=f" — {title}",
            )
            if tables:
                blocks.append(tables)
        if summary["failed"]:
            blocks.append("failed units:")
            blocks.extend(
                f"  {f['describe']}: {f['error']} "
                f"(after {f['attempts']} attempts)"
                for f in summary["failed"]
            )
        return "\n\n".join(blocks)


def _profile_json(profile) -> dict:
    """JSON-friendly signal subset of a BottleneckProfile (the fields
    the report's characterization table renders)."""
    return {
        "class": profile.bottleneck_class,
        "row_conflict_rate": profile.row_conflict_rate,
        "l1_miss_rate": profile.l1_miss_rate,
        "noc_stall_share": profile.link_stall_share,
        "l2_stall_share": profile.l2_stall_share,
        "dram_stall_share": profile.dram_stall_share,
    }


def _group_sort_key(key: tuple) -> tuple:
    scale, mesh, profile, tun = key
    return (
        scale,
        mesh is not None, mesh or (0, 0),
        profile,
        tun is not None, tun or (),
    )


def _worker_process(
    root: str,
    campaign_id: str,
    options: RuntimeOptions,
    base_cfg: ArchConfig,
    max_attempts: int,
    lease: float,
    poll: float,
) -> None:
    """Child entrypoint for ``run(workers=N)`` (spawn context)."""
    spec = SweepSpec.load(Path(root) / campaign_id / SPEC_NAME)
    runner = CampaignRunner(
        spec, root=root, campaign_id=campaign_id, options=options,
        base_cfg=base_cfg, max_attempts=max_attempts,
    )
    runner.attach_worker(lease=lease, poll=poll)
