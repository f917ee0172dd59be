"""Persistent campaign manifest: the crash-recovery journal.

Every campaign directory carries a ``manifest.jsonl`` — one JSON object
per line, appended and flushed as units finish — that records what
happened: a ``header`` line (spec digest + unit count), one ``session``
line per runner process that attached, and one ``unit`` line per
terminal unit event (``done`` / ``failed``).  Because lines are only
ever *appended* (never rewritten), the journal survives ``SIGKILL`` at
any instant; replay simply ignores a torn trailing line.

The :class:`Manifest` API is the same whether it is backed by a file
(resumable campaigns) or purely in-memory (in-memory campaigns and the
tuner's throwaway candidate evaluations): the campaign's claim queue
appends ``record_done`` / ``record_failed`` events inside its claim
transactions, and :meth:`state` folds the journal into per-unit
status.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

MANIFEST_NAME = "manifest.jsonl"

#: Unit status values as folded by :meth:`Manifest.state`.
DONE = "done"
FAILED = "failed"
PENDING = "pending"


@dataclass
class UnitState:
    """Folded journal state of one unit (last event wins)."""

    unit_id: str
    status: str = PENDING
    digest: Optional[str] = None      #: JobKey cache digest (done units)
    wall: Optional[float] = None      #: seconds spent simulating
    attempts: int = 0                 #: terminal events seen so far
    error: Optional[str] = None       #: last failure message
    session: Optional[int] = None     #: session that produced the event

    @property
    def done(self) -> bool:
        return self.status == DONE


@dataclass
class ManifestState:
    """Everything :meth:`Manifest.state` can fold out of the journal."""

    units: Dict[str, UnitState] = field(default_factory=dict)
    sessions: int = 0
    header: Optional[dict] = None
    completes: List[dict] = field(default_factory=list)
    torn_lines: int = 0

    def unit(self, unit_id: str) -> UnitState:
        return self.units.get(unit_id, UnitState(unit_id))

    @property
    def done_ids(self) -> List[str]:
        return [u for u, s in self.units.items() if s.status == DONE]

    @property
    def failed_ids(self) -> List[str]:
        return [u for u, s in self.units.items() if s.status == FAILED]


class Manifest:
    """Append-only JSONL journal for one campaign (or in-memory).

    ``path=None`` keeps the journal in memory only — same API, nothing
    on disk (the journal of an in-memory claim queue: in-memory
    campaigns and the tuner's candidate loop).
    """

    def __init__(self, path: Union[None, str, Path] = None):
        self.path = Path(path) if path is not None else None
        self._lines: List[dict] = []
        if self.path is not None and self.path.exists():
            self._lines = list(self._replay())
            self._repair_tail()

    def reload(self, *, repair: bool = False) -> "Manifest":
        """Re-read the journal from disk (other writers may have
        appended since).  In-memory journals are a no-op.

        ``repair=False`` is read-only — safe while other processes are
        appending (a torn tail is simply ignored, as in replay).
        ``repair=True`` additionally newline-terminates a torn tail and
        must only run while holding the campaign's claim-queue write
        lock (:meth:`~repro.campaign.queue.ClaimQueue.reconcile` does),
        so it can never split a live writer's in-flight line.
        """
        if self.path is None:
            return self
        if self.path.exists():
            self._lines = list(self._replay())
            if repair:
                self._repair_tail()
        return self

    def _repair_tail(self) -> None:
        """Terminate a torn trailing line (a writer killed mid-write).

        Without this, the next append would concatenate onto the torn
        fragment and corrupt itself too; with it, the fragment stays an
        ignored torn line and new events land on fresh lines.
        """
        assert self.path is not None
        with self.path.open("rb+") as fh:
            fh.seek(0, 2)
            size = fh.tell()
            if size == 0:
                return
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                fh.write(b"\n")

    # ------------------------------------------------------------------
    # journal I/O
    # ------------------------------------------------------------------
    def _replay(self):
        assert self.path is not None
        with self.path.open("r", encoding="utf-8") as fh:
            for raw in fh:
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    event = json.loads(raw)
                except json.JSONDecodeError:
                    # A torn trailing line from a killed writer; the
                    # unit it would have recorded simply reruns (its
                    # simulation is still in the warm cache anyway).
                    continue
                if isinstance(event, dict):
                    yield event

    def _append(self, event: dict) -> None:
        self._lines.append(event)
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
            fh.flush()

    # ------------------------------------------------------------------
    # event writers
    # ------------------------------------------------------------------
    def write_header(self, campaign_id: str, spec_digest: str,
                     total_units: int) -> None:
        """Once per campaign (skipped when resuming an existing one)."""
        if any(e.get("event") == "header" for e in self._lines):
            return
        self._append({
            "event": "header",
            "campaign": campaign_id,
            "spec_digest": spec_digest,
            "total_units": total_units,
            "time": time.time(),
        })

    def start_session(self, *, resume: bool = False) -> int:
        """Record one runner process attaching; returns its ordinal."""
        session = self.sessions + 1
        self._append({
            "event": "session",
            "session": session,
            "resume": resume,
            "time": time.time(),
        })
        return session

    def record_done(self, unit_id: str, digest: str, wall: float,
                    attempt: int, session: int) -> None:
        self._append({
            "event": "unit",
            "status": DONE,
            "unit": unit_id,
            "digest": digest,
            "wall": round(float(wall), 6),
            "attempt": attempt,
            "session": session,
        })

    def record_failed(self, unit_id: str, error: str, attempt: int,
                      session: int) -> None:
        self._append({
            "event": "unit",
            "status": FAILED,
            "unit": unit_id,
            "error": str(error)[:500],
            "attempt": attempt,
            "session": session,
        })

    def record_complete(self, session: int, summary: dict) -> None:
        """End-of-run marker with a stats snapshot for ``status``."""
        self._append({
            "event": "complete",
            "session": session,
            "time": time.time(),
            **summary,
        })

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    @property
    def sessions(self) -> int:
        return sum(1 for e in self._lines if e.get("event") == "session")

    def state(self) -> ManifestState:
        st = ManifestState()
        for event in self._lines:
            kind = event.get("event")
            if kind == "header":
                st.header = event
            elif kind == "session":
                st.sessions += 1
            elif kind == "complete":
                st.completes.append(event)
            elif kind == "unit":
                uid = event.get("unit")
                if not uid:
                    continue
                unit = st.units.setdefault(uid, UnitState(uid))
                unit.attempts += 1
                unit.session = event.get("session")
                if event.get("status") == DONE:
                    unit.status = DONE
                    unit.digest = event.get("digest")
                    unit.wall = event.get("wall")
                    unit.error = None
                else:
                    unit.status = FAILED
                    unit.error = event.get("error")
        return st

    def done_ids(self) -> set:
        """Unit ids whose latest event is ``done`` (the resume skip set)."""
        return set(self.state().done_ids)
