"""Property tests for the manifest journal's torn-line tolerance.

The crash model behind ``manifest.jsonl`` is byte truncation: a writer
killed at any instant leaves a byte-prefix of a valid journal.  These
hypothesis properties pin the replay/repair contract for *every* such
prefix, not just the hand-picked ones in the example-based suites:

* replay folds exactly the fully-contained lines (a torn tail is
  ignored, never a crash, never a partial parse);
* opening a journal never writes it; the next append repairs a torn
  tail, so new events land on fresh lines and fold on top of the
  surviving prefix;
* the fold a :class:`Manifest` keeps as it appends equals a fold of
  the journal from scratch, whatever mix of appends and reloads;
* the folded per-unit state (done/failed, attempt counts) matches a
  reference fold of the surviving events, so the done-set can never
  double-count a unit.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.manifest import Manifest, ManifestState, _fold

#: (unit_id, succeeded?) — a terminal unit event in the journal.
EVENTS = st.lists(
    st.tuples(st.sampled_from(["ua", "ub", "uc"]), st.booleans()),
    max_size=10,
)


def _write_journal(path: Path, events) -> None:
    m = Manifest(path)
    m.write_header("prop", "digest", 3)
    session = m.start_session()
    for i, (uid, done) in enumerate(events, start=1):
        if done:
            m.record_done(uid, f"d-{uid}", 0.5, i, session)
        else:
            m.record_failed(uid, "boom", i, session)


def _kept_events(blob: bytes, cut: int):
    """Reference model: the events of the *original* journal whose
    content bytes fully survive a truncation at ``cut`` (the trailing
    newline may be lost — the line still parses)."""
    kept = []
    pos = 0
    for raw in blob.split(b"\n"):
        if raw and pos + len(raw) <= cut:
            kept.append(json.loads(raw.decode()))
        pos += len(raw) + 1
    return kept


def _reference_fold(events):
    """Last-event-wins per-unit fold, independent of Manifest.state()."""
    units = {}
    for e in events:
        if e.get("event") != "unit":
            continue
        status, attempts = units.get(e["unit"], ("pending", 0))
        units[e["unit"]] = (e["status"], attempts + 1)
    return units


@settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
@given(events=EVENTS, cut_frac=st.floats(0, 1))
def test_truncated_journal_folds_exactly_the_surviving_lines(
    events, cut_frac
):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl"
        _write_journal(path, events)
        blob = path.read_bytes()
        cut = min(len(blob), int(cut_frac * (len(blob) + 1)))
        path.write_bytes(blob[:cut])

        kept = _kept_events(blob, cut)
        state = Manifest(path).state()

        expected = _reference_fold(kept)
        assert {
            uid: (st_.status, st_.attempts)
            for uid, st_ in state.units.items()
        } == expected
        assert set(state.done_ids) == {
            uid for uid, (status, _) in expected.items() if status == "done"
        }
        assert state.sessions == sum(
            1 for e in kept if e.get("event") == "session"
        )
        assert (state.header is not None) == any(
            e.get("event") == "header" for e in kept
        )


@settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
@given(events=EVENTS, cut_frac=st.floats(0, 1))
def test_repaired_tail_accepts_appends(events, cut_frac):
    """Opening a truncated journal leaves its bytes alone; the next
    append repairs the torn tail, so it cannot concatenate onto the
    fragment: the new event is always folded, on top of exactly the
    surviving prefix."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl"
        _write_journal(path, events)
        blob = path.read_bytes()
        cut = min(len(blob), int(cut_frac * (len(blob) + 1)))
        path.write_bytes(blob[:cut])

        survivors = _reference_fold(_kept_events(blob, cut))

        m = Manifest(path)  # a reader: never writes
        assert path.read_bytes() == blob[:cut]
        m.record_done("uz", "d-uz", 0.1, 1, 99)  # repairs the torn tail

        reread = Manifest(path).state()
        status, attempts = survivors.get("uz", ("pending", 0))
        survivors["uz"] = ("done", attempts + 1)
        assert {
            uid: (st_.status, st_.attempts)
            for uid, st_ in reread.units.items()
        } == survivors
        assert reread.units["uz"].digest == "d-uz"


@settings(
    max_examples=40,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
@given(events=EVENTS)
def test_done_set_never_double_counts(events):
    """However often a unit is journaled, it appears in done_ids at
    most once, and done/failed partition the folded units."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl"
        _write_journal(path, events)
        state = Manifest(path).state()
        done = state.done_ids
        assert len(done) == len(set(done))
        assert set(done).isdisjoint(state.failed_ids)
        assert set(done) | set(state.failed_ids) == set(state.units)


#: one journal operation: append a unit event, a session or a complete
#: marker, or reload from disk
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("unit"), st.sampled_from(["ua", "ub", "uc"]),
                  st.booleans()),
        st.tuples(st.sampled_from(["session", "complete", "reload"])),
    ),
    max_size=12,
)


@settings(
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    deadline=None,
)
@given(ops=OPS, on_disk=st.booleans())
def test_kept_fold_equals_a_fold_from_scratch(ops, on_disk):
    """``_append`` folds each event once into the kept state; after any
    sequence of appends and reloads that state equals a fold of the
    journal from scratch (and a new reader's, on disk), and a snapshot
    taken on the way is not changed by later appends."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.jsonl" if on_disk else None
        m = Manifest(path)
        m.write_header("prop", "digest", 3)
        session = m.start_session()
        snapshots = []
        for i, op in enumerate(ops, start=1):
            if op[0] == "unit":
                _, uid, done = op
                if done:
                    m.record_done(uid, f"d-{uid}", 0.5, i, session)
                else:
                    m.record_failed(uid, "boom", i, session)
            elif op[0] == "session":
                session = m.start_session(resume=True)
            elif op[0] == "complete":
                m.record_complete(session, {"done": i})
            else:
                m.reload()
            snapshots.append((len(m._lines), m.state()))

        def scratch(events):
            st_ = ManifestState()
            for event in events:
                _fold(st_, event)
            return st_

        assert m.state() == scratch(m._lines)
        if on_disk:
            assert m.state() == Manifest(path).state()
        for n, snap in snapshots:
            assert snap == scratch(m._lines[:n])
        assert {
            uid: (st_.status, st_.attempts)
            for uid, st_ in m.state().units.items()
        } == _reference_fold(m._lines)
        assert m.done_ids() == set(m.state().done_ids)
