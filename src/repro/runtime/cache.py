"""Persistent, content-addressed simulation-result cache.

Layout
------
``<root>/<digest[:2]>/<digest>.json`` where ``digest`` is the job's
:meth:`~repro.runtime.keys.JobKey.cache_digest` — a SHA-256 over the
package version, the cache schema version, the full machine
description, the workload scale, and the complete job key.  Because the
digest covers *everything* that determines a result, invalidation is
automatic: any config change, version bump, or new pass option simply
addresses a different entry.  Each entry is the result's checked JSON
form (:mod:`repro.runtime.codec`) and carries its own config.

Robustness rules (enforced by tests):

* loads are corruption-tolerant — a truncated, garbage, or malformed
  entry, or one whose counters break :meth:`SimStats.check`, is treated
  as a miss (and unlinked best-effort), never an error; a load only
  parses JSON, so a planted file cannot run code;
* stores are atomic — write to a temp file in the same directory, then
  ``os.replace`` — so a crashed writer can at worst leave a temp file,
  not a torn entry;
* every filesystem error degrades to "no cache", never to a crash.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from repro.arch.simulator import SimulationResult
from repro.runtime.codec import result_from_json, result_to_json

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class NullCache:
    """Cache that never hits and never writes (``--no-cache``)."""

    persistent = False

    def load(self, digest: str) -> Optional[SimulationResult]:
        return None

    def store(self, digest: str, result: SimulationResult) -> bool:
        return False


class ResultCache(NullCache):
    """Content-addressed JSON store for :class:`SimulationResult`."""

    persistent = True

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._usable = True
        except OSError:
            self._usable = False

    def path(self, digest: str) -> Path:
        return self.root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------
    def load(self, digest: str) -> Optional[SimulationResult]:
        """Return the cached result, or None on miss/corruption."""
        if not self._usable:
            return None
        path = self.path(digest)
        try:
            with open(path, "rb") as fh:
                return result_from_json(json.load(fh))
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt/truncated/malformed entry: drop it and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def store(self, digest: str, result: SimulationResult) -> bool:
        """Atomically persist ``result``; returns True on a new write.

        When the entry already exists the store is skipped: the digest
        covers everything that determines the result, so an existing
        entry holds the same bytes.  With several campaign workers
        racing on one cache this turns the common both-computed-it case
        into a no-op instead of N-1 redundant temp-file/replace cycles
        (the `os.replace` path stays correct either way — this is purely
        contention avoidance).
        """
        if not self._usable:
            return False
        path = self.path(digest)
        try:
            if path.exists():
                return False
        except OSError:
            pass
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(path.parent), prefix=f".{digest[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(result_to_json(result),
                                        allow_nan=False,
                                        separators=(",", ":")))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return False
        return True
