"""Host-speed correction for the end-to-end timings.

On a shared host the speed of one core drifts by up to 2x within tens of
seconds while CPU time stays equal to wall time, and the two cores drift
independently.  A fixed pure-Python loop run on the same core right
before and after each simulation slows down with it (correlation about
0.85 per simulation), so every timed process interleaves one such
reference loop after each simulated job, outside the job's own timing.

A corrected time is the raw time scaled by ``REFERENCE_S`` over the mean
duration of the loops around it: seconds on a host where the loop takes
``REFERENCE_S``.  The code under test never runs inside the loop, so a
change to ``repro`` moves corrected times exactly as it moves raw ones.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import List, Optional, Sequence

#: Iterations of the reference loop (about 2 ms on a 2-core x86_64 VM).
REFERENCE_LOOP = 20_000
#: The loop duration corrected times are scaled to.
REFERENCE_S = 0.002


def reference_loop() -> float:
    """Seconds for one run of the fixed reference loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples taken in one process.

    ``install`` hooks ``ParallelRunner._commit``, which the runtime
    calls once per executed job after the job's wall time is recorded,
    so a sample follows every simulation without entering its timing.
    """

    def __init__(self) -> None:
        #: (label, end time, loop seconds); label is the job's cache
        #: digest, or None for samples outside any job
        self.samples: List[tuple] = []
        self._undo = None

    def sample(self, label: Optional[str] = None) -> float:
        dt = reference_loop()
        self.samples.append((label, time.perf_counter(), dt))
        return dt

    def install(self) -> None:
        from repro.runtime.parallel import ParallelRunner

        commit = ParallelRunner._commit
        speed = self

        def _commit(runner, key, result):
            commit(runner, key, result)
            speed.sample(key.cache_digest())

        ParallelRunner._commit = _commit
        self._undo = lambda: setattr(ParallelRunner, "_commit", commit)

    def uninstall(self) -> None:
        if self._undo is not None:
            self._undo()
            self._undo = None

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.samples))


def factor(loops: Sequence[float]) -> float:
    """Corrected seconds per raw second, given the loops around them."""
    return REFERENCE_S / statistics.fmean(loops)


#: Loops on each side of a job that its correction factor averages.
WINDOW = 2


def per_job(samples: Sequence[tuple]) -> List[tuple]:
    """(job label, correction factor) per job, in order (the samples of
    one process).  Sample ``i`` follows job ``i``; the factor averages
    the ``WINDOW`` loops before the job and the ``WINDOW`` after it."""
    loops = [dt for _, _, dt in samples]
    return [
        (label, factor(loops[max(0, i - WINDOW):i + WINDOW]))
        for i, (label, _, _) in enumerate(samples)
        if label is not None
    ]
