"""The runtime's one trace source: a job's compiled trace.

Every job a runner executes gets its trace from
:func:`cached_compiled_trace`, which maps the job's
:class:`~repro.runtime.keys.JobKey` onto
:func:`repro.workloads.tracegen.compiled_trace`.  That function keeps
the process-wide trace cache, keyed by everything that determines a
trace (benchmark, variant, scale, the full config, tunables and pass
options).  A lineup or a sweep chunk replays the *same* trace under
many schemes, so every job after the first one per (benchmark,
variant) is a cache hit that returns the same trace *object*.  That
object identity is what makes the fast engine's identity-keyed
pre-pass cache (:mod:`repro.arch.prepass`) hit: address maps and
contention-free windows are computed once per trace, not once per
simulation.
"""

from __future__ import annotations

from repro.config import ArchConfig
from repro.runtime.keys import JobKey
from repro.workloads.tracegen import compiled_trace


def cached_compiled_trace(cfg: ArchConfig, key: JobKey):
    """``(trace, pass report)`` for ``key`` under ``cfg``; jobs with
    the same trace inputs share the trace object."""
    return compiled_trace(
        key.bench, key.variant, key.scale, cfg,
        tunables=key.tunables, **dict(key.trace_opts)
    )
