"""Span recorder for the traced benchmark run, and the layer metrics
computed from its spans.

The recorder wraps the public entry points of each layer of
``repro`` from outside the package: it replaces a module attribute or a
class method with a timing wrapper and puts the original back on
``uninstall``.  Nothing under ``src/`` is edited.  A module that
imports a function by name (``tracegen`` imports ``lower_program`` and
``build_benchmark``, ``vectorized`` imports ``prepass_for``, the
campaign runner imports ``characterize_result``) calls its own binding,
so the wrapper is installed at that binding too.

Each span records its name, start and end (``time.perf_counter``,
which is ``CLOCK_MONOTONIC`` on Linux and so comparable across the
processes of one host), the id of its parent span, the unit (job) it
belongs to, and a small dict of counts taken from its arguments or its
return value.  Spans stay in memory and are written to one JSON file
per process when that process's traced region ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

# Span record layout (a list, so the hot path allocates one object).
ID, NAME, START, END, PARENT, UNIT, EXTRA = range(7)

#: Span names that make up trace compile (lowering plus Algorithm 1/2
#: plus CODA placement).
COMPILE_SPANS = ("core.alg1", "core.alg2", "core.placement", "core.lower")

#: Span name -> layer self-time metric.  A span nested inside a warm-up
#: is folded into ``schemes.warmup_s`` (the warm-up replay is the nmpo
#: scheme's cost, not replay of the measured simulation).
SELF_TIME_METRICS = {
    "workloads.build": "workloads.build_s",
    "core.alg1": "core.alg1_s",
    "core.alg2": "core.alg2_s",
    "core.placement": "core.placement_s",
    "core.lower": "core.lower_s",
    "schemes.prepare": "schemes.prepare_s",
    "schemes.warmup": "schemes.warmup_s",
    "arch.prepass": "arch.prepass_s",
    "arch.replay": "arch.replay_s",
    "runtime.execute": "runtime.execute_s",
    "analysis.characterize": "analysis.characterize_s",
}


class Recorder:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        unit_of: Optional[Callable] = None,
        extra_of: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``name`` is the span name, or a callable of the call's
        positional arguments returning it.  ``unit_of(args, kwargs)``
        names the unit a span belongs to (spans without one inherit
        their parent's); ``extra_of(args, kwargs, result)`` returns the
        span's counts, computed after the span has ended.
        """
        fn = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            unit = unit_of(args, kwargs) if unit_of is not None else None
            if unit is None and parent is not None:
                unit = spans[parent][UNIT]
            label = name(args) if callable(name) else name
            entry = [len(spans), label, 0.0, 0.0, parent, unit, None]
            spans.append(entry)
            stack.append(entry[ID])
            entry[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                entry[END] = time.perf_counter()
                stack.pop()
            if extra_of is not None:
                entry[EXTRA] = extra_of(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def dump(self, path: Path, **meta) -> None:
        Path(path).write_text(json.dumps({**meta, "spans": self.spans}))


# ----------------------------------------------------------------------
# the wrapped entry points
# ----------------------------------------------------------------------

def _key_unit(args, kwargs):
    key = kwargs.get("key", args[1] if len(args) > 1 else None)
    return f"{key.describe()}/s{key.scale:g}" if key is not None else None


def _first_arg_unit(args, kwargs):
    return args[1] if len(args) > 1 else None


def _trace_ops(trace) -> int:
    return sum(len(stream) for stream in trace)


def _lowered(args, kwargs, trace) -> dict:
    from repro.isa import OpKind

    pre = OpKind.PRE_COMPUTE
    return {
        "ops": _trace_ops(trace),
        "pre": sum(1 for s in trace for op in s if op.kind is pre),
    }


def _replayed(args, kwargs, result) -> dict:
    return {"ops": _trace_ops(kwargs.get("trace", args[1]))}


def _stored(args, kwargs, wrote) -> dict:
    if not wrote:
        return {"bytes": 0}
    cache, digest = args[0], args[1]
    return {"bytes": cache.path(digest).stat().st_size}


def _loaded(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _claimed(args, kwargs, claimed) -> dict:
    return {
        "units": len(claimed),
        "again": sum(1 for cu in claimed if cu.attempt > 1),
    }


def install(rec: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro import schemes
    from repro.analysis import characterize
    from repro.arch import prepass, simulator, vectorized
    from repro.campaign import manifest, queue, runner
    from repro.core import algorithm1, algorithm2, layout, lowering
    from repro.runtime import batch, cache, parallel
    from repro.workloads import suite, tracegen

    for mod in (suite, tracegen):
        rec.wrap(mod, "build_benchmark", "workloads.build")
    rec.wrap(
        algorithm1.Algorithm1, "run",
        lambda a: (
            "core.alg2" if isinstance(a[0], algorithm2.Algorithm2)
            else "core.alg1"
        ),
    )
    for attr in ("coda_placement", "optimize_layout"):
        rec.wrap(layout, attr, "core.placement")
    for mod in (lowering, tracegen):
        rec.wrap(mod, "lower_program", "core.lower", extra_of=_lowered)
    classes = {c for c in vars(schemes).values() if isinstance(c, type)}
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        if issubclass(cls, schemes.NdcScheme) and "prepare" in vars(cls):
            guided = cls is not schemes.NdcScheme
            rec.wrap(cls, "prepare", "schemes.prepare",
                     extra_of=lambda a, k, r, g=guided: {"guided": g})
    rec.wrap(schemes, "warmup_profile", "schemes.warmup")
    for mod in (prepass, vectorized):
        rec.wrap(mod, "prepass_for", "arch.prepass")
    for cls in (simulator.SystemSimulator, vectorized.VectorizedSimulator):
        rec.wrap(cls, "run", "arch.replay", extra_of=_replayed)
    rec.wrap(parallel, "execute_job", "runtime.execute", unit_of=_key_unit)
    rec.wrap(batch, "cached_compiled_trace", "runtime.trace_lru",
             unit_of=_key_unit)
    rec.wrap(cache.ResultCache, "load", "runtime.cache_load",
             extra_of=_loaded)
    rec.wrap(cache.ResultCache, "store", "runtime.cache_store",
             extra_of=_stored)
    rec.wrap(queue.ClaimQueue, "claim", "campaign.claim", extra_of=_claimed)
    rec.wrap(queue.ClaimQueue, "complete", "campaign.complete",
             unit_of=_first_arg_unit)
    rec.wrap(manifest.Manifest, "record_done", "campaign.journal",
             unit_of=_first_arg_unit)
    for mod in (characterize, runner):
        rec.wrap(mod, "characterize_result", "analysis.characterize")
    rec.wrap(runner.CampaignRunner, "run", "campaign.run")
    rec.wrap(runner.CampaignRunner, "_spawn_workers", "campaign.spawn")


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------

def load_processes(spans_dir: Path) -> List[dict]:
    """Every span file of one traced pass (the pass, then its workers)."""
    files = sorted(Path(spans_dir).glob("*.json"))
    return [json.loads(f.read_text()) for f in files]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _folded_names(spans: List[list]) -> List[str]:
    """Span names with everything inside a warm-up renamed to it."""
    names = []
    for s in spans:
        parent = s[PARENT]
        name = s[NAME]
        if parent is not None and names[parent] == "schemes.warmup":
            name = "schemes.warmup"
        names.append(name)
    return names


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _descendants(kids: Dict[int, List[int]], spans, sid: int) -> List[str]:
    """Names of every span nested (at any depth) inside span ``sid``."""
    out: List[str] = []
    todo = list(kids.get(sid, ()))
    while todo:
        child = todo.pop()
        out.append(spans[child][NAME])
        todo.extend(kids.get(child, ()))
    return out


def layer_metrics(processes: List[dict]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``processes`` are the pass's span files.  Shares divide by the
    pass's host seconds (``trace.host_s``): the traced wall time of
    each process, less the time the parent spent blocked joining its
    spawned workers.
    """
    m: Dict[str, float] = {v: 0.0 for v in SELF_TIME_METRICS.values()}
    n = dict.fromkeys(
        ("programs", "compiles", "ops", "pre", "guided", "guided_reused",
         "warmups", "replay_ops", "lru", "lru_hits", "claims_again"), 0,
    )
    loads: List[float] = []
    stores: List[float] = []
    entry_bytes: List[int] = []
    claim_ms: List[float] = []
    worker_claims: List[float] = []
    spawn = run = None
    host_s = 0.0
    for proc in processes:
        spans = proc["spans"]
        kids: Dict[int, List[int]] = {}
        for s in spans:
            if s[PARENT] is not None:
                kids.setdefault(s[PARENT], []).append(s[ID])
        for s, own, name in zip(spans, self_times(spans),
                                _folded_names(spans)):
            metric = SELF_TIME_METRICS.get(name)
            if metric is not None:
                m[metric] += own
            kind, extra = s[NAME], s[EXTRA] or {}
            ms = 1e3 * (s[END] - s[START])
            if kind == "workloads.build":
                n["programs"] += 1
            elif kind == "core.lower":
                n["compiles"] += 1
                n["ops"] += extra["ops"]
                n["pre"] += extra["pre"]
            elif kind == "schemes.prepare" and extra.get("guided"):
                n["guided"] += 1
                if "arch.replay" not in _descendants(kids, spans, s[ID]):
                    n["guided_reused"] += 1
            elif kind == "schemes.warmup":
                if "arch.replay" in _descendants(kids, spans, s[ID]):
                    n["warmups"] += 1
            elif kind == "arch.replay" and name == "arch.replay":
                parent = s[PARENT]
                if parent is None or spans[parent][NAME] != "arch.replay":
                    n["replay_ops"] += extra["ops"]
            elif kind == "runtime.trace_lru":
                n["lru"] += 1
                if "workloads.build" not in _descendants(kids, spans, s[ID]):
                    n["lru_hits"] += 1
            elif kind == "runtime.cache_load" and extra.get("hit"):
                loads.append(ms)
            elif kind == "runtime.cache_store":
                stores.append(ms)
                if extra.get("bytes"):
                    entry_bytes.append(extra["bytes"])
            elif kind in ("campaign.claim", "campaign.complete"):
                claim_ms.append(ms)
                if kind == "campaign.claim":
                    n["claims_again"] += extra["again"]
                    if proc["role"] == "worker" and extra["units"]:
                        worker_claims.append(s[START])
            elif kind == "campaign.spawn":
                spawn = s
            elif kind == "campaign.run" and proc["role"] == "pass":
                run = s
        host_s += proc["end"] - proc["start"]
        if proc["role"] == "pass":
            host_s -= sum(s[END] - s[START] for s in spans
                          if s[NAME] == "campaign.spawn")
    compile_s = sum(m[SELF_TIME_METRICS[name]] for name in COMPILE_SPANS)
    m.update({
        "workloads.programs": n["programs"],
        "core.compiles": n["compiles"],
        "core.trace_ops": n["ops"],
        "core.precompute_ops": n["pre"],
        "core.compile_share": compile_s / host_s,
        "schemes.warmups": n["warmups"],
        "schemes.warmup_reuse_ratio": _ratio(n["guided_reused"],
                                             n["guided"]),
        "arch.replay_share": m["arch.replay_s"] / host_s,
        "arch.replay_ops_per_s": _ratio(n["replay_ops"],
                                        m["arch.replay_s"]),
        "runtime.trace_lru_hit_ratio": _ratio(n["lru_hits"], n["lru"]),
        "runtime.cache_store_ms": _median(stores),
        "runtime.cache_load_ms": _median(loads),
        "runtime.cache_entry_bytes": _median(entry_bytes),
        "campaign.claim_ms": _median(claim_ms),
        "campaign.first_claim_s": (
            min(worker_claims) - spawn[START]
            if spawn is not None and worker_claims else 0.0
        ),
        "campaign.finalize_s": (
            run[END] - spawn[END]
            if run is not None and spawn is not None else 0.0
        ),
        "campaign.claims_again": n["claims_again"],
        "trace.host_s": host_s,
    })
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
