"""One benchmark process: a set-up probe or one cold pass of a workload.

``run.py`` starts this script in a fresh interpreter for every probe and
pass, so each pass starts cold: empty trace, pre-pass and warm-up
caches, and (for the sweep) a fresh runs directory and result cache.
Usage::

    python3 perfbench/child.py CONFIG_JSON OUT_JSON

``CONFIG_JSON`` holds ``mode`` (``probe`` or ``pass``), ``workload``,
``seed``, ``smoke``, ``trace``, ``src`` (the ``src/`` directory to
import ``repro`` from) and ``work`` (a scratch directory).  The result
is written to ``OUT_JSON``.

Set-up is everything before the first job can be issued: the imports
(numpy included) and the resolution of the lineup or sweep spec.  The
timed region is the workload's ``repro.api`` calls and nothing else;
output checks run after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import catalog
import spans
import speed as speed_mod
from speed import HostSpeed

#: Reference-profile re-simulations per pass (a seeded sample of units).
REFERENCE_SAMPLE = 3
#: Reference loops before and after set-up (see ``speed.py``).
SETUP_SAMPLES = 5


def workload_def(name: str, smoke: bool) -> dict:
    w = dict(catalog.WORKLOADS[name])
    if smoke:
        w.update(catalog.SMOKE[name])
    return w


# ----------------------------------------------------------------------
# set-up: imports + lineup / spec resolution
# ----------------------------------------------------------------------

def prepare(cfg: dict) -> dict:
    """Everything a pass needs before its first job; returns the plan."""
    sys.path.insert(0, cfg["src"])
    import numpy  # noqa: F401  (the vectorized profile's pre-pass)

    import repro.arch.vectorized  # noqa: F401
    from repro import api  # noqa: F401
    from repro.schemes import DEFAULT_LINEUP, SHOOTOUT_LINEUP, build_lineup
    from repro.workloads.suite import resolve_benchmarks

    w = workload_def(cfg["workload"], cfg["smoke"])
    if w["benchmarks"] == "cheap":
        from repro.tuning import CHEAP_BENCHMARKS

        w["benchmarks"] = CHEAP_BENCHMARKS
    if w["schemes"] is None:
        w["schemes"] = DEFAULT_LINEUP
    elif w["schemes"] == "shootout":
        w["schemes"] = SHOOTOUT_LINEUP
    build_lineup(w["schemes"])
    w["resolved"] = resolve_benchmarks(
        tuple(w["benchmarks"]) or None, tuple(w["suites"]) or None
    )
    if w["kind"] == "sweep":
        from repro.campaign import SweepSpec

        spec = SweepSpec.from_dict({
            "name": f"perfbench-{cfg['workload']}",
            "benchmarks": list(w["benchmarks"]),
            "suites": list(w["suites"]),
            "schemes": list(w["schemes"]),
            "scales": list(w["scales"]),
            "engine_profiles": ["vectorized"],
            "tunables": [{}] + tunables_draws(cfg["seed"], w["draws"]),
        })
        w["spec"] = spec
        w["units"] = spec.expand()
    return w


def tunables_draws(seed: int, n: int) -> list:
    """``n`` distinct non-default seeded points of ``DEFAULT_GRID``."""
    from repro.core.tunables import Tunables
    from repro.tuning import DEFAULT_GRID

    rng = random.Random(seed)
    out, seen = [], set()
    while len(out) < n:
        t = Tunables().replace(**{
            knob: rng.choice(values) for knob, values in DEFAULT_GRID.items()
        })
        if t.is_default or t.digest() in seen:
            continue
        seen.add(t.digest())
        out.append(t.diff())
    return out


# ----------------------------------------------------------------------
# the timed region
# ----------------------------------------------------------------------

class Capture:
    """Keeps the results of every engine ``api.lineup`` closes.

    ``api.lineup`` returns only improvements; the per-unit results the
    output checks need are read from the engine's in-memory table when
    the facade closes it.  One call per lineup, outside any timing.
    """

    def __init__(self) -> None:
        from repro.runtime.parallel import ParallelRunner

        self.results: dict = {}
        self._cls = ParallelRunner
        self._close = ParallelRunner.close
        capture = self

        def close(runner):
            capture.results.update(runner._memory)
            return capture._close(runner)

        ParallelRunner.close = close

    def uninstall(self) -> None:
        self._cls.close = self._close


def run_lineups(w: dict, speed: HostSpeed) -> dict:
    """The lineup workloads: one ``api.lineup`` per scale."""
    from repro import api
    from repro.runtime import RunnerStats

    stats = RunnerStats()
    capture = Capture()
    geomeans = {}
    try:
        speed.sample()
        t0 = time.perf_counter()
        for scale in w["scales"]:
            res = api.lineup(
                scale=scale, benchmarks=tuple(w["benchmarks"]) or None,
                suite=tuple(w["suites"]) or None, schemes=w["schemes"],
                profile="vectorized", backend="batch", cache=False,
                stats=stats,
            )
            geomeans[scale] = res.data["geomean"]
        wall = time.perf_counter() - t0
    finally:
        capture.uninstall()
    # One sample before the first job and one after every job, in order.
    factors = [f for _, f in speed_mod.per_job(speed.samples)]
    walls = [dt for _, dt in stats.job_times]
    loops = [dt for _, _, dt in speed.samples]
    return {
        "wall": wall,
        "wall_corrected": (wall - sum(loops[1:])) * speed_mod.factor(loops),
        "results": {f"{key.describe()}/s{key.scale:g}": (key, r)
                    for key, r in capture.results.items()},
        "unit_walls": walls,
        "unit_walls_corrected": [dt * f for dt, f in zip(walls, factors)],
        "expected": len(w["resolved"]) * (1 + len(w["schemes"]))
        * len(w["scales"]),
        "geomeans": geomeans,
    }


def worker_entry(work: str, trace: bool, *args) -> None:
    """Campaign worker entry (spawned): samples host speed after every
    job and, when tracing, records spans; both are written to ``work``."""
    from repro.campaign import runner

    speed = HostSpeed()
    speed.install()
    speed.sample()
    rec = None
    if trace:
        rec = spans.Recorder()
        spans.install(rec)
    start = time.perf_counter()
    try:
        runner._worker_process(*args)
    finally:
        end = time.perf_counter()
        speed.uninstall()
        pid = os.getpid()
        speed.dump(Path(work) / "speed" / f"worker-{pid}.json")
        if rec is not None:
            rec.uninstall()
            rec.dump(Path(work) / "spans" / f"worker-{pid}.json",
                     role="worker", start=start, end=end)


def run_sweep(w: dict, work: Path, root: str, workers: int,
              trace: bool) -> dict:
    """The sweep workload: one on-disk ``api.sweep`` campaign."""
    import functools

    from repro import api
    from repro.campaign import runner
    from repro.runtime import RuntimeOptions

    opts = RuntimeOptions(
        cache_dir=str(work / "cache"), engine_profile="vectorized",
        batch=True,
    )
    speed_dir = work / "speed"
    shutil.rmtree(speed_dir, ignore_errors=True)
    speed_dir.mkdir(parents=True)
    # The spawn context pickles the worker target by reference; a
    # partial of a module-level function reaches the child intact.
    original = runner._worker_process
    runner._worker_process = functools.partial(
        worker_entry, str(work), trace)
    try:
        t0 = time.perf_counter()
        res = api.sweep(w["spec"], root=str(work / root), workers=workers,
                        options=opts)
        wall = time.perf_counter() - t0
    finally:
        runner._worker_process = original
    rows = [
        json.loads(line) for line in
        (work / root / res.campaign_id / "manifest.jsonl").read_text()
        .splitlines() if line.strip()
    ]
    units = [r for r in rows if r.get("event") == "unit"]
    done = [r for r in units if r["status"] == "done"]
    factors, loops = {}, []
    for f in speed_dir.glob("*.json"):
        samples = json.loads(f.read_text())
        factors.update(dict(speed_mod.per_job(samples)))
        loops += [dt for _, _, dt in samples]
    overall = speed_mod.factor(loops) if loops else 1.0
    spent = sum(loops) / max(1, workers)
    return {
        "wall": wall,
        "wall_corrected": (wall - spent) * overall,
        "campaign": res,
        "results": {u.describe(): (u.job_key(), res.results[u.unit_id])
                    for u in w["units"] if u.unit_id in res.results},
        # Units whose job another unit already simulated (the nmpo
        # bars share one job key across tunables points) resolve from
        # the cache and journal a zero wall; they are not simulations.
        "unit_walls": [r["wall"] for r in done if r["wall"] > 0],
        "unit_walls_corrected": [
            r["wall"] * factors.get(r["digest"], overall)
            for r in done if r["wall"] > 0],
        "done_rows": [r["unit"] for r in done],
        "failed_rows": sum(1 for r in units if r["status"] == "failed"),
        "expected": len(w["units"]),
        "geomeans": sweep_geomeans(w, res.results),
    }


def sweep_geomeans(w: dict, results: dict) -> dict:
    """Geomean improvement per label for the sweep's defaults point."""
    from repro.analysis.metrics import geomean_improvement
    from repro.arch.stats import improvement_percent
    from repro.campaign import BASELINE_LABEL

    out = {}
    for scale in w["scales"]:
        base = {u.bench: results[u.unit_id].cycles for u in w["units"]
                if u.label == BASELINE_LABEL and u.scale == scale}
        per_label: dict = {}
        for u in w["units"]:
            if u.label != BASELINE_LABEL and u.scale == scale \
                    and u.tunables == ():
                per_label.setdefault(u.label, []).append(
                    improvement_percent(base[u.bench],
                                        results[u.unit_id].cycles))
        out[scale] = {label: geomean_improvement(v)
                      for label, v in per_label.items()}
    return out


# ----------------------------------------------------------------------
# output checks (never inside the timed region)
# ----------------------------------------------------------------------

def conservation(stats) -> tuple:
    """(broken laws, whether ``conventional`` exceeds its reasons)."""
    n = stats.ndc
    reasons = (n.aborted_timeout + n.aborted_table_full
               + n.skipped_local_hit + n.skipped_policy
               + n.skipped_no_station)
    broken = []
    if stats.computes != n.total_performed + n.conventional:
        broken.append("computes == performed + conventional")
    if stats.opportunities_exercised != n.total_performed:
        broken.append("opportunities_exercised == performed")
    if stats.total_cycles != max(stats.per_core_cycles, default=0):
        broken.append("total_cycles == max(per_core_cycles)")
    if n.conventional < reasons:
        broken.append("conventional >= aborted + skipped")
    return broken, n.conventional != reasons


def reference_mismatches(key, result) -> list:
    """Fields where the ``reference`` profile disagrees with ``result``."""
    import dataclasses

    from repro.config import DEFAULT_CONFIG
    from repro.runtime.parallel import execute_job

    ref = execute_job(DEFAULT_CONFIG, key, engine_profile="reference")
    return [f.name for f in dataclasses.fields(ref.stats)
            if getattr(ref.stats, f.name) != getattr(result.stats, f.name)]


#: (name, labels it reads, holds?) — the first five are
#: ``tuning.objective.ordering_violations``; the rest are the shootout
#: brackets.  Only constraints whose labels the cast has are checked.
CONSTRAINTS = (
    ("oracle>=alg2", ("oracle", "algorithm-2"),
     lambda g: g["oracle"] >= g["algorithm-2"]),
    ("alg2>=alg1", ("algorithm-2", "algorithm-1"),
     lambda g: g["algorithm-2"] >= g["algorithm-1"]),
    ("alg1>0", ("algorithm-1",), lambda g: g["algorithm-1"] > 0),
    ("0>wait-forever", ("default",), lambda g: g["default"] < 0),
    ("oracle-magnitude", ("oracle",), None),
    ("coda>=alg2", ("coda", "algorithm-2"),
     lambda g: g["coda"] >= g["algorithm-2"]),
    ("alg2<=nmpo", ("algorithm-2", "nmpo"),
     lambda g: g["algorithm-2"] <= g["nmpo"]),
    ("nmpo<=oracle", ("nmpo", "oracle"),
     lambda g: g["nmpo"] <= g["oracle"]),
)


def accuracy(geomeans: dict) -> dict:
    """Ordering constraints and paper distance at the tuned scales."""
    from repro.tuning import load_calibrations
    from repro.tuning.objective import (
        HEADLINE_LABELS,
        MIN_ORACLE_IMPROVEMENT,
        ordering_violations,
        paper_distance,
    )

    tuned = {float(s) for s in load_calibrations()}
    held, violated, distances = 0, [], []
    for scale, g in sorted(geomeans.items()):
        if scale not in tuned:
            continue
        broken = []
        for name, labels, holds in CONSTRAINTS:
            if not all(label in g for label in labels):
                continue
            if holds is None:
                ok = g["oracle"] > MIN_ORACLE_IMPROVEMENT
            else:
                ok = holds(g)
            held += ok
            if not ok:
                broken.append(name)
        if all(label in g for label in HEADLINE_LABELS):
            headline = [c[0] for c in CONSTRAINTS[:5]]
            ours = [b for b in broken if b in headline]
            if ours != ordering_violations(g):
                raise RuntimeError(
                    f"ordering checks disagree with the tuning objective: "
                    f"{ours} vs {ordering_violations(g)}"
                )
        violated += [f"{name}@{scale:g}" for name in broken]
        distances.append(paper_distance(g))
    return {
        "ordering_held": held,
        "ordering_violations": violated,
        "paper_distance": (sum(distances) / len(distances)
                           if distances else 0.0),
    }


def counters(results) -> dict:
    """The simulated per-layer counters, summed over ``results``."""
    t = dict.fromkeys(
        ("cycles", "l1h", "l1m", "l2h", "l2m", "wait", "link", "l2port",
         "dram", "row_req", "row_hit", "perf", "abort"), 0,
    )
    for r in results:
        s = r.stats
        t["cycles"] += s.total_cycles
        t["l1h"] += s.l1_hits
        t["l1m"] += s.l1_misses
        t["l2h"] += s.l2_hits
        t["l2m"] += s.l2_misses
        t["wait"] += s.wait_cycles
        t["perf"] += s.ndc.total_performed
        t["abort"] += s.ndc.aborted_timeout + s.ndc.aborted_table_full
        for name, (a, b, c) in s.resource_util.items():
            pool = name.split(":", 1)[0]
            if pool in ("link", "l2port", "dram"):
                t[pool] += c
            elif pool == "dramrow":
                t["row_req"] += a
                t["row_hit"] += b

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "arch.sim_cycles": t["cycles"],
        "arch.l1_miss_rate": ratio(t["l1m"], t["l1h"] + t["l1m"]),
        "arch.l2_miss_rate": ratio(t["l2m"], t["l2h"] + t["l2m"]),
        "arch.wait_cycles": t["wait"],
        "arch.noc_stall_cycles": t["link"],
        "arch.l2_stall_cycles": t["l2port"],
        "arch.dram_stall_cycles": t["dram"],
        "arch.dram_row_hit_rate": ratio(t["row_hit"], t["row_req"]),
        "arch.ndc_performed": t["perf"],
        "arch.ndc_aborted": t["abort"],
        "arch.ndc_success_ratio": ratio(t["perf"], t["perf"] + t["abort"]),
    }


def results_digest(results: dict) -> str:
    """One digest over every unit's full ``SimStats``."""
    h = hashlib.sha256()
    for desc, (_, result) in sorted(results.items()):
        h.update(f"{desc}={result.stats!r}\n".encode())
    return h.hexdigest()


def check(cfg: dict, w: dict, out: dict) -> dict:
    """Check every result; returns the JSON-ready check report."""
    failures = []
    gap = 0
    for desc, (key, result) in sorted(out["results"].items()):
        broken, unequal = conservation(result.stats)
        gap += unequal
        if broken:
            failures.append({"unit": desc, "why": broken})
    missing = out["expected"] - len(out["results"])
    if missing:
        failures.append({"unit": "*", "why": [f"{missing} units missing"]})
    if w["kind"] == "lineup" and len(out["unit_walls"]) != out["expected"]:
        failures.append({"unit": "*", "why": [
            f"{len(out['unit_walls'])} simulations for "
            f"{out['expected']} units"]})
    rng = random.Random(cfg["seed"])
    sample = rng.sample(sorted(out["results"]),
                        min(REFERENCE_SAMPLE, len(out["results"])))
    for desc in sample:
        fields = reference_mismatches(*out["results"][desc])
        if fields:
            failures.append({"unit": desc, "why": [
                f"reference profile differs in {', '.join(fields)}"]})
    if w["kind"] == "sweep":
        res = out["campaign"]
        if not res.ok:
            failures.append({"unit": "*", "why": ["campaign not ok"]})
        rows = out["done_rows"]
        for u in w["units"]:
            if rows.count(u.unit_id) != 1:
                failures.append({"unit": u.describe(), "why": [
                    f"{rows.count(u.unit_id)} done rows in the manifest"]})
    return {
        "failures": failures,
        "conventional_gap": gap,
        "reference_sample": sample,
        "digest": results_digest(out["results"]),
        "counters": counters(r for _, r in out["results"].values()),
    }


# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def run_pass(cfg: dict, w: dict) -> dict:
    work = Path(cfg["work"])
    trace = cfg["trace"]
    rec = None
    if trace:
        (work / "spans").mkdir(parents=True, exist_ok=True)
        rec = spans.Recorder()
        spans.install(rec)
    speed = HostSpeed()
    speed.install()
    start = time.perf_counter()
    try:
        if w["kind"] == "sweep":
            out = run_sweep(w, work, "runs", w["workers"], trace)
        else:
            out = run_lineups(w, speed)
    finally:
        end = time.perf_counter()
        speed.uninstall()
        if rec is not None:
            rec.uninstall()
    rss = peak_rss_mb()
    if rec is not None:
        rec.dump(work / "spans" / "pass.json", role="pass", start=start,
                 end=end)
    report = check(cfg, w, out)
    report.update({
        key: out[key] for key in ("wall", "wall_corrected", "unit_walls",
                                  "unit_walls_corrected")
    })
    report.update({"units": out["expected"], "rss_mb": rss,
                   **accuracy(out["geomeans"])})
    if w["kind"] == "sweep":
        report["failed_rows"] = out["failed_rows"]
        report["workers"] = w["workers"]
        if trace:
            # The untimed warm pass: same spec, fresh runs dir, warm cache.
            (work / "spans-warm").mkdir()
            rec = spans.Recorder()
            spans.install(rec)
            try:
                warm = run_sweep(w, work, "runs-warm", 1, False)
            finally:
                rec.uninstall()
            rec.dump(work / "spans-warm" / "pass.json", role="pass",
                     start=0.0, end=warm["wall"])
            report["warm_wall"] = warm["wall"]
            if results_digest(warm["results"]) != report["digest"]:
                report["failures"].append({"unit": "*", "why": [
                    "warm pass results differ from the cold pass"]})
    return report


def main(argv) -> int:
    cfg = json.loads(argv[1])
    # Host speed around set-up: samples before (their time is taken
    # out of set-up) and after it.
    loops = [speed_mod.reference_loop() for _ in range(SETUP_SAMPLES)]
    w = prepare(cfg)
    ready = time.monotonic()
    loops += [speed_mod.reference_loop() for _ in range(SETUP_SAMPLES)]
    if cfg["mode"] == "probe":
        report = {}
    else:
        report = run_pass(cfg, w)
    report.update({
        "ready": ready,
        "setup_loops_s": sum(loops[:SETUP_SAMPLES]),
        "setup_factor": speed_mod.factor(loops),
    })
    Path(argv[2]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
