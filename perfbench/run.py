"""Benchmark of the NDC reproduction: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload lineup-affine --seed 1 \\
        --seconds 5 --trace 0

Workloads are listed in ``catalog.WORKLOADS`` (and ``README.md``).
With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it reports the per-layer metrics of a
separate traced pass, plus the tracing overhead against an untraced
pass.  Every simulated result is checked outside the timed region.

The run first starts a few set-up probes (fresh interpreters that
import ``repro`` and resolve the workload, then exit), then cold passes
of the workload, each in a fresh interpreter, until the timed regions
add up to at least ``--seconds`` (host-speed corrected, see
``speed.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The line before it is an
``info`` object with everything else the run measured: the seed, the
host-drift loop times, ordering violations by name and the result
digest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

#: Set-up probes per run (set-up is reported as their median).
SETUP_PROBES = 5
#: Seconds a probe or a pass may take before the run gives up.
PROBE_TIMEOUT = 60
PASS_TIMEOUT = 160
#: Reference loops per host-drift reading (about 0.2 s in all).
DRIFT_LOOPS = 100


def drift_loop() -> float:
    """Seconds for a fixed pure-Python loop: host speed, not code speed."""
    return sum(speed.reference_loop() for _ in range(DRIFT_LOOPS))


def run_child(cfg: dict, work: Path, timeout: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; returns its report.

    The child runs in its own process group, so a timeout also stops
    any campaign workers it spawned.  ``setup_s`` is the time from the
    launch to the child's first job being ready to issue.
    """
    work.mkdir(parents=True, exist_ok=True)
    out = work / "report.json"
    cfg = {**cfg, "work": str(work), "src": str(ROOT / "src")}
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(cfg), str(out)],
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{cfg['mode']} timed out after {timeout} s")
    finally:
        if proc.poll() is None:  # interrupted: stop the whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{cfg['mode']} exited with code {code}")
    report = json.loads(out.read_text())
    report["setup_s"] = report["ready"] - launched - report["setup_loops_s"]
    return report


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(probes, passes, corrected: bool = True) -> dict:
    """The end-to-end metrics; times are host-speed corrected unless
    ``corrected`` is False (see ``speed.py``)."""
    suffix = "_corrected" if corrected else ""
    walls = [t for p in passes for t in p["unit_walls" + suffix]]
    units = sum(p["units"] for p in passes)
    failed = sum(failed_units(p) for p in passes)
    return {
        "setup_s": statistics.median(
            p["setup_s"] * (p["setup_factor"] if corrected else 1.0)
            for p in probes + passes),
        "sims_per_s": len(walls) / sum(p["wall" + suffix] for p in passes),
        "sim_p50_s": statistics.median(walls),
        "sim_p90_s": percentile(walls, 0.9),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "ok_frac": 1.0 - failed / units,
        "ordering_held": passes[0]["ordering_held"],
        "paper_distance": passes[0]["paper_distance"],
    }


def per_layer(untraced: dict, traced: dict, work: Path) -> dict:
    m = spans.layer_metrics(spans.load_processes(work / "spans"))
    m.update(traced["counters"])
    overhead = traced["wall_corrected"] - untraced["wall_corrected"]
    m.update({
        "campaign.worker_busy_frac": 0.0,
        "campaign.warm_pass_s": 0.0,
        "campaign.retries": 0,
        "campaign.reclaims": 0,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced["wall_corrected"],
    })
    if "workers" in traced:
        warm = spans.layer_metrics(spans.load_processes(work / "spans-warm"))
        m.update({
            "runtime.cache_load_ms": warm["runtime.cache_load_ms"],
            "campaign.worker_busy_frac": sum(traced["unit_walls"])
            / (traced["workers"] * traced["wall"]),
            "campaign.warm_pass_s": traced["warm_wall"],
            "campaign.retries": traced["failed_rows"],
            "campaign.reclaims": max(
                0, m["campaign.claims_again"] - traced["failed_rows"]),
        })
    del m["campaign.claims_again"]
    return m


def failed_units(report: dict) -> int:
    units = {f["unit"] for f in report["failures"]}
    return report["units"] if "*" in units else len(units)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunk workloads (the benchmark's own tests)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    base = {"workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "trace": False}
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        probes = [
            run_child({**base, "mode": "probe"}, work / f"probe{i}",
                      PROBE_TIMEOUT)
            for i in range(SETUP_PROBES)
        ]
        drift, passes = [], []
        while (not passes or sum(p["wall_corrected"] for p in passes)
               < args.seconds):
            drift.append(drift_loop())
            passes.append(run_child({**base, "mode": "pass"},
                                    work / f"pass{len(passes)}",
                                    PASS_TIMEOUT))
        traced = None
        if args.trace:
            drift.append(drift_loop())
            traced = run_child({**base, "mode": "pass", "trace": True},
                               work / "traced", PASS_TIMEOUT)
        runs = passes + ([traced] if traced else [])
        attempted = sum(p["units"] for p in runs)
        failed = sum(failed_units(p) for p in runs)
        consistent = len({
            (p["digest"], p["ordering_held"], p["paper_distance"])
            for p in runs
        }) == 1
        if traced:
            values = per_layer(passes[0], traced, work / "traced")
            names = catalog.PER_LAYER
        else:
            values = end_to_end(probes, passes)
            names = catalog.END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "host_drift_loop_s": drift,
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "uncorrected": None if traced else end_to_end(
            probes, passes, corrected=False),
        "host_speed_factors": [p["wall_corrected"] / p["wall"]
                               for p in passes],
        "failed_frac": failed / attempted,
        "failures": [f for p in runs for f in p["failures"]][:20],
        "consistent_across_passes": consistent,
        "ordering_violations": passes[0]["ordering_violations"],
        "conventional_gap": passes[0]["conventional_gap"],
        "reference_sample": passes[0]["reference_sample"],
        "digest": passes[0]["digest"],
        "counters": passes[0]["counters"],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": names[name][0]}
            for name in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
