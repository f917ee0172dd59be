"""The benchmark's own tests: shrunk-scale smokes of every workload in
both modes, plus the span arithmetic.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import catalog
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace) -> (info, result) of one shrunk run."""
    out = {}
    for workload in catalog.WORKLOADS:
        for trace in (0, 1):
            proc = _bench(ROOT, "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace),
                          "--smoke")
            assert proc.returncode == 0, proc.stderr
            info, result = proc.stdout.strip().splitlines()[-2:]
            out[workload, trace] = (json.loads(info)["info"],
                                    json.loads(result))
    return out


def test_benchmark_json_mirrors_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == {
        name: row[:2] for name, row in catalog.PER_LAYER.items()}


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(smoke, workload, trace):
    info, result = smoke[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert info["failed_frac"] == 0
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == table[name][0]
        assert table[name][1] in ("lower", "higher")
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_traced_run_matches_untraced(smoke, workload):
    info, untraced = smoke[workload, 0]
    _, traced = smoke[workload, 1]
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    for name in catalog.SIMULATED:
        assert layer[name] == info["counters"][name], name
    self_time = sum(layer[name] for name in spans.SELF_TIME_METRICS.values())
    assert self_time <= layer["trace.host_s"] * 1.001


def test_each_workload_exercises_its_layer(smoke):
    layer = {w: {k: v["value"] for k, v in smoke[w, 1][1]["metrics"].items()}
             for w in catalog.WORKLOADS}
    assert layer["lineup-affine"]["schemes.warmup_s"] == 0
    assert layer["shootout-irregular"]["schemes.warmups"] > 0
    assert layer["sweep-tunables"]["schemes.warmups"] > 0
    assert layer["sweep-tunables"]["runtime.cache_entry_bytes"] > 0
    assert layer["sweep-tunables"]["campaign.first_claim_s"] > 0
    assert layer["lineup-affine"]["runtime.cache_entry_bytes"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "lineup-affine", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _span(sid, name, start, end, parent=None, extra=None):
    return [sid, name, start, end, parent, None, extra]


def test_self_time_subtracts_children():
    trace = [
        _span(0, "runtime.execute", 0.0, 10.0),
        _span(1, "schemes.prepare", 1.0, 4.0, 0, {"guided": True}),
        _span(2, "schemes.warmup", 1.5, 3.5, 1),
        _span(3, "arch.replay", 2.0, 3.0, 2, {"ops": 50}),
        _span(4, "arch.replay", 5.0, 9.0, 0, {"ops": 400}),
    ]
    assert spans.self_times(trace) == [3.0, 1.0, 1.0, 1.0, 4.0]
    m = spans.layer_metrics([{"role": "pass", "start": 0.0, "end": 10.0,
                              "spans": trace}])
    assert m["arch.replay_s"] == 4.0
    assert m["schemes.warmup_s"] == 2.0    # its nested replay folds in
    assert m["arch.replay_ops_per_s"] == 100.0   # warm-up ops excluded
    assert m["schemes.warmups"] == 1
    assert m["schemes.warmup_reuse_ratio"] == 0.0
    assert m["trace.host_s"] == 10.0
    assert sum(m[k] for k in spans.SELF_TIME_METRICS.values()) == 10.0


def test_correction_averages_loops_around_each_job():
    samples = [(None, 0.0, 0.001), ("a", 0.0, 0.002), ("b", 0.0, 0.004)]
    factors = dict(speed.per_job(samples))
    assert factors["a"] == pytest.approx(speed.REFERENCE_S / 0.007 * 3)
    assert factors["b"] == pytest.approx(speed.REFERENCE_S / 0.007 * 3)
