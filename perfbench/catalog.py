"""What the benchmark runs and what it reports.

Pure data, importable without ``repro``: the workload table, the
end-to-end metrics (with the bound each may worsen by), and the
per-layer metrics, each naming the end-to-end metric it should move and
the workloads it is mostly / little exercised on.  ``BENCHMARK.json``
at the repository root mirrors these tables; ``test_perfbench.py``
checks that the two agree.
"""

from __future__ import annotations

#: Workload name -> definition.  ``suites`` and ``benchmarks`` select
#: workload families / explicit kernels; ``schemes`` is a registry
#: cast (``None``: the paper's Fig. 4 ``DEFAULT_LINEUP``; ``"shootout"``:
#: ``SHOOTOUT_LINEUP``).  A sweep crosses its cast with the defaults
#: plus ``draws`` seeded points of the tuner's ``DEFAULT_GRID``.
WORKLOADS = {
    "lineup-affine": {
        "kind": "lineup",
        "why": "the paper's Fig. 4 lineup on the 20 affine kernels: the "
               "headline artifact, replay-bound (replay ~87% of host time)",
        "benchmarks": (),
        "suites": ("affine",),
        "schemes": None,
        "scales": (0.25,),
    },
    "shootout-irregular": {
        "kind": "lineup",
        "why": "irregular OpaqueRef traffic at three scales; the only "
               "lineup that runs nmpo, so its warm-up replays show here",
        "benchmarks": (),
        "suites": ("sparse", "mixed"),
        "schemes": "shootout",
        "scales": (0.1, 0.25, 0.4),
    },
    "sweep-tunables": {
        "kind": "sweep",
        "why": "a two-worker on-disk tunables campaign: every unit "
               "recompiles, and only it uses the result cache and queue",
        "benchmarks": "cheap",
        "suites": ("sparse",),
        "schemes": ("algorithm-1", "algorithm-2", "coda", "nmpo"),
        "scales": (0.25,),
        "draws": 3,
        "workers": 2,
    },
}

#: Shrunk versions of the workloads for the benchmark's own tests.
SMOKE = {
    "lineup-affine": {"benchmarks": ("fft", "swim"), "suites": ()},
    "shootout-irregular": {
        "benchmarks": ("spmv.csr",), "suites": (), "scales": (0.25,),
    },
    "sweep-tunables": {
        "benchmarks": ("fft", "spmv.csr"), "suites": (), "draws": 1,
    },
}

#: End-to-end metrics: name -> (unit, better, bound).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sims_per_s": ("sims/s", "higher", 0.2),
    "sim_p50_s": ("s", "lower", 0.2),
    "sim_p90_s": ("s", "lower", 0.2),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "ok_frac": ("fraction", "higher", 0.001),
    "ordering_held": ("count", "higher", 0.01),
    "paper_distance": ("ratio", "lower", 0.01),
}

_LINEUPS = "lineup-affine, shootout-irregular"
_ALL = "all"

#: Per-layer metrics: name -> (unit, better, moves, mostly on, little on).
PER_LAYER = {
    "workloads.build_s": ("s", "lower", "sims_per_s",
                          "sweep-tunables", "lineup-affine"),
    "workloads.programs": ("count", "lower", "sims_per_s",
                           "sweep-tunables", "lineup-affine"),
    "core.alg1_s": ("s", "lower", "sims_per_s, sim_p90_s",
                    "sweep-tunables", "lineup-affine"),
    "core.alg2_s": ("s", "lower", "sims_per_s, sim_p90_s",
                    "sweep-tunables", "lineup-affine"),
    "core.placement_s": ("s", "lower", "sims_per_s, sim_p90_s",
                         "sweep-tunables", "lineup-affine"),
    "core.lower_s": ("s", "lower", "sims_per_s, sim_p90_s",
                     "sweep-tunables", "lineup-affine"),
    "core.compiles": ("count", "lower", "sims_per_s, sim_p90_s",
                      "sweep-tunables", "lineup-affine"),
    "core.trace_ops": ("count", "lower", "sims_per_s, sim_p90_s",
                       "sweep-tunables", "lineup-affine"),
    "core.precompute_ops": ("count", "lower", "sims_per_s, sim_p90_s",
                            "sweep-tunables", "lineup-affine"),
    "core.compile_share": ("fraction", "lower", "sims_per_s, sim_p90_s",
                           "sweep-tunables", "lineup-affine"),
    "schemes.prepare_s": ("s", "lower", "sims_per_s, sim_p90_s",
                          "shootout-irregular", "lineup-affine"),
    "schemes.warmup_s": ("s", "lower", "sims_per_s, sim_p90_s",
                         "shootout-irregular", "lineup-affine (zero)"),
    "schemes.warmups": ("count", "lower", "sims_per_s, sim_p90_s",
                        "shootout-irregular", "lineup-affine (zero)"),
    "schemes.warmup_reuse_ratio": ("fraction", "higher",
                                   "sims_per_s, sim_p90_s",
                                   "shootout-irregular",
                                   "lineup-affine (zero)"),
    "arch.prepass_s": ("s", "lower", "sims_per_s, sim_p50_s",
                       "lineup-affine", "sweep-tunables"),
    "arch.replay_s": ("s", "lower", "sims_per_s, sim_p50_s",
                      "lineup-affine", "sweep-tunables"),
    "arch.replay_share": ("fraction", "lower", "sims_per_s, sim_p50_s",
                          "lineup-affine", "sweep-tunables"),
    "arch.replay_ops_per_s": ("ops/s", "higher", "sims_per_s, sim_p50_s",
                              "lineup-affine", "sweep-tunables"),
    "arch.sim_cycles": ("cycles", "lower",
                        "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.l1_miss_rate": ("fraction", "lower",
                          "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.l2_miss_rate": ("fraction", "lower",
                          "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.wait_cycles": ("cycles", "lower",
                         "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.noc_stall_cycles": ("cycles", "lower",
                              "ordering_held, paper_distance",
                              _LINEUPS, "-"),
    "arch.l2_stall_cycles": ("cycles", "lower",
                             "ordering_held, paper_distance",
                             _LINEUPS, "-"),
    "arch.dram_stall_cycles": ("cycles", "lower",
                               "ordering_held, paper_distance",
                               _LINEUPS, "-"),
    "arch.dram_row_hit_rate": ("fraction", "higher",
                               "ordering_held, paper_distance",
                               _LINEUPS, "-"),
    "arch.ndc_performed": ("count", "higher",
                           "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.ndc_aborted": ("count", "lower",
                         "ordering_held, paper_distance", _LINEUPS, "-"),
    "arch.ndc_success_ratio": ("fraction", "higher",
                               "ordering_held, paper_distance",
                               _LINEUPS, "-"),
    "runtime.execute_s": ("s", "lower", "sims_per_s, peak_rss_mb",
                          "sweep-tunables", _LINEUPS + " (cache off)"),
    "runtime.trace_lru_hit_ratio": ("fraction", "higher",
                                    "sims_per_s, peak_rss_mb",
                                    "sweep-tunables",
                                    _LINEUPS + " (cache off)"),
    "runtime.cache_store_ms": ("ms", "lower", "sims_per_s, peak_rss_mb",
                               "sweep-tunables", _LINEUPS + " (cache off)"),
    "runtime.cache_load_ms": ("ms", "lower", "sims_per_s, peak_rss_mb",
                              "sweep-tunables", _LINEUPS + " (cache off)"),
    "runtime.cache_entry_bytes": ("bytes", "lower",
                                  "sims_per_s, peak_rss_mb",
                                  "sweep-tunables",
                                  _LINEUPS + " (cache off)"),
    "campaign.claim_ms": ("ms", "lower", "sims_per_s",
                          "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.first_claim_s": ("s", "lower", "sims_per_s",
                               "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.worker_busy_frac": ("fraction", "higher", "sims_per_s",
                                  "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.finalize_s": ("s", "lower", "sims_per_s",
                            "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.warm_pass_s": ("s", "lower", "sims_per_s",
                             "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.retries": ("count", "lower", "sims_per_s",
                         "sweep-tunables", _LINEUPS + " (absent)"),
    "campaign.reclaims": ("count", "lower", "sims_per_s",
                          "sweep-tunables", _LINEUPS + " (absent)"),
    "analysis.characterize_s": ("s", "lower", "sims_per_s",
                                "sweep-tunables", _LINEUPS),
    "trace.host_s": ("s", "lower", "-", _ALL, "-"),
    "trace.overhead_s": ("s", "lower", "-", _ALL, "-"),
    "trace.overhead_share": ("fraction", "lower", "-", _ALL, "-"),
}

#: Simulated counters: deterministic sums over a workload's results,
#: identical in every run of the same code, traced or not.
SIMULATED = (
    "arch.sim_cycles", "arch.l1_miss_rate", "arch.l2_miss_rate",
    "arch.wait_cycles", "arch.noc_stall_cycles", "arch.l2_stall_cycles",
    "arch.dram_stall_cycles", "arch.dram_row_hit_rate",
    "arch.ndc_performed", "arch.ndc_aborted", "arch.ndc_success_ratio",
)
