"""Experiment drivers: one function per paper table/figure.

Each driver returns an :class:`ExperimentResult` holding structured
data plus a rendered text block.  The shared :class:`ExperimentRunner`
caches traces, compiled programs, and simulation results so that a full
report (``python -m repro.analysis.experiments`` or
``examples/full_evaluation.py``) does each expensive run once.

The default ``scale`` trades fidelity for runtime; the shipped
EXPERIMENTS.md was generated at scale 0.4 (a few thousand dynamic
instructions per core).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro import schemes as S
from repro.analysis.cdf import (
    BUCKET_LABELS,
    bucket_percentages,
    truncated_cdf,
)
from repro.analysis.metrics import (
    accuracy_from_rates,
    geomean_improvement,
    mean_improvement,
    weighted_mean,
)
from repro.analysis.report import (
    format_bar_chart,
    format_cdf_block,
    format_stacked_percent,
    format_table,
)
from repro.arch.simulator import SimulationResult
from repro.arch.stats import improvement_percent
from repro.config import (
    ArchConfig,
    DEFAULT_CONFIG,
    NdcComponentMask,
    NdcLocation,
    OpClass,
    render_table1,
)
from repro.core.cme import CmeEstimator
from repro.core.lowering import pc_of
from repro.isa import Trace
from repro.workloads.suite import build_benchmark, resolve_benchmarks
from repro.workloads.tracegen import compiled_trace


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    name: str
    data: Dict
    text: str

    def render(self) -> str:
        return self.text


class ExperimentRunner:
    """Shared simulation engine + caches for the experiment drivers.

    All simulation goes through :class:`repro.runtime.ParallelRunner`:
    every job is identified by a canonical
    :class:`~repro.runtime.keys.JobKey` that includes the machine
    config and the workload scale (the legacy in-memory key omitted
    both), served from memory, then from the persistent cache (when a
    ``cache_dir`` is configured), and executed — serially or fanned out
    over a process pool (``RuntimeOptions(jobs=...)``) — only on a miss.
    """

    def __init__(
        self,
        cfg: ArchConfig = DEFAULT_CONFIG,
        scale: float = 0.4,
        benchmarks: Optional[Sequence[str]] = None,
        runtime: Optional["RuntimeOptions"] = None,
        stats: Optional["RunnerStats"] = None,
        tunables: Optional["Tunables"] = None,
        engine: Optional["ParallelRunner"] = None,
        suite: Union[None, str, Sequence[str]] = None,
        lineup: Optional[Sequence[str]] = None,
    ):
        from repro.runtime import ParallelRunner, RuntimeOptions, config_digest

        self.cfg = cfg
        self.scale = scale
        # The scheme cast the lineup drivers run, resolved through the
        # SCHEMES registry (unknown labels raise here, at the facade).
        self.lineup: Tuple[str, ...] = (
            tuple(lineup) if lineup else S.DEFAULT_LINEUP
        )
        S.build_lineup(self.lineup)  # validate labels eagerly
        # The benchmark selection: explicit names and/or workload
        # families (``suite``), defaulting to the paper's affine 20.
        self.benchmarks: Tuple[str, ...] = resolve_benchmarks(
            tuple(benchmarks) if benchmarks else None, suite or None
        )
        self.runtime = runtime or RuntimeOptions()
        self.engine = (
            engine
            if engine is not None
            else ParallelRunner(cfg, self.runtime, stats=stats)
        )
        if tunables is None:
            # Ship-time calibration: the tuner's per-scale winners (see
            # repro.tuning) apply by default; scales without an entry
            # fall back to the historical hand calibration.
            from repro.tuning import calibrated_tunables

            tunables = calibrated_tunables(scale)
        if tunables is not None and tunables.is_default:
            # Normalize explicit defaults to None so job keys (and the
            # persistent cache) cannot fork on a no-op calibration.
            tunables = None
        self.tunables = tunables
        self._cfg_digest = config_digest(cfg)
        self._reports: Dict[tuple, object] = {}

    @property
    def stats(self) -> "RunnerStats":
        """Hit/miss counters and per-job timings (``--stats``)."""
        return self.engine.stats

    @property
    def parallel_enabled(self) -> bool:
        return self.runtime.parallel

    # ------------------------------------------------------------------
    def _trace_tunables(self, variant: str) -> Optional["Tunables"]:
        """The compile-time tunables for a variant's trace generation.

        ``None`` for the ``"original"`` variant (no pass runs), so
        baselines are shared across tuning candidates.
        """
        return None if variant == "original" else self.tunables

    def _make_scheme(
        self, factory: Optional[Callable[[], S.NdcScheme]]
    ) -> Optional[S.NdcScheme]:
        """Build a scheme, threading this runner's tunables.

        A bare scheme *class* (``S.CompilerDirected``) is constructed
        under ``self.tunables``; a zero-arg callable (a lineup lambda
        that already closed over its tunables, or a user factory) is
        called as-is.
        """
        if factory is None:
            return None
        if isinstance(factory, type) and issubclass(factory, S.NdcScheme):
            return factory(tunables=self.tunables)
        return factory()

    def trace(self, bench: str, variant: str = "original", **opts) -> Trace:
        t, report = compiled_trace(
            bench, variant, self.scale, self.cfg,
            tunables=self._trace_tunables(variant), **opts
        )
        self._reports[(bench, variant, tuple(sorted(opts.items())))] = report
        return t

    def pass_report(self, bench: str, variant: str, **opts):
        key = (bench, variant, tuple(sorted(opts.items())))
        if key not in self._reports:
            self.trace(bench, variant, **opts)
        return self._reports[key]

    def job_key(
        self,
        bench: str,
        scheme_factory: Optional[Callable[[], S.NdcScheme]] = None,
        variant: str = "original",
        label: Optional[str] = None,
        profile_windows: bool = False,
        collect_window_series: bool = False,
        collect_pc_stats: bool = False,
        **trace_opts,
    ) -> "JobKey":
        """The canonical job identity for one ``run()`` call."""
        from repro.runtime import JobKey

        scheme = self._make_scheme(scheme_factory)
        return JobKey(
            bench=bench,
            variant=variant,
            scheme_spec=scheme.spec() if scheme is not None else None,
            label=label or (scheme.name if scheme is not None else "original"),
            profile_windows=profile_windows,
            collect_window_series=collect_window_series,
            collect_pc_stats=collect_pc_stats,
            trace_opts=tuple(sorted(trace_opts.items())),
            scale=self.scale,
            config_digest=self._cfg_digest,
            tunables=self._trace_tunables(variant),
        )

    def run(
        self,
        bench: str,
        scheme_factory: Optional[Callable[[], S.NdcScheme]] = None,
        variant: str = "original",
        label: Optional[str] = None,
        profile_windows: bool = False,
        collect_window_series: bool = False,
        collect_pc_stats: bool = False,
        **trace_opts,
    ) -> SimulationResult:
        """Run (or fetch the cached run of) one benchmark under a scheme."""
        scheme = self._make_scheme(scheme_factory)
        key = self.job_key(
            bench, scheme_factory, variant, label, profile_windows,
            collect_window_series, collect_pc_stats, **trace_opts,
        )
        # Pass the already-built scheme so unregistered custom schemes
        # still execute on the serial path.
        return self.engine.run(key, scheme=scheme)

    # ------------------------------------------------------------------
    # batch fan-out
    # ------------------------------------------------------------------
    def prefetch(self, keys: Sequence["JobKey"]) -> None:
        """Resolve a batch of jobs (pool fan-out on cache misses)."""
        self.engine.run_many(keys)

    def fig4_entries(
        self,
    ) -> Tuple[Tuple[str, Callable[[], S.NdcScheme], str], ...]:
        """This runner's lineup as (label, factory, variant) triples,
        built under its tunables (see :func:`repro.schemes.build_lineup`;
        the default cast is the paper's Fig. 4)."""
        return tuple(
            (e.label, e.factory, e.variant)
            for e in S.build_lineup(self.lineup, self.tunables)
        )

    def standard_jobs(self) -> List["JobKey"]:
        """Every simulation the ``run_all`` drivers will request."""
        keys: List["JobKey"] = []
        add = keys.append
        for bench in self.benchmarks:
            add(self.job_key(bench))
            add(self.job_key(bench, profile_windows=True))
            add(self.job_key(bench, collect_pc_stats=True))
            for _label, factory, variant in self.fig4_entries():
                add(self.job_key(bench, factory, variant))
            for loc in NdcLocation:
                add(self.job_key(
                    bench, S.CompilerDirected, "alg1",
                    mask=NdcComponentMask.only(loc),
                ))
            add(self.job_key(
                bench, S.CompilerDirected, "alg1",
                enable_route_reselection=False,
            ))
            for variant in ("alg1", "alg2"):
                add(self.job_key(
                    bench, S.CompilerDirected, variant, coarse_grain=True
                ))
            for k in (0, 1, 2, 4):
                add(self.job_key(bench, S.CompilerDirected, "alg2", k=k))
            add(self.job_key(bench, S.CompilerDirected, "layout_alg1"))
        for bench in ("ocean", "radiosity"):  # Fig. 5's fixed pair
            add(self.job_key(
                bench, profile_windows=True, collect_window_series=True
            ))
        return keys

    def fig4_jobs(self) -> List["JobKey"]:
        """The Fig. 4 lineup only (the ``bench`` CLI subcommand)."""
        return [
            self.job_key(bench, factory, variant)
            for bench in self.benchmarks
            for _label, factory, variant in self.fig4_entries()
        ]

    def sensitivity_jobs(self) -> List["JobKey"]:
        """The per-variant jobs of the Fig. 17 sweep."""
        keys: List["JobKey"] = []
        for bench in self.benchmarks:
            keys.append(self.job_key(bench))
            keys.append(self.job_key(bench, S.OracleScheme))
            keys.append(self.job_key(bench, S.CompilerDirected, "alg1"))
            keys.append(self.job_key(bench, S.CompilerDirected, "alg2"))
        return keys

    def prefetch_standard(self) -> None:
        """Fan the full ``run_all`` job matrix out when parallelism is on."""
        if self.parallel_enabled:
            self.prefetch(self.standard_jobs())

    def baseline_cycles(self, bench: str) -> int:
        return self.run(bench).cycles

    def improvement(
        self,
        bench: str,
        scheme_factory: Callable[[], S.NdcScheme],
        variant: str = "original",
        **trace_opts,
    ) -> float:
        res = self.run(bench, scheme_factory, variant, **trace_opts)
        return improvement_percent(self.baseline_cycles(bench), res.cycles)


# ======================================================================
# Table 1
# ======================================================================

def table1_configuration(cfg: ArchConfig = DEFAULT_CONFIG) -> ExperimentResult:
    """Table 1: the simulated configuration."""
    text = "Table 1: simulated configuration\n" + render_table1(cfg)
    return ExperimentResult("table1", {"config": cfg}, text)


# ======================================================================
# Fig. 2 — arrival-window CDFs per location
# ======================================================================

def fig2_arrival_windows(runner: Optional[ExperimentRunner] = None) -> ExperimentResult:
    """Fig. 2: truncated arrival-window CDFs at the four stations."""
    runner = runner or ExperimentRunner()
    data: Dict[str, Dict[str, List[float]]] = {}
    for loc in NdcLocation:
        series: Dict[str, List[float]] = {}
        for bench in runner.benchmarks:
            res = runner.run(bench, profile_windows=True)
            series[bench] = truncated_cdf(res.stats.windows_for(loc))
        data[loc.short_name] = series
    blocks = [
        format_cdf_block(
            series, BUCKET_LABELS[:-1],
            title=f"Fig. 2 ({chr(ord('a') + i)}): arrival-window CDF "
                  f"(truncated at 50%) — {name}",
        )
        for i, (name, series) in enumerate(data.items())
    ]
    return ExperimentResult("fig2", data, "\n\n".join(blocks))


# ======================================================================
# Fig. 3 — breakeven points vs arrival windows
# ======================================================================

def fig3_breakeven_vs_window(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 3: bucket distributions of windows vs breakeven points."""
    runner = runner or ExperimentRunner()
    rows: Dict[str, List[float]] = {}
    data: Dict[str, Dict[str, List[float]]] = {}
    for loc in NdcLocation:
        windows: List[int] = []
        breakevens: List[int] = []
        for bench in runner.benchmarks:
            res = runner.run(bench, profile_windows=True)
            windows.extend(res.stats.windows_for(loc))
            breakevens.extend(res.stats.breakevens_for(loc))
        w = bucket_percentages(windows)
        b = bucket_percentages(breakevens)
        data[loc.short_name] = {"window": w, "breakeven": b}
        rows[f"{loc.short_name}/window"] = w
        rows[f"{loc.short_name}/breakeven"] = b
    text = format_cdf_block(
        rows, BUCKET_LABELS,
        title="Fig. 3: arrival windows vs breakeven points "
              "(bucket %, averaged over benchmarks)",
    )
    return ExperimentResult("fig3", data, text)


# ======================================================================
# Fig. 4 — the scheme lineup
# ======================================================================

#: (bar label, scheme factory, trace variant) for every Fig. 4 bar,
#: under the default tunables.  Runners with their own calibration use
#: :meth:`ExperimentRunner.fig4_entries` instead.
FIG4_SCHEMES: Tuple[Tuple[str, Callable[[], S.NdcScheme], str], ...] = tuple(
    (e.label, e.factory, e.variant) for e in S.fig4_lineup()
)


def fig4_scheme_benefits(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 4: performance benefit of every NDC scheme per benchmark."""
    runner = runner or ExperimentRunner()
    entries = runner.fig4_entries()
    per_bench: Dict[str, Dict[str, float]] = {}
    for bench in runner.benchmarks:
        per_bench[bench] = {
            label: runner.improvement(bench, factory, variant)
            for label, factory, variant in entries
        }
    labels = [l for l, _, _ in entries]
    summary = {
        label: geomean_improvement([per_bench[b][label] for b in per_bench])
        for label in labels
    }
    rows = [[b, *(per_bench[b][l] for l in labels)] for b in per_bench]
    rows.append(["geomean", *(summary[l] for l in labels)])
    text = format_table(
        ["benchmark", *labels], rows,
        title="Fig. 4: performance improvement over the original execution (%)",
    )
    return ExperimentResult(
        "fig4", {"per_benchmark": per_bench, "geomean": summary}, text
    )


# ======================================================================
# Fig. 5 — consecutive window sizes of one static instruction
# ======================================================================

def fig5_window_series(
    runner: Optional[ExperimentRunner] = None,
    benches: Sequence[str] = ("ocean", "radiosity"),
    points: int = 30,
) -> ExperimentResult:
    """Fig. 5: 30 consecutive arrival windows of one instruction."""
    runner = runner or ExperimentRunner()
    data: Dict[str, List[int]] = {}
    for bench in benches:
        res = runner.run(
            bench, profile_windows=True, collect_window_series=True
        )
        series = res.stats.window_series
        if not series:
            data[bench] = []
            continue
        # The paper plots an instruction whose windows actually vary:
        # prefer the PC with the most *finite* observations.
        pc = max(series, key=lambda p: sum(1 for v in series[p] if v < 501))
        data[bench] = series[pc][:points]
    rows = [
        [i + 1, *(data[b][i] if i < len(data[b]) else "" for b in benches)]
        for i in range(points)
    ]
    text = format_table(
        ["n", *benches], rows,
        title="Fig. 5: arrival windows of 30 consecutive executions "
              "(cycles; 501 = beyond tracking)",
        float_fmt="{:.0f}",
    )
    return ExperimentResult("fig5", data, text)


# ======================================================================
# Figs. 6 / 13 — NDC location breakdowns
# ======================================================================

def _breakdown(
    runner: ExperimentRunner,
    scheme_factory: Callable[[], S.NdcScheme],
    variant: str,
    title: str,
    name: str,
) -> ExperimentResult:
    cats = [loc.short_name for loc in NdcLocation]
    rows: Dict[str, Dict[str, float]] = {}
    totals = {loc: 0 for loc in NdcLocation}
    for bench in runner.benchmarks:
        res = runner.run(bench, scheme_factory, variant)
        pct = res.stats.ndc.breakdown_percent()
        rows[bench] = {loc.short_name: pct[loc] for loc in NdcLocation}
        for loc in NdcLocation:
            totals[loc] += res.stats.ndc.performed[loc]
    total = max(1, sum(totals.values()))
    rows["average"] = {
        loc.short_name: 100.0 * totals[loc] / total for loc in NdcLocation
    }
    text = format_stacked_percent(rows, cats, title=title)
    return ExperimentResult(name, {"rows": rows}, text)


def fig6_oracle_breakdown(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 6: where the oracle performs NDC."""
    runner = runner or ExperimentRunner()
    return _breakdown(
        runner, S.OracleScheme, "original",
        "Fig. 6: oracle NDC-location breakdown (%)", "fig6",
    )


def fig13_alg1_breakdown(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 13: where Algorithm 1's offloads execute."""
    runner = runner or ExperimentRunner()
    return _breakdown(
        runner, S.CompilerDirected, "alg1",
        "Fig. 13: Algorithm 1 NDC-location breakdown (%)", "fig13",
    )


# ======================================================================
# Table 2 — CME accuracy
# ======================================================================

def table2_cme_accuracy(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Table 2: L1/L2 hit-miss estimation accuracy of the CME."""
    runner = runner or ExperimentRunner()
    cfg = runner.cfg
    from repro.arch.topology import mesh_for

    nodes = mesh_for(cfg.noc.width, cfg.noc.height).num_nodes
    l1_est = CmeEstimator(cfg.l1)
    l2_est = CmeEstimator(cfg.l2, sharers=nodes, banks=nodes)
    per_bench: Dict[str, Tuple[float, float]] = {}
    for bench in runner.benchmarks:
        program = build_benchmark(bench, runner.scale)
        predicted: Dict[int, Tuple[float, float]] = {}
        for nest in program.nests:
            p1 = l1_est.analyze_nest(nest)
            p2 = l2_est.analyze_nest(nest)
            # Map (sid, ref index) to trace pcs (reads, then the
            # compute's two operands share the compute pc).
            for st in nest.body:
                reads = st.all_reads()
                for k in range(len(st.reads)):
                    predicted[pc_of(st.sid, k)] = (
                        p1[(st.sid, k)].miss_rate, p2[(st.sid, k)].miss_rate
                    )
                if st.compute is not None:
                    idx = len(st.reads)
                    r1 = (p1[(st.sid, idx)].miss_rate
                          + p1[(st.sid, idx + 1)].miss_rate) / 2
                    r2 = (p2[(st.sid, idx)].miss_rate
                          + p2[(st.sid, idx + 1)].miss_rate) / 2
                    predicted[pc_of(st.sid)] = (r1, r2)
        res = runner.run(bench, collect_pc_stats=True)
        l1_accs: List[float] = []
        l1_w: List[float] = []
        l2_accs: List[float] = []
        l2_w: List[float] = []
        for pc, (h1, m1, h2, m2) in (res.pc_stats or {}).items():
            if pc not in predicted:
                continue
            p_l1, p_l2 = predicted[pc]
            if h1 + m1:
                measured = m1 / (h1 + m1)
                l1_accs.append(accuracy_from_rates(p_l1, measured))
                l1_w.append(h1 + m1)
            if h2 + m2:
                measured = m2 / (h2 + m2)
                l2_accs.append(accuracy_from_rates(p_l2, measured))
                l2_w.append(h2 + m2)
        per_bench[bench] = (
            100.0 * weighted_mean(l1_accs, l1_w),
            100.0 * weighted_mean(l2_accs, l2_w),
        )
    avg = (
        mean_improvement([v[0] for v in per_bench.values()]),
        mean_improvement([v[1] for v in per_bench.values()]),
    )
    rows = [[b, v[0], v[1]] for b, v in per_bench.items()]
    rows.append(["average", avg[0], avg[1]])
    text = format_table(
        ["benchmark", "L1 acc %", "L2 acc %"], rows,
        title="Table 2: CME hit/miss estimation accuracy",
        float_fmt="{:.1f}",
    )
    return ExperimentResult(
        "table2", {"per_benchmark": per_bench, "average": avg}, text
    )


# ======================================================================
# Fig. 14 — single-component Algorithm 1
# ======================================================================

def fig14_single_component(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 14: Algorithm 1 restricted to one station at a time."""
    runner = runner or ExperimentRunner()
    labels = [loc.short_name for loc in NdcLocation] + ["all"]
    per_bench: Dict[str, Dict[str, float]] = {}
    for bench in runner.benchmarks:
        row: Dict[str, float] = {}
        for loc in NdcLocation:
            row[loc.short_name] = runner.improvement(
                bench, S.CompilerDirected, "alg1",
                mask=NdcComponentMask.only(loc),
            )
        row["all"] = runner.improvement(bench, S.CompilerDirected, "alg1")
        per_bench[bench] = row
    summary = {
        l: geomean_improvement([per_bench[b][l] for b in per_bench])
        for l in labels
    }
    rows = [[b, *(per_bench[b][l] for l in labels)] for b in per_bench]
    rows.append(["geomean", *(summary[l] for l in labels)])
    text = format_table(
        ["benchmark", *labels], rows,
        title="Fig. 14: Algorithm 1 applied to a single component (%)",
    )
    return ExperimentResult(
        "fig14", {"per_benchmark": per_bench, "geomean": summary}, text
    )


# ======================================================================
# Fig. 15 — fraction of opportunities Algorithm 2 exercises
# ======================================================================

def fig15_alg2_exercised(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 15: NDC opportunities Algorithm 2 exercises vs sees."""
    runner = runner or ExperimentRunner()
    per_bench: Dict[str, float] = {}
    for bench in runner.benchmarks:
        report = runner.pass_report(bench, "alg2")
        per_bench[bench] = 100.0 * report.exercised_fraction
    per_bench["average"] = mean_improvement(list(per_bench.values()))
    text = format_bar_chart(
        per_bench,
        title="Fig. 15: % of NDC opportunities exercised by Algorithm 2",
    )
    return ExperimentResult("fig15", {"per_benchmark": per_bench}, text)


# ======================================================================
# Fig. 16 — miss rates under the two algorithms
# ======================================================================

def fig16_miss_rates(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 16: L1/L2 miss rates, Algorithm 1 vs Algorithm 2."""
    runner = runner or ExperimentRunner()
    per_bench: Dict[str, Dict[str, float]] = {}
    for bench in runner.benchmarks:
        r1 = runner.run(bench, S.CompilerDirected, "alg1")
        r2 = runner.run(bench, S.CompilerDirected, "alg2")
        per_bench[bench] = {
            "L1 alg1": 100 * r1.stats.l1_miss_rate,
            "L1 alg2": 100 * r2.stats.l1_miss_rate,
            "L2 alg1": 100 * r1.stats.l2_miss_rate,
            "L2 alg2": 100 * r2.stats.l2_miss_rate,
        }
    cols = ["L1 alg1", "L1 alg2", "L2 alg1", "L2 alg2"]
    rows = [[b, *(per_bench[b][c] for c in cols)] for b in per_bench]
    text = format_table(
        ["benchmark", *cols], rows,
        title="Fig. 16: miss rates (%) under Algorithms 1 and 2",
        float_fmt="{:.1f}",
    )
    return ExperimentResult("fig16", {"per_benchmark": per_bench}, text)


# ======================================================================
# Fig. 17 — sensitivity study
# ======================================================================

def fig17_sensitivity(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Fig. 17: mesh size, L2 capacity, and op-restriction sensitivity."""
    base_runner = runner or ExperimentRunner()
    cfg = base_runner.cfg
    variants: Dict[str, ArchConfig] = {
        "default (5x5)": cfg,
        "4x4 mesh": cfg.with_mesh(4, 4),
        "6x6 mesh": cfg.with_mesh(6, 6),
        "L2 256KB": cfg.with_l2_size(256 * 1024),
        "L2 1MB": cfg.with_l2_size(1024 * 1024),
        "ops +/- only": cfg.with_ndc(
            allowed_ops=(OpClass.ADD, OpClass.SUB)
        ),
    }
    data: Dict[str, Dict[str, float]] = {}
    for label, vcfg in variants.items():
        vrunner = (
            base_runner
            if vcfg is cfg
            else ExperimentRunner(
                vcfg, base_runner.scale, base_runner.benchmarks,
                runtime=base_runner.runtime, stats=base_runner.stats,
                tunables=base_runner.tunables,
            )
        )
        if vrunner.parallel_enabled:
            vrunner.prefetch(vrunner.sensitivity_jobs())
        data[label] = {
            "algorithm-1": geomean_improvement([
                vrunner.improvement(b, S.CompilerDirected, "alg1")
                for b in vrunner.benchmarks
            ]),
            "algorithm-2": geomean_improvement([
                vrunner.improvement(b, S.CompilerDirected, "alg2")
                for b in vrunner.benchmarks
            ]),
            "oracle": geomean_improvement([
                vrunner.improvement(b, S.OracleScheme)
                for b in vrunner.benchmarks
            ]),
        }
    cols = ["algorithm-1", "algorithm-2", "oracle"]
    rows = [[label, *(vals[c] for c in cols)] for label, vals in data.items()]
    text = format_table(
        ["variant", *cols], rows,
        title="Fig. 17: sensitivity (geomean improvement %)",
    )
    return ExperimentResult("fig17", {"variants": data}, text)


# ======================================================================
# Section 5.4 ablations
# ======================================================================

def ablation_route_reselection(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Route-reselection ablation: router-NDC volume without the knob.

    The paper reports ≈40 % fewer message-router computations when the
    re-routing flexibility is not exercised.
    """
    runner = runner or ExperimentRunner()
    with_knob = 0
    without = 0
    for bench in runner.benchmarks:
        r_on = runner.run(bench, S.CompilerDirected, "alg1")
        r_off = runner.run(
            bench, S.CompilerDirected, "alg1", enable_route_reselection=False
        )
        with_knob += r_on.stats.ndc.performed[NdcLocation.NETWORK]
        without += r_off.stats.ndc.performed[NdcLocation.NETWORK]
    drop = 100.0 * (1 - without / with_knob) if with_knob else 0.0
    text = (
        "Route-reselection ablation (Section 5.4):\n"
        f"  router NDC with reselection:    {with_knob}\n"
        f"  router NDC with XY routes only: {without}\n"
        f"  reduction: {drop:.1f}% (paper: ~40%)"
    )
    return ExperimentResult(
        "ablation_routes",
        {"with": with_knob, "without": without, "drop_pct": drop},
        text,
    )


def ablation_coarse_grain(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Coarse-grain mapping ablation (Section 5.4 closing paragraph)."""
    runner = runner or ExperimentRunner()
    data: Dict[str, float] = {}
    for label, variant in (("algorithm-1", "alg1"), ("algorithm-2", "alg2")):
        fine = geomean_improvement([
            runner.improvement(b, S.CompilerDirected, variant)
            for b in runner.benchmarks
        ])
        coarse = geomean_improvement([
            runner.improvement(
                b, S.CompilerDirected, variant, coarse_grain=True
            )
            for b in runner.benchmarks
        ])
        data[f"{label} fine"] = fine
        data[f"{label} coarse"] = coarse
    text = format_bar_chart(
        data,
        title="Coarse-grain (whole-nest) mapping ablation "
              "(geomean improvement %)",
    )
    return ExperimentResult("ablation_coarse", data, text)


def ablation_layout(
    runner: Optional[ExperimentRunner] = None,
) -> ExperimentResult:
    """Extension: the paper's postponed data-layout optimization.

    Section 5.2.1 defers "changing the mapping between data space and
    cache/memory banks" to future work; :mod:`repro.core.layout`
    implements array re-basing, and this driver measures Algorithm 1
    with and without it.
    """
    runner = runner or ExperimentRunner()
    from repro.core.layout import optimize_layout

    data: Dict[str, Dict[str, float]] = {}
    for bench in runner.benchmarks:
        base = runner.baseline_cycles(bench)
        plain = runner.improvement(bench, S.CompilerDirected, "alg1")
        # The simulation rides the shared engine via the dedicated
        # ``layout_alg1`` trace variant (cacheable / poolable); the
        # layout report itself is recomputed here — compile-side only.
        res = runner.run(bench, S.CompilerDirected, "layout_alg1")
        prog = build_benchmark(bench, runner.scale)
        _laid, report = optimize_layout(
            prog, runner.cfg, tunables=runner.tunables
        )
        data[bench] = {
            "alg1": plain,
            "layout+alg1": improvement_percent(base, res.cycles),
            "arrays moved": float(report.moved),
        }
    rows = [
        [b, v["alg1"], v["layout+alg1"], int(v["arrays moved"])]
        for b, v in data.items()
    ]
    rows.append([
        "geomean",
        geomean_improvement([v["alg1"] for v in data.values()]),
        geomean_improvement([v["layout+alg1"] for v in data.values()]),
        sum(int(v["arrays moved"]) for v in data.values()),
    ])
    text = format_table(
        ["benchmark", "alg1", "layout+alg1", "moved"], rows,
        title="Extension: data-layout optimization + Algorithm 1 (%)",
    )
    return ExperimentResult("ablation_layout", {"per_benchmark": data}, text)


def ablation_k_sweep(
    runner: Optional[ExperimentRunner] = None,
    ks: Sequence[int] = (0, 1, 2, 4),
) -> ExperimentResult:
    """Extension: Algorithm 2's reuse threshold k (paper future work).

    Section 5.3 fixes k = 0 (a single reuse vetoes NDC) and leaves the
    optimal-k question open; this driver sweeps it.
    """
    runner = runner or ExperimentRunner()
    data: Dict[int, float] = {}
    for k in ks:
        imps = [
            runner.improvement(bench, S.CompilerDirected, "alg2", k=k)
            for bench in runner.benchmarks
        ]
        data[k] = geomean_improvement(imps)
    text = format_bar_chart(
        {f"k={k}": v for k, v in data.items()},
        title="Extension: Algorithm 2 reuse-threshold sweep "
              "(geomean improvement %)",
    )
    return ExperimentResult("ablation_k", {"by_k": data}, text)


# ======================================================================
# full report
# ======================================================================

ALL_EXPERIMENTS: Tuple[Callable[..., ExperimentResult], ...] = (
    table1_configuration,
    fig2_arrival_windows,
    fig3_breakeven_vs_window,
    fig4_scheme_benefits,
    fig5_window_series,
    fig6_oracle_breakdown,
    table2_cme_accuracy,
    fig13_alg1_breakdown,
    fig14_single_component,
    fig15_alg2_exercised,
    fig16_miss_rates,
    fig17_sensitivity,
    ablation_route_reselection,
    ablation_coarse_grain,
    ablation_layout,
    ablation_k_sweep,
)


def fidelity_summary(
    runner: Optional[ExperimentRunner] = None,
    fig4: Optional[ExperimentResult] = None,
    table2: Optional[ExperimentResult] = None,
) -> ExperimentResult:
    """The paper-claims checklist over the measured Fig. 4 / Table 2."""
    from repro.analysis.paper_data import fidelity_report

    runner = runner or ExperimentRunner()
    fig4 = fig4 or fig4_scheme_benefits(runner)
    table2 = table2 or table2_cme_accuracy(runner)
    text = fidelity_report(
        fig4=fig4.data["geomean"], table2=table2.data["per_benchmark"]
    )
    return ExperimentResult(
        "fidelity",
        {"fig4": fig4.data["geomean"], "table2": table2.data["per_benchmark"]},
        text,
    )


def run_all(
    runner: Optional[ExperimentRunner] = None,
    verbose: bool = True,
    only: Optional[Iterable[str]] = None,
) -> List[ExperimentResult]:
    """Regenerate every table/figure in paper order, closing with the
    fidelity checklist — the one artifact loop behind ``repro
    experiments`` and :func:`repro.api.evaluate`.

    ``only`` keeps just the drivers whose function name contains one
    of its substrings (``["fig4", "table2"]``); without it the whole
    job matrix is first fanned out over the pool (a no-op when the
    runtime is serial), so the drivers hit warm caches.
    """
    runner = runner or ExperimentRunner()
    wanted = list(only or ())
    if not wanted:
        runner.prefetch_standard()
    out: List[ExperimentResult] = []
    for fn in ALL_EXPERIMENTS + (fidelity_summary,):
        if wanted and not any(w in fn.__name__ for w in wanted):
            continue
        if fn is table1_configuration:
            res = fn(runner.cfg)
        elif fn is fidelity_summary:
            by_name = {r.name: r for r in out}
            res = fn(
                runner, fig4=by_name.get("fig4"),
                table2=by_name.get("table2"),
            )
        else:
            res = fn(runner)
        out.append(res)
        if verbose:
            print(res.render())
            print()
    return out


if __name__ == "__main__":  # pragma: no cover - manual entry point
    import sys

    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.4
    run_all(ExperimentRunner(scale=scale))
