"""The stable public API of the reproduction (``repro.api``).

Seven verbs cover everything external callers do, wrapping the
internal entrypoints (:class:`~repro.analysis.experiments.\
ExperimentRunner` and its one artifact loop
:func:`~repro.analysis.experiments.run_all`,
:class:`repro.tuning.Tuner`, :class:`repro.campaign.CampaignRunner`,
:mod:`repro.bench.microbench`, :mod:`repro.analysis.characterize`)
behind one small, import-light surface — the only front door: the
``python -m repro`` CLI is a parse → verb → render shell over it, and
:func:`repro.quick_compare` shares ``repro compare``'s private helper
beside :func:`simulate`::

    from repro import api

    api.simulate("fft", "algorithm-1", scale=0.25)   # one simulation
    api.lineup(scale=0.25)                           # the Fig. 4 table
    api.evaluate(["fig4", "table2"])                 # paper artifacts
    api.tune(scale=0.25, smoke=True)                 # auto-calibration
    api.sweep({"benchmarks": ["fft"], "scales": [0.1]})  # a campaign
    api.characterize("spmv.csr")       # DAMOV-style bottleneck class
    api.bench(smoke=True)              # benchmark the simulator itself

Stability contract: these signatures only *grow* (keyword-only
additions); the internals they wrap may move freely.  The old
``repro.analysis`` driver re-exports are gone (their deprecation shims
served out their window) — import from
:mod:`repro.analysis.experiments` directly if you need the internals.

Every verb accepts the same runtime-control keywords: ``options`` (a
:class:`~repro.runtime.RuntimeOptions`) for full control — jobs,
cache, timeouts, engine, executor backend — with the per-call
conveniences ``profile=`` (an engine name), ``backend=`` (``"batch"``
or ``"per-unit"`` simulation execution), and ``cache=`` layered on top.
There are two engines: ``"reference"`` (the frozen oracle) and the
fast engine, which answers to both ``"optimized"`` (the default) and
``"vectorized"``.  Both fast names stay because stored identities
spell them — the default campaign id and every default sweep
``unit_id`` digest ``"optimized"``, and the repository benchmark
passes ``"vectorized"``.  Engines and backends are *performance knobs
only*: results are pinned identical across all of them, and none
ever forks the runtime's
:class:`~repro.runtime.keys.JobKey` cache keys — a result computed
through the facade is a warm cache hit for the CLI, a campaign, or the
tuner, and vice versa.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.characterize import BottleneckProfile
    from repro.arch.simulator import SimulationResult
    from repro.campaign import CampaignResult, SweepSpec
    from repro.config import ArchConfig
    from repro.core.tunables import Tunables
    from repro.runtime import RunnerStats, RuntimeOptions
    from repro.tuning import TuneResult

__all__ = [
    "bench",
    "characterize",
    "evaluate",
    "lineup",
    "simulate",
    "sweep",
    "tune",
]

#: Valid values of every verb's ``backend=`` keyword.
BACKENDS = ("batch", "per-unit")


def _schemes(
    schemes: Union[None, str, Sequence[str]],
) -> Optional[tuple]:
    """Resolve the shared ``schemes=`` keyword against the registry.

    Validated here at the facade — like ``profile=``/``backend=`` —
    so an unknown label fails fast with the valid set, before any
    runner or campaign directory is constructed.
    """
    if schemes is None:
        return None
    from repro.schemes import SCHEMES

    labels = (schemes,) if isinstance(schemes, str) else tuple(schemes)
    for label in labels:
        if label not in SCHEMES:
            valid = ", ".join(sorted(SCHEMES))
            raise ValueError(
                f"unknown scheme label {label!r} (valid schemes: {valid})"
            )
    return labels


def _options(
    options: Optional["RuntimeOptions"],
    profile: Optional[str],
    cache: bool,
    backend: Optional[str] = None,
) -> "RuntimeOptions":
    """Resolve the shared runtime-control keywords."""
    import dataclasses

    from repro.runtime import RuntimeOptions, default_cache_dir

    if options is None:
        options = RuntimeOptions(
            cache_dir=str(default_cache_dir()) if cache else None
        )
    if profile is not None and profile != options.engine_profile:
        options = dataclasses.replace(options, engine_profile=profile)
    if backend is not None:
        if backend not in BACKENDS:
            valid = ", ".join(repr(b) for b in BACKENDS)
            raise ValueError(
                f"unknown backend {backend!r} (valid backends: {valid})"
            )
        batch = backend == "batch"
        if batch != options.batch:
            options = dataclasses.replace(options, batch=batch)
    return options


def simulate(
    workload: str,
    scheme: Optional[str] = None,
    *,
    scale: float = 0.25,
    tunables: Optional["Tunables"] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    cfg: Optional["ArchConfig"] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    stats: Optional["RunnerStats"] = None,
) -> "SimulationResult":
    """Compile and simulate one benchmark under one scheme.

    ``workload`` is a benchmark name from any family (:data:`repro.\
    workloads.suite.ALL_BENCHMARK_NAMES` — affine, sparse, or mixed);
    ``scheme`` a Fig. 4 bar label (``"oracle"``,
    ``"algorithm-1"``, ...) or ``None`` for the no-NDC baseline.
    ``tunables=None`` applies the shipped per-scale calibration.
    """
    from repro.analysis.experiments import ExperimentRunner
    from repro.config import DEFAULT_CONFIG
    from repro.schemes import build_scheme

    runner = ExperimentRunner(
        cfg=cfg or DEFAULT_CONFIG, scale=scale, tunables=tunables,
        runtime=_options(options, profile, cache, backend), stats=stats,
    )
    try:
        if scheme is None:
            return runner.run(workload)
        entry = build_scheme(scheme, runner.tunables)
        return runner.run(workload, entry.factory, entry.variant)
    finally:
        runner.engine.close()


#: The cast ``repro compare`` and :func:`repro.quick_compare` run when
#: no ``--schemes`` are given.
_COMPARE_LABELS = ("wait-forever", "oracle", "algorithm-1", "algorithm-2")


def _compare(
    workload: str,
    schemes: Union[None, str, Sequence[str]] = None,
    *,
    scale: float = 0.25,
    tunables: Optional["Tunables"] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    cfg: Optional["ArchConfig"] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    stats: Optional["RunnerStats"] = None,
) -> Tuple[int, List[list]]:
    """``(baseline cycles, [[label, improvement %], ...])`` for one
    workload: the no-NDC baseline plus one run per scheme label, all on
    one runner (``repro compare`` and :func:`repro.quick_compare`)."""
    from repro.analysis.experiments import ExperimentRunner
    from repro.config import DEFAULT_CONFIG
    from repro.schemes import build_scheme

    labels = _schemes(schemes) or _COMPARE_LABELS
    runner = ExperimentRunner(
        cfg=cfg or DEFAULT_CONFIG, scale=scale, tunables=tunables,
        runtime=_options(options, profile, cache, backend), stats=stats,
    )
    try:
        base = runner.baseline_cycles(workload)
        rows = []
        for label in labels:
            entry = build_scheme(label, runner.tunables)
            rows.append([label, runner.improvement(
                workload, entry.factory, entry.variant
            )])
    finally:
        runner.engine.close()
    return base, rows


def lineup(
    scale: float = 0.25,
    benchmarks: Optional[Sequence[str]] = None,
    *,
    suite: Union[None, str, Sequence[str]] = None,
    schemes: Union[None, str, Sequence[str]] = None,
    tunables: Optional["Tunables"] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    cfg: Optional["ArchConfig"] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    stats: Optional["RunnerStats"] = None,
):
    """The scheme lineup: improvement % per benchmark + geomean.

    ``suite`` selects workload families (``"affine"``, ``"sparse"``,
    ``"mixed"``, or a list of them); its members join any explicit
    ``benchmarks``.  ``schemes`` selects the bar cast by registry
    label (:data:`repro.schemes.SCHEMES`), defaulting to the paper's
    Fig. 4 lineup.  Returns the ``fig4``
    :class:`~repro.analysis.experiments.ExperimentResult`
    (``.data["per_benchmark"]``, ``.data["geomean"]``, ``.render()``).
    """
    from repro.analysis.experiments import (
        ExperimentRunner,
        fig4_scheme_benefits,
    )
    from repro.config import DEFAULT_CONFIG

    runner = ExperimentRunner(
        cfg=cfg or DEFAULT_CONFIG, scale=scale, benchmarks=benchmarks,
        suite=suite, tunables=tunables, lineup=_schemes(schemes),
        runtime=_options(options, profile, cache, backend), stats=stats,
    )
    try:
        if runner.parallel_enabled:
            runner.prefetch(runner.fig4_jobs())
        return fig4_scheme_benefits(runner)
    finally:
        runner.engine.close()


def evaluate(
    specs: Optional[Iterable[str]] = None,
    *,
    scale: float = 0.4,
    benchmarks: Optional[Sequence[str]] = None,
    suite: Union[None, str, Sequence[str]] = None,
    schemes: Union[None, str, Sequence[str]] = None,
    tunables: Optional["Tunables"] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    cfg: Optional["ArchConfig"] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    stats: Optional["RunnerStats"] = None,
    verbose: bool = False,
) -> Dict[str, object]:
    """Regenerate paper artifacts; returns ``name -> ExperimentResult``.

    ``specs`` filters by substring (like ``repro experiments --only``):
    ``evaluate(["fig4", "table2"])``.  ``None`` regenerates everything
    (the full ``run_all`` matrix, prefetched over the pool when the
    runtime is parallel).  ``suite`` selects workload families like
    :func:`lineup` does; ``schemes`` selects the lineup drivers' bar
    cast by registry label.
    """
    from repro.analysis import experiments as E
    from repro.config import DEFAULT_CONFIG

    runner = E.ExperimentRunner(
        cfg=cfg or DEFAULT_CONFIG, scale=scale, benchmarks=benchmarks,
        suite=suite, tunables=tunables, lineup=_schemes(schemes),
        runtime=_options(options, profile, cache, backend), stats=stats,
    )
    try:
        results = E.run_all(runner, verbose=verbose, only=specs)
    finally:
        runner.engine.close()
    return {res.name: res for res in results}


def tune(
    scale: float = 0.4,
    *,
    seed: int = 0,
    samples: int = 8,
    survivors: int = 3,
    benchmarks: Optional[Sequence[str]] = None,
    suite: Union[None, str, Sequence[str]] = None,
    schemes: Union[None, str, Sequence[str]] = None,
    smoke: bool = False,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    progress=None,
    **tuner_kwargs,
) -> "TuneResult":
    """Auto-calibrate the :class:`Tunables` against the paper's Fig. 4.

    Candidate evaluations route through the campaign runner (shared
    cache + manifest accounting).  ``schemes`` widens the evaluated
    lineup beyond the four headline bars (e.g.
    :data:`repro.tuning.SHOOTOUT_LABELS` to calibrate ``coda``/``nmpo``
    alongside); scoring still reads only the paper's labels.  Returns
    the :class:`~repro.tuning.TuneResult`; persisting a winner is the
    caller's choice (:func:`repro.tuning.save_calibration`).
    """
    from repro.tuning import SMOKE_BENCHMARKS, SMOKE_GRID, Tuner

    kwargs = dict(
        scale=scale, seed=seed, samples=samples, survivors=survivors,
        lineup=_schemes(schemes),
        runtime=_options(options, profile, cache, backend),
        progress=progress,
    )
    if smoke:
        kwargs.update(
            grid=SMOKE_GRID, samples=min(samples, 4), survivors=1,
            cheap_benchmarks=SMOKE_BENCHMARKS,
            full_benchmarks=SMOKE_BENCHMARKS,
        )
    if benchmarks or suite:
        from repro.workloads.suite import resolve_benchmarks

        kwargs["full_benchmarks"] = resolve_benchmarks(
            tuple(benchmarks) if benchmarks else None, suite or None
        )
    kwargs.update(tuner_kwargs)
    tuner = Tuner(**kwargs)
    try:
        return tuner.run()
    finally:
        tuner.close()


def sweep(
    spec: Union["SweepSpec", Mapping[str, object], str, Path, None] = None,
    *,
    suite: Union[None, str, Sequence[str]] = None,
    schemes: Union[None, str, Sequence[str]] = None,
    root: Union[None, str, Path] = None,
    resume: bool = False,
    workers: int = 1,
    server: Optional[object] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    **runner_kwargs,
):
    """Run (or resume) a sweep campaign; returns its
    :class:`~repro.campaign.CampaignResult`.

    ``spec`` may be a :class:`~repro.campaign.SweepSpec`, a plain dict
    of its fields, or a path to a ``.json``/``.toml`` spec file.
    ``root=None`` runs in memory (no campaign directory); pass a runs
    root (e.g. ``"runs"``) for a resumable on-disk campaign.
    ``workers=N`` (N > 1, on-disk + cache only) drains the campaign's
    claim queue with N concurrent worker processes; the artifacts are
    byte-identical to a single-process run.  More workers can also be
    attached to a live campaign from other shells via ``repro sweep
    worker <id>``.  ``suite`` merges workload families into the spec's
    ``suites`` axis (``sweep({...}, suite="sparse")``); ``schemes``
    *replaces* the spec's ``schemes`` axis (the spec default is a
    non-empty cast, so merging would be unable to narrow it) with
    registry labels validated here at the facade.

    ``server=`` attaches this process as one *network* worker to a
    ``repro sweep serve`` host instead of running a campaign locally:
    pass an ``http://host:port`` URL (or any
    :class:`~repro.campaign.Transport`), optionally with ``spec`` for
    a digest cross-check, and the call drains the served campaign's
    claim queue — results ship to the server, which journals and
    finalizes — returning a :class:`~repro.campaign.WorkerResult`.
    ``root``/``resume``/``workers`` do not apply in this mode.
    """
    import dataclasses

    from repro.campaign import CampaignRunner, SweepSpec

    if isinstance(spec, (str, Path)):
        spec = SweepSpec.load(spec)
    elif isinstance(spec, Mapping):
        spec = SweepSpec.from_dict(spec)
    if suite is not None:
        if spec is None:
            raise ValueError("suite= needs a spec to merge into")
        suites = (suite,) if isinstance(suite, str) else tuple(suite)
        merged = spec.suites + tuple(
            s for s in suites if s not in spec.suites
        )
        spec = dataclasses.replace(spec, suites=merged)
    if schemes is not None:
        if spec is None:
            raise ValueError("schemes= needs a spec to apply to")
        spec = dataclasses.replace(spec, schemes=_schemes(schemes))
    if server is not None:
        if root is not None or resume or workers != 1:
            raise ValueError(
                "server= attaches a remote worker; root=/resume=/"
                "workers= belong to the serving host"
            )
        runner = CampaignRunner(
            spec, options=_options(options, profile, cache, backend),
        )
        return runner.attach_remote(server, **runner_kwargs)
    if spec is None:
        raise TypeError("sweep() needs a spec (or server=)")
    runner = CampaignRunner(
        spec, root=root,
        options=_options(options, profile, cache, backend),
        **runner_kwargs,
    )
    return runner.run(resume=resume, workers=workers)


def characterize(
    workload: str,
    scheme: Optional[str] = None,
    *,
    schemes: Union[None, str, Sequence[str]] = None,
    scale: float = 0.25,
    tunables: Optional["Tunables"] = None,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    cfg: Optional["ArchConfig"] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
    stats: Optional["RunnerStats"] = None,
):
    """Simulate one run and mine its DAMOV-style bottleneck class.

    Same selection semantics as :func:`simulate` (``scheme=None`` is
    the no-NDC baseline); returns the
    :class:`~repro.analysis.characterize.BottleneckProfile` — the
    measured stall/miss signals plus the ``bottleneck_class`` they
    imply (``"dram-row"``, ``"noc"``, ``"compute-local"``, ...).  The
    classification is a pure function of the simulation result, so a
    cached run characterizes without re-simulating.

    ``schemes=`` (the facade-wide cast keyword, exclusive with the
    single ``scheme`` positional) characterizes the workload under
    *each* label and returns ``{label: BottleneckProfile}`` instead.
    """
    from repro.analysis.characterize import characterize_result

    if schemes is not None:
        if scheme is not None:
            raise ValueError(
                "pass either scheme= (one profile) or schemes= "
                "(a {label: profile} dict), not both"
            )
        out: Dict[str, "BottleneckProfile"] = {}
        for label in _schemes(schemes):
            result = simulate(
                workload, label, scale=scale,
                tunables=tunables, profile=profile, backend=backend,
                cfg=cfg, options=options, cache=cache, stats=stats,
            )
            out[label] = characterize_result(result)
        return out
    result = simulate(
        workload, scheme, scale=scale, tunables=tunables,
        profile=profile, backend=backend, cfg=cfg, options=options,
        cache=cache, stats=stats,
    )
    return characterize_result(result)


def bench(
    *,
    smoke: bool = False,
    benchmark: str = "fft",
    scale: float = 0.1,
    repeats: int = 3,
    baseline: Union[None, str, Path, Mapping[str, object]] = None,
    max_slowdown: float = 25.0,
    profile: Optional[str] = None,
    backend: Optional[str] = None,
    options: Optional["RuntimeOptions"] = None,
    cache: bool = True,
) -> Dict[str, object]:
    """Benchmark the simulator itself; returns the perf report dict.

    Runs the engine microbenchmark tiers (:mod:`repro.bench.\
    microbench`): engine-only timeline ops, a single simulation, and
    the executor-path lineup — each measured on both engines, so the
    report carries the reference ÷ fast speedup ratios the CI gate
    tracks (``repro bench --perf/--smoke``).

    ``smoke`` shrinks everything to CI-gate size.  ``baseline`` (a
    report dict or a path to one, e.g. ``BENCH_engine.json``) adds a
    ``gate`` entry — ``{"ok": bool, "messages": [...]}`` — comparing
    the measured ratios against it with ``max_slowdown`` percent
    tolerance.

    ``profile``/``backend``/``options``/``cache`` are accepted for
    the facade's uniform-keyword contract and validated, but the
    microbenchmarks deliberately measure both engines and both
    executor backends regardless: the report's value is exactly the
    cross-engine comparison.
    """
    import json

    from repro.bench.microbench import compare_to_baseline, run_bench

    _options(options, profile, cache, backend)  # validate the knobs
    report = run_bench(
        smoke=smoke, benchmark=benchmark, scale=scale, repeats=repeats
    )
    if baseline is not None:
        if isinstance(baseline, (str, Path)):
            with open(baseline) as fh:
                baseline = json.load(fh)
        ok, messages = compare_to_baseline(
            report, baseline, max_slowdown
        )
        report["gate"] = {"ok": ok, "messages": messages}
    return report
