"""Differential-equivalence harness: the fast engine vs the reference.

The fast engine's speed-ups (memoized route tables, heap-backed
capacity timelines, the stamp-free NoC transit path, fused
reservation, the trace pre-pass + window resolution) are only
admissible because they can never change a result.  This suite is that
guarantee:

* the full Fig. 4 scheme lineup produces **cycle-exact identical**
  :class:`~repro.arch.simulator.SimulationResult`s on the fast engine
  as on the reference engine — on affine benchmarks and on the
  sparse/mixed families;
* the golden headline geomeans are byte-identical on the reference
  engine (the regular golden test pins the fast default);
* every distinct scheme in :data:`~repro.schemes.SCHEMES` beyond the
  Fig. 4 cast (each reads the compute context differently, which the
  fast engine prices on demand) is cycle-exact too, run through
  :func:`~repro.runtime.parallel.execute_job` so ``prepare`` runs;
* hypothesis properties pin the memoized tables to their closed forms
  (``RouteTable`` == ``xy_route``, ``serialization_table`` == the
  ceil-division formula) and the fast machine's fused
  ``travel_time`` to the reference network's ``traverse``;
* with an :class:`~repro.arch.events.EventBus` attached, both engines
  publish the **identical event stream** — the lazy fast path cannot
  silently drop events;
* engines are perf knobs only: they do not exist in
  :class:`~repro.runtime.keys.JobKey`, do not alter any cache digest,
  and the cache schema remains v3.

``"optimized"`` and ``"vectorized"`` name the same fast engine (pinned
by :meth:`TestLineupEquivalence.test_fast_names_alias_one_class`); the
lineup comparisons run each distinct fast engine class once, under its
first name, against one cached reference run.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import schemes as S
from repro.arch import (
    ENGINE_PROFILES,
    OPTIMIZED,
    REFERENCE,
    VECTORIZED,
    SystemSimulator,
    engine_class,
)
from repro.arch.events import EventBus
from repro.arch.noc import Network
from repro.arch.vectorized import VectorizedMachineState
from repro.arch.routing import (
    RouteTable,
    route_table_for,
    serialization_table,
    xy_route,
)
from repro.arch.topology import mesh_for
from repro.config import DEFAULT_CONFIG
from repro.workloads import benchmark_trace

SCALE = 0.1
#: the fast engine's default name (``"vectorized"`` is the same class)
FAST = OPTIMIZED


def _fast_engines():
    """One name per distinct non-reference engine class: an alias of a
    class already listed would only replay the same engine again."""
    names = {}
    for name in ENGINE_PROFILES:
        cls = engine_class(name)
        if cls is not engine_class(REFERENCE):
            names.setdefault(cls, name)
    return list(names.values())


FAST_ENGINES = pytest.mark.parametrize("profile", _fast_engines())


def _run_lineup(benchmark: str, profile: str, bus=None):
    """Every Fig. 4 scheme on ``benchmark`` on one engine."""
    cfg = DEFAULT_CONFIG
    results = {}
    for entry in S.fig4_lineup(None):
        trace = benchmark_trace(benchmark, entry.variant, SCALE, cfg)
        sim = engine_class(profile)(cfg, entry.build(), event_bus=bus)
        results[entry.label] = sim.run(trace)
    return results


_REFERENCE_LINEUPS: dict = {}


def _reference_lineup(benchmark: str):
    """The reference engine's lineup on ``benchmark``, run once per
    module: every fast-engine name is compared against the same run."""
    if benchmark not in _REFERENCE_LINEUPS:
        _REFERENCE_LINEUPS[benchmark] = _run_lineup(benchmark, REFERENCE)
    return _REFERENCE_LINEUPS[benchmark]


# ======================================================================
# cycle-exact result equality
# ======================================================================
class TestLineupEquivalence:
    def test_fast_names_alias_one_class(self):
        assert engine_class(OPTIMIZED) is engine_class(VECTORIZED)
        assert _fast_engines() == [OPTIMIZED]

    @FAST_ENGINES
    def test_fft_lineup_identical(self, profile):
        got = _run_lineup("fft", profile)
        ref = _reference_lineup("fft")
        assert got.keys() == ref.keys()
        for label in got:
            assert got[label] == ref[label], (
                f"{profile} divergence on fft/{label}"
            )

    @pytest.mark.parametrize("bench_name", ["spmv.csr", "mix.fft.hash"])
    def test_families_lineup_identical(self, bench_name):
        """The sparse/mixed families stress the paths the affine lineup
        cannot (opaque references, per-core heterogeneity): the
        fast engine must stay cycle-exact on them too."""
        fast = _run_lineup(bench_name, FAST)
        ref = _reference_lineup(bench_name)
        for label in fast:
            assert fast[label] == ref[label], (
                f"fast-engine divergence on {bench_name}/{label}"
            )

    @pytest.mark.slow
    @pytest.mark.parametrize("bench_name", ["swim", "md"])
    @FAST_ENGINES
    def test_full_lineup_identical(self, bench_name, profile):
        got = _run_lineup(bench_name, profile)
        ref = _reference_lineup(bench_name)
        for label in got:
            assert got[label] == ref[label], (
                f"{profile} divergence on {bench_name}/{label}"
            )

    @pytest.mark.parametrize("bench_name", ["fft", "spmv.csr"])
    def test_every_registered_scheme_identical(self, bench_name):
        """The registry's schemes outside the Fig. 4 cast (markov-wait,
        coda, nmpo, the original baseline) on both engines, through
        the runtime seam so nmpo's warm-up ``prepare`` runs."""
        from repro.runtime.keys import JobKey, config_digest
        from repro.runtime.parallel import execute_job

        def identity(variant, factory):
            return variant, factory(None).spec()

        covered = {
            identity(*S.SCHEMES[e.label]) for e in S.fig4_lineup(None)
        }
        extra = {}
        for label, (variant, factory) in S.SCHEMES.items():
            key = identity(variant, factory)
            if key not in covered:
                extra.setdefault(key, label)
        assert set(extra.values()) >= {
            "markov-wait", "coda", "nmpo", "original",
        }
        digest = config_digest(DEFAULT_CONFIG)
        for (variant, spec), label in extra.items():
            key = JobKey(
                bench=bench_name, variant=variant, scheme_spec=spec,
                label=label, scale=SCALE, config_digest=digest,
            )
            ref, fast = (
                execute_job(DEFAULT_CONFIG, key, engine_profile=profile)
                for profile in (REFERENCE, FAST)
            )
            assert fast == ref, f"fast-engine divergence on {label}"

    def test_profile_with_instrumentation_identical(self):
        """Collection knobs (pc stats, windows) divert nothing either."""
        cfg = DEFAULT_CONFIG
        trace = benchmark_trace("fft", "alg1", 0.05, cfg)
        ref, fast = (
            engine_class(profile)(
                cfg,
                S.CompilerDirected(),
                profile_windows=True,
                collect_window_series=True,
                collect_pc_stats=True,
            ).run(trace)
            for profile in (REFERENCE, FAST)
        )
        assert fast == ref, "fast-engine instrumentation drift"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="engine profile"):
            engine_class("fast")
        # The retired constructor seam fails loudly instead of silently
        # building the reference engine.
        with pytest.raises(TypeError):
            SystemSimulator(DEFAULT_CONFIG, engine_profile=VECTORIZED)


# ======================================================================
# two engines, one name table
# ======================================================================
def test_exactly_two_engines_behind_the_names():
    from repro.arch import ENGINES, VectorizedSimulator

    assert set(ENGINES) == set(ENGINE_PROFILES)
    assert set(ENGINES.values()) == {SystemSimulator, VectorizedSimulator}


def test_engine_names_live_only_in_the_table():
    """Only the name table (``repro/arch/__init__.py``) may know engine
    names: no module below it branches on one, so the removed
    per-profile forks cannot grow back."""
    import re
    from pathlib import Path

    import repro.arch

    forbidden = re.compile(
        r"OPTIMIZED|VECTORIZED|engine_profile|profile ==|profile !="
    )
    root = Path(repro.arch.__file__).parent
    offenders = [
        f"{path.name}:{lineno}: {line.strip()}"
        for path in sorted(root.glob("*.py"))
        if path.name != "__init__.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if forbidden.search(line)
    ]
    assert not offenders, "\n".join(offenders)


# ======================================================================
# golden headline under the reference profile
# ======================================================================
def test_golden_headline_reference_profile():
    """The committed golden JSON is byte-identical when recomputed with
    the reference engine (the golden test itself pins the fast default,
    so together they pin engine equality at artifact level)."""
    from pathlib import Path

    from repro.analysis.experiments import ExperimentRunner
    from repro.analysis.metrics import geomean_improvement
    from repro.runtime import RuntimeOptions

    # Mirrors tests/test_golden_headline.py (kept in sync by the byte
    # comparison itself: any drift in either copy fails here).
    GOLDEN_PATH = Path(__file__).parent / "golden" / "headline.json"
    BENCHMARKS = ["fft", "swim", "md"]
    HEADLINE_SCHEMES = {
        "wait-forever": (S.WaitForever, "original"),
        "oracle": (S.OracleScheme, "original"),
        "algorithm-1": (S.CompilerDirected, "alg1"),
        "algorithm-2": (S.CompilerDirected, "alg2"),
    }

    runner = ExperimentRunner(
        scale=SCALE,
        benchmarks=BENCHMARKS,
        runtime=RuntimeOptions(engine_profile=REFERENCE),
    )
    per_benchmark = {
        label: {
            bench: runner.improvement(bench, factory, variant)
            for bench in BENCHMARKS
        }
        for label, (factory, variant) in HEADLINE_SCHEMES.items()
    }
    geomean = {
        label: geomean_improvement(list(values.values()))
        for label, values in per_benchmark.items()
    }
    payload = {
        "benchmarks": BENCHMARKS,
        "scale": SCALE,
        "geomean_improvement_pct": geomean,
        "per_benchmark_improvement_pct": per_benchmark,
    }
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert rendered.encode() == GOLDEN_PATH.read_bytes(), (
        "reference engine drifted from the committed golden headline"
    )


# ======================================================================
# memoized tables == closed forms (hypothesis)
# ======================================================================
geometry = st.tuples(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=6),
)


@given(geom=geometry, data=st.data())
@settings(max_examples=80, deadline=None)
def test_route_table_equals_closed_form(geom, data):
    mesh = mesh_for(*geom)
    table = route_table_for(mesh)
    src = data.draw(st.integers(0, mesh.num_nodes - 1), label="src")
    dst = data.draw(st.integers(0, mesh.num_nodes - 1), label="dst")
    closed = xy_route(mesh, src, dst)
    assert table.route(src, dst) == closed
    assert table.hops(src, dst) == closed.hops
    assert table.link_ids(src, dst) == tuple(
        mesh.link(a, b).link_id
        for a, b in zip(closed.nodes, closed.nodes[1:])
    )


def test_route_table_is_exhaustively_correct_on_paper_mesh():
    mesh = mesh_for(DEFAULT_CONFIG.noc.width, DEFAULT_CONFIG.noc.height)
    table = RouteTable(mesh)
    for src in range(mesh.num_nodes):
        for dst in range(mesh.num_nodes):
            assert table.route(src, dst) == xy_route(mesh, src, dst)


def test_route_table_shared_per_mesh():
    a = route_table_for(mesh_for(4, 4))
    b = route_table_for(mesh_for(4, 4))
    assert a is b


@given(
    payload=st.integers(min_value=0, max_value=4096),
    width=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_serialization_table_equals_formula(payload, width):
    assert serialization_table(payload, width) == max(
        1, -(-payload // width)
    )


# ======================================================================
# VectorizedMachineState.travel_time == Network.traverse (hypothesis)
# ======================================================================
@given(
    transfers=st.lists(
        st.tuples(
            st.integers(0, 24),            # src
            st.integers(0, 24),            # dst
            st.integers(0, 500),           # start
            st.sampled_from([8, 16, 64]),  # payload
            st.booleans(),                 # commit
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_transit_matches_traverse(transfers):
    cfg = DEFAULT_CONFIG
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    table = route_table_for(mesh)
    net_a = Network(mesh, cfg.noc)
    machine = VectorizedMachineState(cfg)
    net_b = machine.network
    for src, dst, start, payload, commit in transfers:
        if src == dst:
            continue
        route = table.route(src, dst)
        link_ids = table.link_ids(src, dst)
        got_a = net_a.traverse(
            route, start, payload, commit=commit, link_ids=link_ids
        ).completion
        got_b = machine.travel_time(src, dst, start, payload, commit)
        assert got_a == got_b
    assert net_a.stats.transfers == net_b.stats.transfers
    assert net_a.stats.flit_hops == net_b.stats.flit_hops
    assert net_a.stats.total_queue_cycles == net_b.stats.total_queue_cycles
    assert [t.intervals() for t in net_a.timelines()] == [
        t.intervals() for t in net_b.timelines()
    ]


# ======================================================================
# the event stream is engine-invariant
# ======================================================================
def test_event_stream_identical_across_profiles():
    streams = {}
    for profile in (REFERENCE, FAST):
        bus = EventBus()
        _run_lineup("fft", profile, bus=bus)
        assert bus.emitted > 0, "lineup emitted no events at all"
        streams[profile] = bus.collected()
    assert streams[FAST] == streams[REFERENCE], (
        "the fast paths dropped or reordered events"
    )
    kinds = {e.kind for e in streams[FAST]}
    # The lineup exercises the offload lifecycle, not just stalls.
    assert "offload_completed" in kinds


# ======================================================================
# perf knobs never fork cache keys
# ======================================================================
class TestCacheKeysUnforked:
    def test_cache_schema_still_v3(self):
        from repro.runtime.keys import CACHE_SCHEMA_VERSION

        assert CACHE_SCHEMA_VERSION == 3

    def test_jobkey_carries_no_engine_profile(self):
        from repro.runtime.keys import JobKey

        fields = set(JobKey.__dataclass_fields__)
        assert not any("profile" == f or "engine" in f for f in fields), (
            "engine-profile perf knobs must not enter JobKey"
        )

    def test_digest_independent_of_runtime_profile(self, tmp_path):
        """A result simulated on one engine is a disk-cache hit for a
        runner configured with another engine name."""
        from repro.analysis.experiments import ExperimentRunner
        from repro.runtime import RuntimeOptions

        digests = {}
        hits = {}
        for profile in ENGINE_PROFILES:
            runner = ExperimentRunner(
                scale=0.05,
                benchmarks=["fft"],
                runtime=RuntimeOptions(
                    cache_dir=str(tmp_path), engine_profile=profile
                ),
            )
            key = runner.job_key("fft", S.WaitForever)
            digests[profile] = key.cache_digest()
            runner.engine.run(key)
            hits[profile] = runner.engine.stats.disk_hits
        assert digests[OPTIMIZED] == digests[REFERENCE]
        assert hits[REFERENCE] == 1, (
            "the reference-engine runner should have hit the cache "
            "entry written by the fast-engine runner"
        )

    def test_runtime_rejects_unknown_profile(self):
        from repro.runtime import RuntimeOptions

        with pytest.raises(ValueError, match="engine profile"):
            RuntimeOptions(engine_profile="turbo")
