"""Determinism and cache-correctness suite for the parallel runtime.

Pins the engine's core contract:

* serial, pooled (``jobs=2``), and warm-cache executions of the same
  job matrix produce **bit-identical** results;
* a warm cache serves a full ``run_all`` with zero simulator
  invocations;
* corrupted cache entries are skipped, recomputed, and repaired;
* ``--no-cache`` (``cache_dir=None``) bypasses both reads and writes;
* worker crashes and per-job timeouts degrade to serial execution
  without losing jobs.
"""

import argparse
import json
import multiprocessing

import pytest

from repro import schemes as S
from repro.arch import SystemSimulator, VectorizedSimulator
from repro.config import DEFAULT_CONFIG
from repro.runtime import (
    JobKey,
    NullCache,
    ParallelRunner,
    ResultCache,
    RuntimeOptions,
    config_digest,
    execute_job,
)

BENCHES = ["fft", "swim", "md"]
SCALE = 0.08
CFG_DIGEST = config_digest(DEFAULT_CONFIG)

IS_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"


def _exploding_worker(payload):  # must be module-level: pickled by name
    raise RuntimeError("boom")


def job_matrix():
    """>= 3 benchmarks x 2 schemes (baseline + compiler-directed)."""
    keys = []
    for bench in BENCHES:
        keys.append(JobKey(bench=bench, scale=SCALE,
                           config_digest=CFG_DIGEST))
        keys.append(JobKey(
            bench=bench, variant="alg1",
            scheme_spec=S.CompilerDirected().spec(), label="compiler",
            scale=SCALE, config_digest=CFG_DIGEST,
        ))
    return keys


@pytest.fixture(scope="module")
def serial_results():
    """Ground truth: the matrix executed serially with no cache."""
    runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=1))
    out = runner.run_many(job_matrix())
    assert runner.stats.executed_serial == len(out)
    assert runner.stats.executed_pool == 0
    return out


class TestDeterminism:
    def test_parallel_matches_serial(self, serial_results, tmp_path):
        runner = ParallelRunner(
            DEFAULT_CONFIG,
            RuntimeOptions(jobs=2, cache_dir=str(tmp_path / "cache")),
        )
        out = runner.run_many(job_matrix())
        assert runner.stats.executed_pool > 0, \
            "jobs=2 must actually use the pool"
        assert out.keys() == serial_results.keys()
        for key, res in serial_results.items():
            assert out[key] == res, f"parallel result differs for {key}"

    def test_warm_cache_matches_serial(self, serial_results, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=2, cache_dir=cache_dir)
        )
        cold.run_many(job_matrix())

        warm = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=cache_dir)
        )
        out = warm.run_many(job_matrix())
        assert warm.stats.executed == 0
        assert warm.stats.disk_hits == len(out)
        for key, res in serial_results.items():
            assert out[key] == res, f"cached result differs for {key}"

    def test_single_job_runs_in_process(self, tmp_path):
        """A batch with one miss never pays for a pool."""
        runner = ParallelRunner(
            DEFAULT_CONFIG,
            RuntimeOptions(jobs=4, cache_dir=str(tmp_path / "cache")),
        )
        key = job_matrix()[0]
        runner.run_many([key])
        assert runner.stats.executed_serial == 1
        assert runner.stats.executed_pool == 0

    def test_memory_hits_on_repeat(self, tmp_path):
        runner = ParallelRunner(
            DEFAULT_CONFIG,
            RuntimeOptions(jobs=1, cache_dir=str(tmp_path / "cache")),
        )
        key = job_matrix()[0]
        first = runner.run(key)
        second = runner.run(key)
        assert first is second
        assert runner.stats.mem_hits == 1
        assert runner.stats.executed == 1


def lineup_chunk(bench):
    """Every Fig. 4 scheme over one benchmark, as a lineup runs it."""
    keys = []
    for entry in S.fig4_lineup(None):
        scheme = entry.build()
        keys.append(JobKey(
            bench=bench, variant=entry.variant, scheme_spec=scheme.spec(),
            label=scheme.name, scale=SCALE, config_digest=CFG_DIGEST,
        ))
    return keys


class TestOneTraceSource:
    def test_lineup_chunk_lowers_each_trace_once(self, monkeypatch):
        """Serially, a lineup chunk lowers each (bench, variant) once
        and every job of a pair replays the same trace object; the
        pool returns the same results."""
        from repro.runtime import batch
        from repro.workloads import tracegen

        built, lowered, replayed = [], [], {}
        real_build, real_lower = tracegen.build_benchmark, tracegen.lower_program
        real_source = batch.cached_compiled_trace

        def build(name, scale):
            built.append(name)
            return real_build(name, scale)

        def lower(*args, **kwargs):
            lowered.append(built[-1])
            return real_lower(*args, **kwargs)

        def source(cfg, key):
            trace, report = real_source(cfg, key)
            replayed.setdefault((key.bench, key.variant), set()).add(
                id(trace))
            return trace, report

        monkeypatch.setattr(tracegen, "build_benchmark", build)
        monkeypatch.setattr(batch, "cached_compiled_trace", source)
        monkeypatch.setattr(tracegen, "lower_program", lower)
        tracegen.clear_cache()
        keys = lineup_chunk("fft") + lineup_chunk("swim")
        pairs = {(k.bench, k.variant) for k in keys}
        assert len(pairs) < len(keys), "the lineup must reuse variants"

        serial = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1)
        ).run_many(keys)
        assert sorted(lowered) == sorted(b for b, _ in pairs)
        assert set(replayed) == pairs
        for pair, traces in replayed.items():
            assert len(traces) == 1, f"{pair} replayed several traces"

        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        pooled = runner.run_many(keys)
        assert runner.stats.executed_pool > 0
        assert pooled == serial


class TestCacheCorrectness:
    def test_corrupted_entry_recomputed_and_repaired(self, tmp_path):
        cache_dir = tmp_path / "cache"
        key = job_matrix()[0]
        digest = key.cache_digest()

        # Plant a corrupt entry where the result would live.
        cache = ResultCache(cache_dir)
        path = cache.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"\x80\x04 this is not a pickle")

        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=str(cache_dir))
        )
        result = runner.run(key)
        assert runner.stats.disk_hits == 0
        assert runner.stats.executed == 1
        assert runner.stats.disk_writes == 1
        # The entry was repaired: a fresh load round-trips the result.
        assert ResultCache(cache_dir).load(digest) == result

    def test_wrong_type_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        digest = "ab" * 32
        path = cache.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"not": "a result"}))
        assert cache.load(digest) is None
        assert not path.exists(), "bogus entry must be unlinked"

    def test_entry_breaking_a_conservation_law_is_a_miss(self, tmp_path):
        key = job_matrix()[0]
        digest = key.cache_digest()
        cache = ResultCache(tmp_path / "cache")
        assert cache.store(digest, execute_job(DEFAULT_CONFIG, key))
        path = cache.path(digest)
        entry = json.loads(path.read_text())
        entry["stats"]["opportunities_exercised"] += 1
        path.write_text(json.dumps(entry))
        assert cache.load(digest) is None
        assert not path.exists(), "the law-breaking entry is unlinked"

    def test_planted_pickle_is_never_loaded(self, tmp_path,
                                            code_running_pickle):
        """A pickle that would run code, planted at the retired
        ``.pkl`` path and at the live ``.json`` path: ``load`` misses
        and never unpickles it."""
        payload, marker = code_running_pickle
        cache = ResultCache(tmp_path / "cache")
        digest = "cd" * 32
        path = cache.path(digest)
        assert path.suffix == ".json"
        path.parent.mkdir(parents=True, exist_ok=True)
        old = path.with_suffix(".pkl")
        old.write_bytes(payload)
        assert cache.load(digest) is None
        path.write_bytes(payload)
        assert cache.load(digest) is None
        assert not marker.exists()
        assert not path.exists(), "the undecodable entry is unlinked"
        assert old.read_bytes() == payload, "a .pkl is never opened"

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        cache_dir = tmp_path / "cache"
        key = job_matrix()[0]

        # Warm a real cache first.
        seeded = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=str(cache_dir))
        )
        seeded.run(key)
        assert ResultCache(cache_dir).load(key.cache_digest()) is not None

        # cache_dir=None: no reads (recomputes despite the warm entry)
        # and no writes (no new files appear anywhere).
        before = sorted(p for p in cache_dir.rglob("*") if p.is_file())
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=None)
        )
        assert isinstance(runner.cache, NullCache)
        assert not runner.cache.persistent
        runner.run(key)
        assert runner.stats.disk_hits == 0
        assert runner.stats.executed == 1
        assert runner.stats.disk_writes == 0
        after = sorted(p for p in cache_dir.rglob("*") if p.is_file())
        assert before == after

    def test_cli_no_cache_maps_to_none(self):
        from repro.cli import _runtime_options

        args = argparse.Namespace(
            jobs=2, cache_dir="/tmp/somewhere", no_cache=True,
            stats=False, timeout=None,
        )
        assert _runtime_options(args).cache_dir is None
        args.no_cache = False
        assert _runtime_options(args).cache_dir == "/tmp/somewhere"

    def test_unwritable_cache_root_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("i am a file, not a directory")
        cache = ResultCache(blocker / "cache")  # mkdir fails
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=1))
        runner.cache = cache
        key = job_matrix()[0]
        result = runner.run(key)  # must not raise
        assert result.cycles > 0
        assert runner.stats.disk_writes == 0


class TestFaultTolerance:
    @pytest.mark.skipif(not IS_FORK, reason="needs fork start method so "
                        "the monkeypatch reaches pool workers")
    def test_worker_exception_falls_back_to_serial(self, monkeypatch):
        from repro.runtime import parallel as P

        monkeypatch.setattr(P, "_pool_worker", _exploding_worker)
        runner = ParallelRunner(DEFAULT_CONFIG, RuntimeOptions(jobs=2))
        keys = job_matrix()[:2]
        out = runner.run_many(keys)
        assert set(out) == set(keys)
        assert runner.stats.worker_failures == len(keys)
        assert runner.stats.executed_serial == len(keys)
        assert runner.stats.executed_pool == 0
        assert all(res.cycles > 0 for res in out.values())

    def test_timeout_falls_back_to_serial(self, serial_results):
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=2, timeout=1e-4)
        )
        keys = job_matrix()[:2]
        out = runner.run_many(keys)
        assert set(out) == set(keys)
        # Every job either timed out (then ran serially) or slipped
        # through the pool; either way the batch completes and matches.
        assert runner.stats.timeouts + runner.stats.executed_pool >= len(keys)
        for key in keys:
            assert out[key] == serial_results[key]


@pytest.mark.slow
class TestWarmRunAllZeroSims:
    def test_warm_run_all_performs_no_simulations(self, tmp_path,
                                                  monkeypatch):
        from repro.analysis.experiments import ExperimentRunner, run_all
        from repro.runtime import RuntimeOptions

        cache_dir = str(tmp_path / "cache")
        benches = ["fft", "swim"]

        cold = ExperimentRunner(
            scale=SCALE, benchmarks=benches,
            runtime=RuntimeOptions(jobs=2, cache_dir=cache_dir),
        )
        cold_report = [r.render() for r in run_all(cold, verbose=False)]
        assert cold.stats.executed > 0

        calls = {"n": 0}
        for cls in (SystemSimulator, VectorizedSimulator):
            real_run = cls.run

            def counting_run(self, trace, _real=real_run):
                calls["n"] += 1
                return _real(self, trace)

            monkeypatch.setattr(cls, "run", counting_run)

        warm = ExperimentRunner(
            scale=SCALE, benchmarks=benches,
            runtime=RuntimeOptions(jobs=1, cache_dir=cache_dir),
        )
        warm_report = [r.render() for r in run_all(warm, verbose=False)]
        assert calls["n"] == 0, \
            "a warm cache must serve run_all without any simulation"
        assert warm.stats.executed == 0
        assert warm_report == cold_report


class TestCacheSchemaVersioning:
    """The cache schema version must gate every persistent entry.

    PR 2 replaced the commit-ahead engine with the reserve/commit
    engine: cycle counts changed for every scheme, so results pickled
    under schema v1 are semantically stale.  Bumping
    ``CACHE_SCHEMA_VERSION`` must be sufficient to orphan them.
    """

    def test_digest_changes_with_schema_version(self, monkeypatch):
        from repro.runtime import keys as K

        key = job_matrix()[0]
        v2 = key.cache_digest()
        monkeypatch.setattr(K, "CACHE_SCHEMA_VERSION", 1)
        v1 = key.cache_digest()
        assert v1 != v2, \
            "schema bump must re-key every persistent cache entry"

    def test_v1_entry_misses_under_v2(self, tmp_path, monkeypatch):
        from repro.runtime import keys as K

        cache_dir = tmp_path / "cache"
        key = job_matrix()[0]

        # Fill the cache as a v1-era runner would have: same job, same
        # config, but digests computed under the old schema number.
        monkeypatch.setattr(K, "CACHE_SCHEMA_VERSION", 1)
        old = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=str(cache_dir))
        )
        old.run(key)
        v1_digest = key.cache_digest()
        assert ResultCache(cache_dir).load(v1_digest) is not None
        monkeypatch.undo()

        # A current runner must not replay the stale entry.
        runner = ParallelRunner(
            DEFAULT_CONFIG, RuntimeOptions(jobs=1, cache_dir=str(cache_dir))
        )
        runner.run(key)
        assert runner.stats.disk_hits == 0
        assert runner.stats.executed == 1
        # Both generations coexist on disk under distinct digests.
        assert ResultCache(cache_dir).load(key.cache_digest()) is not None
        assert key.cache_digest() != v1_digest
