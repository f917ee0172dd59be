"""Round-trip guarantees for the runtime's two result encodings.

The process pool ships :class:`SimulationResult`s between processes by
pickle; the persistent cache and the claim server's result shipping
use the checked JSON codec (:mod:`repro.runtime.codec`).  Results (and
everything they embed: SimStats, arrival records, pc-level stats, the
config) must survive both *losslessly* — asserted here via full
dataclass equality, ``repr`` equality and config-digest equality on one
real, fully-populated simulation result, once per encoding.
"""

import dataclasses
import json
import pickle

import pytest

from repro import schemes as S
from repro.arch.simulator import SimulationResult
from repro.arch.stats import ArrivalRecord, SimStats
from repro.config import DEFAULT_CONFIG, NdcLocation
from repro.runtime import JobKey, config_digest, execute_job
from repro.runtime.codec import result_from_json, result_to_json
from repro.schemes import scheme_from_spec


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def json_roundtrip(result: SimulationResult) -> SimulationResult:
    """Through the codec and JSON text, as the cache and the wire do."""
    return result_from_json(json.loads(json.dumps(result_to_json(result))))


@pytest.fixture(scope="module")
def result() -> SimulationResult:
    """A real run with every collection knob on (windows, series, pc)."""
    key = JobKey(
        bench="fft",
        variant="alg1",
        scheme_spec=("CompilerDirected", 30),
        label="compiler",
        profile_windows=True,
        collect_window_series=True,
        collect_pc_stats=True,
        scale=0.08,
        config_digest=config_digest(DEFAULT_CONFIG),
    )
    return execute_job(DEFAULT_CONFIG, key)


class TestResultRoundTrip:
    """Each test round-trips whole results through ``encode``: the
    pool's pickle here, the JSON codec in the subclass below."""

    encode = staticmethod(roundtrip)

    def test_result_roundtrips_losslessly(self, result):
        assert result.stats.arrival_records and result.stats.window_series
        rt = self.encode(result)
        assert rt == result
        assert repr(rt) == repr(result)
        assert rt.cycles == result.cycles
        assert rt.scheme == result.scheme
        assert rt.config == result.config
        assert config_digest(rt.config) == config_digest(result.config)

    def test_stats_roundtrip(self, result):
        stats: SimStats = result.stats
        rt = self.encode(result).stats
        assert rt == stats
        # spot-check the interesting payloads survived structurally
        assert rt.arrival_records == stats.arrival_records
        assert rt.window_series == stats.window_series
        assert rt.ndc.performed == stats.ndc.performed
        assert rt.per_core_cycles == stats.per_core_cycles
        assert rt.resource_util == stats.resource_util

    def test_pc_stats_roundtrip(self, result):
        assert result.pc_stats, "collect_pc_stats run must populate pc_stats"
        rt = self.encode(result)
        assert rt.pc_stats == result.pc_stats

    def test_arrival_record_roundtrip(self, result):
        rec = ArrivalRecord(
            pc=7, location=NdcLocation.MEMCTRL, window=42, breakeven=17,
            met=True,
        )
        one = dataclasses.replace(
            result,
            stats=dataclasses.replace(result.stats, arrival_records=[rec]),
        )
        assert self.encode(one).stats.arrival_records == [rec]

    def test_baseline_result_has_no_pc_stats(self):
        key = JobKey(bench="fft", scale=0.08,
                     config_digest=config_digest(DEFAULT_CONFIG))
        res = execute_job(DEFAULT_CONFIG, key)
        assert res.pc_stats is None
        assert self.encode(res) == res


class TestResultJsonRoundTrip(TestResultRoundTrip):
    encode = staticmethod(json_roundtrip)


class TestConfigAndKey:
    def test_config_roundtrip_and_digest_stable(self):
        cfg = DEFAULT_CONFIG.with_mesh(4, 4).with_l2_size(256 * 1024)
        rt = roundtrip(cfg)
        assert rt == cfg
        assert config_digest(rt) == config_digest(cfg)

    def test_different_configs_different_digests(self):
        assert config_digest(DEFAULT_CONFIG) != config_digest(
            DEFAULT_CONFIG.with_mesh(4, 4)
        )

    def test_jobkey_roundtrip_and_digest(self):
        key = JobKey(
            bench="swim", variant="alg2",
            scheme_spec=("CompilerDirected", 30), label="compiler",
            trace_opts=(("k", 2),), scale=0.1,
            config_digest=config_digest(DEFAULT_CONFIG),
        )
        rt = roundtrip(key)
        assert rt == key
        assert hash(rt) == hash(key)
        assert rt.cache_digest() == key.cache_digest()

    def test_scale_and_config_distinguish_keys(self):
        """The satellite fix: two runners at different configs/scales
        must never share a cache entry."""
        base = JobKey(bench="fft", scale=0.1,
                      config_digest=config_digest(DEFAULT_CONFIG))
        other_scale = JobKey(bench="fft", scale=0.2,
                             config_digest=config_digest(DEFAULT_CONFIG))
        other_cfg = JobKey(bench="fft", scale=0.1,
                           config_digest=config_digest(
                               DEFAULT_CONFIG.with_mesh(4, 4)))
        digests = {base.cache_digest(), other_scale.cache_digest(),
                   other_cfg.cache_digest()}
        assert len(digests) == 3
        assert len({base, other_scale, other_cfg}) == 3


class TestSchemeSpecs:
    SCHEMES = [
        S.NoNdc(),
        S.WaitForever(),
        S.WaitFraction(25),
        S.LastWait(slack=3),
        S.MarkovWait(slack=1),
        S.OracleScheme(reuse_aware=False, margin=2, wait_weight=0.5),
        S.CompilerDirected(default_timeout=42),
    ]

    @pytest.mark.parametrize(
        "scheme", SCHEMES, ids=[type(s).__name__ for s in SCHEMES]
    )
    def test_spec_reconstructs_equivalently(self, scheme):
        spec = scheme.spec()
        assert roundtrip(spec) == spec
        rebuilt = scheme_from_spec(spec)
        assert type(rebuilt) is type(scheme)
        assert rebuilt.name == scheme.name
        assert rebuilt.spec() == spec

    def test_parameter_carrying_specs(self):
        # Specs carry the *resolved* tunables-derived values, so two
        # schemes built under different tunables can never alias.
        assert S.WaitFraction(25).spec() == ("WaitFraction", 25, 500)
        assert S.CompilerDirected(42).spec() == ("CompilerDirected", 42)
        assert scheme_from_spec(("WaitFraction", 25, 500))._limit == \
            S.WaitFraction(25)._limit

    def test_specs_resolve_tunables(self):
        from repro.core.tunables import Tunables

        t = Tunables(max_tracked_window=400, hard_wait_cap=99,
                     oracle_margin=10, compiler_default_timeout=7)
        assert S.WaitForever(tunables=t).spec() == ("WaitForever", 99)
        assert S.WaitFraction(25, tunables=t).spec() == \
            ("WaitFraction", 25, 400)
        assert S.OracleScheme(tunables=t).spec() == \
            ("OracleScheme", True, 10, 1.0)
        assert S.CompilerDirected(tunables=t).spec() == \
            ("CompilerDirected", 7)
        # Explicit arguments still win over the tunables record.
        assert S.CompilerDirected(42, tunables=t).spec() == \
            ("CompilerDirected", 42)
        # And every tunables-built spec round-trips.
        for scheme in (S.WaitForever(tunables=t), S.LastWait(tunables=t),
                       S.MarkovWait(tunables=t)):
            assert scheme_from_spec(scheme.spec()).spec() == scheme.spec()

    def test_unregistered_spec_raises(self):
        with pytest.raises(ValueError):
            scheme_from_spec(("NoSuchScheme",))
        with pytest.raises(ValueError):
            scheme_from_spec(())
