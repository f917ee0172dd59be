"""System-wide sweeps: every benchmark, hardware knobs, failure injection."""

import pytest

from repro import schemes as S
from repro.analysis.cdf import distribution_table
from repro.analysis.metrics import improvements_over_base
from repro.arch import engine_class
from repro.arch.simulator import simulate
from repro.arch.stats import improvement_percent
from repro.config import DEFAULT_CONFIG, NdcComponentMask, NdcLocation
from repro.isa import compute, make_trace, pre_compute
from repro.workloads import benchmark_trace, compiled_trace
from repro.workloads.suite import BENCHMARK_NAMES

#: tests that only need *a* simulator use the default (fast) engine
Simulator = engine_class()

TINY = 0.08


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestEveryBenchmarkSimulates:
    def test_baseline_and_oracle(self, name):
        tr = benchmark_trace(name, "original", TINY)
        base = simulate(tr, DEFAULT_CONFIG)
        assert base.cycles > 0
        oracle = simulate(tr, DEFAULT_CONFIG, S.OracleScheme())
        assert oracle.cycles > 0
        # The oracle may not catastrophically lose anywhere.
        assert improvement_percent(base.cycles, oracle.cycles) > -20.0

    def test_compiled_variant(self, name):
        tr, report = compiled_trace(name, "alg1", TINY)
        res = simulate(tr, DEFAULT_CONFIG, S.CompilerDirected())
        assert res.cycles > 0
        assert report is not None


class TestHardwareKnobs:
    def addrs(self, cfg):
        a = 1 << 20
        b = a + 1024
        assert cfg.dram_bank(a) == cfg.dram_bank(b)
        return a, b

    def test_hardware_timeout_register_caps_scheme(self, cfg):
        # Global time-out register of 1 cycle: even the oracle's planned
        # wait gets cut, so the same-bank offload aborts.
        strict = cfg.with_ndc(timeout_cycles=1)
        a, b = self.addrs(strict)
        tr = make_trace([[compute(1, a, b)]])
        res = simulate(tr, strict, S.OracleScheme())
        assert res.stats.ndc.total_performed == 0

    def test_component_mask_none_disables_ndc(self, cfg):
        off = cfg.with_ndc(component_mask=NdcComponentMask.NONE)
        a, b = self.addrs(off)
        op = pre_compute(1, a, b, mask=NdcComponentMask.NONE)
        tr = make_trace([[op]])
        res = simulate(tr, off, S.CompilerDirected())
        assert res.stats.ndc.total_performed == 0

    def test_tiny_offload_table_bounces(self, cfg):
        # With a single offload-table entry, back-to-back offloads from
        # one core are throttled at the LD/ST unit.
        tight = cfg.with_ndc(offload_table_entries=1)
        a = 1 << 20
        ops = []
        for i in range(6):
            x = a + i * 4096 * 16       # same MC/bank class, far rows
            y = x + 1024
            ops.append(compute(i, x, y))
        tr = make_trace([ops])
        res = simulate(tr, tight, S.WaitForever())
        assert res.stats.computes == 6

    def test_zero_meet_window_kills_network(self, cfg):
        no_meet = cfg.replace(
            noc=cfg.noc.__class__(**{**cfg.noc.__dict__, "meet_window": 1})
        )
        tr, _ = compiled_trace("smith.wa", "alg1", TINY, cfg=no_meet)
        res = simulate(tr, no_meet, S.CompilerDirected())
        assert res.stats.ndc.performed[NdcLocation.NETWORK] <= 2


class TestProfilingAtScale:
    def test_profile_records_cover_all_locations(self):
        tr = benchmark_trace("barnes", "original", TINY)
        sim = Simulator(DEFAULT_CONFIG, profile_windows=True)
        res = sim.run(tr)
        locs = {r.location for r in res.stats.arrival_records}
        assert locs == set(NdcLocation)
        computes = res.stats.computes
        assert len(res.stats.arrival_records) == 4 * computes

    def test_distribution_table_from_records(self):
        tr = benchmark_trace("mgrid", "original", TINY)
        sim = Simulator(DEFAULT_CONFIG, profile_windows=True)
        res = sim.run(tr)
        table = distribution_table({
            loc.short_name: res.stats.windows_for(loc) for loc in NdcLocation
        })
        for name, pcts in table.items():
            assert sum(pcts) == pytest.approx(100.0) or sum(pcts) == 0.0


class TestMetricsHelpers:
    def test_improvements_over_base(self):
        base = {"a": 100, "b": 200}
        mine = {"a": 50, "b": 300}
        imps = improvements_over_base(base, mine)
        assert imps["a"] == pytest.approx(50.0)
        assert imps["b"] == pytest.approx(-50.0)


class TestSchemeInvariantsAcrossSuite:
    def test_noop_scheme_equals_plain_baseline(self):
        for name in ("fft", "water"):
            tr = benchmark_trace(name, "original", TINY)
            a = simulate(tr, DEFAULT_CONFIG).cycles
            b = simulate(tr, DEFAULT_CONFIG, S.NoNdc()).cycles
            assert a == b

    def test_markov_close_to_last_wait(self):
        # The paper found the Markov predictor no better than last-value.
        diffs = []
        for name in ("md", "ocean"):
            tr = benchmark_trace(name, "original", TINY)
            base = simulate(tr, DEFAULT_CONFIG).cycles
            lw = improvement_percent(
                base, simulate(tr, DEFAULT_CONFIG, S.LastWait()).cycles
            )
            mk = improvement_percent(
                base, simulate(tr, DEFAULT_CONFIG, S.MarkovWait()).cycles
            )
            diffs.append(mk - lw)
        assert sum(diffs) / len(diffs) < 8.0
