"""The fast engine's trace pre-pass (:mod:`repro.arch.prepass`).

The pre-pass trades per-access arithmetic for bulk computation; its
outputs must equal the config's closed forms *exactly* (any drift
would silently fork the fast engine's cycle counts — the differential
harness would catch that end to end, these tests catch it at the
source).
"""

import pytest

from repro.arch import prepass
from repro.arch.topology import mesh_for
from repro.config import DEFAULT_CONFIG
from repro.isa import OpKind
from repro.workloads import benchmark_trace

SCALE = 0.08


@pytest.fixture(scope="module")
def trace():
    return benchmark_trace("fft", "original", SCALE)


@pytest.fixture(scope="module")
def mesh():
    return mesh_for(DEFAULT_CONFIG.noc.width, DEFAULT_CONFIG.noc.height)


class TestAddressMap:
    def test_matches_config_closed_forms(self, trace, mesh):
        amap = prepass.address_map(trace, DEFAULT_CONFIG, mesh)
        assert amap, "a real benchmark trace touches addresses"
        cfg = DEFAULT_CONFIG
        for addr, info in amap.items():
            home, l2_line, mc_id, mc_node, bank, row = info
            assert home == cfg.l2_home_node(addr)
            assert l2_line == addr // cfg.l2.line_bytes
            assert mc_id == cfg.memory_controller(addr)
            assert mc_node == mesh.mc_node(cfg.memory_controller(addr))
            assert bank == cfg.dram_bank(addr)
            assert row == cfg.dram_row(addr)

    def test_covers_every_trace_address(self, trace, mesh):
        amap = prepass.address_map(trace, DEFAULT_CONFIG, mesh)
        for stream in trace:
            for op in stream:
                for addr in (op.addr, op.addr2, op.dest):
                    if addr is None or addr == -1:
                        continue
                    assert addr in amap


class TestWorkWindows:
    def test_runs_are_maximal_work_spans(self, trace):
        windows = prepass.work_windows(trace)
        assert len(windows) == len(trace)
        for stream, runs in zip(trace, windows):
            for start, (end, total) in runs.items():
                assert end > start
                assert all(
                    stream[i].kind == OpKind.WORK
                    for i in range(start, end)
                ), "a window may contain only WORK ops"
                # Maximality: the run cannot extend in either direction.
                assert start == 0 or \
                    stream[start - 1].kind != OpKind.WORK
                assert end == len(stream) or \
                    stream[end].kind != OpKind.WORK
                assert total == sum(
                    stream[i].cost for i in range(start, end)
                )

    def test_every_work_op_is_inside_exactly_one_window(self, trace):
        windows = prepass.work_windows(trace)
        for stream, runs in zip(trace, windows):
            covered = set()
            for start, (end, _total) in runs.items():
                span = set(range(start, end))
                assert not (covered & span), "windows may not overlap"
                covered |= span
            work = {i for i, op in enumerate(stream)
                    if op.kind == OpKind.WORK}
            assert covered == work


class TestPrepassCache:
    def test_identity_keyed_reuse(self, trace, mesh):
        a = prepass.prepass_for(trace, DEFAULT_CONFIG, mesh)
        b = prepass.prepass_for(trace, DEFAULT_CONFIG, mesh)
        assert a is b

    def test_distinct_trace_objects_get_distinct_entries(self, trace,
                                                         mesh):
        t1 = trace
        # Equal content, fresh identity (the generator cache would
        # otherwise hand back the very same object).
        t2 = tuple(tuple(s) for s in t1)
        assert t1 is not t2 and t1 == t2
        a = prepass.prepass_for(t1, DEFAULT_CONFIG, mesh)
        b = prepass.prepass_for(t2, DEFAULT_CONFIG, mesh)
        assert a is not b
