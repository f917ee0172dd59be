"""The fast engine prices a compute's pure phase on demand.

:class:`~repro.arch.vectorized.DemandComputeContext` hands a scheme the
conventional estimate and the station candidates lazily, and an L1-hit
compute under an NDC scheme is never priced at all.  The differential
suite pins the results; this file pins the laziness itself (call
counts), the context's attribute surface against
:class:`~repro.schemes.ComputeContext`, and the guard against pricing
after the decision.
"""

import dataclasses

import pytest

from repro import schemes as S
from repro.arch import VECTORIZED, engine_class
from repro.arch.vectorized import (
    DemandComputeContext,
    VectorizedAccessPath,
    VectorizedCandidateBuilder,
)
from repro.config import DEFAULT_CONFIG
from repro.workloads import benchmark_trace

SCALE = 0.1


def _run(scheme, variant="original"):
    trace = benchmark_trace("fft", variant, SCALE, DEFAULT_CONFIG)
    return engine_class(VECTORIZED)(DEFAULT_CONFIG, scheme).run(trace)


@pytest.fixture
def calls(monkeypatch):
    """Counts operand estimates, candidate builds, and the builds
    requested for a compute with an operand in the core's L1."""
    counts = {"estimate": 0, "build": 0, "local_hit_build": 0}
    estimate = VectorizedAccessPath.estimate
    build = VectorizedCandidateBuilder.build

    def counting_estimate(self, *args):
        counts["estimate"] += 1
        return estimate(self, *args)

    def counting_build(self, core, op, now):
        counts["build"] += 1
        l1 = self.m.l1[core]
        if l1.probe(op.addr) or l1.probe(op.addr2):
            counts["local_hit_build"] += 1
        return build(self, core, op, now)

    monkeypatch.setattr(VectorizedAccessPath, "estimate", counting_estimate)
    monkeypatch.setattr(VectorizedCandidateBuilder, "build", counting_build)
    return counts


@pytest.mark.parametrize("label", ["original", "wait-forever"])
def test_schemes_blind_to_the_estimate_never_price_it(calls, label):
    entry = S.build_scheme(label)
    result = _run(entry.build(), entry.variant)
    assert result.stats.computes > 0
    assert calls["estimate"] == 0


@pytest.mark.parametrize("label", ["wait-forever", "oracle", "algorithm-2"])
def test_local_hit_computes_reach_no_build(calls, label):
    entry = S.build_scheme(label)
    result = _run(entry.build(), entry.variant)
    assert result.stats.ndc.skipped_local_hit > 0, "no L1-hit compute ran"
    assert calls["build"] > 0, "no compute was priced at all"
    assert calls["local_hit_build"] == 0


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_demand_context_mirrors_compute_context():
    fields = {f.name for f in dataclasses.fields(S.ComputeContext)}
    assert _public(S.ComputeContext) == fields | {"conv_cost"}
    assert _public(DemandComputeContext) == fields | {"conv_cost"}


class _Capture(S.NdcScheme):
    """Keeps every context it is handed; optionally reads candidates."""

    name = "capture"

    def __init__(self, read_candidates: bool):
        self.read_candidates = read_candidates
        self.seen = []

    def decide(self, ctx):
        self.seen.append(ctx)
        if self.read_candidates:
            ctx.candidates
        return S.CONVENTIONAL


def test_unread_fields_raise_after_the_decision():
    scheme = _Capture(read_candidates=False)
    _run(scheme)
    assert scheme.seen
    ctx = scheme.seen[0]
    assert ctx.now >= 0 and ctx.op is not None
    for field in ("conv_completion", "conv_cost", "candidates"):
        with pytest.raises(RuntimeError, match="pure phase is over"):
            getattr(ctx, field)


def test_read_fields_stay_readable_after_the_decision():
    scheme = _Capture(read_candidates=True)
    _run(scheme)
    ctx = scheme.seen[0]
    assert isinstance(ctx.candidates, list)
    with pytest.raises(RuntimeError, match="pure phase is over"):
        ctx.conv_completion
