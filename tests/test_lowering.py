"""Lowering: partitioning, op emission, reuse annotation, hints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from repro.config import DEFAULT_CONFIG, NdcComponentMask, NdcLocation, OpClass
from repro.core.algorithm1 import OffloadPlan
from repro.core.ir import (
    Array,
    ArrayRef,
    AddressSpaceAllocator,
    ComputeSpec,
    LoopNest,
    OpaqueRef,
    Program,
    Statement,
    ref,
)
from repro.core.lowering import (
    _partition,
    annotate_reuse,
    lower_program,
    pc_of,
)
from repro.isa import OpKind, RouteHint, compute, load, store, work
from repro.workloads import kernels as K
from repro.workloads.kernels import SidCounter


def simple_program(n=100, elem=8):
    alloc = AddressSpaceAllocator(base=1 << 22)
    A = alloc.allocate("A", (n,), elem)
    B = alloc.allocate("B", (n,), elem)
    C = alloc.allocate("C", (n,), elem)
    st = Statement(0, compute=ComputeSpec(
        x=ref(A, (1, 0)), y=ref(B, (1, 0)), dest=ref(C, (1, 0)),
    ), work=2)
    return Program("p", (LoopNest("n", (0,), (n - 1,), (st,)),))


class TestPartition:
    def test_covers_range_disjointly(self):
        blocks = _partition(0, 99, 7)
        covered = []
        for lo, hi in blocks:
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(100))

    def test_remainder_spread(self):
        blocks = _partition(0, 10, 4)
        sizes = [hi - lo + 1 for lo, hi in blocks]
        assert sorted(sizes) == [2, 3, 3, 3]

    def test_more_cores_than_iterations(self):
        blocks = _partition(0, 2, 5)
        nonempty = [b for b in blocks if b[0] <= b[1]]
        assert len(nonempty) == 3


class TestLowerProgram:
    def test_ops_distributed_across_cores(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        assert len(tr) == 25
        busy = [s for s in tr if s]
        assert len(busy) == 25

    def test_op_mix(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        kinds = {op.kind for s in tr for op in s}
        assert kinds == {OpKind.WORK, OpKind.COMPUTE}

    def test_total_compute_count(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG)
        n = sum(1 for s in tr for op in s if op.kind == OpKind.COMPUTE)
        assert n == 100

    def test_fewer_cores_option(self):
        tr = lower_program(simple_program(100), DEFAULT_CONFIG, cores=4)
        assert len(tr) == 4

    @pytest.mark.parametrize("cores", [0, -1, 26])
    def test_too_many_cores_rejected(self, cores):
        # 26 = num_nodes + 1 on the default 5x5 mesh
        with pytest.raises(ValueError):
            lower_program(simple_program(10), DEFAULT_CONFIG, cores=cores)

    def test_deterministic(self):
        a = lower_program(simple_program(64), DEFAULT_CONFIG)
        b = lower_program(simple_program(64), DEFAULT_CONFIG)
        assert a == b

    def test_plan_emits_pre_compute(self):
        prog = simple_program(64)
        sid0 = prog.nests[0].body[0].sid
        plans = {sid0: OffloadPlan(
            sid=sid0, mask=NdcComponentMask.MEMCTRL,
            primary=NdcLocation.MEMCTRL, timeout=99, use_route_hints=False,
            feasible_fraction=1.0,
        )}
        tr = lower_program(prog, DEFAULT_CONFIG, plans)
        ops = [op for s in tr for op in s if op.is_ndc_candidate()]
        assert all(op.kind == OpKind.PRE_COMPUTE for op in ops)
        assert all(op.timeout == 99 for op in ops)
        assert all(op.mask == NdcComponentMask.MEMCTRL for op in ops)

    def test_route_hints_attached_for_network_plans(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        sid = SidCounter()
        nest = K.stream_pair(alloc, sid, "s", 200, elem=256)
        prog = Program("p", (nest,))
        csid = next(st.sid for st in nest.body if st.compute is not None)
        plans = {csid: OffloadPlan(
            sid=csid, mask=NdcComponentMask.NETWORK,
            primary=NdcLocation.NETWORK, timeout=16, use_route_hints=True,
            feasible_fraction=1.0,
        )}
        tr = lower_program(prog, DEFAULT_CONFIG, plans)
        hints = [op.route_hint for s in tr for op in s
                 if op.kind == OpKind.PRE_COMPUTE]
        assert any(h is not None for h in hints)

    def test_transformed_nest_changes_order_not_content(self):
        prog = simple_program(64)
        nest = prog.nests[0]
        # A reversal is legal for this dependence-free nest.
        t_prog = prog.replace_nest(nest, nest.with_transform(((-1,),)))
        a = lower_program(prog, DEFAULT_CONFIG, cores=1)
        b = lower_program(t_prog, DEFAULT_CONFIG, cores=1)
        assert a != b
        assert sorted(op.addr for op in a[0]) == sorted(op.addr for op in b[0])

    def test_shifted_instances_outside_the_space_are_dropped(self):
        alloc = AddressSpaceAllocator(base=1 << 22)
        A = alloc.allocate("A", (10,), 8)
        s0 = Statement(0, reads=(ref(A, (1, 0)),))
        s1 = Statement(1, writes=(ref(A, (1, 0)),))
        nest = LoopNest("n", (0,), (9,), (s0, s1), stmt_shifts=((1, (2,)),))
        ops = lower_program(Program("p", (nest,)), DEFAULT_CONFIG, cores=1)[0]
        # s1 runs instance I+2 at iteration I: rows 8 and 9 emit no store
        assert [op.kind for op in ops] == [OpKind.LOAD, OpKind.STORE] * 8 + [
            OpKind.LOAD, OpKind.LOAD,
        ]
        stores = [op.addr for op in ops if op.kind == OpKind.STORE]
        assert stores == [A.address((i + 2,)) for i in range(8)]


def _python_ints_or_enums(op):
    ints = (op.pc, op.addr, op.addr2, op.cost, op.timeout)
    if op.dest is not None:
        ints += (op.dest,)
    return (
        all(type(v) is int for v in ints)
        and type(op.kind) is OpKind
        and type(op.op) is OpClass
        and type(op.mask) is NdcComponentMask
        and isinstance(op.route_hint, (RouteHint, type(None)))
    )


class TestEmittedFields:
    @pytest.mark.parametrize("name,variant", [
        ("fft", "alg1"), ("swim", "alg2"), ("spmv.csr", "original"),
        ("spmv.csr", "alg1"), ("hashjoin", "coda"),
    ])
    def test_every_field_is_a_python_int_or_enum(self, name, variant):
        from repro.workloads import tracegen

        trace = tracegen.compiled_trace(name, variant, 0.1)[0]
        ops = [op for s in trace for op in s]
        assert ops
        assert all(_python_ints_or_enums(op) for op in ops)

    def test_work_op_shared_per_statement(self):
        tr = lower_program(simple_program(8), DEFAULT_CONFIG, cores=1)
        works = [op for op in tr[0] if op.kind == OpKind.WORK]
        assert len(works) == 8
        assert all(w is works[0] for w in works)


# ----------------------------------------------------------------------
# the address column against the per-instance reference
# ----------------------------------------------------------------------

@hst.composite
def affine_refs(draw):
    rank = draw(hst.integers(0, 3))
    depth = draw(hst.integers(1, 3))
    shape = tuple(draw(hst.integers(1, 7)) for _ in range(rank))
    coeff = hst.integers(-3, 3)
    F = [[draw(coeff) for _ in range(depth)] for _ in range(rank)]
    f = [draw(hst.integers(-20, 20)) for _ in range(rank)]
    elem = draw(hst.sampled_from([1, 4, 8, 64]))
    arr = Array("X", shape, base=draw(hst.integers(0, 1 << 24)), element_size=elem)
    # iterations straddle zero and the shape, so subscripts wrap both ways
    rows = draw(hst.lists(
        hst.lists(hst.integers(-12, 12), min_size=depth, max_size=depth),
        min_size=0, max_size=20,
    ))
    return ArrayRef(arr, F, f), np.asarray(rows, dtype=np.int64).reshape(-1, depth)


class TestAddressColumn:
    @given(affine_refs())
    @settings(max_examples=200, deadline=None)
    def test_affine_column_equals_per_instance_address(self, case):
        r, rows = case
        col = r.addresses(rows)
        assert col == [r.address(tuple(row)) for row in rows.tolist()]
        assert all(type(a) is int for a in col)

    @given(affine_refs())
    @settings(max_examples=50, deadline=None)
    def test_opaque_resolver_sees_tuples_of_python_ints(self, case):
        r, rows = case
        seen = []

        def resolver(it):
            seen.append(it)
            return r.subscripts(it)

        col = OpaqueRef(r.array, resolver).addresses(rows)
        assert col == [r.address(tuple(row)) for row in rows.tolist()]
        assert len(seen) == len(rows)
        assert all(
            type(it) is tuple and all(type(v) is int for v in it) for it in seen
        )
        assert all(type(a) is int for a in col)


def _reference_reuse(cfg, ops):
    """The reuse rule by brute force: any later touch of the line."""
    line = cfg.l1.line_bytes

    def lines(op):
        if op.kind in (OpKind.LOAD, OpKind.STORE):
            return {op.addr // line}
        if op.is_ndc_candidate():
            return {op.addr // line, op.addr2 // line} | (
                set() if op.dest is None else {op.dest // line}
            )
        return set()

    out = []
    for i, op in enumerate(ops):
        if op.is_ndc_candidate():
            later = set().union(*(lines(o) for o in ops[i + 1:]))
            out.append((op.addr // line in later, op.addr2 // line in later))
    return out


_addr = hst.integers(0, 8).map(lambda k: 0x1000 + 0x20 * k)
_ops = hst.lists(hst.one_of(
    hst.builds(load, hst.just(0), _addr),
    hst.builds(store, hst.just(1), _addr),
    hst.builds(work, hst.just(2), hst.just(3)),
    hst.builds(compute, hst.just(3), _addr, _addr,
               dest=hst.one_of(hst.none(), _addr)),
), max_size=30)


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_last_touch_reuse_matches_reference(ops):
    out = annotate_reuse(DEFAULT_CONFIG, ops)
    flags = [(o.x_reused, o.y_reused) for o in out if o.is_ndc_candidate()]
    assert flags == _reference_reuse(DEFAULT_CONFIG, ops)
    assert [o.kind for o in out] == [o.kind for o in ops]


class TestAnnotateReuse:
    def test_line_reuse_by_later_load(self, cfg):
        ops = [compute(1, 0x1000, 0x2000), load(2, 0x1000)]
        out = annotate_reuse(cfg, ops)
        assert out[0].x_reused and not out[0].y_reused

    def test_spatial_neighbour_counts(self, cfg):
        ops = [compute(1, 0x1000, 0x2000), load(2, 0x1010)]  # same 64B line
        out = annotate_reuse(cfg, ops)
        assert out[0].x_reused

    def test_no_future_touch(self, cfg):
        ops = [load(0, 0x1000), compute(1, 0x1000, 0x2000)]
        out = annotate_reuse(cfg, ops)
        assert not out[1].x_reused and not out[1].y_reused

    def test_dest_touch_counts(self, cfg):
        ops = [compute(1, 0x1000, 0x2000), compute(2, 0x3000, 0x4000, dest=0x2000)]
        out = annotate_reuse(cfg, ops)
        assert out[0].y_reused

    def test_order_preserved(self, cfg):
        ops = [load(0, 0x0), store(1, 0x40), compute(2, 0x80, 0xC0)]
        out = annotate_reuse(cfg, ops)
        assert [o.kind for o in out] == [o.kind for o in ops]


class TestPcEncoding:
    def test_compute_slot(self):
        assert pc_of(3) == 3 * 16 + 15

    def test_read_slots_distinct(self):
        assert pc_of(3, 0) != pc_of(3, 1) != pc_of(4, 0)
