"""Lowering: IR programs -> per-core instruction traces.

Parallelization follows the paper's multithreaded execution model: the
outermost loop of every nest is block-partitioned across the cores
(one thread per core, Table 1), and the nests of a program execute in
sequence, SPMD-style.

Each statement instance lowers to trace ops:

* plain reads/writes -> ``LOAD``/``STORE``;
* ``work`` cycles -> a ``WORK`` op;
* a compute without an offload plan -> ``COMPUTE`` (operand fetch +
  ALU on the core);
* a compute with an :class:`~repro.core.algorithm1.OffloadPlan` ->
  ``PRE_COMPUTE`` carrying the component mask, the time-out register
  value, and (for network-station plans) a per-instance route hint
  maximizing link overlap for that instance's actual operand homes.

A nest is lowered in bulk, from arrays: the scheduled iteration matrix
(:meth:`~repro.core.ir.LoopNest.iteration_matrix`), one owner search
over the block bounds, vector Δ-shifts with an in-bounds mask, and one
address column per reference (``F·I + f``, see
:meth:`~repro.core.ir.ArrayRef.addresses`).  One loop then appends the
ops row by row.  Every emitted field is a Python ``int`` or an enum
member, never a numpy scalar: trace digests hash ``repr`` of the fields.

After emission, a last-touch pass over each core's stream fills the
ground-truth future-reuse flags (``x_reused``/``y_reused``) the oracle
scheme consumes — any later access by the same core to the same L1
line counts, mirroring the paper's footnote that the reuse need not be
within a bounded number of cycles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.topology import mesh_for
from repro.config import ArchConfig
from repro.core.algorithm1 import OffloadPlan
from repro.core.ir import LoopNest, Program, Statement
from repro.core.routing_opt import RouteSelector
from repro.isa import OpKind, RouteHint, Trace, TraceOp, make_trace

#: sub-pc encoding: pc = sid * _PC_STRIDE + ref slot
_PC_STRIDE = 16
_COMPUTE_SLOT = 15


def pc_of(sid: int, slot: int = _COMPUTE_SLOT) -> int:
    """Static-instruction id used in traces (per statement, per ref slot)."""
    return sid * _PC_STRIDE + slot


def _partition(lower: int, upper: int, cores: int) -> List[Tuple[int, int]]:
    """Block-partition the inclusive range among ``cores`` (empty -> (1,0))."""
    total = upper - lower + 1
    base, rem = divmod(total, cores)
    out = []
    start = lower
    for c in range(cores):
        size = base + (1 if c < rem else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def lower_nest(
    cfg: ArchConfig,
    nest: LoopNest,
    plans: Dict[int, OffloadPlan],
    streams: Sequence[List[TraceOp]],
    routes: Optional[RouteSelector],
) -> None:
    """Emit one nest into every core's stream (block-partitioned).

    Each statement's instances are lowered column-wise over the nest's
    iteration matrix; one loop then appends them row by row, statement
    by statement, to the owning core's stream.
    """
    iters = nest.iteration_matrix()
    his = [hi for _, hi in _partition(nest.lower[0], nest.upper[0], len(streams))]
    # Empty blocks trail and repeat the last bound: the first block whose
    # upper bound reaches the outer index owns the iteration.
    owners = np.searchsorted(his, iters[:, 0]).tolist()
    lower = np.asarray(nest.lower, dtype=np.int64)
    upper = np.asarray(nest.upper, dtype=np.int64)
    shifts = dict(nest.stmt_shifts)
    per_stmt = []
    for st in nest.body:
        delta = shifts.get(st.sid)
        if delta is None:
            per_stmt.append(_statement_ops(cfg, st, iters, owners, plans, routes))
            continue
        inst = iters + np.asarray(delta, dtype=np.int64)
        valid = np.all((inst >= lower) & (inst <= upper), axis=1)
        rows = np.flatnonzero(valid).tolist()
        ops = _statement_ops(
            cfg, st, inst[valid], [owners[r] for r in rows], plans, routes
        )
        # a shifted instance outside the space emits nothing
        per_row: List[Tuple[TraceOp, ...]] = [()] * len(iters)
        for r, inst_ops in zip(rows, ops):
            per_row[r] = inst_ops
        per_stmt.append(per_row)
    for owner, parts in zip(owners, zip(*per_stmt)):
        extend = streams[owner].extend
        for inst_ops in parts:
            extend(inst_ops)


def _statement_ops(
    cfg: ArchConfig,
    st: Statement,
    inst: np.ndarray,
    cores: List[int],
    plans: Dict[int, OffloadPlan],
    routes: Optional[RouteSelector],
) -> List[Tuple[TraceOp, ...]]:
    """The ops of every instance (row of ``inst``) of ``st``, in order:
    ``WORK``, one ``LOAD`` per read, the compute, one ``STORE`` per write."""
    n = len(inst)
    cols: List[List[TraceOp]] = []
    if st.work > 0:
        # TraceOp is frozen, so every instance shares one WORK op.
        cols.append([TraceOp(OpKind.WORK, pc_of(st.sid, 14), cost=st.work)] * n)
    for k, r in enumerate(st.reads):
        pc = pc_of(st.sid, k)
        cols.append([TraceOp(OpKind.LOAD, pc, a) for a in r.addresses(inst)])
    if st.compute is not None:
        cols.append(_compute_ops(cfg, st, inst, cores, plans.get(st.sid), routes))
    for k, w in enumerate(st.writes):
        pc = pc_of(st.sid, 8 + k)
        cols.append([TraceOp(OpKind.STORE, pc, a) for a in w.addresses(inst)])
    return list(zip(*cols)) if cols else [()] * n


def _compute_ops(
    cfg: ArchConfig,
    st: Statement,
    inst: np.ndarray,
    cores: List[int],
    plan: Optional[OffloadPlan],
    routes: Optional[RouteSelector],
) -> List[TraceOp]:
    spec = st.compute
    assert spec is not None
    ax = spec.x.addresses(inst)
    ay = spec.y.addresses(inst)
    dests = spec.dest.addresses(inst) if spec.dest is not None else [None] * len(ax)
    pc = pc_of(st.sid)
    if plan is None:
        return [
            TraceOp(OpKind.COMPUTE, pc, x, y, d, spec.op)
            for x, y, d in zip(ax, ay, dests)
        ]
    if plan.use_route_hints and routes is not None:
        hints = [_route_hint(cfg, routes, c, x, y) for c, x, y in zip(cores, ax, ay)]
    else:
        hints = [None] * len(ax)
    # Positional: kind, pc, addr, addr2, dest, op, cost, x_reused,
    # y_reused, pred_reuse, mask, route_hint, timeout.
    return [
        TraceOp(
            OpKind.PRE_COMPUTE, pc, x, y, d, spec.op, 1, False, False, False,
            plan.mask, h, plan.timeout,
        )
        for x, y, d, h in zip(ax, ay, dests, hints)
    ]


def _route_hint(
    cfg: ArchConfig, routes: RouteSelector, core: int, ax: int, ay: int
) -> Optional[RouteHint]:
    hx = cfg.l2_home_node(ax)
    hy = cfg.l2_home_node(ay)
    if hx == core or hy == core:
        return None
    plan = routes.plan(core, hx, hy)
    if plan.common_links == 0:
        return None
    return plan.hint


def lower_program(
    program: Program,
    cfg: ArchConfig,
    plans: Optional[Dict[int, OffloadPlan]] = None,
    cores: Optional[int] = None,
) -> Trace:
    """Lower ``program`` onto ``cores`` cores (default: the whole mesh)."""
    mesh = mesh_for(cfg.noc.width, cfg.noc.height)
    n_cores = mesh.num_nodes if cores is None else cores
    if not 1 <= n_cores <= mesh.num_nodes:
        raise ValueError(
            f"cores must be in 1..{mesh.num_nodes} (the mesh nodes), got {cores}"
        )
    plans = plans or {}
    needs_routes = any(p.use_route_hints for p in plans.values())
    selector = RouteSelector(cfg, mesh) if needs_routes else None
    streams: List[List[TraceOp]] = [[] for _ in range(n_cores)]
    for nest in program.nests:
        lower_nest(cfg, nest, plans, streams, selector)
    return make_trace(annotate_reuse(cfg, ops) for ops in streams)


def annotate_reuse(cfg: ArchConfig, ops: List[TraceOp]) -> List[TraceOp]:
    """Fill ground-truth future-reuse flags on compute ops (last-touch index).

    An operand counts as reused when the same core touches its L1 line
    anywhere later in its stream — by any op, including other computes —
    mirroring the paper's footnote that the reuse need not occur within
    a bounded number of cycles.  Line granularity matters: offloading a
    compute strands the operand *line* outside the L1, so spatial
    neighbours count as reuse too.  One pass records each line's last
    touching op; an operand of op ``i`` is reused iff that index is > i.
    """
    line = cfg.l1.line_bytes
    computes = (OpKind.COMPUTE, OpKind.PRE_COMPUTE)
    #: line -> index of the last op in the stream that touches it
    last: Dict[int, int] = {}
    compute_at: List[int] = []
    for i, op in enumerate(ops):
        kind = op.kind
        if kind in computes:
            last[op.addr // line] = i
            last[op.addr2 // line] = i
            if op.dest is not None:
                last[op.dest // line] = i
            compute_at.append(i)
        elif kind in (OpKind.LOAD, OpKind.STORE):
            last[op.addr // line] = i
    out = list(ops)
    for i in compute_at:
        op = ops[i]
        xr = last[op.addr // line] > i
        yr = last[op.addr2 // line] > i
        if xr != op.x_reused or yr != op.y_reused:
            out[i] = TraceOp(
                op.kind, op.pc, op.addr, op.addr2, op.dest, op.op, op.cost,
                xr, yr, op.pred_reuse, op.mask, op.route_hint, op.timeout,
            )
    return out
