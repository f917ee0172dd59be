"""Numpy trace pre-pass for the fast engine.

Before replay, the pre-pass makes two bulk sweeps over a benchmark's
access stream:

* **derived-address maps** — every unique address touched by the trace
  (operands, destinations) is resolved *once*, in one vectorized
  computation, to the tuple of facts the hot path keeps re-deriving
  per access: the NUCA home bank, the L2 line, the owning memory
  controller and its mesh node, and the DRAM bank/row.  The event
  engine then replaces ~a dozen per-access arithmetic calls with one
  dict lookup;
* **contention-free windows** — each per-core stream is partitioned at
  every op that can touch a *shared* resource timeline (loads, stores,
  computes).  The ops between two cut points (``WORK`` runs: pure
  core-local cycle burn) form a window whose resolution overlaps no
  reservation on any shared timeline, so the whole window is resolved
  in bulk by a vectorized cumulative-cost sum; only the contended cut
  points drop into the event engine.

Admissibility (the Appendix H argument): a window op reads and writes
no shared state, so executing the window in one step at its start time
is observationally identical to interleaving it op-by-op with other
cores through the replay heap — per-core clocks, statistics, and every
shared timeline are bit-identical.  The differential harness pins this
cycle-for-cycle against the reference engine.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.arch.topology import Mesh
from repro.config import ArchConfig
from repro.isa import OpKind, Trace

#: addr -> (home node, l2 line, mc id, mc mesh node, dram bank, dram row)
AddrMap = Dict[int, Tuple[int, int, int, int, int, int]]

#: per-stream: run start index -> (index after run, total run cost)
WorkWindows = Tuple[Dict[int, Tuple[int, int]], ...]

_WORK = OpKind.WORK


def _unique_addresses(trace: Trace) -> list:
    addrs = set()
    for stream in trace:
        for op in stream:
            addrs.add(op.addr)
            addrs.add(op.addr2)
            if op.dest is not None:
                addrs.add(op.dest)
    addrs.discard(-1)
    return sorted(addrs)


def address_map(trace: Trace, cfg: ArchConfig, mesh: Mesh) -> AddrMap:
    """Resolve every unique trace address to its derived facts, in bulk.

    The vectorized arithmetic mirrors :meth:`ArchConfig.l2_home_node`,
    :meth:`~ArchConfig.memory_controller`, :meth:`~ArchConfig.dram_bank`
    and :meth:`~ArchConfig.dram_row` exactly (pinned by a unit test and,
    end to end, by the differential harness).
    """
    addrs = _unique_addresses(trace)
    if not addrs:
        return {}
    mem = cfg.memory
    mc_nodes = [mesh.mc_node(m) for m in range(mem.num_controllers)]
    arr = np.asarray(addrs, dtype=np.int64)
    l2_line = arr // cfg.l2.line_bytes
    home = l2_line % cfg.noc.num_nodes
    page = arr // mem.interleave_bytes
    mc_id = page % mem.num_controllers
    per_mc = page // mem.num_controllers
    bank = per_mc % mem.dram.banks_per_controller
    row = (per_mc // mem.dram.banks_per_controller) % mem.dram.rows_per_bank
    node = np.asarray(mc_nodes, dtype=np.int64)[mc_id]
    return dict(
        zip(
            addrs,
            zip(
                home.tolist(), l2_line.tolist(), mc_id.tolist(),
                node.tolist(), bank.tolist(), row.tolist(),
            ),
        )
    )


def work_windows(trace: Trace) -> WorkWindows:
    """Per-stream contention-free windows (maximal ``WORK`` runs).

    For each stream, maps a run's start index to ``(index after the
    run, total cost)`` — the bulk-resolution record the vectorized
    replay loop consumes in one step.  Cut points (ops that can touch
    shared resources) never appear in the map.
    """
    out = []
    for stream in trace:
        runs: Dict[int, Tuple[int, int]] = {}
        n = len(stream)
        if n:
            kinds = np.fromiter(
                (op.kind for op in stream), dtype=np.int64, count=n
            )
            costs = np.fromiter(
                (op.cost for op in stream), dtype=np.int64, count=n
            )
            is_work = kinds == int(_WORK)
            if is_work.any():
                # Run boundaries via the standard diff-of-mask trick;
                # run costs via one cumulative sum over the stream.
                padded = np.concatenate(([False], is_work, [False]))
                edges = np.diff(padded.astype(np.int8))
                starts = np.flatnonzero(edges == 1)
                ends = np.flatnonzero(edges == -1)
                csum = np.concatenate(([0], np.cumsum(costs)))
                totals = csum[ends] - csum[starts]
                runs = {
                    int(s): (int(e), int(t))
                    for s, e, t in zip(starts, ends, totals)
                }
        out.append(runs)
    return tuple(out)


class TracePrepass:
    """Bundle of the pre-pass products for one (trace, cfg) pair."""

    __slots__ = ("addr_info", "windows")

    def __init__(self, trace: Trace, cfg: ArchConfig, mesh: Mesh):
        self.addr_info = address_map(trace, cfg, mesh)
        self.windows = work_windows(trace)


#: identity-keyed pre-pass cache: every scheme of a lineup replays the
#: *same* trace object (tracegen's trace cache hands each caller of one
#: key the same object), so the pre-pass runs once per unique
#: (trace, cfg) instead of once per simulation.
_CACHE_CAP = 8
_cache: Dict[Tuple[int, int], Tuple[Trace, ArchConfig, TracePrepass]] = {}


def prepass_for(trace: Trace, cfg: ArchConfig, mesh: Mesh) -> TracePrepass:
    """Compute (or reuse) the pre-pass for ``trace`` under ``cfg``.

    Keyed by object identity — cheap, and exactly right for traces
    shared through tracegen's cache; the entries pin their trace/cfg
    objects alive so ids cannot be recycled under us.
    """
    key = (id(trace), id(cfg))
    hit = _cache.get(key)
    if hit is not None:
        return hit[2]
    pre = TracePrepass(trace, cfg, mesh)
    if len(_cache) >= _CACHE_CAP:
        _cache.pop(next(iter(_cache)))
    _cache[key] = (trace, cfg, pre)
    return pre
