"""The fast engine: memoized tables, pre-passed and fused hot paths.

This module is the second of the two engines (the first is the
reference engine, :class:`~repro.arch.simulator.SystemSimulator` over
the base layers).  Each class here subclasses one reference layer and
owns its speed-ups outright — the base classes carry no fast-path
branches.  Over the reference semantics it layers:

* **memoized tables**: all-pairs XY routes and link ids
  (:func:`~repro.arch.routing.route_table_for`), link serialization
  cycles (:func:`~repro.arch.routing.serialization_table`), and the
  heap-backed :class:`~repro.arch.engine.CapacityTimeline` for the NDC
  service and offload tables;
* the numpy **trace pre-pass** (:mod:`repro.arch.prepass`): derived-
  address maps computed in bulk, and contention-free windows of the
  access stream (maximal ``WORK`` runs) resolved in one vectorized
  cumulative-cost step each — the replay heap only sees the contended
  cut points;
* **fused transit/reserve fast paths**: the overwhelmingly common
  "no reservation ends after the requested cycle" case appends to the
  interval list in O(1) instead of re-walking it, with byte-identical
  accounting (pinned by the differential harness and a hypothesis
  property);
* **pure-phase estimate memoization**: a compute's estimate/candidate
  construction is documented purely observational, so repeated
  reserve-phase ``travel_time`` queries with identical arguments
  within one compute are answered once.

Everything here must be *invisible* in results: the fast engine is
pinned cycle-exact-identical to the reference engine on the full
Fig. 4 lineup and the sparse/mixed families, and the engine choice
never enters :class:`~repro.runtime.keys.JobKey` cache keys.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.arch.access import AccessPath, AccessPlan
from repro.arch.candidates import CandidateBuilder
from repro.arch.engine import CapacityTimeline
from repro.arch.events import (
    L2PortStall,
    LinkStall,
    OffloadCompleted,
    OffloadIssued,
    OffloadParked,
    OffloadTimedOut,
)
from repro.arch.machine import (
    PKG_BYTES,
    REQ_BYTES,
    WORD_BYTES,
    Journey,
    MachineState,
)
from repro.arch.ndc_exec import NdcExecutor
from repro.arch.noc import Network
from repro.arch.prepass import prepass_for
from repro.arch.routing import (
    RouteSignature,
    route_table_for,
    serialization_table,
)
from repro.arch.simulator import SimulationResult, SystemSimulator
from repro.arch.stats import NEVER
from repro.config import NdcComponentMask, NdcLocation
from repro.isa import OpKind, Trace
from repro.schemes import ComputeContext, NoNdc, StationCandidate


class VectorizedNetwork(Network):
    """Mesh NoC with the per-hop loops fused and fast-pathed.

    The fast path fires when no reservation on the link ends after the
    wanted departure cycle — then ``earliest_free`` is the identity and
    ``reserve`` is an append/extend, with identical counters (busy,
    stall, reservations, queue cycles, flit hops) and identical event
    emission (a zero-cycle queue never emitted a stall event).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: payload bytes -> (serialization cycles, per-hop tail)
        self._ser_tail = {}
        #: flat per-link interval lists, aliasing each timeline's own
        #: storage (ResourceTimeline mutates the lists in place, never
        #: rebinds them) — one index instead of index + attribute load
        #: on every hop of every transit
        self._lstarts = [tl._starts for tl in self._links]
        self._lends = [tl._ends for tl in self._links]

    def serialization_cycles(self, payload_bytes: int) -> int:
        return serialization_table(payload_bytes, self.cfg.link_bytes)

    def transit(
        self,
        link_ids: Tuple[int, ...],
        start: int,
        payload_bytes: int,
        commit: bool = True,
    ) -> int:
        """Arrival-only flavour of :meth:`traverse` over memoized link ids.

        Identical timing, contention, statistics, and event emission —
        but no :class:`~repro.arch.noc.Traversal` allocation (pinned
        against ``traverse`` by a hypothesis property).
        """
        st = self._ser_tail.get(payload_bytes)
        if st is None:
            ser = self.serialization_cycles(payload_bytes)
            st = (ser, self._hop_tail + ser)
            self._ser_tail[payload_bytes] = st
        ser, tail = st
        links = self._links
        lstarts = self._lstarts
        lends = self._lends
        router_latency = self._router_latency
        bisect = bisect_right
        t = start
        if not commit:
            for link_id in link_ids:
                ends = lends[link_id]
                want = t + router_latency
                if not ends or ends[-1] <= want:
                    t = want + tail
                    continue
                # Inlined ResourceTimeline.earliest_free (gap-fill,
                # span > 0, non-empty): skip intervals ending at or
                # before `want`, then walk the remaining gaps.  Interval
                # lists stay short (merges fuse neighbours), so a linear
                # skip beats the bisect call except on long tails.
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                t = free + tail
            return t
        bus = self.bus
        stats = self.stats
        flits = 0
        for link_id in link_ids:
            tl = links[link_id]
            ends = lends[link_id]
            want = t + router_latency
            tl.reservations += 1
            tl.busy_cycles += ser
            if not ends or ends[-1] <= want:
                # O(1) append/extend: the gap walk would land here anyway.
                if ends and ends[-1] == want:
                    ends[-1] = want + ser
                else:
                    lstarts[link_id].append(want)
                    ends.append(want + ser)
                t = want + tail
            else:
                # Inlined ResourceTimeline.reserve (gap-fill, span > 0,
                # non-empty): same single gap walk, then the same
                # predecessor/successor merge on insertion.
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                end = free + ser
                queue = free - want
                tl.stall_cycles += queue
                if i > 0 and ends[i - 1] == free:
                    if i < n and starts[i] == end:
                        # Bridges the gap exactly: both neighbours fuse.
                        ends[i - 1] = ends[i]
                        del starts[i]
                        del ends[i]
                    else:
                        ends[i - 1] = end
                elif i < n and starts[i] == end:
                    starts[i] = free
                else:
                    starts.insert(i, free)
                    ends.insert(i, end)
                if queue:
                    stats.total_queue_cycles += queue
                    if bus is not None:
                        bus.emit(LinkStall(cycle=want, link=link_id,
                                           stall=queue))
                t = free + tail
            flits += ser
        stats.flit_hops += flits
        stats.transfers += 1
        return t


class VectorizedMachineState(MachineState):
    """Machine state with memoized routes, the pre-pass maps and fused
    travel paths."""

    network_class = VectorizedNetwork
    capacity_class = CapacityTimeline

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: all-pairs memoized XY routes (shared per mesh geometry)
        self._route_table = table = route_table_for(self.mesh)
        #: flat all-pairs link-id rows (src * num_nodes + dst)
        self._lids = table._link_ids
        self._nn = table.mesh.num_nodes
        #: addr -> (home, l2 line, mc id, mc node, bank, row); replaced
        #: wholesale by :meth:`attach_prepass` before a replay
        self.addr_info = {}
        #: live only during a compute's pure estimate/candidate phase
        self._pure_memo = None
        #: journeys feed the Section 4 window profiler only; replay
        #: without it skips the stamp/Journey construction entirely
        self.keep_journeys = True

    def attach_prepass(self, pre) -> None:
        self.addr_info = pre.addr_info

    def addr_fact(self, addr: int):
        """Derived facts for ``addr`` (pre-passed; computed on miss)."""
        info = self.addr_info.get(addr)
        if info is None:
            cfg = self.cfg
            mc_id = cfg.memory_controller(addr)
            info = (
                cfg.l2_home_node(addr),
                addr // cfg.l2.line_bytes,
                mc_id,
                self.mesh.mc_node(mc_id),
                cfg.dram_bank(addr),
                cfg.dram_row(addr),
            )
            self.addr_info[addr] = info
        return info

    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> RouteSignature:
        return self._route_table.route(src, dst)

    def travel(
        self,
        src: int,
        dst: int,
        start: int,
        payload: int,
        commit: bool,
        stamps: bool = True,
    ) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        if not stamps:
            return self.travel_time(src, dst, start, payload, commit), ()
        if src == dst:
            return start, ()
        table = self._route_table
        link_ids = table.link_ids(src, dst)
        times = self.network.traverse(
            table.route(src, dst), start, payload,
            commit=commit, link_ids=link_ids,
        ).node_times
        return times[-1], tuple(zip(link_ids, times[1:]))

    def travel_time(
        self, src: int, dst: int, start: int, payload: int, commit: bool
    ) -> int:
        # The body of :meth:`VectorizedNetwork.transit` is fused in
        # below (same loops, byte for byte): every travel of every
        # access otherwise pays a second call frame that costs as much
        # as the hop walk itself on small traces.
        if src == dst:
            return start
        link_ids = self._lids[src * self._nn + dst]
        net = self.network
        st = net._ser_tail.get(payload)
        if st is None:
            ser = net.serialization_cycles(payload)
            st = (ser, net._hop_tail + ser)
            net._ser_tail[payload] = st
        ser, tail = st
        lstarts = net._lstarts
        lends = net._lends
        router_latency = net._router_latency
        bisect = bisect_right
        t = start
        if not commit:
            memo = self._pure_memo
            if memo is not None:
                key = (src, dst, start, payload)
                hit = memo.get(key)
                if hit is not None:
                    return hit
            for link_id in link_ids:
                ends = lends[link_id]
                want = t + router_latency
                if not ends or ends[-1] <= want:
                    t = want + tail
                    continue
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                t = free + tail
            if memo is not None:
                memo[key] = t
            return t
        links = net._links
        bus = net.bus
        stats = net.stats
        flits = 0
        for link_id in link_ids:
            tl = links[link_id]
            ends = lends[link_id]
            want = t + router_latency
            tl.reservations += 1
            tl.busy_cycles += ser
            if not ends or ends[-1] <= want:
                if ends and ends[-1] == want:
                    ends[-1] = want + ser
                else:
                    lstarts[link_id].append(want)
                    ends.append(want + ser)
                t = want + tail
            else:
                starts = lstarts[link_id]
                n = len(starts)
                if n < 8:
                    i = 0
                    while i < n and ends[i] <= want:
                        i += 1
                else:
                    i = bisect(ends, want)
                free = want
                while i < n:
                    if starts[i] - free >= ser:
                        break
                    e = ends[i]
                    if e > free:
                        free = e
                    i += 1
                end = free + ser
                queue = free - want
                tl.stall_cycles += queue
                if i > 0 and ends[i - 1] == free:
                    if i < n and starts[i] == end:
                        ends[i - 1] = ends[i]
                        del starts[i]
                        del ends[i]
                    else:
                        ends[i - 1] = end
                elif i < n and starts[i] == end:
                    starts[i] = free
                else:
                    starts.insert(i, free)
                    ends.insert(i, end)
                if queue:
                    stats.total_queue_cycles += queue
                    if bus is not None:
                        bus.emit(LinkStall(cycle=want, link=link_id,
                                           stall=queue))
                t = free + tail
            flits += ser
        stats.flit_hops += flits
        stats.transfers += 1
        return t

    def l2_port_start(self, node: int, t: int, commit: bool) -> int:
        port = self.l2_ports[node]
        ends = port._ends
        if not commit:
            if not ends or ends[-1] <= t:
                return t
            # Inlined ResourceTimeline.earliest_free (gap-fill, span 1,
            # non-empty): a 1-cycle slot fits in any gap, so the walk
            # stops at the first interval that starts past the pointer.
            starts = port._starts
            n = len(starts)
            if n < 8:
                i = 0
                while i < n and ends[i] <= t:
                    i += 1
            else:
                i = bisect_right(ends, t)
            free = t
            while i < n:
                if starts[i] > free:
                    break
                e = ends[i]
                if e > free:
                    free = e
                i += 1
            return free
        if not ends or ends[-1] <= t:
            port.reservations += 1
            port.busy_cycles += 1
            if ends and ends[-1] == t:
                ends[-1] = t + 1
            else:
                port._starts.append(t)
                ends.append(t + 1)
            return t
        # Inlined ResourceTimeline.reserve (gap-fill, span 1, non-empty):
        # same walk, then the same predecessor/successor merge.
        port.reservations += 1
        port.busy_cycles += 1
        starts = port._starts
        n = len(starts)
        if n < 8:
            i = 0
            while i < n and ends[i] <= t:
                i += 1
        else:
            i = bisect_right(ends, t)
        free = t
        while i < n:
            if starts[i] > free:
                break
            e = ends[i]
            if e > free:
                free = e
            i += 1
        end = free + 1
        port.stall_cycles += free - t
        if i > 0 and ends[i - 1] == free:
            if i < n and starts[i] == end:
                ends[i - 1] = ends[i]
                del starts[i]
                del ends[i]
            else:
                ends[i - 1] = end
        elif i < n and starts[i] == end:
            starts[i] = free
        else:
            starts.insert(i, free)
            ends.insert(i, end)
        if free > t and self.bus is not None:
            self.bus.emit(L2PortStall(cycle=t, node=node, stall=free - t))
        return free


class VectorizedAccessPath(AccessPath):
    """The access path over the pre-passed address maps.

    Byte-identical walk to :class:`~repro.arch.access.AccessPath` —
    same hierarchy steps, same statistics, same cache mutations — with
    the per-access address arithmetic replaced by one map lookup and
    the Journey/stamp construction skipped when no window profiler
    will ever read it.
    """

    def access(
        self,
        core: int,
        addr: int,
        now: int,
        commit: bool,
        allocate_l1: bool = True,
        pc: int = -1,
    ) -> AccessPlan:
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        home = info[0]
        if commit:
            l1_hit = l1.access(addr, allocate=allocate_l1).hit
        else:
            l1_hit = l1.probe(addr)
        stats = m.stats
        if l1_hit:
            if commit:
                stats.l1_hits += 1
                if pc >= 0:
                    m.record_pc(pc, l1_hit=True)
            return AccessPlan(now + cfg.l1.access_latency, True, False, home)

        keep = commit and m.keep_journeys
        journey = Journey(t_issue=now) if keep else None
        if commit:
            stats.l1_misses += 1
        t = now + cfg.l1.access_latency
        if keep:
            t_req, req_links = m.travel(
                core, home, t, REQ_BYTES, commit, stamps=True
            )
        else:
            t_req = m.travel_time(core, home, t, REQ_BYTES, commit)
            req_links = ()
        t_req = m.l2_port_start(home, t_req, commit)

        l2_line = info[1]
        dirty = m.dirty.get(l2_line)
        if dirty is not None and dirty[0] != core and dirty[1] > t_req:
            owner = dirty[0]
            t_fwd = m.travel_time(
                home, owner, t_req + cfg.l2.access_latency, REQ_BYTES, commit
            )
            t_done = m.travel_time(
                owner, core, t_fwd + cfg.l1.access_latency,
                cfg.l1.line_bytes, commit,
            )
            if commit:
                stats.l2_misses += 1
                if pc >= 0:
                    m.record_pc(pc, l1_hit=False, l2_hit=False)
                if allocate_l1:
                    l1.fill(addr)
                if journey is not None:
                    journey.l2 = (home, t_req)
                    journey.links = req_links
                    m.journeys[addr // cfg.l1.line_bytes] = journey
            return AccessPlan(t_done, False, False, home, journey)

        l2bank = m.l2[home]
        pending = m.pending_l2_fill.get(l2_line, 0)
        if commit and 0 < pending <= t_req:
            l2bank.fill(addr)
            del m.pending_l2_fill[l2_line]
            m.dirty.pop(l2_line, None)
            pending = 0
        if commit:
            if pending > t_req:
                l2bank.access(addr)
                l2_hit = True
                t_data = max(pending, t_req + cfg.l2.access_latency)
            else:
                l2_hit = l2bank.access(addr).hit
                t_data = t_req + cfg.l2.access_latency
            if l2_hit:
                stats.l2_hits += 1
            else:
                stats.l2_misses += 1
            if pc >= 0:
                m.record_pc(pc, l1_hit=False, l2_hit=l2_hit)
        else:
            l2_hit = l2bank.probe(addr) or pending > t_req
            t_data = (
                max(pending, t_req + cfg.l2.access_latency)
                if pending > t_req
                else t_req + cfg.l2.access_latency
            )
        if journey is not None:
            journey.l2 = (home, t_req)

        if not l2_hit:
            mc_id = info[2]
            mc_node = info[3]
            if keep:
                t_mc, mc_links = m.travel(
                    home, mc_node, t_data, REQ_BYTES, commit, stamps=True
                )
            else:
                t_mc = m.travel_time(home, mc_node, t_data, REQ_BYTES, commit)
                mc_links = ()
            mc = m.mcs[mc_id]
            if commit:
                t_mem = mc.access(addr, t_mc)
            else:
                t_mem = t_mc + mc.queue_delay_estimate(addr, t_mc) + \
                    mc.service_time("miss")
            if journey is not None:
                journey.mc = (mc_id, t_mc)
                journey.bank = (mc_id, info[4], t_mem)
            if keep:
                t_fill, fill_links = m.travel(
                    mc_node, home, t_mem, cfg.l2.line_bytes, commit,
                    stamps=True,
                )
            else:
                t_fill = m.travel_time(
                    mc_node, home, t_mem, cfg.l2.line_bytes, commit
                )
                fill_links = ()
            if commit:
                l2bank.fill(addr)
                m.pending_l2_fill[l2_line] = t_fill
            t_data = t_fill
            extra_links = mc_links + fill_links
        else:
            extra_links = ()

        if keep:
            t_done, resp_links = m.travel(
                home, core, t_data, cfg.l1.line_bytes, commit, stamps=True
            )
        else:
            t_done = m.travel_time(
                home, core, t_data, cfg.l1.line_bytes, commit
            )
            resp_links = ()
        if commit and allocate_l1:
            l1.fill(addr)
        if journey is not None:
            journey.links = req_links + extra_links + resp_links
            m.journeys[addr // cfg.l1.line_bytes] = journey
        return AccessPlan(t_done, False, l2_hit, home, journey)

    # ------------------------------------------------------------------
    def estimate(self, core: int, addr: int, now: int, l1_hit: bool) -> int:
        """Completion cycle of :meth:`access` with ``commit=False``.

        The pure-estimate walk with every commit-only branch (stats,
        journeys, cache mutation, pc bookkeeping) compiled out and the
        ``AccessPlan`` allocation skipped — the compute hot loop only
        ever reads ``.completion`` of its two operand estimates.  The
        caller supplies the L1 probe it already took.
        """
        m = self.m
        cfg = m.cfg
        l1_lat = cfg.l1.access_latency
        if l1_hit:
            return now + l1_lat
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        home = info[0]
        t_req = m.travel_time(core, home, now + l1_lat, REQ_BYTES, False)
        t_req = m.l2_port_start(home, t_req, False)
        l2_lat = cfg.l2.access_latency
        l2_line = info[1]
        dirty = m.dirty.get(l2_line)
        if dirty is not None and dirty[0] != core and dirty[1] > t_req:
            owner = dirty[0]
            t_fwd = m.travel_time(home, owner, t_req + l2_lat, REQ_BYTES,
                                  False)
            return m.travel_time(owner, core, t_fwd + l1_lat,
                                 cfg.l1.line_bytes, False)
        pending = m.pending_l2_fill.get(l2_line, 0)
        if pending > t_req:
            t_data = max(pending, t_req + l2_lat)
        else:
            t_data = t_req + l2_lat
            if not m.l2[home].probe(addr):
                mc_node = info[3]
                t_mc = m.travel_time(home, mc_node, t_data, REQ_BYTES, False)
                mc = m.mcs[info[2]]
                t_mem = t_mc + mc.queue_delay_estimate(addr, t_mc) + \
                    mc.service_time("miss")
                t_data = m.travel_time(mc_node, home, t_mem,
                                       cfg.l2.line_bytes, False)
        return m.travel_time(home, core, t_data, cfg.l1.line_bytes, False)

    # ------------------------------------------------------------------
    def store(self, core: int, addr: int, now: int) -> int:
        m = self.m
        cfg = m.cfg
        l1 = m.l1[core]
        hit = l1.probe(addr)
        l1.fill(addr)
        if hit:
            m.stats.l1_hits += 1
        else:
            m.stats.l1_misses += 1
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        l2_line = info[1]
        t_wb = now + m.writeback_lag(l2_line)
        m.dirty[l2_line] = (core, t_wb)
        m.pending_l2_fill[l2_line] = t_wb
        if m.keep_journeys:
            m.journeys[addr // cfg.l1.line_bytes] = Journey(
                t_issue=now, l2=(info[0], t_wb)
            )
        return now + cfg.l1.access_latency


class VectorizedCandidateBuilder(CandidateBuilder):
    """Candidate construction over the pre-passed address maps.

    Same trial order, same availability arithmetic; the duplicated
    pure queries of the base builder (the same-bank pair window
    computed once per candidate, the per-operand DRAM estimates) are
    computed once and shared — sound because the whole construction is
    purely observational (nothing is claimed between the queries).
    """

    def __init__(self, machine) -> None:
        super().__init__(machine)
        # _wait_cap is pure per (config, location): precompute the three
        # hardware wait ceilings once per simulation.
        self._caps = {
            loc: CandidateBuilder._wait_cap(self, loc)
            for loc in NdcLocation
        }
        #: unit key -> bound ``table.hol_clearance`` (units are
        #: per-machine singletons, so the bound method never goes stale)
        self._hol = {}
        cfg = machine.cfg
        #: response-flight cost per hop — pure in (config, payload)
        self._per_hop = (
            cfg.noc.router_latency + cfg.noc.link_latency
            + machine.network.serialization_cycles(cfg.l1.line_bytes) - 1
        )
        #: remaining-hops -> zero-load result-return latency (pure)
        self._zll = {}

    def _wait_cap(self, location) -> int:
        return self._caps[location]

    def _hol_fn(self, location, key):
        f = self._hol.get(key)
        if f is None:
            f = self.m.unit(location, key).table.hol_clearance
            self._hol[key] = f
        return f

    def build(
        self, core: int, op, now: int
    ) -> List[StationCandidate]:
        m = self.m
        x, y = op.addr, op.addr2
        amap = m.addr_info
        ix = amap.get(x)
        if ix is None:
            ix = m.addr_fact(x)
        iy = amap.get(y)
        if iy is None:
            iy = m.addr_fact(y)
        hx, hy = ix[0], iy[0]
        x_l2 = self._l2_status_at(x, now, hx, ix[1])
        y_l2 = self._l2_status_at(y, now, hy, iy[1])
        out: List[StationCandidate] = []
        out.extend(
            self._network_candidate_v(
                core, op, now, hx, hy, x_l2, y_l2, ix, iy
            )
        )
        out.append(self._l2_candidate(core, now, hx, hy, x_l2, y_l2))
        mc_cand, bank_cand = self._memory_candidates(core, op, now, x_l2, y_l2)
        out.append(mc_cand)
        out.append(bank_cand)
        return out

    def _l2_status_at(
        self, addr: int, now: int, home: int, l2_line: int
    ) -> Tuple[bool, int]:
        m = self.m
        if m.l2[home].probe(addr):
            return True, now
        pending = m.pending_l2_fill.get(l2_line, 0)
        if pending > now:
            return True, pending
        if pending > 0:
            return True, now
        return False, NEVER

    def _network_candidate_v(
        self,
        core: int,
        op,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
        ix,
        iy,
    ) -> List[StationCandidate]:
        """Base :meth:`_network_candidate` over the pre-passed maps.

        Same trial logic and the same arithmetic on the same inputs —
        the response sources and link ids come from the address map and
        the flat all-pairs rows instead of the closed-form mesh walk,
        and the pure per-config constants (per-hop cost, zero-load
        return latency) are computed once instead of per compute.
        """
        m = self.m
        cfg = m.cfg
        src_x = hx if x_l2[0] else ix[3]
        src_y = hy if y_l2[0] else iy[3]
        if src_x == src_y or src_x == core or src_y == core:
            return []
        lids_x = None
        if op.route_hint is not None and x_l2[0] and y_l2[0]:
            try:
                route_x = self._signature_from_nodes(op.route_hint.x_nodes)
                route_y = self._signature_from_nodes(op.route_hint.y_nodes)
            except ValueError:
                route_x = m.route(src_x, core)
                route_y = m.route(src_y, core)
                lids_x = m._lids[src_x * m._nn + core]
        else:
            route_x = m.route(src_x, core)
            route_y = m.route(src_y, core)
            lids_x = m._lids[src_x * m._nn + core]
        common = route_x.mask & route_y.mask
        if not common:
            return []
        if lids_x is None:
            link = m.mesh.link
            lids_x = tuple(
                link(a, b).link_id
                for a, b in zip(route_x.nodes, route_x.nodes[1:])
            )
        dep_x = self._response_departure(core, op.addr, now, x_l2)
        dep_y = self._response_departure(core, op.addr2, now, y_l2)
        per_hop = self._per_hop
        meet_window = cfg.noc.meet_window
        nodes_x = route_x.nodes
        nodes_y = route_y.nodes
        best: Optional[Tuple[int, int, int, int, int]] = None
        best_meet: Optional[Tuple[int, int, int, int, int]] = None
        for idx, link_id in enumerate(lids_x):
            if not common & (1 << link_id):
                continue
            tx = dep_x + per_hop * (idx + 1)
            try:
                j = nodes_y.index(nodes_x[idx])
            except ValueError:
                continue
            ty = dep_y + per_hop * (j + 1)
            dt = abs(tx - ty)
            remaining = len(nodes_x) - (idx + 2)
            entry = (dt, link_id, tx, ty, remaining)
            if best is None or dt < best[0]:
                best = entry
            if dt <= meet_window and (
                best_meet is None or remaining > best_meet[4]
            ):
                best_meet = entry
        if best is None:
            return []
        aligned = op.kind == OpKind.PRE_COMPUTE and bool(
            op.mask & NdcComponentMask.NETWORK
        )
        span = (meet_window * 3) // 2 if aligned else meet_window * 2
        jitter = m.hash32(op.addr ^ (op.addr2 >> 3)) % max(1, span)
        if aligned:
            chosen = max(
                (best_meet, best), key=lambda e: -1 if e is None else e[4]
            )
            gap = jitter
        else:
            chosen = best_meet if best_meet is not None else best
            gap = chosen[0] + jitter
        _, link_id, tx, ty, remaining_hops = chosen
        t_meet = max(tx, ty) if aligned else min(tx, ty)
        if gap > meet_window:
            if not aligned:
                return []
            avail_x, avail_y = t_meet, NEVER
        else:
            avail_x, avail_y = t_meet, t_meet + gap
        best_d_res = self._zll.get(remaining_hops)
        if best_d_res is None:
            best_d_res = m.network.zero_load_latency(
                remaining_hops, WORD_BYTES
            )
            self._zll[remaining_hops] = best_d_res
        best_node = nodes_x[len(nodes_x) - 1 - remaining_hops]
        pkg_arrival = m.travel_time(
            core, best_node, now + cfg.ndc.package_overhead, PKG_BYTES,
            False,
        )
        if aligned:
            pkg_arrival = max(pkg_arrival, t_meet)
        key = ("link", link_id)
        return [
            StationCandidate(
                NdcLocation.NETWORK,
                best_node,
                key,
                avail_x,
                avail_y,
                pkg_arrival,
                best_d_res + cfg.ndc.result_forward_overhead,
                hol=self._hol_fn(NdcLocation.NETWORK, key)(now),
                wait_cap=self._caps[NdcLocation.NETWORK],
            )
        ]

    def _response_departure(
        self, core: int, addr: int, now: int, l2_status: Tuple[bool, int]
    ) -> int:
        m = self.m
        cfg = m.cfg
        info = m.addr_info.get(addr)
        if info is None:
            info = m.addr_fact(addr)
        req = m.travel_time(
            core, info[0], now + cfg.l1.access_latency, REQ_BYTES,
            commit=False,
        )
        resident, avail_from = l2_status
        if resident:
            return max(req, avail_from) + cfg.l2.access_latency
        mc = m.mcs[info[2]]
        t_mc = m.travel_time(
            info[0], info[3], req + cfg.l2.access_latency, REQ_BYTES,
            commit=False,
        )
        t_mem = t_mc + mc.queue_delay_estimate(addr, t_mc) + \
            mc.service_time("miss")
        return m.travel_time(
            info[3], info[0], t_mem, cfg.l2.line_bytes, commit=False
        )

    def _l2_candidate(
        self,
        core: int,
        now: int,
        hx: int,
        hy: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> StationCandidate:
        m = self.m
        cfg = m.cfg
        node = hx
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=False,
        )
        avail_x = max(pkg_arrival, x_l2[1]) if x_l2[0] else NEVER
        if hy == hx and y_l2[0]:
            avail_y = max(pkg_arrival, y_l2[1])
        else:
            avail_y = NEVER
        t_res0 = max(pkg_arrival, avail_x if avail_x < NEVER else pkg_arrival)
        t_res1 = m.travel_time(node, core, t_res0, WORD_BYTES, commit=False)
        d_res = (t_res1 - t_res0) + cfg.ndc.result_forward_overhead
        key = ("l2", node)
        return StationCandidate(
            NdcLocation.CACHE, node, key, avail_x, avail_y,
            pkg_arrival, d_res, extra_latency=cfg.l2.access_latency,
            hol=self._hol_fn(NdcLocation.CACHE, key)(now),
            wait_cap=self._caps[NdcLocation.CACHE],
        )

    def _memory_candidates(
        self,
        core: int,
        op,
        now: int,
        x_l2: Tuple[bool, int],
        y_l2: Tuple[bool, int],
    ) -> Tuple[StationCandidate, StationCandidate]:
        m = self.m
        cfg = m.cfg
        x, y = op.addr, op.addr2
        amap = m.addr_info
        ix = amap.get(x)
        if ix is None:
            ix = m.addr_fact(x)
        iy = amap.get(y)
        if iy is None:
            iy = m.addr_fact(y)
        mcx, mcy = ix[2], iy[2]
        bx, by = ix[4], iy[4]
        node = ix[3]
        pkg_arrival = m.travel_time(
            core, node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=False,
        )
        t_res1 = m.travel_time(
            node, core, pkg_arrival, WORD_BYTES, commit=False
        )
        d_res = (t_res1 - pkg_arrival) + cfg.ndc.result_forward_overhead
        mc = m.mcs[mcx]

        x_in_mem = not x_l2[0]
        y_in_mem = not y_l2[0]
        same_bank_pair = x_in_mem and y_in_mem and mcx == mcy and bx == by
        bus = cfg.memory.dram.bus_cycles

        if same_bank_pair:
            bank = mc.banks[bx]
            row_x, row_y = ix[5], iy[5]
            svc_x = mc.service_time(bank.outcome(row_x))
            svc_y = mc.service_time("hit" if row_y == row_x else "conflict")
            span = svc_x + svc_y
            queue = bank.timeline.earliest_free(pkg_arrival, span) - \
                pkg_arrival
            first, second = queue + svc_x, queue + span
            avail_x = pkg_arrival + first + bus
            avail_y = pkg_arrival + second + bus
            b_avail_x = pkg_arrival + first
            b_avail_y = pkg_arrival + second
        else:
            if x_in_mem:
                bank = mc.banks[bx]
                svc = mc.service_time(bank.outcome(ix[5]))
                queue = bank.timeline.earliest_free(pkg_arrival, svc) - \
                    pkg_arrival
                avail_x = pkg_arrival + queue + svc + bus
                b_avail_x = pkg_arrival + queue + svc
            else:
                avail_x = NEVER
                b_avail_x = NEVER
            if y_in_mem and mcy == mcx:
                bank_y = mc.banks[by]
                svc_y1 = mc.service_time(bank_y.outcome(iy[5]))
                queue_y = bank_y.timeline.earliest_free(
                    pkg_arrival, svc_y1
                ) - pkg_arrival
                avail_y = pkg_arrival + queue_y + svc_y1 + bus
            else:
                avail_y = NEVER
            b_avail_y = NEVER

        key_mc = ("mc", mcx)
        mc_cand = StationCandidate(
            NdcLocation.MEMCTRL, node, key_mc, avail_x, avail_y,
            pkg_arrival, d_res,
            hol=self._hol_fn(NdcLocation.MEMCTRL, key_mc)(now),
            wait_cap=self._caps[NdcLocation.MEMCTRL],
        )
        key_mem = ("mem", mcx, bx)
        bank_cand = StationCandidate(
            NdcLocation.MEMORY, node, key_mem, b_avail_x,
            b_avail_y, pkg_arrival, d_res,
            hol=self._hol_fn(NdcLocation.MEMORY, key_mem)(now),
            wait_cap=self._caps[NdcLocation.MEMORY],
        )
        return mc_cand, bank_cand


class VectorizedNdcExecutor(NdcExecutor):
    """Offload execution over the pre-passed address maps.

    Identical transition logic and identical order of stateful calls;
    the candidate's derived properties (``ready``/``first_avail``/
    ``window``) are flattened to locals, the L2-home lookups of the
    residency bookkeeping come from the address map, and the result
    Journey is only materialized when a window profiler will read it
    (the journeys dict feeds the Section 4 profiler exclusively).
    """

    def exec_ndc(
        self,
        core: int,
        op,
        now: int,
        decision,
        conv_completion: int,
    ) -> int:
        m = self.m
        cfg = m.cfg
        bus = m.bus
        cand = decision.station
        unit = m.unit(cand.location, cand.unit_key)
        pkg_id = m.new_package_id()
        location = cand.location
        avail_x = cand.avail_x
        avail_y = cand.avail_y

        observed = (
            NEVER if avail_x >= NEVER or avail_y >= NEVER
            else abs(avail_x - avail_y)
        )
        self.scheme.observe_window(
            op.pc, 501 if observed >= NEVER else min(observed, 501)
        )

        access = self.access.access
        stats_ndc = m.stats.ndc
        if not unit.can_execute(op.op):
            self._bounce(core, op, cand, now, "op_restricted")
            stats_ndc.conventional += 1
            return self.access.conventional(core, op, now)

        limit = unit.effective_limit(decision.wait_limit)
        limit = min(limit, cfg.ndc.max_wait_cycles)
        if location == NdcLocation.NETWORK:
            limit = min(limit, cfg.noc.meet_window)

        table = m.offload_tables[core]
        pkg_arrival = cand.pkg_arrival
        d_result = cand.d_result
        expect_back = max(pkg_arrival, now) + limit + d_result
        if not table.issue(pkg_id, now, expect_back):
            self._bounce(core, op, cand, now, "offload_table_full")
            stats_ndc.aborted_table_full += 1
            stats_ndc.conventional += 1
            return self.access.conventional(core, op, now)

        if bus is not None:
            bus.emit(OffloadIssued(
                cycle=now, core=core, pc=op.pc,
                location=location.name.lower(),
                node=cand.node, wait_limit=limit,
            ))

        pkg_arrive = m.travel_time(
            core, cand.node, now + cfg.ndc.package_overhead, PKG_BYTES,
            commit=True,
        )
        if pkg_arrive < pkg_arrival:
            pkg_arrive = pkg_arrival

        amap = m.addr_info
        if location == NdcLocation.CACHE:
            ix = amap.get(op.addr)
            if ix is None:
                ix = m.addr_fact(op.addr)
            iy = amap.get(op.addr2)
            if iy is None:
                iy = m.addr_fact(op.addr2)
            provably_never = ix[0] != cand.node or iy[0] != cand.node
        elif location == NdcLocation.MEMCTRL or \
                location == NdcLocation.MEMORY:
            provably_never = avail_x >= NEVER or avail_y >= NEVER
        else:
            provably_never = False
        if decision.respect_residency_check and provably_never:
            self._bounce(core, op, cand, pkg_arrive, "residency_check")
            stats_ndc.aborted_timeout += 1
            stats_ndc.conventional += 1
            t_check = pkg_arrive + cfg.memory.dram.bus_cycles
            px = access(core, op.addr, t_check, commit=True)
            py = access(core, op.addr2, t_check, commit=True)
            c = py.completion
            px = px.completion
            return (px if px > c else c) + 1

        first_avail = avail_x if avail_x < avail_y else avail_y
        if first_avail >= NEVER or first_avail > pkg_arrive + limit:
            abort = unit.park_until_timeout(pkg_arrive, limit)
            if abort is None:
                self._bounce(core, op, cand, pkg_arrive,
                             "service_table_full")
                stats_ndc.aborted_table_full += 1
                abort = pkg_arrive
            else:
                if bus is not None:
                    loc_name = location.name.lower()
                    bus.emit(OffloadParked(
                        cycle=pkg_arrive, core=core, pc=op.pc,
                        location=loc_name, node=cand.node,
                        wait_needed=limit,
                    ))
                    bus.emit(OffloadTimedOut(
                        cycle=abort, core=core, pc=op.pc,
                        location=loc_name, node=cand.node,
                        waited=abort - pkg_arrive,
                    ))
                stats_ndc.aborted_timeout += 1
            stats_ndc.conventional += 1
            px = access(core, op.addr, abort, commit=True)
            py = access(core, op.addr2, abort, commit=True)
            c = py.completion
            px = px.completion
            return (px if px > c else c) + 1

        t_first = pkg_arrive if pkg_arrive > first_avail else first_avail
        ready = avail_x if avail_x > avail_y else avail_y
        if ready < NEVER:
            wait_needed = ready - t_first
            if wait_needed < 0:
                wait_needed = 0
        else:
            wait_needed = NEVER

        if ready < NEVER and (
            location == NdcLocation.MEMCTRL
            or location == NdcLocation.MEMORY
        ):
            info = amap.get(op.addr)
            if info is None:
                info = m.addr_fact(op.addr)
            mc = m.mcs[info[2]]
            tx, ty = mc.access_pair(op.addr, op.addr2, pkg_arrive)
            if location == NdcLocation.MEMCTRL:
                bus_cycles = cfg.memory.dram.bus_cycles
                tx += bus_cycles
                ty += bus_cycles
            first = tx if tx < ty else ty
            last = tx if tx > ty else ty
            t_first = pkg_arrive if pkg_arrive > first else first
            wait_needed = last - t_first
            if wait_needed < 0:
                wait_needed = 0

        if ready < NEVER and wait_needed <= limit:
            res = unit.try_compute(t_first, wait_needed)
            if res is None:
                self._bounce(core, op, cand, t_first, "service_table_full")
                stats_ndc.aborted_table_full += 1
                stats_ndc.conventional += 1
                px = access(core, op.addr, pkg_arrive, commit=True)
                py = access(core, op.addr2, pkg_arrive, commit=True)
                c = py.completion
                px = px.completion
                return (px if px > c else c) + 1
            start, done = res
            m.stats.wait_cycles += wait_needed
            stats_ndc.performed[location] += 1
            m.stats.opportunities_exercised += 1
            t_result = done + cand.extra_latency
            res_arrive = m.travel_time(
                cand.node, core, t_result, WORD_BYTES, commit=True
            )
            t_back = t_result + d_result
            completion = res_arrive if res_arrive > t_back else t_back
            self.commit_side_effects(core, op, cand, done)
            if bus is not None:
                bus.emit(OffloadCompleted(
                    cycle=completion, core=core, pc=op.pc,
                    location=location.name.lower(), node=cand.node,
                    waited=wait_needed,
                ))
            if m.collect_window_series and observed < NEVER:
                m.stats.window_series.setdefault(op.pc, []).append(observed)
            floor = now + 1
            return completion if completion > floor else floor

        abort = unit.park_until_timeout(t_first, limit)
        if abort is None:
            self._bounce(core, op, cand, t_first, "service_table_full")
            stats_ndc.aborted_table_full += 1
            abort = pkg_arrive
        else:
            if bus is not None:
                loc_name = location.name.lower()
                bus.emit(OffloadParked(
                    cycle=t_first, core=core, pc=op.pc,
                    location=loc_name, node=cand.node,
                    wait_needed=min(wait_needed, NEVER),
                ))
                bus.emit(OffloadTimedOut(
                    cycle=abort, core=core, pc=op.pc,
                    location=loc_name, node=cand.node,
                    waited=abort - t_first,
                ))
            stats_ndc.aborted_timeout += 1
        stats_ndc.conventional += 1
        if location == NdcLocation.NETWORK:
            abort = now
        px = access(core, op.addr, abort, commit=True)
        py = access(core, op.addr2, abort, commit=True)
        c = py.completion
        px = px.completion
        return (px if px > c else c) + 1

    def commit_side_effects(
        self, core: int, op, cand: StationCandidate, t_compute: int
    ) -> None:
        m = self.m
        cfg = m.cfg
        x, y = op.addr, op.addr2
        if cand.location == NdcLocation.CACHE:
            m.l2[cand.node].access(x)
            m.l2[cand.node].access(y)
        elif cand.location == NdcLocation.NETWORK:
            for addr in (x, y):
                info = m.addr_info.get(addr)
                if info is None:
                    info = m.addr_fact(addr)
                home = info[0]
                if home != cand.node:
                    m.travel_time(
                        home, cand.node, t_compute - 1,
                        cfg.l1.line_bytes, commit=True,
                    )
                if not m.l2[home].probe(addr):
                    m.l2[home].fill(addr)
        if op.dest is not None:
            dest = op.dest
            info = m.addr_info.get(dest)
            if info is None:
                info = m.addr_fact(dest)
            home = info[0]
            m.l2[home].fill(dest)
            l2_line = info[1]
            m.dirty.pop(l2_line, None)
            m.pending_l2_fill.pop(l2_line, None)
            if m.keep_journeys:
                m.journeys[m.l1_line(dest)] = Journey(
                    t_issue=t_compute, l2=(home, t_compute)
                )


class VectorizedSimulator(SystemSimulator):
    """The fast engine: :class:`SystemSimulator` over the fused layers.

    Same constructor and results as the reference engine; callers pick
    it by name through :func:`repro.arch.engine_class`.
    """

    machine_class = VectorizedMachineState
    access_class = VectorizedAccessPath
    candidates_class = VectorizedCandidateBuilder
    executor_class = VectorizedNdcExecutor

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.machine.keep_journeys = self.profile_windows
        self._scheme_is_nondc = isinstance(self.scheme, NoNdc)

    # ------------------------------------------------------------------
    def _exec_compute(self, core: int, op, now: int) -> int:
        m = self.machine
        # The estimate/candidate phase is purely observational (nothing
        # is claimed until the decision executes), so reserve-phase
        # travel queries repeated with identical arguments inside this
        # one compute are memoized; the memo dies before any commit.
        m._pure_memo = {}
        try:
            m.stats.computes += 1
            l1 = m.l1[core]
            l1_hit_x = l1.probe(op.addr)
            l1_hit_y = l1.probe(op.addr2)

            ap = self.access_path
            est_x = ap.estimate(core, op.addr, now, l1_hit_x)
            est_y = ap.estimate(core, op.addr2, now, l1_hit_y)
            conv_completion = (est_x if est_x >= est_y else est_y) + 1

            candidates = self.candidate_builder.build(core, op, now)
            if self.profile_windows:
                self.profiler.record(
                    op, conv_completion - now, now, candidates
                )
        finally:
            m._pure_memo = None

        if (l1_hit_x or l1_hit_y) and not self._scheme_is_nondc:
            m.stats.ndc.skipped_local_hit += 1
            m.stats.ndc.conventional += 1
            return self._exec_conventional(core, op, now)

        ctx = ComputeContext(
            op=op,
            core=core,
            now=now,
            conv_completion=conv_completion,
            candidates=candidates,
            l1_hit_x=l1_hit_x,
            l1_hit_y=l1_hit_y,
        )
        if any(c.ready < NEVER for c in candidates):
            m.stats.opportunities_seen += 1
        decision = self.scheme.decide(ctx)

        if decision.offload and decision.station is not None:
            completion = self.ndc_executor.exec_ndc(
                core, op, now, decision, conv_completion
            )
        else:
            reason = decision.skip_reason
            if reason == "local_hit":
                m.stats.ndc.skipped_local_hit += 1
            elif reason == "policy":
                m.stats.ndc.skipped_policy += 1
            elif reason == "no_station":
                m.stats.ndc.skipped_no_station += 1
            m.stats.ndc.conventional += 1
            completion = self._exec_conventional(core, op, now)
        return completion

    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> SimulationResult:
        m = self.machine
        if len(trace) > m.mesh.num_nodes:
            raise ValueError(
                f"trace has {len(trace)} streams but the mesh has only "
                f"{m.mesh.num_nodes} nodes"
            )
        pre = prepass_for(trace, self.cfg, m.mesh)
        m.attach_prepass(pre)
        windows = pre.windows

        self.scheme.reset()
        clocks = [0] * len(trace)
        cursors = [0] * len(trace)
        heap = [(0, core) for core, s in enumerate(trace) if s]
        heapq.heapify(heap)

        stats = m.stats
        access = self.access_path.access
        store = self.access_path.store
        exec_compute = self._exec_compute
        heappush = heapq.heappush
        heappop = heapq.heappop
        LOAD = OpKind.LOAD
        STORE = OpKind.STORE
        WORK = OpKind.WORK

        # Watermark trimming of the link interval lists.  Heap pop
        # times are non-decreasing and every timeline query an op issues
        # carries a time argument >= its pop time, so an interval whose
        # end is <= the current pop time can never be walked again
        # (earliest_free/reserve bisect past it) nor merged with (a
        # merge needs end == start >= now).  Dropping such dead head
        # intervals changes only the list structure — grant times,
        # stall/busy counters, and the tail (`free_at`) are untouched —
        # while keeping the per-query walks short on long replays.
        net = m.network
        trim_lists = list(zip(net._lstarts, net._lends))
        trim_bisect = bisect_right
        pops = 0

        while heap:
            now, core = heappop(heap)
            pops += 1
            if pops >= 256:
                pops = 0
                for t_starts, t_ends in trim_lists:
                    if t_ends and t_ends[0] <= now:
                        k = trim_bisect(t_ends, now)
                        del t_starts[:k]
                        del t_ends[:k]
            stream = trace[core]
            wmap = windows[core]
            n = len(stream)
            i = cursors[core]
            if i >= n:
                continue
            while True:
                run = wmap.get(i)
                if run is not None:
                    # Contention-free window: resolved in one pre-summed
                    # step (no shared timeline is touched by any op in it).
                    j, total = run
                    stats.instructions += j - i
                    completion = now + total
                    i = j
                else:
                    op = stream[i]
                    i += 1
                    stats.instructions += 1
                    kind = op.kind
                    if kind == LOAD:
                        completion = access(
                            core, op.addr, now, True, pc=op.pc
                        ).completion
                    elif kind == STORE:
                        completion = store(core, op.addr, now)
                    elif kind == WORK:
                        completion = now + op.cost
                    else:
                        completion = exec_compute(core, op, now)
                if i >= n:
                    cursors[core] = i
                    clocks[core] = completion
                    break
                # Run extension: when this core's next event would be
                # popped next anyway (heap order, ties on core id), skip
                # the push/pop round trip — exactly heapq's pop order.
                if not heap or (completion, core) <= heap[0]:
                    now = completion
                    continue
                cursors[core] = i
                clocks[core] = completion
                heappush(heap, (completion, core))
                break

        stats.per_core_cycles = clocks
        stats.total_cycles = max(clocks) if clocks else 0
        stats.resource_util = m.resource_utilization()
        return SimulationResult(
            self.scheme.name,
            stats,
            self.cfg,
            dict(m.pc_stats) if self.collect_pc_stats else None,
        )
