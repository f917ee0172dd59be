"""Shared machine state for the layered simulation engine.

:class:`MachineState` owns every piece of modeled hardware — caches,
NoC, memory controllers, NDC units, L2 bank-port timelines — plus the
cross-layer bookkeeping (journeys, the delayed-writeback directory,
pending L2 fills, statistics, the event bus).  The access-path,
candidate-construction, and NDC-execution layers (:mod:`~repro.arch
.access`, :mod:`~repro.arch.candidates`, :mod:`~repro.arch.ndc_exec`)
all operate on one shared instance; the
:class:`~repro.arch.simulator.SystemSimulator` orchestrates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.cache import SetAssociativeCache
from repro.arch.engine import ReferenceCapacityTimeline, ResourceTimeline
from repro.arch.events import EventBus, L2PortStall
from repro.arch.memory import MemoryController
from repro.arch.ndc_units import NdcUnit, OffloadTable
from repro.arch.noc import Network
from repro.arch.routing import RouteSignature, xy_route
from repro.arch.stats import SimStats
from repro.arch.topology import Mesh, mesh_for
from repro.config import ArchConfig, NdcLocation

#: payload sizes in bytes
REQ_BYTES = 8        # a read request / address
WORD_BYTES = 8       # an NDC result
PKG_BYTES = 16       # an NDC compute package (two addresses + op)


@dataclass(slots=True)
class Journey:
    """Station timestamps of a line's most recent trip through the system."""

    t_issue: int = 0
    links: Tuple[Tuple[int, int], ...] = ()   #: (link_id, cycle) pairs
    l2: Optional[Tuple[int, int]] = None      #: (home node, arrival cycle)
    mc: Optional[Tuple[int, int]] = None      #: (controller, arrival cycle)
    bank: Optional[Tuple[int, int, int]] = None  #: (controller, bank, cycle)


class MachineState:
    """All modeled hardware plus cross-layer bookkeeping.

    This is the reference engine's machine: every route is recomputed
    closed-form and the NDC tables rescan their live entries.  The fast
    engine's subclass (:class:`repro.arch.vectorized
    .VectorizedMachineState`) swaps in its own implementations through
    the class-attribute hooks below and its method overrides.
    """

    #: Network implementation (the fast engine swaps in fused transit).
    network_class = Network
    #: Capacity-timeline implementation of the NDC service and offload
    #: tables (the fast engine swaps in the heap-backed one).
    capacity_class = ReferenceCapacityTimeline

    def __init__(
        self,
        cfg: ArchConfig,
        bus: Optional[EventBus] = None,
        collect_pc_stats: bool = False,
        collect_window_series: bool = False,
    ):
        self.cfg = cfg
        self.bus = bus
        self.collect_pc_stats = collect_pc_stats
        self.collect_window_series = collect_window_series
        self.mesh: Mesh = mesh_for(cfg.noc.width, cfg.noc.height)
        self.network = self.network_class(self.mesh, cfg.noc, bus=bus)
        self.l1 = [
            SetAssociativeCache(cfg.l1, f"L1[{n}]")
            for n in range(self.mesh.num_nodes)
        ]
        self.l2 = [
            SetAssociativeCache(cfg.l2, f"L2[{n}]")
            for n in range(self.mesh.num_nodes)
        ]
        #: one lookup port per L2 bank: concurrent requests serialize
        self.l2_ports = [
            ResourceTimeline(f"l2port:{n}")
            for n in range(self.mesh.num_nodes)
        ]
        self.mcs = [
            MemoryController(cfg, m, bus=bus)
            for m in range(cfg.memory.num_controllers)
        ]
        self.ndc_units: Dict[tuple, NdcUnit] = {}
        self.offload_tables = [
            OffloadTable(cfg.ndc.offload_table_entries, self.capacity_class)
            for _ in range(self.mesh.num_nodes)
        ]
        self.journeys: Dict[int, Journey] = {}
        self.pending_l2_fill: Dict[int, int] = {}  # l2 line -> fill cycle
        #: delayed-writeback directory: l2 line -> (owner core, wb cycle)
        self.dirty: Dict[int, Tuple[int, int]] = {}
        self.stats = SimStats()
        #: pc -> [l1 hits, l1 misses, l2 hits, l2 misses] (ground truth
        #: for the Table 2 CME-accuracy comparison)
        self.pc_stats: Dict[int, List[int]] = {}
        self.next_package_id = 0

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> RouteSignature:
        return xy_route(self.mesh, src, dst)

    def unit(self, location: NdcLocation, key: tuple) -> NdcUnit:
        full_key = (location, key)
        u = self.ndc_units.get(full_key)
        if u is None:
            u = NdcUnit(location, key, self.cfg.ndc, self.capacity_class)
            self.ndc_units[full_key] = u
        return u

    def new_package_id(self) -> int:
        pkg = self.next_package_id
        self.next_package_id += 1
        return pkg

    def l1_line(self, addr: int) -> int:
        return addr // self.cfg.l1.line_bytes

    @staticmethod
    def hash32(v: int) -> int:
        h = (v * 2654435761) & 0xFFFFFFFF
        h ^= h >> 15
        h = (h * 2246822519) & 0xFFFFFFFF
        return h ^ (h >> 13)

    def writeback_lag(self, l2_line: int) -> int:
        cfg = self.cfg
        spread = max(1, cfg.writeback_lag_spread)
        return cfg.writeback_lag_base + self.hash32(l2_line) % spread

    def travel(
        self,
        src: int,
        dst: int,
        start: int,
        payload: int,
        commit: bool,
        stamps: bool = True,
    ) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """Move a payload ``src -> dst``; returns (arrival, link stamps).

        ``stamps=False`` skips the per-link stamp construction (the
        tuple is returned empty) — callers that only need the arrival
        cycle should pass it (or call :meth:`travel_time` directly).
        """
        if not stamps:
            return self.travel_time(src, dst, start, payload, commit), ()
        if src == dst:
            return start, ()
        # Estimates see current link occupancy too (commit=False runs
        # the reserve phase only), so scheme decisions price congestion.
        route = xy_route(self.mesh, src, dst)
        times = self.network.traverse(
            route, start, payload, commit=commit
        ).node_times
        links = tuple(
            (self.mesh.link(a, b).link_id, t)
            for (a, b), t in zip(zip(route.nodes, route.nodes[1:]), times[1:])
        )
        return times[-1], links

    def travel_time(
        self, src: int, dst: int, start: int, payload: int, commit: bool
    ) -> int:
        """Arrival-only :meth:`travel` for call sites that discard the
        link stamps (reserve-phase estimates, package flights, result
        returns).  Identical timing, contention, statistics, and event
        emission to :meth:`travel` — the fast engine overrides it with
        a fused, allocation-free walk the differential harness pins."""
        if src == dst:
            return start
        return self.network.traverse(
            xy_route(self.mesh, src, dst), start, payload, commit=commit
        ).completion

    def l2_port_start(self, node: int, t: int, commit: bool) -> int:
        """When the L2 bank at ``node`` can start a lookup requested at
        ``t`` (one lookup port; reserve phase only unless committing)."""
        port = self.l2_ports[node]
        if commit:
            start = port.reserve(t, 1)
            if start > t and self.bus is not None:
                self.bus.emit(L2PortStall(cycle=t, node=node, stall=start - t))
            return start
        return port.earliest_free(t, 1)

    def record_pc(
        self, pc: int, l1_hit: bool, l2_hit: Optional[bool] = None
    ) -> None:
        if not self.collect_pc_stats or pc < 0:
            return
        rec = self.pc_stats.get(pc)
        if rec is None:
            rec = [0, 0, 0, 0]
            self.pc_stats[pc] = rec
        rec[0 if l1_hit else 1] += 1
        if l2_hit is not None:
            rec[2 if l2_hit else 3] += 1

    # ------------------------------------------------------------------
    # per-resource utilization (the --stats summary)
    # ------------------------------------------------------------------
    def resource_utilization(self) -> Dict[str, Tuple[int, int, int]]:
        """``name -> (reservations, busy cycles, stall cycles)`` for every
        resource timeline that saw traffic during the run."""
        out: Dict[str, Tuple[int, int, int]] = {}
        timelines: List[ResourceTimeline] = []
        timelines.extend(self.network.timelines())
        for mc in self.mcs:
            timelines.extend(mc.timelines())
        timelines.extend(self.l2_ports)
        for tl in timelines:
            if tl.reservations:
                out[tl.name] = tl.utilization()
        # DRAM row-buffer behaviour per controller, in the same map so
        # downstream consumers (the --stats summary, the bottleneck
        # characterization pass) need no second channel:
        # (requests, row hits, row conflicts).
        for mc in self.mcs:
            if mc.stats.requests:
                out[f"dramrow:{mc.controller_id}"] = (
                    mc.stats.requests,
                    mc.stats.row_hits,
                    mc.stats.row_conflicts,
                )
        for (loc, key), u in self.ndc_units.items():
            admitted, completed, rejected = u.utilization()
            if admitted or rejected:
                name = "ndc:" + ":".join(str(k) for k in key)
                out[name] = (admitted, completed, rejected)
        return dict(sorted(out.items()))
