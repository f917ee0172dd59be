"""Simulation statistics: arrival windows, breakeven points, NDC accounting.

The quantification experiments of Section 4 are all phrased over the
records collected here:

* :class:`ArrivalRecord` — for one (computation, station) pair, the gap
  in cycles between the two operands' arrivals at that station
  (``window``), whether they ever co-located (``met``), and the
  breakeven point (largest wait for which NDC at that station would
  still beat conventional execution).
* :class:`SimStats` — global counters plus per-location NDC breakdowns
  and cache miss rates (Figs. 6, 13, 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.config import NdcLocation

#: Sentinel window for "the second operand never arrives" (paper's 500+ bin).
NEVER = 10**9


@dataclass(frozen=True)
class ArrivalRecord:
    """Arrival-window observation for one computation at one station."""

    pc: int
    location: NdcLocation
    window: int          #: |t_arrive(x) - t_arrive(y)| at the station, or NEVER
    breakeven: int       #: max profitable wait (cycles); <=0 means never profitable
    met: bool            #: True if both operands were simultaneously present

    @property
    def within_breakeven(self) -> bool:
        return self.met and self.window <= max(0, self.breakeven)


@dataclass
class NdcEventCounts:
    """Where offloads ended up."""

    performed: Dict[NdcLocation, int] = field(
        default_factory=lambda: {loc: 0 for loc in NdcLocation}
    )
    aborted_timeout: int = 0      #: waited, gave up, fell back to the core
    aborted_table_full: int = 0   #: service/offload table structural bounce
    skipped_local_hit: int = 0    #: LD/ST local-probe found an operand in L1
    skipped_policy: int = 0       #: scheme chose conventional (e.g. reuse-aware)
    skipped_no_station: int = 0   #: no common station exists for the operands
    conventional: int = 0         #: computes executed on the core

    @property
    def total_performed(self) -> int:
        return sum(self.performed.values())

    def breakdown_percent(self) -> Dict[NdcLocation, float]:
        """Per-location share of performed NDC (Figs. 6 and 13)."""
        total = self.total_performed
        if total == 0:
            return {loc: 0.0 for loc in NdcLocation}
        return {loc: 100.0 * n / total for loc, n in self.performed.items()}


@dataclass
class SimStats:
    """Everything a simulation run reports."""

    total_cycles: int = 0
    per_core_cycles: List[int] = field(default_factory=list)
    instructions: int = 0
    computes: int = 0
    ndc: NdcEventCounts = field(default_factory=NdcEventCounts)
    arrival_records: List[ArrivalRecord] = field(default_factory=list)
    #: per-PC consecutive arrival-window series (Fig. 5); populated only
    #: when `collect_window_series` is enabled on the simulator.
    window_series: Dict[int, List[int]] = field(default_factory=dict)
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: ground-truth per-compute L1/L2 hit outcomes for Table 2 (CME
    #: accuracy): pc -> list of (l1_hit_x, l1_hit_y, l2_relevant...) kept
    #: compact as counts.
    wait_cycles: int = 0
    #: NDC opportunities seen vs exercised (Fig. 15)
    opportunities_seen: int = 0
    opportunities_exercised: int = 0
    #: per-resource utilization: name -> (reservations, busy cycles,
    #: stall cycles) — NDC units report (admitted, completed, rejected).
    #: Populated at the end of a run from every engine timeline that saw
    #: traffic; rendered by the CLI's ``--stats`` summary.
    resource_util: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)

    @property
    def l1_miss_rate(self) -> float:
        t = self.l1_hits + self.l1_misses
        return self.l1_misses / t if t else 0.0

    @property
    def l2_miss_rate(self) -> float:
        t = self.l2_hits + self.l2_misses
        return self.l2_misses / t if t else 0.0

    @property
    def ndc_fraction_of_computes(self) -> float:
        """Fraction of ALU computes executed near data (paper: ~32% for Alg. 1)."""
        return self.ndc.total_performed / self.computes if self.computes else 0.0

    def record_arrival(self, rec: ArrivalRecord) -> None:
        self.arrival_records.append(rec)

    def windows_for(self, loc: NdcLocation) -> List[int]:
        return [r.window for r in self.arrival_records if r.location == loc]

    def breakevens_for(self, loc: NdcLocation) -> List[int]:
        return [
            max(0, r.breakeven)
            for r in self.arrival_records
            if r.location == loc
        ]

    def check(self) -> None:
        """Raise ``ValueError`` naming every conservation law the
        counters break.

        Every compute runs either near data or on the core; every
        exercised opportunity is a performed offload; the run ends when
        its slowest core does; and each conventional compute has at
        most one recorded reason (abort or skip) for not offloading.
        """
        n = self.ndc
        performed = n.total_performed
        reasons = (n.aborted_timeout + n.aborted_table_full
                   + n.skipped_local_hit + n.skipped_policy
                   + n.skipped_no_station)
        broken = [
            law for law, holds in (
                ("computes == performed + conventional",
                 self.computes == performed + n.conventional),
                ("opportunities_exercised == performed",
                 self.opportunities_exercised == performed),
                ("total_cycles == max(per_core_cycles)",
                 self.total_cycles == max(self.per_core_cycles, default=0)),
                ("conventional >= aborted + skipped",
                 n.conventional >= reasons),
            ) if not holds
        ]
        if broken:
            raise ValueError(
                "SimStats breaks conservation: " + "; ".join(broken)
            )


def improvement_percent(base_cycles: int, opt_cycles: int) -> float:
    """Execution-time improvement in percent (negative = slowdown)."""
    if base_cycles <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (base_cycles - opt_cycles) / base_cycles
