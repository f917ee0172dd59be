"""Manycore architecture substrate.

Cycle-approximate models of the paper's target platform (Section 2 /
Table 1): a 2D-mesh NoC with per-link buffers, private L1 caches, a
static-NUCA shared L2, FR-FCFS memory controllers over banked row-buffer
DRAM, and the NDC-enabling hardware (ALUs with service tables and
time-out registers at link buffers, L2 controllers, memory controllers,
and memory banks).

Two engines implement that one timing model, and :data:`ENGINES` is the
only place that maps an engine *name* to a simulator class:

* ``"reference"`` — :class:`SystemSimulator`, the closed-form per-access
  implementation, kept frozen as the oracle of the differential harness;
* ``"optimized"`` and ``"vectorized"`` — two names for the fast engine,
  :class:`~repro.arch.vectorized.VectorizedSimulator`.  Both names stay
  because stored identities spell them: the default campaign id and
  every default sweep ``unit_id`` digest the string ``"optimized"``, and
  the repository benchmark selects ``"vectorized"``.

Engines are performance knobs only: both are pinned cycle-exact to each
other and the name never enters a result cache key.
"""

from repro.arch.topology import Mesh, NodeCoord
from repro.arch.routing import RouteSignature, xy_route, all_minimal_routes
from repro.arch.cache import SetAssociativeCache, CacheAccessResult
from repro.arch.engine import (
    CapacityTimeline,
    ReferenceCapacityTimeline,
    ResourceTimeline,
)
from repro.arch.events import EventBus, TraceWriter
from repro.arch.machine import MachineState
from repro.arch.memory import MemoryController, DramBankState
from repro.arch.noc import Network
from repro.arch.ndc_units import NdcUnit, ServiceTable, OffloadTable
from repro.arch.simulator import SystemSimulator, SimulationResult
from repro.arch.stats import SimStats, ArrivalRecord
from repro.arch.vectorized import VectorizedSimulator

OPTIMIZED = "optimized"
REFERENCE = "reference"
VECTORIZED = "vectorized"

#: engine name -> simulator class (see the module docstring)
ENGINES = {
    OPTIMIZED: VectorizedSimulator,
    REFERENCE: SystemSimulator,
    VECTORIZED: VectorizedSimulator,
}
ENGINE_PROFILES = tuple(ENGINES)


def engine_class(name: str = OPTIMIZED) -> type:
    """The simulator class behind engine ``name`` (default: fast)."""
    try:
        return ENGINES[name]
    except KeyError:
        valid = ", ".join(repr(p) for p in ENGINE_PROFILES)
        raise ValueError(
            f"unknown engine profile {name!r} (valid profiles: {valid})"
        ) from None

__all__ = [
    "Mesh",
    "NodeCoord",
    "RouteSignature",
    "xy_route",
    "all_minimal_routes",
    "SetAssociativeCache",
    "CacheAccessResult",
    "ENGINES",
    "ENGINE_PROFILES",
    "OPTIMIZED",
    "REFERENCE",
    "VECTORIZED",
    "engine_class",
    "CapacityTimeline",
    "ReferenceCapacityTimeline",
    "ResourceTimeline",
    "EventBus",
    "TraceWriter",
    "MachineState",
    "MemoryController",
    "DramBankState",
    "Network",
    "NdcUnit",
    "ServiceTable",
    "OffloadTable",
    "SystemSimulator",
    "VectorizedSimulator",
    "SimulationResult",
    "SimStats",
    "ArrivalRecord",
]
