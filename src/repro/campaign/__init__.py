"""Resumable sweep campaigns over the experiment runtime.

The campaign subsystem turns the paper's evaluation cross-product
(benchmarks × schemes × scales × meshes × engine profiles × tunables)
into managed, crash-resumable runs:

* :mod:`repro.campaign.spec` — :class:`SweepSpec` (declarative,
  JSON/TOML-loadable) expands into :class:`SweepUnit` work units whose
  :class:`~repro.runtime.keys.JobKey`\\ s are digest-identical to the
  interactive drivers' (one cache namespace, never forked);
* :mod:`repro.campaign.manifest` — the append-only ``manifest.jsonl``
  journal that survives ``SIGKILL`` and makes resume exact;
* :mod:`repro.campaign.queue` — the ``claims.sqlite`` lease-based
  claim table beside the journal, which lets any number of worker
  processes pull open units concurrently with exactly-once journaling
  and crash reconciliation;
* :mod:`repro.campaign.runner` — :class:`CampaignRunner` executes
  units through :class:`~repro.runtime.ParallelRunner` with chunking,
  per-unit failure isolation, and backoff retries, then materializes a
  deterministic ``summary.json`` / ``report.txt``;
* :mod:`repro.campaign.registry` — :class:`RunRegistry` lists,
  inspects, and garbage-collects campaign directories;
* :mod:`repro.campaign.transport` / :mod:`repro.campaign.remote` —
  the network claim backend: a stdlib HTTP claim server
  (``repro sweep serve``) fronting the SQLite queue, a retrying
  :class:`RemoteClaimQueue` client with idempotency tokens and result
  shipping, and a fault-injecting transport harness for the tests.

CLI surface: ``repro sweep run|resume|worker|serve|status|ls|report|gc``.
The stable programmatic surface is :func:`repro.api.sweep`.
"""

from repro.campaign.manifest import Manifest, ManifestState, UnitState
from repro.campaign.queue import (
    CLAIMS_NAME,
    ClaimQueue,
    ClaimedUnit,
    QueueCounts,
    QueueError,
)
from repro.campaign.remote import (
    ClaimBackend,
    ClaimServer,
    RemoteClaimQueue,
    RemoteProtocolError,
    RemoteUnavailable,
    ServerHandle,
)
from repro.campaign.registry import (
    CampaignInfo,
    RunRegistry,
    RUNS_DIR_ENV,
    default_runs_root,
)
from repro.campaign.runner import (
    CampaignError,
    CampaignResult,
    CampaignRunner,
    WorkerResult,
    write_or_verify_spec,
)
from repro.campaign.spec import (
    BASELINE_LABEL,
    DEFAULT_SCHEMES,
    SweepSpec,
    SweepUnit,
    effective_tunables,
    lineup_job_key,
    lineup_units,
    normalize_tunables,
)
from repro.campaign.transport import (
    FaultPlan,
    FaultyTransport,
    HttpTransport,
    LocalTransport,
    Transport,
    TransportError,
)

__all__ = [
    "BASELINE_LABEL",
    "CLAIMS_NAME",
    "CampaignError",
    "CampaignInfo",
    "CampaignResult",
    "CampaignRunner",
    "ClaimBackend",
    "ClaimQueue",
    "ClaimServer",
    "ClaimedUnit",
    "DEFAULT_SCHEMES",
    "FaultPlan",
    "FaultyTransport",
    "HttpTransport",
    "LocalTransport",
    "Manifest",
    "ManifestState",
    "QueueCounts",
    "QueueError",
    "RemoteClaimQueue",
    "RemoteProtocolError",
    "RemoteUnavailable",
    "RunRegistry",
    "RUNS_DIR_ENV",
    "ServerHandle",
    "SweepSpec",
    "SweepUnit",
    "Transport",
    "TransportError",
    "UnitState",
    "WorkerResult",
    "default_runs_root",
    "effective_tunables",
    "lineup_job_key",
    "lineup_units",
    "normalize_tunables",
    "write_or_verify_spec",
]
