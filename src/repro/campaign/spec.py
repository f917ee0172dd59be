"""Declarative sweep specifications (the campaign subsystem's input).

A :class:`SweepSpec` names a cross-product of evaluation axes —
benchmarks (explicit names and/or workload families) x schemes x
workload scales x mesh sizes x engine profiles x tunables overrides —
and :meth:`SweepSpec.expand` turns it into a flat,
deterministic list of :class:`SweepUnit` work units.  Every unit knows
how to derive its canonical :class:`~repro.runtime.keys.JobKey`, and it
derives it **exactly** the way
:class:`~repro.analysis.experiments.ExperimentRunner` does — the
campaign layer adds identity (``unit_id``) and bookkeeping *around* the
runtime's cache keys, never a parallel keying scheme, so a sweep and an
interactive driver always share cache entries
(``tests/test_campaign.py`` pins the digests as equal).

Specs load from JSON or TOML files (``SweepSpec.load``) and serialize
back losslessly (``to_json_dict``), so a campaign directory can always
reproduce the spec that created it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.arch import ENGINE_PROFILES, OPTIMIZED
from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.tunables import Tunables
from repro.workloads.suite import (
    ALL_BENCHMARK_NAMES,
    FAMILY_NAMES,
    resolve_benchmarks,
)

#: A tunables override as carried by a unit: sorted ``(field, value)``
#: pairs of the *diff* from the defaults.  ``None`` means "the shipped
#: per-scale calibration, if any" (exactly what every driver defaults
#: to); ``()`` means "explicitly the default Tunables".
TunablesDiff = Optional[Tuple[Tuple[str, object], ...]]

#: The headline Fig. 4 bars — the default scheme axis of a sweep.
DEFAULT_SCHEMES: Tuple[str, ...] = (
    "default", "oracle", "algorithm-1", "algorithm-2",
)

#: The baseline bar label (implicit in every sweep: improvements are
#: measured against it, so expansion always includes it per benchmark).
BASELINE_LABEL = "original"


def normalize_tunables(
    tunables: Union[None, Tunables, Mapping[str, object]],
) -> TunablesDiff:
    """Canonical diff form of a tunables override (see TunablesDiff)."""
    if tunables is None:
        return None
    if isinstance(tunables, Tunables):
        return tuple(sorted(tunables.diff().items()))
    # A mapping of field -> value: validate via the Tunables ctor.
    return tuple(sorted(Tunables().replace(**dict(tunables)).diff().items()))


def effective_tunables(
    diff: TunablesDiff, scale: float
) -> Optional[Tunables]:
    """Resolve a unit's tunables the way ``ExperimentRunner`` does.

    ``None`` -> the shipped per-scale calibration (or None); explicit
    values that equal the defaults normalize to ``None`` so job keys
    (and the persistent cache) cannot fork on a no-op calibration.
    """
    if diff is None:
        from repro.tuning import calibrated_tunables

        t = calibrated_tunables(scale)
    else:
        t = Tunables().replace(**dict(diff))
    if t is not None and t.is_default:
        t = None
    return t


def lineup_job_key(
    bench: str,
    label: str,
    scale: float,
    cfg: ArchConfig,
    tunables: Optional[Tunables] = None,
):
    """The canonical :class:`JobKey` for one lineup bar on one benchmark.

    ``tunables`` is the *effective* record (already calibrated-resolved
    and default-normalized — see :func:`effective_tunables`).  This must
    stay digest-identical to ``ExperimentRunner.job_key`` for the same
    parameters; the campaign layer never forks cache keys.
    """
    from repro.runtime import JobKey, config_digest
    from repro.schemes import build_scheme

    if label == BASELINE_LABEL:
        return JobKey(
            bench=bench, scale=scale, config_digest=config_digest(cfg)
        )
    entry = build_scheme(label, tunables)
    scheme = entry.build()
    return JobKey(
        bench=bench,
        variant=entry.variant,
        scheme_spec=scheme.spec(),
        label=scheme.name,
        scale=scale,
        config_digest=config_digest(cfg),
        tunables=None if entry.variant == BASELINE_LABEL else tunables,
    )


@dataclass(frozen=True)
class SweepUnit:
    """One addressable work unit of a campaign.

    ``unit_id`` is a stable content hash of the unit description, so a
    resumed campaign recognizes completed units across processes; the
    simulation itself is addressed by the unit's :meth:`job_key` (the
    runtime's cache digest), which deliberately ignores
    ``engine_profile`` — engines are pinned cycle-identical and share
    cache entries.
    """

    bench: str
    label: str = BASELINE_LABEL
    scale: float = 0.25
    mesh: Optional[Tuple[int, int]] = None
    engine_profile: str = OPTIMIZED
    tunables: TunablesDiff = None

    @cached_property
    def unit_id(self) -> str:
        from repro.runtime import digest_of

        desc = [
            "unit", self.bench, self.label, self.scale,
            list(self.mesh) if self.mesh else None,
            self.engine_profile,
            [list(kv) for kv in self.tunables]
            if self.tunables is not None else None,
        ]
        return digest_of(desc)[:16]

    @property
    def group_key(self) -> tuple:
        """Summary grouping: units compared against the same baseline."""
        return (self.scale, self.mesh, self.engine_profile, self.tunables)

    def config(self, base: ArchConfig = DEFAULT_CONFIG) -> ArchConfig:
        if self.mesh is None:
            return base
        return base.with_mesh(*self.mesh)

    def resolved_tunables(self) -> Optional[Tunables]:
        return effective_tunables(self.tunables, self.scale)

    def job_key(self, base: ArchConfig = DEFAULT_CONFIG):
        return lineup_job_key(
            self.bench, self.label, self.scale, self.config(base),
            self.resolved_tunables(),
        )

    def describe(self) -> str:
        parts = [self.bench, self.label, f"s{self.scale:g}"]
        if self.mesh is not None:
            parts.append(f"{self.mesh[0]}x{self.mesh[1]}")
        if self.engine_profile != OPTIMIZED:
            parts.append(self.engine_profile)
        if self.tunables:
            parts.append(
                "t:" + ",".join(f"{k}={v}" for k, v in self.tunables)
            )
        return "/".join(parts)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "bench": self.bench,
            "label": self.label,
            "scale": self.scale,
            "mesh": _mesh_str(self.mesh),
            "engine_profile": self.engine_profile,
            "tunables": dict(self.tunables)
            if self.tunables is not None else None,
        }


def _mesh_str(mesh: Optional[Tuple[int, int]]) -> Optional[str]:
    return None if mesh is None else f"{mesh[0]}x{mesh[1]}"


def _parse_mesh(value) -> Optional[Tuple[int, int]]:
    if value is None:
        return None
    if isinstance(value, str):
        try:
            w, h = (int(v) for v in value.lower().split("x"))
        except ValueError:
            raise ValueError(f"bad mesh {value!r} (expected e.g. '6x6')")
        return (w, h)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (int(value[0]), int(value[1]))
    raise ValueError(f"bad mesh {value!r} (expected 'WxH' or [W, H])")


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep campaign: the cross-product of the axes.

    The benchmark axis is ``benchmarks`` plus every member of the
    workload families listed in ``suites`` (see
    :func:`~repro.workloads.suite.resolve_benchmarks`).

    The expansion additionally includes one baseline (``"original"``)
    unit per (benchmark, scale, mesh, engine profile), shared across
    tunables overrides — the baseline consults no tunables, so forking
    it per override would only duplicate manifest rows.
    """

    name: Optional[str] = None
    benchmarks: Tuple[str, ...] = ("fft", "swim", "md", "ocean")
    #: workload families whose members join the benchmark axis (after
    #: any explicit ``benchmarks``, de-duplicated in registry order);
    #: ``benchmarks=()`` with a non-empty ``suites`` sweeps families
    #: alone.  See :data:`repro.workloads.suite.FAMILIES`.
    suites: Tuple[str, ...] = ()
    schemes: Tuple[str, ...] = DEFAULT_SCHEMES
    scales: Tuple[float, ...] = (0.25,)
    meshes: Tuple[Optional[Tuple[int, int]], ...] = (None,)
    engine_profiles: Tuple[str, ...] = (OPTIMIZED,)
    tunables: Tuple[TunablesDiff, ...] = (None,)

    def __post_init__(self):
        from repro.schemes import build_scheme

        bad = [b for b in self.benchmarks if b not in ALL_BENCHMARK_NAMES]
        if bad:
            raise ValueError(f"unknown benchmark(s): {', '.join(bad)}")
        bad_fams = [s for s in self.suites if s not in FAMILY_NAMES]
        if bad_fams:
            raise ValueError(
                f"unknown workload famil(y/ies): {', '.join(bad_fams)} "
                f"(known: {', '.join(FAMILY_NAMES)})"
            )
        for label in self.schemes:
            if label != BASELINE_LABEL:
                build_scheme(label)  # raises on unknown labels
        for scale in self.scales:
            if not 0 < float(scale) <= 1.0:
                raise ValueError(f"scale {scale} out of (0, 1]")
        for profile in self.engine_profiles:
            if profile not in ENGINE_PROFILES:
                raise ValueError(f"unknown engine profile {profile!r}")
        for diff in self.tunables:
            if diff is not None:
                Tunables().replace(**dict(diff))  # validates field names
        if not ((self.benchmarks or self.suites) and self.schemes
                and self.scales and self.meshes and self.engine_profiles
                and self.tunables):
            raise ValueError("every sweep axis needs at least one entry")

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def spec_digest(self) -> str:
        """Content hash of the axes (the name does not participate)."""
        from repro.runtime import digest_of

        return digest_of(
            [
                "sweep-spec",
                {
                    f.name: canonical_axis(getattr(self, f.name))
                    for f in dataclasses.fields(self)
                    if f.name != "name"
                },
            ]
        )

    @property
    def campaign_id(self) -> str:
        return self.name or f"sweep-{self.spec_digest()[:12]}"

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def effective_benchmarks(self) -> Tuple[str, ...]:
        """The benchmark axis after family expansion: explicit names
        first, then each listed family's members, de-duplicated."""
        return resolve_benchmarks(
            self.benchmarks or None, self.suites or None
        )

    def expand(self) -> List[SweepUnit]:
        """The deterministic, de-duplicated unit list (baselines first
        within each group so progress output reads naturally)."""
        units: List[SweepUnit] = []
        seen = set()
        benchmarks = self.effective_benchmarks()

        def add(unit: SweepUnit) -> None:
            if unit.unit_id not in seen:
                seen.add(unit.unit_id)
                units.append(unit)

        for scale in self.scales:
            for mesh in self.meshes:
                for profile in self.engine_profiles:
                    for bench in benchmarks:
                        add(SweepUnit(
                            bench, BASELINE_LABEL, scale, mesh, profile,
                            tunables=None,
                        ))
                    for diff in self.tunables:
                        for bench in benchmarks:
                            for label in self.schemes:
                                if label == BASELINE_LABEL:
                                    continue
                                add(SweepUnit(
                                    bench, label, scale, mesh, profile,
                                    tunables=diff,
                                ))
        return units

    def unit_ids(self) -> List[str]:
        """Unit ids in :meth:`expand` order — the claim queue's row
        order, so single-worker claiming matches execution order."""
        return [unit.unit_id for unit in self.expand()]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "suites": list(self.suites),
            "schemes": list(self.schemes),
            "scales": list(self.scales),
            "meshes": [_mesh_str(m) for m in self.meshes],
            "engine_profiles": list(self.engine_profiles),
            "tunables": [
                dict(d) if d is not None else None for d in self.tunables
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown sweep-spec field(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs: Dict[str, object] = {}
        if data.get("name") is not None:
            kwargs["name"] = str(data["name"])
        for field in ("benchmarks", "suites", "schemes", "engine_profiles"):
            if field in data:
                kwargs[field] = tuple(str(v) for v in data[field])
        if "scales" in data:
            kwargs["scales"] = tuple(float(v) for v in data["scales"])
        if "meshes" in data:
            kwargs["meshes"] = tuple(
                _parse_mesh(v) for v in data["meshes"]
            )
        if "tunables" in data:
            kwargs["tunables"] = tuple(
                normalize_tunables(v) for v in data["tunables"]
            )
        return cls(**kwargs)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        p = Path(path)
        text = p.read_text()
        if p.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # pragma: no cover - py3.10 fallback
                raise RuntimeError(
                    "TOML sweep specs need Python >= 3.11 (tomllib); "
                    "use JSON on this interpreter"
                )
            return cls.from_dict(tomllib.loads(text))
        return cls.from_dict(json.loads(text))


def canonical_axis(value):
    """JSON-friendly canonical form for spec digesting."""
    if isinstance(value, tuple):
        return [canonical_axis(v) for v in value]
    return value


def lineup_units(
    benchmarks: Sequence[str],
    labels: Sequence[str],
    scale: float,
    *,
    tunables: Union[None, Tunables, Mapping[str, object]] = None,
    calibrated_default: bool = True,
    mesh: Optional[Tuple[int, int]] = None,
    engine_profile: str = OPTIMIZED,
) -> List[SweepUnit]:
    """Units for one lineup evaluation (the tuner's candidate shape).

    ``tunables=None`` with ``calibrated_default=True`` uses the shipped
    per-scale calibration (driver semantics); with
    ``calibrated_default=False`` it means "explicitly the defaults"
    (candidate-evaluation semantics — the tuner must measure the actual
    defaults, not whatever happens to be calibrated for the scale).
    """
    if tunables is None and not calibrated_default:
        diff: TunablesDiff = ()
    else:
        diff = normalize_tunables(tunables)
    units: List[SweepUnit] = []
    seen = set()
    for bench in benchmarks:
        unit = SweepUnit(
            bench, BASELINE_LABEL, scale, mesh, engine_profile, None
        )
        if unit.unit_id not in seen:
            seen.add(unit.unit_id)
            units.append(unit)
    for bench in benchmarks:
        for label in labels:
            if label == BASELINE_LABEL:
                continue
            unit = SweepUnit(bench, label, scale, mesh, engine_profile, diff)
            if unit.unit_id not in seen:
                seen.add(unit.unit_id)
                units.append(unit)
    return units
