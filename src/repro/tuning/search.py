"""Deterministic calibration search over the ``Tunables`` space.

The driver is a three-stage pipeline (ISSUE 3's tentpole):

1. **Seeded grid sample** — draw ``samples`` random points from the
   knob grid (plus the defaults, always) with ``random.Random(seed)``
   and evaluate each on a *cheap* benchmark subset chosen to contain
   the scale-0.4 regressors (volrend/barnes/radiosity/raytrace) plus
   two healthy controls.
2. **Coordinate descent** — from the best sample, sweep one knob at a
   time (in grid order) keeping strictly-better moves, still on the
   cheap subset.
3. **Successive halving** — promote the top ``survivors`` distinct
   configurations to the full benchmark suite and rank them there; the
   full-suite winner is the calibration.

Everything is deterministic: the RNG is seeded, candidate order is
stable, and ties break on the tunables digest — ``tests/test_tuning.py``
pins that the same seed and grid always elect the same winner.

Candidate evaluations are submitted as **campaign units** through
:class:`~repro.campaign.CampaignRunner` (an in-memory manifest over the
shared :class:`~repro.runtime.parallel.ParallelRunner` engine) — the
same path ``repro sweep`` uses — so repeated evaluations (and the
shared baselines, whose job keys carry no tunables) are served from
cache, and the tuner needs no bespoke driver loop of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import geomean_improvement
from repro.config import ArchConfig, DEFAULT_CONFIG
from repro.core.tunables import Tunables
from repro.tuning.objective import HEADLINE_LABELS, Score, score_geomeans
from repro.workloads.suite import BENCHMARK_NAMES

#: Default knob grid (ordered; every knob's grid contains its default).
#: Knobs absent here are left at their defaults — the probe study found
#: the station time-out registers and the CME gate to be the levers at
#: scale 0.4, with the thresholds second-order.
DEFAULT_GRID: Dict[str, Tuple] = {
    "min_miss_rate": (0.1, 0.3, 0.45, 0.6),
    "cache_timeout": (20, 30, 40, 60),
    "memctrl_timeout": (60, 80, 120),
    "memory_timeout": (90, 140),
    "network_threshold": (0.65, 0.85),
    "feasibility_threshold": (0.15, 0.25, 0.35),
    "compiler_default_timeout": (20, 30, 45),
}

#: ``repro tune --smoke``: 2 knobs x 2 values (4-point cross product).
SMOKE_GRID: Dict[str, Tuple] = {
    "min_miss_rate": (0.1, 0.45),
    "cache_timeout": (30, 40),
}

#: Cheap evaluation subset: the four scale-0.4 regressors the ROADMAP
#: names, plus two benchmarks that were already healthy (so a candidate
#: cannot win by wrecking the easy cases).
CHEAP_BENCHMARKS: Tuple[str, ...] = (
    "volrend", "barnes", "radiosity", "raytrace", "fft", "swim",
)

#: ``--smoke`` benchmark pair (one regressor, one control).
SMOKE_BENCHMARKS: Tuple[str, ...] = ("volrend", "fft")


@dataclass
class Evaluation:
    """One scored candidate on one benchmark set."""

    tunables: Tunables
    benchmarks: Tuple[str, ...]
    score: Score
    geomeans: Dict[str, float]

    @property
    def sort_key(self) -> tuple:
        # Score first (lexicographic violations/distance), digest as a
        # deterministic tie-break.
        return (self.score, self.tunables.digest())


@dataclass
class TuneResult:
    """The outcome of one :meth:`Tuner.run`."""

    scale: float
    seed: int
    best: Tunables
    best_score: Score
    best_geomeans: Dict[str, float]
    #: full-suite ranking of the finalists (best first)
    finalists: List[Evaluation] = field(default_factory=list)
    #: number of *simulated* (non-cached) candidate evaluations
    evaluations: int = 0
    #: human-readable progress log
    log: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"tuned scale {self.scale:g} (seed {self.seed}, "
            f"{self.evaluations} evaluations)",
            f"  winner: {self.best.describe()}",
            f"  score:  {self.best_score.describe()}",
            "  geomeans vs paper Fig. 4:",
        ]
        from repro.analysis.paper_data import FIG4_GEOMEAN

        for label in HEADLINE_LABELS:
            got = self.best_geomeans.get(label)
            want = FIG4_GEOMEAN.get(label)
            if got is None:
                continue
            lines.append(
                f"    {label:<12s} {got:+7.2f}%   (paper {want:+.1f}%)"
            )
        return "\n".join(lines)


class Tuner:
    """Coordinate-descent + successive-halving search (see module doc)."""

    def __init__(
        self,
        scale: float = 0.4,
        cfg: ArchConfig = DEFAULT_CONFIG,
        seed: int = 0,
        grid: Optional[Mapping[str, Sequence]] = None,
        samples: int = 8,
        survivors: int = 3,
        descent_rounds: int = 1,
        cheap_benchmarks: Sequence[str] = CHEAP_BENCHMARKS,
        full_benchmarks: Optional[Sequence[str]] = None,
        lineup: Optional[Sequence[str]] = None,
        runtime: Optional["RuntimeOptions"] = None,
        engine: Optional["ParallelRunner"] = None,
        progress: Optional[Callable[[str], None]] = None,
    ):
        from repro.runtime import ParallelRunner, RuntimeOptions

        if samples < 1:
            raise ValueError("samples must be >= 1")
        if survivors < 1:
            raise ValueError("survivors must be >= 1")
        self.lineup: Tuple[str, ...] = tuple(lineup or HEADLINE_LABELS)
        from repro.schemes import build_lineup

        build_lineup(self.lineup)  # validate labels eagerly
        self.scale = scale
        self.cfg = cfg
        self.seed = seed
        self.grid: Dict[str, Tuple] = {
            k: tuple(v) for k, v in (grid or DEFAULT_GRID).items()
        }
        unknown = set(self.grid) - {f for f in Tunables().to_dict()}
        if unknown:
            raise ValueError(f"grid names unknown tunables: {sorted(unknown)}")
        self.samples = samples
        self.survivors = survivors
        self.descent_rounds = descent_rounds
        self.cheap_benchmarks = tuple(cheap_benchmarks)
        self.full_benchmarks = tuple(full_benchmarks or BENCHMARK_NAMES)
        self.runtime = runtime or RuntimeOptions(jobs=1)
        self.engine = engine or ParallelRunner(cfg, self.runtime)
        self._owns_engine = engine is None
        self._progress = progress
        self._eval_cache: Dict[tuple, Evaluation] = {}
        self.evaluations = 0
        self._log: List[str] = []
        # Candidate evaluations drain the campaign runner's claim loop
        # (the one `repro sweep` runs) over an in-memory claim table
        # and journal, with no retries — a deterministic simulator
        # failure should surface, not be retried.  Each `submit`
        # reopens what the last one failed.
        from repro.campaign import CampaignRunner

        self.campaign = CampaignRunner(
            base_cfg=cfg, engine=self.engine, options=self.runtime,
            max_attempts=1,
        )

    # ------------------------------------------------------------------
    def _note(self, msg: str) -> None:
        self._log.append(msg)
        if self._progress is not None:
            self._progress(msg)

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, tunables: Tunables, benchmarks: Sequence[str]
    ) -> Evaluation:
        """Score one candidate on one benchmark set (memoized).

        The candidate's lineup is expanded to campaign units
        (:func:`repro.campaign.lineup_units` with
        ``calibrated_default=False`` — the tuner must measure the
        *actual* candidate, never the shipped per-scale calibration)
        and submitted through :attr:`campaign`; baselines carry no
        tunables, so every candidate shares them via the cache.
        """
        benches = tuple(benchmarks)
        key = (tunables.digest(), benches)
        hit = self._eval_cache.get(key)
        if hit is not None:
            return hit
        from repro.arch.stats import improvement_percent
        from repro.campaign import BASELINE_LABEL, lineup_units

        units = lineup_units(
            benches, self.lineup, self.scale,
            tunables=tunables, calibrated_default=False,
        )
        results = self.campaign.submit(units)
        missing = [u.describe() for u in units if u.unit_id not in results]
        if missing:
            raise RuntimeError(
                f"candidate evaluation failed for: {', '.join(missing)}"
            )
        base = {
            u.bench: results[u.unit_id].cycles
            for u in units if u.label == BASELINE_LABEL
        }
        per_label: Dict[str, List[float]] = {}
        for u in units:
            if u.label == BASELINE_LABEL:
                continue
            per_label.setdefault(u.label, []).append(
                improvement_percent(
                    base[u.bench], results[u.unit_id].cycles
                )
            )
        geomeans = {
            label: geomean_improvement(vals)
            for label, vals in per_label.items()
        }
        ev = Evaluation(tunables, benches, score_geomeans(geomeans), geomeans)
        self._eval_cache[key] = ev
        self.evaluations += 1
        return ev

    # ------------------------------------------------------------------
    # search stages
    # ------------------------------------------------------------------
    def _sample_candidates(self, rng: random.Random) -> List[Tunables]:
        """Defaults + ``samples`` seeded random grid points (deduped)."""
        out: List[Tunables] = [Tunables()]
        seen = {out[0].digest()}
        attempts = 0
        while len(out) < self.samples + 1 and attempts < self.samples * 20:
            attempts += 1
            changes = {
                knob: rng.choice(values)
                for knob, values in self.grid.items()
            }
            cand = Tunables().replace(**changes)
            if cand.digest() in seen:
                continue
            seen.add(cand.digest())
            out.append(cand)
        return out

    def _coordinate_descent(self, start: Evaluation) -> Evaluation:
        """One-knob-at-a-time sweep keeping strictly better moves."""
        best = start
        for round_no in range(self.descent_rounds):
            improved = False
            for knob, values in self.grid.items():
                for value in values:
                    if getattr(best.tunables, knob) == value:
                        continue
                    cand = best.tunables.replace(**{knob: value})
                    ev = self.evaluate(cand, self.cheap_benchmarks)
                    if ev.sort_key < best.sort_key:
                        self._note(
                            f"  descent: {knob}={value} -> "
                            f"{ev.score.describe()}"
                        )
                        best = ev
                        improved = True
            if not improved:
                break
        return best

    # ------------------------------------------------------------------
    def run(self) -> TuneResult:
        """Execute the full search; deterministic in (seed, grid)."""
        rng = random.Random(self.seed)
        self._note(
            f"stage 1: sampling {self.samples} grid points "
            f"(+defaults) on {len(self.cheap_benchmarks)} benchmarks"
        )
        pool = self._sample_candidates(rng)
        cheap_evals = [self.evaluate(t, self.cheap_benchmarks) for t in pool]
        cheap_evals.sort(key=lambda e: e.sort_key)
        for ev in cheap_evals[:3]:
            self._note(
                f"  sample {ev.tunables.short_digest()}: "
                f"{ev.score.describe()}"
            )

        self._note("stage 2: coordinate descent from the best sample")
        descended = self._coordinate_descent(cheap_evals[0])

        # Successive halving: promote distinct survivors to the full
        # suite (the descent winner always participates).
        finalist_pool: List[Evaluation] = [descended] + cheap_evals
        seen: set = set()
        finalists: List[Tunables] = []
        for ev in finalist_pool:
            d = ev.tunables.digest()
            if d in seen:
                continue
            seen.add(d)
            finalists.append(ev.tunables)
            if len(finalists) >= self.survivors:
                break
        self._note(
            f"stage 3: promoting {len(finalists)} survivors to the "
            f"full {len(self.full_benchmarks)}-benchmark suite"
        )
        full_evals = [
            self.evaluate(t, self.full_benchmarks) for t in finalists
        ]
        full_evals.sort(key=lambda e: e.sort_key)
        for ev in full_evals:
            self._note(
                f"  finalist {ev.tunables.short_digest()}: "
                f"{ev.score.describe()}"
            )
        winner = full_evals[0]
        return TuneResult(
            scale=self.scale,
            seed=self.seed,
            best=winner.tunables,
            best_score=winner.score,
            best_geomeans=dict(winner.geomeans),
            finalists=full_evals,
            evaluations=self.evaluations,
            log=list(self._log),
        )
