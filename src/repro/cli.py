"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compare``      the headline schemes on one benchmark
``bench``        the full Fig. 4 lineup over a benchmark subset
``experiments``  regenerate paper artifacts (all, or a named subset)
``tune``         auto-calibrate the Tunables against the paper targets
``sweep``        managed, resumable sweep campaigns (run/resume/worker/
                 serve/status/ls/report/gc); ``worker`` attaches extra
                 processes to a live campaign's claim queue — locally
                 through the filesystem, or over HTTP against a
                 ``sweep serve`` host (no shared disk needed)
``inspect``      show a benchmark's structure and pass decisions
``config``       print the Table 1 machine description

The CLI is a shell over :mod:`repro.api`: every simulating command
parses its flags, makes exactly one facade call, renders the result
and returns an exit code — ``compare`` → the private compare helper
beside :func:`repro.api.simulate` (shared with
:func:`repro.quick_compare`), ``bench`` → :func:`~repro.api.lineup`
(``--perf``/``--smoke``: :func:`~repro.api.bench`), ``experiments`` →
:func:`~repro.api.evaluate`, ``tune`` → :func:`~repro.api.tune`,
``sweep run``/``resume``/``worker --server`` →
:func:`~repro.api.sweep`.  What stays here is argparse, reading the
``--tunables`` file, building the
:class:`~repro.runtime.RuntimeOptions` and inline sweep spec, writing
the calibration artifact, printing ``--stats``, and the exit codes.
The campaign bookkeeping commands (local ``sweep worker``, ``serve``,
``status``, ``ls``, ``report``, ``gc``) have no facade verb and call
:mod:`repro.campaign` directly.

Every simulating subcommand shares one runtime-flag surface
(:data:`RUNTIME_FLAGS`, attached via a single argparse *parent*
parser), so ``--jobs/--cache-dir/--no-cache/--stats/--timeout/
--trace-events/--engine-profile/--tunables`` mean the same thing
everywhere; ``tests/test_cli.py`` pins the flag sets in sync.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import DEFAULT_CONFIG, render_table1
from repro.workloads.suite import ALL_BENCHMARK_NAMES, FAMILY_NAMES

#: The uniform runtime-control surface every simulating subcommand
#: (``compare``/``bench``/``experiments``/``tune``/``sweep run|resume``)
#: accepts, provided by one shared parent parser (never re-declared
#: per command).  ``tests/test_cli.py::test_runtime_flags_in_sync``
#: asserts the sets stay identical.
RUNTIME_FLAGS = (
    "--jobs",
    "--cache-dir",
    "--no-cache",
    "--stats",
    "--timeout",
    "--trace-events",
    "--engine-profile",
    "--no-batch",
    "--tunables",
)

#: The workload-family selection surface, shared (again via one parent
#: parser) by every subcommand with a multi-benchmark selection
#: (``bench``/``experiments``/``tune``/``sweep run``) — single-benchmark
#: commands (``compare``/``inspect``) take any family's member directly.
#: ``tests/test_cli.py`` pins these sets in sync too.
SUITE_FLAGS = (
    "--suite",
)

#: The scheme-cast selection surface, shared (one parent parser again)
#: by every subcommand that evaluates a scheme lineup
#: (``compare``/``bench``/``experiments``/``tune``/``sweep run``): the
#: labels come from the :data:`repro.schemes.SCHEMES` registry, so a
#: newly registered scheme is immediately addressable from every
#: command.  ``tests/test_cli.py`` pins these sets in sync too.
SCHEME_FLAGS = (
    "--schemes",
)


def _runtime_options(args: argparse.Namespace):
    """Build RuntimeOptions from the shared runtime CLI flags."""
    from repro.arch import OPTIMIZED
    from repro.runtime import RuntimeOptions, default_cache_dir

    cache_dir = None if args.no_cache else (
        args.cache_dir or str(default_cache_dir())
    )
    return RuntimeOptions(
        jobs=args.jobs,
        cache_dir=cache_dir,
        stats=args.stats,
        timeout=args.timeout,
        trace_events=getattr(args, "trace_events", None),
        engine_profile=getattr(args, "engine_profile", OPTIMIZED),
        batch=not getattr(args, "no_batch", False),
    )


def _add_runtime_flags(p: argparse.ArgumentParser) -> None:
    import os

    p.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, metavar="N",
        help="parallel simulation workers (1 = serial; default: CPU count)",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result cache location "
             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent cache entirely (no reads, no writes)",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print per-job timings and cache hit/miss counters",
    )
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-job timeout; a timed-out job reruns serially",
    )
    p.add_argument(
        "--trace-events", default=None, metavar="OUT.jsonl", dest="trace_events",
        help="stream simulation events (offloads, stalls, row conflicts) "
             "as JSON lines; implies serial execution and skips "
             "disk-cache reads so every job actually simulates",
    )
    from repro.arch import ENGINE_PROFILES, OPTIMIZED

    p.add_argument(
        "--engine-profile", default=OPTIMIZED, dest="engine_profile",
        choices=ENGINE_PROFILES,
        help="simulation engine: 'reference' (the oracle) or the fast "
             "engine, named 'optimized' or 'vectorized' (perf knob only; "
             "both engines are pinned cycle-identical and share cache "
             "keys)",
    )
    p.add_argument(
        "--no-batch", action="store_true", dest="no_batch",
        help="disable the batch simulation executor (strictly per-unit "
             "execution; results are pinned byte-identical either way)",
    )


def _add_tunables_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--tunables", default=None, metavar="FILE", dest="tunables_file",
        help="JSON tunables file (field -> value; default: the shipped "
             "per-scale calibration from repro/tuning/calibrated.json, "
             "if any)",
    )


def runtime_parent() -> argparse.ArgumentParser:
    """The shared parent parser carrying :data:`RUNTIME_FLAGS`.

    Attached (``parents=[...]``) to every subcommand that simulates, so
    the runtime surface cannot drift between commands.
    """
    parent = argparse.ArgumentParser(add_help=False)
    _add_runtime_flags(parent)
    _add_tunables_flag(parent)
    return parent


def _add_suite_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--suite", nargs="*", default=None, choices=FAMILY_NAMES,
        metavar="FAMILY",
        help="workload families joining the benchmark selection "
             f"({', '.join(FAMILY_NAMES)}); with no explicit "
             "benchmarks, selects the families alone",
    )


def suite_parent() -> argparse.ArgumentParser:
    """The shared parent parser carrying :data:`SUITE_FLAGS`."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_suite_flag(parent)
    return parent


def _add_schemes_flag(p: argparse.ArgumentParser) -> None:
    from repro.schemes import SCHEME_LABELS

    p.add_argument(
        "--schemes", nargs="*", default=None, choices=SCHEME_LABELS,
        metavar="LABEL",
        help="scheme registry labels selecting the lineup cast "
             "(default: the command's usual lineup); known labels: "
             # argparse %-expands help strings: wait-5% et al. must
             # double their percent signs to survive --help.
             f"{', '.join(SCHEME_LABELS).replace('%', '%%')}",
    )


def schemes_parent() -> argparse.ArgumentParser:
    """The shared parent parser carrying :data:`SCHEME_FLAGS`."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_schemes_flag(parent)
    return parent


def _load_tunables(args: argparse.Namespace):
    """The explicit --tunables file, or None (per-scale default)."""
    path = getattr(args, "tunables_file", None)
    if not path:
        return None
    from repro.core.tunables import Tunables

    with open(path) as fh:
        return Tunables.from_dict(json.load(fh))


def _cmd_config(args: argparse.Namespace) -> int:
    cfg = DEFAULT_CONFIG
    if args.mesh:
        w, h = (int(v) for v in args.mesh.split("x"))
        cfg = cfg.with_mesh(w, h)
    print(render_table1(cfg))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.api import _compare
    from repro.runtime import RunnerStats

    stats = RunnerStats()
    base, rows = _compare(
        args.benchmark, args.schemes, scale=args.scale,
        tunables=_load_tunables(args), options=_runtime_options(args),
        stats=stats,
    )
    print(format_table(
        ["scheme", "improvement %"], rows,
        title=f"{args.benchmark} @ scale {args.scale:g} "
              f"(baseline {base} cycles)",
    ))
    if args.stats:
        print(stats.render(), file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.perf or args.smoke:
        return _cmd_bench_perf(args)
    from repro import api
    from repro.runtime import RunnerStats

    stats = RunnerStats()
    print(api.lineup(
        args.scale, args.benchmarks, suite=args.suite,
        schemes=args.schemes, tunables=_load_tunables(args),
        options=_runtime_options(args), stats=stats,
    ).render())
    if args.stats:
        print(stats.render(), file=sys.stderr)
    return 0


def _cmd_bench_perf(args: argparse.Namespace) -> int:
    """The engine microbenchmarks (``--perf``; ``--smoke`` is the fast
    CI-gate variant), not the Fig. 4 results table."""
    import os

    if os.environ.get("REPRO_BENCH_SKIP") == "1":
        print("REPRO_BENCH_SKIP=1: perf benchmark skipped", file=sys.stderr)
        return 0
    from repro import api
    from repro.bench import render_report

    have_baseline = bool(args.baseline) and os.path.exists(args.baseline)
    report = api.bench(
        smoke=args.smoke,
        baseline=args.baseline if have_baseline else None,
        max_slowdown=args.max_slowdown,
    )
    gate = report.pop("gate", None)
    print(render_report(report))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if gate is None:
        if args.baseline:
            print(f"no baseline at {args.baseline}; gate skipped",
                  file=sys.stderr)
        return 0
    for msg in gate["messages"]:
        print(msg)
    return 0 if gate["ok"] else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro import api
    from repro.runtime import RunnerStats

    stats = RunnerStats()
    api.evaluate(
        args.only, scale=args.scale, benchmarks=args.benchmarks,
        suite=args.suite, schemes=args.schemes,
        tunables=_load_tunables(args), options=_runtime_options(args),
        stats=stats, verbose=True,
    )
    if args.stats:
        print(stats.render(), file=sys.stderr)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from datetime import date

    from repro import api
    from repro.tuning import save_calibration

    result = api.tune(
        args.scale, seed=args.seed, samples=args.samples,
        survivors=args.survivors, benchmarks=args.benchmarks,
        suite=args.suite, schemes=args.schemes, smoke=args.smoke,
        options=_runtime_options(args),
        progress=lambda msg: print(msg, file=sys.stderr),
    )
    print(result.describe())
    if args.smoke or args.dry_run:
        print("(dry run: calibration artifact not written)",
              file=sys.stderr)
        # --smoke checks the *pipeline* (a 2-benchmark subset cannot
        # honour the full-suite ordering); --dry-run reports quality.
        return 0 if (args.smoke or result.best_score.feasible) else 1
    path = save_calibration(
        args.scale, result.best,
        seed=result.seed,
        score={
            "violations": result.best_score.violations,
            "distance": round(result.best_score.distance, 4),
        },
        geomeans=result.best_geomeans,
        date=date.today().isoformat(),
        path=args.out,
        extra={"evaluations": result.evaluations},
    )
    print(f"wrote {path}", file=sys.stderr)
    return 0 if result.best_score.feasible else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.algorithm1 import Algorithm1
    from repro.core.algorithm2 import Algorithm2
    from repro.workloads.suite import build_benchmark

    program = build_benchmark(args.benchmark, args.scale)
    print(f"{program.name}: {len(program.nests)} nests")
    for nest in program.nests:
        computes = sum(1 for st in nest.body if st.compute is not None)
        print(f"  {nest.name}: {nest.iterations} iterations, "
              f"{len(nest.body)} statements ({computes} computes)")
        for arr in nest.arrays():
            print(f"    {arr.name}: shape {arr.shape}, "
                  f"{arr.element_size}B elements, base 0x{arr.base:x}")
    for Pass in (Algorithm1, Algorithm2):
        _, plans, report = Pass(DEFAULT_CONFIG).run(program)
        print(f"\n{Pass.__name__}: "
              f"{report.opportunities_exercised}/{report.opportunities_seen} "
              "chains offloaded")
        for d in report.decisions:
            loc = d.location.short_name if d.location is not None else "-"
            state = f"offload -> {loc}" if d.offloaded else f"keep ({d.reason})"
            print(f"  S{d.sid}: {state}")
    return 0


# ======================================================================
# sweep campaigns
# ======================================================================

def _add_runs_dir_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--runs-dir", default=None, metavar="DIR",
        help="campaign runs root (default: $REPRO_RUNS_DIR or ./runs)",
    )


def _sweep_spec_from_args(args: argparse.Namespace):
    """A SweepSpec from ``--spec FILE`` or the inline axis flags.

    Built here rather than through ``api.sweep(suite=...)``: ``--suite``
    alone sweeps only the listed families, whereas the facade merges
    them into the spec's default benchmark list.
    """
    from repro.arch import OPTIMIZED
    from repro.campaign import SweepSpec, normalize_tunables

    if args.spec:
        inline = [
            flag for flag, value in (
                ("--name", args.name),
                ("--benchmarks", args.benchmarks),
                ("--suite", args.suite),
                ("--schemes", args.schemes),
                ("--scales", args.scales),
                ("--meshes", args.meshes),
            ) if value
        ]
        if inline:
            raise SystemExit(
                f"--spec conflicts with inline axis flag(s) "
                f"{', '.join(inline)}"
            )
        return SweepSpec.load(args.spec)
    data = {"name": args.name}
    if args.benchmarks:
        data["benchmarks"] = args.benchmarks
    if args.suite:
        data["suites"] = args.suite
        if not args.benchmarks:
            # --suite alone sweeps exactly the families, not the
            # default benchmark list plus the families.
            data["benchmarks"] = []
    if args.schemes:
        data["schemes"] = args.schemes
    if args.scales:
        data["scales"] = args.scales
    if args.meshes:
        data["meshes"] = args.meshes
    spec = SweepSpec.from_dict(data)
    # The runtime flags double as single-value axes for inline specs.
    tun = _load_tunables(args)
    if tun is not None or args.engine_profile != OPTIMIZED:
        import dataclasses

        spec = dataclasses.replace(
            spec,
            engine_profiles=(args.engine_profile,),
            tunables=(normalize_tunables(tun),),
        )
    return spec


def _run_campaign(args: argparse.Namespace, spec, **sweep_kwargs) -> int:
    """``sweep run``/``resume``: one ``api.sweep`` call, then render."""
    from repro import api
    from repro.campaign import CampaignError, QueueError

    try:
        result = api.sweep(
            spec, workers=args.workers, options=_runtime_options(args),
            **sweep_kwargs,
        )
    except (CampaignError, QueueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.report)
    done = len(result.results)
    total = result.summary["total_units"]
    print(
        f"[{result.campaign_id}] {done}/{total} units done, "
        f"{result.stats.executed} simulated, "
        f"{result.stats.hits} cache hits"
        + (f" -> {result.root}" if result.root else ""),
        file=sys.stderr,
    )
    if args.stats:
        print(result.stats.render(), file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_sweep_run(args: argparse.Namespace) -> int:
    from repro.campaign import default_runs_root

    spec = _sweep_spec_from_args(args)
    root = None if args.in_memory else (
        args.runs_dir or str(default_runs_root())
    )
    return _run_campaign(args, spec, root=root, resume=args.resume)


def _cmd_sweep_resume(args: argparse.Namespace) -> int:
    from repro.campaign import RunRegistry

    registry = RunRegistry(args.runs_dir)
    if not registry.exists(args.campaign):
        print(f"error: no campaign {args.campaign!r} under "
              f"{registry.root}", file=sys.stderr)
        return 2
    return _run_campaign(
        args, registry.spec(args.campaign), root=registry.root,
        campaign_id=args.campaign, resume=True,
    )


def _cmd_sweep_worker(args: argparse.Namespace) -> int:
    if args.server:
        return _sweep_worker_remote(args)
    from repro.campaign import CampaignError, CampaignRunner, QueueError
    from repro.campaign import RunRegistry

    if not args.campaign:
        print("error: give a CAMPAIGN id (or --server URL)",
              file=sys.stderr)
        return 2
    registry = RunRegistry(args.runs_dir)
    if not registry.exists(args.campaign):
        print(f"error: no campaign {args.campaign!r} under "
              f"{registry.root}", file=sys.stderr)
        return 2
    spec = registry.spec(args.campaign)
    runner = CampaignRunner(
        spec, root=registry.root, campaign_id=args.campaign,
        options=_runtime_options(args),
    )
    try:
        outcome = runner.attach_worker(
            lease=args.lease, poll=args.poll, finalize=True,
        )
    except (CampaignError, QueueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    blob = registry.status(args.campaign)
    print(
        f"[{args.campaign}] worker {outcome.worker_id}: "
        f"{len(outcome.results)} units resolved, "
        f"{outcome.stats.executed} simulated, "
        f"{outcome.stats.hits} cache hits; campaign {blob['status']}",
        file=sys.stderr,
    )
    if args.stats:
        print(outcome.stats.render(), file=sys.stderr)
    return 0 if blob["status"] == "complete" else 1


def _sweep_worker_remote(args: argparse.Namespace) -> int:
    """``sweep worker --server URL``: one ``api.sweep(server=...)``."""
    from repro import api
    from repro.campaign import CampaignError, QueueError, RemoteClaimQueue

    try:
        if args.campaign:
            # Refuse up front if the server serves a different
            # campaign than the one named on the command line.
            probe = RemoteClaimQueue(args.server)
            served = probe.hello()["campaign"]
            probe.close()
            if served != args.campaign:
                print(f"error: {args.server} serves campaign "
                      f"{served!r}, not {args.campaign!r}",
                      file=sys.stderr)
                return 2
        outcome = api.sweep(
            server=args.server, options=_runtime_options(args),
            lease=args.lease, poll=args.poll,
        )
    except (CampaignError, QueueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"[{outcome.campaign_id}] remote worker {outcome.worker_id}: "
        f"{len(outcome.results)} units resolved, "
        f"{outcome.stats.executed} simulated "
        f"(results shipped to {args.server})",
        file=sys.stderr,
    )
    if args.stats:
        print(outcome.stats.render(), file=sys.stderr)
    return 0


def _cmd_sweep_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.campaign import (
        ClaimServer, QueueError, RunRegistry, SweepSpec,
        write_or_verify_spec,
    )

    registry = RunRegistry(args.runs_dir)
    campaign = args.campaign
    if args.spec:
        spec = SweepSpec.load(args.spec)
        campaign = campaign or spec.campaign_id
        if not write_or_verify_spec(registry.campaign_dir(campaign), spec):
            print(f"error: campaign {campaign!r} was created from a "
                  "different spec", file=sys.stderr)
            return 2
    if not campaign:
        print("error: give a CAMPAIGN id or --spec FILE", file=sys.stderr)
        return 2
    # A fresh campaign has a spec but no manifest yet (the server
    # writes the header) — existence here means spec.json.
    if not (registry.campaign_dir(campaign) / "spec.json").exists():
        print(f"error: no campaign {campaign!r} under {registry.root}",
              file=sys.stderr)
        return 2
    try:
        server = ClaimServer(
            registry.root, campaign, options=_runtime_options(args),
        )
    except QueueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handle = server.serve_http(args.host, args.port)
    print(f"[{campaign}] claim server on {handle.address} "
          f"(attach with: repro sweep worker --server {handle.address})",
          flush=True)
    finalized = False
    try:
        while not server.is_complete():
            _time.sleep(args.poll)
        finalized = server.finalize()
    except KeyboardInterrupt:
        print(f"[{campaign}] interrupted; progress is journaled — "
              "serve again to continue", file=sys.stderr)
    finally:
        handle.close()
        server.close()
    blob = registry.status(campaign)
    print(f"[{campaign}] {blob['status']}: {blob['done']}/"
          f"{blob['total_units']} done, {blob['failed']} failed"
          + ("; artifacts written" if finalized else ""),
          file=sys.stderr)
    return 0 if blob["status"] == "complete" else 1


def _cmd_sweep_status(args: argparse.Namespace) -> int:
    from repro.campaign import RunRegistry

    registry = RunRegistry(args.runs_dir)
    if not registry.exists(args.campaign):
        print(f"error: no campaign {args.campaign!r} under "
              f"{registry.root}", file=sys.stderr)
        return 2
    blob = registry.status(args.campaign)
    if args.json:
        print(json.dumps(blob, indent=2, sort_keys=True))
    else:
        print(f"campaign {blob['campaign']}: {blob['status']} "
              f"({blob['done']}/{blob['total_units']} done, "
              f"{blob['failed']} failed, {blob['pending']} pending, "
              f"{blob['sessions']} sessions)")
        for f in blob.get("failed_units", []):
            print(f"  failed {f['unit']}: {f['error']} "
                  f"(x{f['attempts']})")
    return 0 if blob["status"] in ("complete", "partial", "empty") else 1


def _cmd_sweep_ls(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.campaign import RunRegistry

    rows = [
        [i.campaign_id, i.status, f"{i.done}/{i.total_units}",
         i.failed, i.sessions]
        for i in RunRegistry(args.runs_dir).list()
    ]
    if not rows:
        print("(no campaigns)")
        return 0
    print(format_table(
        ["campaign", "status", "done", "failed", "sessions"], rows,
    ))
    return 0


def _cmd_sweep_report(args: argparse.Namespace) -> int:
    from repro.campaign import RunRegistry

    registry = RunRegistry(args.runs_dir)
    report = registry.report(args.campaign)
    if report is None:
        print(f"error: campaign {args.campaign!r} has no report yet "
              "(finish it with 'repro sweep resume')", file=sys.stderr)
        return 2
    print(report, end="")
    return 0


def _cmd_sweep_gc(args: argparse.Namespace) -> int:
    from repro.campaign import RunRegistry

    removed = RunRegistry(args.runs_dir).gc(
        ids=args.campaigns or None,
        complete_only=args.complete_only,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb}: {', '.join(removed) if removed else '(nothing)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Compiler Support for Near Data "
                    "Computing' (PPoPP 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runtime = runtime_parent()
    suite = suite_parent()
    schemes = schemes_parent()

    p = sub.add_parser("config", help="print the Table 1 configuration")
    p.add_argument("--mesh", help="e.g. 6x6")
    p.set_defaults(fn=_cmd_config)

    p = sub.add_parser(
        "compare", parents=[runtime, schemes],
        help="headline schemes on one benchmark",
    )
    p.add_argument("benchmark", choices=ALL_BENCHMARK_NAMES)
    p.add_argument("--scale", type=float, default=0.25)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "bench", parents=[runtime, suite, schemes],
        help="the full Fig. 4 lineup (--perf/--smoke: perf microbench)",
    )
    p.add_argument("benchmarks", nargs="*", default=None)
    p.add_argument("--scale", type=float, default=0.25)
    p.add_argument("--perf", action="store_true",
                   help="run the engine performance microbenchmarks "
                        "(reference vs fast engine) instead of "
                        "the Fig. 4 results table")
    p.add_argument("--smoke", action="store_true",
                   help="fast --perf variant for the CI regression gate "
                        "(implies --perf)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the perf report JSON here "
                        "(e.g. BENCH_engine.json)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="compare the perf report against this committed "
                        "baseline; non-zero exit on regression "
                        "(skipped entirely when REPRO_BENCH_SKIP=1)")
    p.add_argument("--max-slowdown", type=float, default=25.0,
                   metavar="PCT",
                   help="allowed loss of the baseline's single-sim "
                        "speedup advantage before the gate fails "
                        "(default 25; CI uses a generous value)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "experiments", parents=[runtime, suite, schemes],
        help="regenerate paper artifacts",
    )
    p.add_argument("--only", nargs="*",
                   help="substring filters, e.g. fig4 table2")
    p.add_argument("--benchmarks", nargs="*", default=None)
    p.add_argument("--scale", type=float, default=0.25)
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser(
        "tune", parents=[runtime, suite, schemes],
        help="auto-calibrate the Tunables against the paper's Fig. 4",
    )
    p.add_argument("--scale", type=float, default=0.4)
    p.add_argument("--seed", type=int, default=0,
                   help="search RNG seed (same seed + grid => same winner)")
    p.add_argument("--samples", type=int, default=8,
                   help="random grid points sampled in stage 1")
    p.add_argument("--survivors", type=int, default=3,
                   help="configs promoted to the full benchmark suite")
    p.add_argument("--benchmarks", nargs="*", default=None,
                   help="override the full-suite benchmark set")
    p.add_argument("--smoke", action="store_true",
                   help="CI pipeline check: 2 benchmarks x 4-point grid, "
                        "writes nothing")
    p.add_argument("--dry-run", action="store_true",
                   help="search but do not write calibrated.json")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="calibration artifact path "
                        "(default: the in-tree calibrated.json)")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser(
        "sweep",
        help="managed, resumable sweep campaigns (run/resume/worker/"
             "serve/status/ls/report/gc)",
    )
    action = p.add_subparsers(dest="action", required=True)

    a = action.add_parser(
        "run", parents=[runtime, suite, schemes],
        help="run a sweep campaign (crash-resumable; see 'resume')",
    )
    a.add_argument("--spec", default=None, metavar="FILE",
                   help="JSON/TOML SweepSpec file (conflicts with the "
                        "inline axis flags below)")
    a.add_argument("--name", default=None,
                   help="campaign id (default: content hash of the spec)")
    a.add_argument("--benchmarks", nargs="*", default=None)
    a.add_argument("--scales", nargs="*", type=float, default=None)
    a.add_argument("--meshes", nargs="*", default=None,
                   help="mesh sizes, e.g. 5x5 6x6")
    a.add_argument("--resume", action="store_true",
                   help="continue the campaign if it already has progress")
    a.add_argument("--in-memory", action="store_true",
                   help="no campaign directory (results printed only)")
    a.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes draining the claim queue "
                        "(default 1; N>1 needs a cache dir)")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_run)

    a = action.add_parser(
        "resume", parents=[runtime],
        help="resume an interrupted campaign by id (completed units "
             "are skipped via the manifest + warm cache)",
    )
    a.add_argument("campaign")
    a.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker processes draining the claim queue "
                        "(default 1; N>1 needs a cache dir)")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_resume)

    a = action.add_parser(
        "worker", parents=[runtime],
        help="attach one worker process to an existing campaign's "
             "claim queue (run any number concurrently; see also "
             "'sweep run --workers N')",
    )
    a.add_argument("campaign", nargs="?", default=None,
                   help="campaign id (optional with --server: the "
                        "server names the campaign)")
    a.add_argument("--server", default=None, metavar="URL",
                   help="attach over HTTP to a 'sweep serve' host "
                        "(http://host:port) instead of a local campaign "
                        "directory; no shared filesystem needed")
    a.add_argument("--lease", type=float, default=None, metavar="SEC",
                   help="claim lease seconds before an unresponsive "
                        "worker's units return to the queue")
    a.add_argument("--poll", type=float, default=None, metavar="SEC",
                   help="idle sleep between claim attempts while other "
                        "workers hold leases")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_worker)

    a = action.add_parser(
        "serve", parents=[runtime],
        help="serve a campaign's claim queue over HTTP for "
             "'sweep worker --server' processes on other machines; "
             "shipped results land in this host's cache and the "
             "artifacts are finalized here",
    )
    a.add_argument("campaign", nargs="?", default=None,
                   help="existing campaign id (or create one with --spec)")
    a.add_argument("--spec", default=None, metavar="FILE",
                   help="JSON/TOML SweepSpec file; creates the campaign "
                        "directory if it does not exist yet")
    a.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1; use 0.0.0.0 "
                        "for LAN workers — trusted networks only)")
    a.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = pick a free port)")
    a.add_argument("--poll", type=float, default=1.0, metavar="SEC",
                   help="completion-check interval")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_serve)

    a = action.add_parser("status", help="folded manifest state of one "
                                         "campaign")
    a.add_argument("campaign")
    a.add_argument("--json", action="store_true",
                   help="machine-readable status blob")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_status)

    a = action.add_parser("ls", help="list campaigns under the runs root")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_ls)

    a = action.add_parser("report", help="print a campaign's report.txt")
    a.add_argument("campaign")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_report)

    a = action.add_parser("gc", help="delete campaign directories")
    a.add_argument("campaigns", nargs="*",
                   help="ids to delete (default: consider all)")
    a.add_argument("--complete-only", action="store_true",
                   help="keep anything not fully done")
    a.add_argument("--dry-run", action="store_true")
    _add_runs_dir_flag(a)
    a.set_defaults(fn=_cmd_sweep_gc)

    p = sub.add_parser("inspect", help="benchmark structure + pass decisions")
    p.add_argument("benchmark", choices=ALL_BENCHMARK_NAMES)
    p.add_argument("--scale", type=float, default=0.25)
    p.set_defaults(fn=_cmd_inspect)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for name in ("benchmarks", "schemes"):
        if hasattr(args, name) and getattr(args, name) == []:
            setattr(args, name, None)
    if hasattr(args, "benchmarks") and args.benchmarks:
        bad = [b for b in args.benchmarks if b not in ALL_BENCHMARK_NAMES]
        if bad:
            print(f"unknown benchmark(s): {', '.join(bad)}", file=sys.stderr)
            return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
