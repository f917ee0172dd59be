"""Command-line interface."""

import json

import pytest

from repro.cli import (
    RUNTIME_FLAGS,
    SCHEME_FLAGS,
    SUITE_FLAGS,
    build_parser,
    main,
)


def _subparsers(parser):
    """``command -> subparser`` map of an argparse parser."""
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return dict(action.choices)
    return {}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected_by_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "doom"])


class TestRuntimeFlagSync:
    """Every simulation-running command accepts the same runtime flags
    (one shared argparse parent; ISSUE 5 satellite)."""

    SIMULATING = ("compare", "bench", "experiments", "tune")
    SWEEP_SIMULATING = ("run", "resume", "worker", "serve")

    def test_runtime_flags_uniform_across_commands(self):
        top = _subparsers(build_parser())
        parsers = {name: top[name] for name in self.SIMULATING}
        parsers.update(
            (f"sweep {name}", sub)
            for name, sub in _subparsers(top["sweep"]).items()
            if name in self.SWEEP_SIMULATING
        )
        assert len(parsers) == len(self.SIMULATING) + len(
            self.SWEEP_SIMULATING
        )
        for cmd, parser in parsers.items():
            have = set(parser._option_string_actions)
            missing = set(RUNTIME_FLAGS) - have
            assert not missing, (
                f"'repro {cmd}' is missing runtime flag(s): "
                f"{sorted(missing)}"
            )

    def test_non_simulating_commands_skip_runtime_flags(self):
        top = _subparsers(build_parser())
        assert "--jobs" not in top["config"]._option_string_actions
        status = _subparsers(top["sweep"])["status"]
        assert "--jobs" not in status._option_string_actions

    MULTI_BENCHMARK = ("bench", "experiments", "tune")
    SWEEP_MULTI_BENCHMARK = ("run",)

    def test_suite_flags_uniform_across_commands(self):
        """Every command with a multi-benchmark selection accepts the
        same --suite family flags (one shared argparse parent)."""
        top = _subparsers(build_parser())
        parsers = {name: top[name] for name in self.MULTI_BENCHMARK}
        parsers.update(
            (f"sweep {name}", sub)
            for name, sub in _subparsers(top["sweep"]).items()
            if name in self.SWEEP_MULTI_BENCHMARK
        )
        assert len(parsers) == len(self.MULTI_BENCHMARK) + len(
            self.SWEEP_MULTI_BENCHMARK
        )
        for cmd, parser in parsers.items():
            have = set(parser._option_string_actions)
            missing = set(SUITE_FLAGS) - have
            assert not missing, (
                f"'repro {cmd}' is missing suite flag(s): "
                f"{sorted(missing)}"
            )

    def test_single_benchmark_commands_skip_suite_flags(self):
        top = _subparsers(build_parser())
        for cmd in ("compare", "inspect", "config"):
            assert "--suite" not in top[cmd]._option_string_actions

    LINEUP_COMMANDS = ("compare", "bench", "experiments", "tune")
    SWEEP_LINEUP_COMMANDS = ("run",)

    def test_scheme_flags_uniform_across_commands(self):
        """Every command that evaluates a scheme lineup accepts the
        same --schemes registry-label flags (one shared parent)."""
        top = _subparsers(build_parser())
        parsers = {name: top[name] for name in self.LINEUP_COMMANDS}
        parsers.update(
            (f"sweep {name}", sub)
            for name, sub in _subparsers(top["sweep"]).items()
            if name in self.SWEEP_LINEUP_COMMANDS
        )
        assert len(parsers) == len(self.LINEUP_COMMANDS) + len(
            self.SWEEP_LINEUP_COMMANDS
        )
        for cmd, parser in parsers.items():
            have = set(parser._option_string_actions)
            missing = set(SCHEME_FLAGS) - have
            assert not missing, (
                f"'repro {cmd}' is missing scheme flag(s): "
                f"{sorted(missing)}"
            )

    def test_scheme_choices_match_the_registry(self):
        """--schemes offers exactly the registry's labels — a newly
        registered scheme is addressable from every lineup command."""
        from repro.schemes import SCHEME_LABELS

        top = _subparsers(build_parser())
        action = top["bench"]._option_string_actions["--schemes"]
        assert tuple(action.choices) == SCHEME_LABELS

    def test_non_lineup_commands_skip_scheme_flags(self):
        top = _subparsers(build_parser())
        for cmd in ("inspect", "config"):
            assert "--schemes" not in top[cmd]._option_string_actions

    def test_schemes_help_renders_percent_labels(self):
        """argparse %-expands help strings; the wait-5% et al. labels
        interpolated into the --schemes help must stay escaped or
        `--help` dies with 'unsupported format character'."""
        top = _subparsers(build_parser())
        for parser in (top["bench"], _subparsers(top["sweep"])["run"]):
            assert "wait-5%," in parser.format_help()

    def test_engine_profile_choices_match_engine(self):
        """--engine-profile offers exactly the engine-name table's keys
        (adding a name without exposing it, or exposing one the table
        does not know, both fail here)."""
        from repro.arch import ENGINE_PROFILES

        top = _subparsers(build_parser())
        action = top["bench"]._option_string_actions["--engine-profile"]
        assert tuple(action.choices) == ENGINE_PROFILES


class TestCommands:
    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "5x5" in out

    def test_config_mesh_override(self, capsys):
        assert main(["config", "--mesh", "6x6"]) == 0
        assert "6x6" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "fft", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "oracle" in out and "algorithm-1" in out

    def test_inspect(self, capsys):
        assert main(["inspect", "md", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "md: " in out and "Algorithm1" in out

    def test_bench_subset(self, capsys):
        assert main(["bench", "fft", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out

    def test_bench_unknown_benchmark(self, capsys):
        assert main(["bench", "doom", "--scale", "0.08"]) == 2

    def test_compare_accepts_sparse_benchmark(self, capsys):
        assert main(["compare", "spmv.csr", "--scale", "0.08"]) == 0
        out = capsys.readouterr().out
        assert "spmv.csr" in out and "oracle" in out

    def test_bench_suite_flag(self, capsys):
        assert main([
            "bench", "--suite", "sparse", "--scale", "0.08",
        ]) == 0
        out = capsys.readouterr().out
        assert "hashjoin" in out and "spmv.csr" in out

    def test_compare_schemes_flag_selects_the_cast(self, capsys):
        assert main([
            "compare", "fft", "--scale", "0.08",
            "--schemes", "oracle", "coda", "nmpo",
        ]) == 0
        out = capsys.readouterr().out
        assert "coda" in out and "nmpo" in out and "oracle" in out
        assert "algorithm-1" not in out

    def test_experiments_filtered(self, capsys):
        rc = main([
            "experiments", "--only", "table1", "--scale", "0.08",
            "--benchmarks", "fft",
        ])
        assert rc == 0
        assert "Table 1" in capsys.readouterr().out


class TestSweepCommands:
    def _run(self, tmp_path, capsys):
        rc = main([
            "sweep", "run", "--name", "cli-demo",
            "--benchmarks", "fft", "--schemes", "oracle",
            "--scales", "0.08",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        return capsys.readouterr()

    def test_run_prints_report(self, tmp_path, capsys):
        captured = self._run(tmp_path, capsys)
        assert "oracle" in captured.out
        assert "cli-demo" in captured.err
        assert (tmp_path / "runs" / "cli-demo" / "summary.json").exists()

    def test_status_ls_report_gc(self, tmp_path, capsys):
        self._run(tmp_path, capsys)
        runs = str(tmp_path / "runs")

        assert main(["sweep", "status", "cli-demo",
                     "--runs-dir", runs, "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["status"] == "complete" and blob["done"] == 2

        assert main(["sweep", "ls", "--runs-dir", runs]) == 0
        assert "cli-demo" in capsys.readouterr().out

        assert main(["sweep", "report", "cli-demo",
                     "--runs-dir", runs]) == 0
        assert "oracle" in capsys.readouterr().out

        assert main(["sweep", "gc", "cli-demo", "--runs-dir", runs]) == 0
        assert main(["sweep", "report", "cli-demo",
                     "--runs-dir", runs]) == 2

    def test_worker_attaches_and_finalizes(self, tmp_path, capsys):
        """``sweep worker`` on a finished campaign drains nothing (all
        units terminal) and reports it complete with a warm cache."""
        self._run(tmp_path, capsys)
        rc = main([
            "sweep", "worker", "cli-demo",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "0 simulated" in err and "complete" in err

    def test_worker_unknown_campaign(self, tmp_path, capsys):
        rc = main([
            "sweep", "worker", "nope",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 2

    def test_resume_recomputes_nothing(self, tmp_path, capsys):
        self._run(tmp_path, capsys)
        rc = main([
            "sweep", "resume", "cli-demo",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"), "--stats",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "oracle" in captured.out
        assert "0 simulated" in captured.err

    def test_run_rejects_spec_plus_inline_axes(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text('{"benchmarks": ["fft"]}')
        with pytest.raises(SystemExit):
            main(["sweep", "run", "--spec", str(spec),
                  "--benchmarks", "fft", "--in-memory"])

    def test_run_rejects_spec_plus_suite(self, tmp_path):
        spec = tmp_path / "s.json"
        spec.write_text('{"benchmarks": ["fft"]}')
        with pytest.raises(SystemExit):
            main(["sweep", "run", "--spec", str(spec),
                  "--suite", "sparse", "--in-memory"])

    def test_run_suite_inline_renders_bottleneck_tables(self, tmp_path,
                                                        capsys):
        rc = main([
            "sweep", "run", "--name", "cli-suite",
            "--suite", "sparse", "--schemes", "oracle",
            "--scales", "0.08",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck class per (benchmark, scheme)" in out
        assert "per-class scheme winners" in out
        for bench in ("spmv.csr", "hashjoin", "bfs.frontier"):
            assert bench in out
        summary = json.loads(
            (tmp_path / "runs" / "cli-suite" / "summary.json").read_text()
        )
        group = summary["groups"][0]
        assert set(group["bottlenecks"]) == {
            "spmv.csr", "hashjoin", "bfs.frontier"
        }
        assert group["class_winners"]
        for row in summary["units"]:
            assert "bottleneck" in row

    def test_serve_refuses_a_different_spec_before_binding(
        self, tmp_path, capsys, monkeypatch,
    ):
        """``sweep serve --spec other.json <existing-id>`` exits 2 and
        never constructs the claim server (so never binds a port)."""
        import repro.campaign

        self._run(tmp_path, capsys)
        spec_path = tmp_path / "runs" / "cli-demo" / "spec.json"
        before = spec_path.read_bytes()
        other = tmp_path / "other.json"
        other.write_text('{"benchmarks": ["swim"], "scales": [0.08]}')

        def no_server(*args, **kwargs):
            raise AssertionError("serve bound a claim server")

        monkeypatch.setattr(repro.campaign, "ClaimServer", no_server)
        rc = main([
            "sweep", "serve", "--spec", str(other), "cli-demo",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 2
        assert "different spec" in capsys.readouterr().err
        assert spec_path.read_bytes() == before

    def test_second_run_without_resume_fails_cleanly(self, tmp_path,
                                                     capsys):
        self._run(tmp_path, capsys)
        rc = main([
            "sweep", "run", "--name", "cli-demo",
            "--benchmarks", "fft", "--schemes", "oracle",
            "--scales", "0.08",
            "--runs-dir", str(tmp_path / "runs"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 2
        assert "resume" in capsys.readouterr().err


class TestSingleFrontDoor:
    """Every simulating command is parse -> one ``repro.api`` verb ->
    render: the CLI carries no driver loop of its own, so its output
    is the facade's, byte for byte."""

    SERIAL = ["--jobs", "1", "--no-cache"]

    def test_cli_builds_no_drivers_of_its_own(self):
        import inspect
        from pathlib import Path

        from repro import cli

        source = Path(cli.__file__).read_text()
        for name in ("ExperimentRunner", "Tuner(", "fig4_scheme_benefits",
                     "run_bench", "main_bench"):
            assert name not in source, f"cli.py still uses {name}"
        for fn in (cli._cmd_sweep_run, cli._cmd_sweep_resume,
                   cli._run_campaign, cli._sweep_worker_remote):
            assert "CampaignRunner(" not in inspect.getsource(fn), (
                f"{fn.__name__} constructs a CampaignRunner itself"
            )

    def test_bench_prints_the_facade_lineup(self, capsys):
        from repro import api

        assert main(["bench", "fft", "--scale", "0.08"] + self.SERIAL) == 0
        out = capsys.readouterr().out
        assert out == api.lineup(0.08, ["fft"], cache=False).render() + "\n"

    def test_experiments_prints_the_facade_artifacts(self, capsys):
        from repro import api

        assert main([
            "experiments", "--only", "table1", "fig4",
            "--benchmarks", "fft", "--scale", "0.08",
        ] + self.SERIAL) == 0
        out = capsys.readouterr().out
        expected = api.evaluate(
            ["table1", "fig4"], scale=0.08, benchmarks=["fft"], cache=False,
        )
        assert list(expected) == ["table1", "fig4"]
        assert out == "".join(r.render() + "\n\n" for r in expected.values())

    def test_compare_rows_equal_quick_compare(self, capsys):
        from repro import quick_compare

        assert main(["compare", "fft", "--scale", "0.1"] + self.SERIAL) == 0
        cli_lines = capsys.readouterr().out.splitlines()
        api_lines = quick_compare("fft", 0.1).splitlines()
        # line 0 is the title; the rest is the header + one row a scheme
        assert len(cli_lines) == len(api_lines) == 7
        assert cli_lines[1:] == api_lines[1:]

    def test_compare_traces_every_run_into_one_file(self, tmp_path,
                                                    capsys):
        """The baseline and every scheme run share one runner, so one
        ``--trace-events`` file holds all of their events and
        ``--stats`` counts the baseline's in-memory reuse."""
        trace = tmp_path / "t.jsonl"
        assert main([
            "compare", "fft", "--scale", "0.08", "--stats",
            "--trace-events", str(trace),
        ] + self.SERIAL) == 0
        jobs = {json.loads(line)["job"]
                for line in trace.read_text().splitlines()}
        assert jobs == {
            "fft/original/original", "fft/original/wait-forever",
            "fft/original/oracle", "fft/alg1/compiler", "fft/alg2/compiler",
        }
        assert "cache: 4 memory hits" in capsys.readouterr().err


#: A stand-in perf report: what ``render_report`` reads, nothing timed.
FAKE_PERF_REPORT = {
    "schema": 2,
    "smoke": True,
    "engine": {
        "ops": 10, "resource_timeline_s": 0.001,
        "capacity_timeline_optimized_s": 0.001,
        "capacity_timeline_reference_s": 0.002,
        "capacity_timeline_speedup": 2.0,
    },
    "single_sim": {
        "benchmark": "fft", "scheme": "algorithm-2", "scale": 0.05,
        "reference_s": 0.2, "vectorized_s": 0.1, "speedup": 2.0,
    },
    "lineup": {
        "benchmark": "fft", "schemes": 9, "scale": 0.05,
        "reference_s": 0.3, "vectorized_s": 0.1,
        "vectorized_speedup": 3.0,
    },
    "meta": {},
}


class TestBenchPerf:
    """``repro bench --perf/--smoke`` over ``api.bench``, with the
    microbenchmarks stubbed out."""

    @pytest.fixture
    def fake_bench(self, monkeypatch):
        import copy

        from repro.bench import microbench

        calls = []

        def run_bench(**kwargs):
            calls.append(kwargs)
            return copy.deepcopy(FAKE_PERF_REPORT)

        monkeypatch.delenv("REPRO_BENCH_SKIP", raising=False)
        monkeypatch.setattr(microbench, "run_bench", run_bench)
        return calls

    def test_skip_env_runs_nothing(self, fake_bench, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_BENCH_SKIP", "1")
        assert main(["bench", "--smoke", "--baseline", "BENCH.json"]) == 0
        assert fake_bench == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "REPRO_BENCH_SKIP=1" in captured.err

    def test_missing_baseline_skips_the_gate(self, fake_bench, tmp_path,
                                             capsys):
        missing = tmp_path / "nope.json"
        out = tmp_path / "report.json"
        assert main(["bench", "--smoke", "--baseline", str(missing),
                     "--out", str(out)]) == 0
        assert len(fake_bench) == 1 and fake_bench[0]["smoke"] is True
        captured = capsys.readouterr()
        assert captured.out.startswith("engine microbenchmarks (smoke):")
        assert f"no baseline at {missing}; gate skipped" in captured.err
        assert json.loads(out.read_text()) == FAKE_PERF_REPORT

    def test_gate_messages_and_exit_code(self, fake_bench, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        slower = json.loads(json.dumps(FAKE_PERF_REPORT))
        baseline.write_text(json.dumps(slower))
        assert main(["bench", "--perf", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "single_sim.speedup: current 2.00x" in out and "OK" in out
        faster = json.loads(json.dumps(FAKE_PERF_REPORT))
        faster["single_sim"]["speedup"] = 9.0
        baseline.write_text(json.dumps(faster))
        assert main(["bench", "--perf", "--baseline", str(baseline),
                     "--max-slowdown", "10"]) == 1
        assert "REGRESSION" in capsys.readouterr().out
