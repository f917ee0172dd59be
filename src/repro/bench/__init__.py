"""Performance microbenchmarks (``repro bench --perf`` / ``--smoke``).

The repo's perf baseline: engine-only, single-simulation, and
full-Fig.-4-lineup timings, each measured on both engines (the fast
engine vs ``reference``).  Results are written as JSON
(``BENCH_engine.json`` at the repo root is the committed baseline) and
the CI gate compares a fresh run against it.

Wall-clock seconds are machine-dependent; the *speedup ratio*
(reference time / fast time, measured back-to-back on the same
machine) is not.  The regression gate therefore compares ratios, which
is what makes a committed baseline meaningful on heterogeneous CI
runners.  ``REPRO_BENCH_SKIP=1`` skips the gate entirely.
"""

from repro.bench.microbench import (
    BASELINE_FILENAME,
    compare_to_baseline,
    render_report,
    run_bench,
)

__all__ = [
    "BASELINE_FILENAME",
    "compare_to_baseline",
    "render_report",
    "run_bench",
]
