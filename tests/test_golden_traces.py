"""Golden regression test for the lowered traces themselves.

Pins the content hash (``schemes._trace_digest``, the nmpo warm-up
cache address) of every registered benchmark's trace at scale 0.1
under each compilation variant.  The digest covers every op field in
emission order, so it catches a reordering that leaves cycle counts
and headline numbers unchanged, as well as any change in content.

Re-baseline (after an *intentional* change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and commit the regenerated JSON alongside the change that explains it.
"""

import json
import os
from pathlib import Path

import pytest

from repro.schemes import _trace_digest
from repro.workloads import FAMILIES, tracegen

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_digests.json"
REGEN_ENV = "REPRO_REGEN_GOLDEN"

SCALE = 0.1
VARIANTS = ("original", "alg1", "alg2", "coda", "layout_alg1")


def compute_digests() -> dict:
    """``{"<benchmark>/<variant>": digest}`` for every family member."""
    tracegen.clear_cache()
    try:
        return {
            f"{name}/{variant}": _trace_digest(
                tracegen.compiled_trace(name, variant, SCALE)[0]
            )
            for names in FAMILIES.values()
            for name in names
            for variant in VARIANTS
        }
    finally:
        tracegen.clear_cache()


def test_trace_digests_match_golden():
    digests = compute_digests()
    if os.environ.get(REGEN_ENV):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(
                {"scale": SCALE, "digests": digests}, indent=2, sort_keys=True
            ) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["scale"] == SCALE
    assert len(digests) == 26 * len(VARIANTS)
    assert sorted(digests) == sorted(golden["digests"])
    drifted = sorted(k for k, v in digests.items() if golden["digests"][k] != v)
    assert not drifted, f"lowered traces changed: {drifted}"
