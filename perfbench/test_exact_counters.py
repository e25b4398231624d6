"""Traced counts repeat exactly across two traced runs of one seed.

    python3 -m pytest -q perfbench/test_exact_counters.py

Later changes may cite these metrics as counts: every `*_calls` counter and
both `prime_yield` ratios.  Each workload is traced twice, so this takes a
few minutes.
"""

import pytest

import run
from workloads import WORKLOADS


def exact_metrics(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith("_calls") or name.endswith(".calls") or name.endswith("prime_yield")
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (
        run.run_workload(workload, 1, 0, True, run.WORK / f"counters-{i}") for i in (0, 1)
    )
    assert first["correct"] and second["correct"]
    counts = exact_metrics(first)
    assert "graded_spectrum.prime_yield" in counts and "tt_geometry.prime_yield" in counts
    assert counts == exact_metrics(second)
