"""Wall-clock neighbor subsystem: the shared-BinGrid build pipeline.

Real seconds, not modeled silicon: the isolated melt rebuild and the
end-to-end step time of melt, HNS and tantalum are recorded for the
regression sentinel, and ReaxFF HNS steps must perform exactly one
bin-grid assembly per neighbor rebuild.  Results land in
``BENCH_neighbor.json`` at the repo root so each PR extends the recorded
performance trajectory.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from conftest import emit

from repro.bench.neighbor import (
    format_neighbor_report,
    run_neighbor_bench,
    validate_neighbor_bench,
)
from repro.bench.stats import SCHEMA_VERSION, validate_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_neighbor.json"


@pytest.fixture(scope="module")
def neighbor_bench():
    return run_neighbor_bench(out_path=str(BENCH_JSON), quiet=True)


def row(results: dict, workload: str) -> dict:
    return next(w for w in results["workloads"] if w["workload"] == workload)


def test_one_bin_grid_per_rebuild(neighbor_bench):
    """HNS: the pair list and the ReaxFF bond list share one grid."""
    hns = row(neighbor_bench, "hns")
    assert hns["rebuilds"] >= 1
    assert hns["grid_builds_per_rebuild"] == 1.0, (
        f"{hns['grid_builds_per_rebuild']:.2f} bin-grid builds per rebuild; "
        "a value above 1.0 means some list re-binned instead of sharing"
    )


def test_bench_json_recorded(neighbor_bench):
    """BENCH_neighbor.json exists and matches the published schema."""
    assert BENCH_JSON.exists()
    validate_neighbor_bench(neighbor_bench)
    emit(format_neighbor_report(neighbor_bench))


def test_bench_json_repeat_stats(neighbor_bench):
    """Schema v2: every measurement carries min/median/stdev/repeats."""
    assert neighbor_bench["schema_version"] == SCHEMA_VERSION
    validate_bench(neighbor_bench)
    melt = row(neighbor_bench, "melt")
    for name in ("rebuild", "step"):
        block = melt[f"{name}_stats"]["shared"]
        assert block["median"] >= block["min"] > 0
        assert block["stdev"] >= 0
