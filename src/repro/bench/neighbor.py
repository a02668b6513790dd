"""Wall-clock neighbor-subsystem benchmark: the shared-BinGrid build pipeline.

The neighbor overhaul (shared :class:`~repro.core.bin_grid.BinGrid`,
half-stencil builds, skin-amortized multi-cutoff lists, spatial atom
sorting) targets the cost that dominates once force kernels are fast
(paper section 4.1).  This module measures what it actually buys, in
wall-clock seconds, and records the numbers to ``BENCH_neighbor.json``:

* ``rebuild`` — one isolated ``build_neighbor_list`` call on the melt
  configuration, on frozen coordinates.
* ``step`` — end-to-end ``run()`` wall clock per step, so regressions
  anywhere in the rebuild pipeline (sorting, grid assembly, bond-list
  caching) show up in the regression sentinel.
* ``grid_builds_per_rebuild`` — on the ReaxFF HNS workload, the number of
  :class:`BinGrid` assemblies per neighbor rebuild.  Exactly 1.0 means the
  pair list *and* the bond-search list shared one grid; the pre-overhaul
  pipeline re-binned for the bond list every force call.

The ``<name>_seconds`` point estimates are best-of-``repeats`` (robust
against scheduler noise on shared CI runners); sibling ``<name>_stats``
blocks record min/median/stdev/repeats for the regression sentinel's noise
band (:mod:`repro.bench.stats`).  Every sample runs on a fresh,
identically-seeded engine.  Measurements sit under the ``shared`` mode
key, which the committed baselines use.
"""

from __future__ import annotations

import json
import time

import repro.potentials  # noqa: F401  (register pair styles)
import repro.reaxff  # noqa: F401
import repro.snap  # noqa: F401
from repro.bench.hotpath import _record
from repro.bench.registry import register_bench
from repro.bench.stats import SCHEMA_VERSION, validate_bench
from repro.core import Lammps
from repro.core.bin_grid import BinGrid
from repro.core.neighbor import build_neighbor_list
from repro.workloads.hns import setup_hns
from repro.workloads.melt import setup_melt
from repro.workloads.tantalum import setup_tantalum

#: default output file (repo-root relative when run from the checkout)
DEFAULT_OUT = "BENCH_neighbor.json"

#: every workload row carries these keys — the schema guard in the test
#: suite pins them so downstream tooling can rely on the file shape
ROW_KEYS = ("workload", "pair_style", "natoms", "step_seconds")

#: mode key of every ``<name>_seconds`` / ``<name>_stats`` block
MODE = "shared"


def _fresh(workload: str) -> Lammps:
    """A ready-to-run engine for one workload (fixed seeds throughout)."""
    lmp = Lammps(quiet=True)
    if workload == "melt":
        setup_melt(lmp, cells=8, pair_style="lj/cut")
    elif workload == "hns":
        # the production 10 A taper exceeds the small test box; 5 A keeps
        # cutghost inside the domain while exercising the full pipeline
        setup_hns(lmp, pair_style="reaxff cutoff 5.0")
    elif workload == "tantalum":
        setup_tantalum(lmp, cells=3, pair_style="snap", twojmax=8)
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown workload {workload!r}")
    lmp.run(0)
    return lmp


def _step_samples(workload: str, nsteps: int, repeats: int) -> list[float]:
    """Per-step wall-second samples for ``nsteps`` dynamics."""
    samples = []
    for _ in range(repeats):
        lmp = _fresh(workload)
        lmp.run(2)  # warmup: JIT-less but primes allocators/caches
        t0 = time.perf_counter()
        lmp.run(nsteps)
        samples.append((time.perf_counter() - t0) / nsteps)
    return samples


def bench_melt(repeats: int = 5, nsteps: int = 20) -> dict:
    """Melt row: isolated rebuild wall clock + steps."""
    lmp = _fresh("melt")
    atom = lmp.atom
    x = atom.x[: atom.nall].copy()  # frozen coordinates: identical work
    nlocal = atom.nlocal
    cutghost = lmp.pair.max_cutoff() + lmp.neighbor.skin
    style, newton = lmp.pair.neighbor_request()

    out: dict = {
        "workload": "melt",
        "pair_style": "lj/cut",
        "natoms": int(lmp.natoms_total),
        "pairs": int(lmp.neigh_list.total_pairs),
        "repeats": repeats,
    }
    build_neighbor_list(x, nlocal, cutghost, style=style, newton=newton)  # warm
    rebuild = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        build_neighbor_list(x, nlocal, cutghost, style=style, newton=newton)
        rebuild.append(time.perf_counter() - t0)
    _record(out, "rebuild", MODE, rebuild)
    _record(out, "step", MODE, _step_samples("melt", nsteps, 2))
    return out


def bench_hns(nsteps: int = 12) -> dict:
    """ReaxFF HNS row: end-to-end steps + the one-grid-per-rebuild counter.

    ``neigh_modify every 10 check no`` means a 12-step run performs a known
    handful of rebuilds; the :class:`BinGrid` construction counter across
    the run divided by the rebuild count is the shared-grid assertion.
    """
    out: dict = {
        "workload": "hns",
        "pair_style": "reaxff",
    }
    _record(out, "step", MODE, _step_samples("hns", nsteps, 2))
    lmp = _fresh("hns")
    builds0 = lmp.neighbor.builds
    grids0 = BinGrid.builds_total
    lmp.run(nsteps)
    rebuilds = lmp.neighbor.builds - builds0
    grids = BinGrid.builds_total - grids0
    out["natoms"] = int(lmp.natoms_total)
    out["steps"] = nsteps
    out["rebuilds"] = int(rebuilds)
    out["grid_builds_per_rebuild"] = grids / max(rebuilds, 1)
    return out


def bench_tantalum(nsteps: int = 3, repeats: int = 3) -> dict:
    """SNAP/Ta row: the expensive-force regime, where neighbor cost is a
    sliver of the step."""
    out: dict = {
        "workload": "tantalum",
        "pair_style": "snap",
    }
    _record(out, "step", MODE, _step_samples("tantalum", nsteps, repeats))
    lmp = _fresh("tantalum")
    out["natoms"] = int(lmp.natoms_total)
    out["steps"] = nsteps
    return out


def validate_neighbor_bench(results: dict) -> None:
    """Raise ``ValueError`` unless ``results`` matches the published schema.

    CI runs this on the freshly-written ``BENCH_neighbor.json``; the test
    suite runs it on the checked-in copy, so schema drift is caught on both
    ends before downstream tooling sees it.
    """
    for key in ("benchmark", "units", "workloads"):
        if key not in results:
            raise ValueError(f"neighbor bench JSON missing top-level {key!r}")
    if results["benchmark"] != "neighbor":
        raise ValueError(f"unexpected benchmark id {results['benchmark']!r}")
    names = []
    for row in results["workloads"]:
        for key in ROW_KEYS:
            if key not in row:
                raise ValueError(
                    f"workload row {row.get('workload', '?')!r} missing {key!r}"
                )
        if MODE not in row["step_seconds"]:
            raise ValueError(
                f"workload {row['workload']!r} missing {MODE} step timing"
            )
        names.append(row["workload"])
    for required in ("melt", "hns", "tantalum"):
        if required not in names:
            raise ValueError(f"neighbor bench missing workload {required!r}")
    melt = results["workloads"][names.index("melt")]
    if "rebuild_seconds" not in melt:
        raise ValueError("melt row missing 'rebuild_seconds'")
    hns = results["workloads"][names.index("hns")]
    if "grid_builds_per_rebuild" not in hns:
        raise ValueError("hns row missing 'grid_builds_per_rebuild'")


@register_bench("neighbor")
def run_neighbor_bench(
    *,
    melt_repeats: int = 5,
    out_path: str | None = DEFAULT_OUT,
    quiet: bool = False,
) -> dict:
    """Run all workloads, optionally write ``BENCH_neighbor.json``."""
    results = {
        "benchmark": "neighbor",
        "units": "seconds (best-of-repeats wall clock)",
        "schema_version": SCHEMA_VERSION,
        "workloads": [
            bench_melt(repeats=melt_repeats),
            bench_hns(),
            bench_tantalum(),
        ],
    }
    validate_neighbor_bench(results)
    validate_bench(results)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(results, fh, indent=2)
            fh.write("\n")
    if not quiet:
        print(format_neighbor_report(results))
    return results


def format_neighbor_report(results: dict) -> str:
    lines = ["neighbor wall clock: shared bin grid"]
    for row in results["workloads"]:
        lines.append(
            f"  {row['workload']:<9} natoms={row['natoms']:<6} "
            f"step {row['step_seconds'][MODE] * 1e3:8.3f} ms"
        )
        if "rebuild_seconds" in row:
            lines.append(
                f"  {'':<9} isolated rebuild "
                f"{row['rebuild_seconds'][MODE] * 1e3:8.3f} ms"
            )
        if "grid_builds_per_rebuild" in row:
            lines.append(
                f"  {'':<9} bin-grid builds per rebuild = "
                f"{row['grid_builds_per_rebuild']:.2f} "
                f"(over {row['rebuilds']} rebuilds)"
            )
    return "\n".join(lines)
